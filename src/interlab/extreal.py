"""Extended real scalars with the two extended additions.

The extended real line R ∪ {-inf, +inf} carries two additions that differ
only on the pair (+inf, -inf): the *lower* addition, for which -inf is
absorbing, and the *upper* addition, for which +inf is absorbing.  Scalar
multiplication follows the optimization convention 0 * (±inf) = 0.

Finite scalars are exact under the default "rational" backing: an integral
value is stored as an ``int`` and any other as a ``fractions.Fraction``
(the two hash, compare and serialize alike, and no code divides two
scalars, so integer arithmetic stays native).  A global flag (or the
INTERLAB_BACKING environment variable) switches to plain floats.  Floats
entering under rational backing are read with decimal semantics, so 0.7
becomes exactly 7/10.  NaN is rejected at construction and can never
appear inside arithmetic.

ExtReal is totally ordered with -inf < finite < +inf, so the builtin
``min``/``max`` are the lattice operations on it.  An infinity stores the
float infinity of its sign as its raw scalar, so the raw scalars alone
carry that order; the per-atom kernels at the end of this module
(``weighted_parts``, ``pointwise_min``) work on them directly.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .errors import DomainError, InputError

Scalar = Union[int, Fraction, float]

_VALID_BACKINGS = ("rational", "float")
_backing = os.environ.get("INTERLAB_BACKING", "rational")
if _backing not in _VALID_BACKINGS:
    _backing = "rational"


def set_backing(kind: str) -> None:
    """Select the scalar backing, ``"rational"`` (exact) or ``"float"``."""
    global _backing
    if kind not in _VALID_BACKINGS:
        raise InputError(f"unknown backing {kind!r}; expected one of {_VALID_BACKINGS}")
    _backing = kind


def get_backing() -> str:
    return _backing


def as_scalar(x: Scalar) -> Scalar:
    """Coerce a finite number to the active backing.

    Rational backing keeps integral values as ``int`` and reads floats via
    their shortest decimal repr, which keeps values like 0.7 exact and
    makes JSON round trips deterministic.
    """
    if isinstance(x, float):
        if math.isnan(x):
            raise InputError("NaN is not a valid scalar")
        if math.isinf(x):
            raise InputError("infinite scalars must be built as ExtReal infinities")
        return _exact(Fraction(Decimal(repr(x)))) if _backing == "rational" else x
    if isinstance(x, (int, Fraction)):
        if _backing != "rational":
            return _float(x)
        if type(x) is int:
            return x
        return _exact(x) if isinstance(x, Fraction) else int(x)
    if isinstance(x, str):
        try:
            frac = Fraction(x) if "/" in x else Fraction(Decimal(x))
        except (ValueError, ArithmeticError) as e:
            raise InputError(f"cannot interpret {x!r} as a scalar") from e
        return _exact(frac) if _backing == "rational" else _float(frac)
    raise InputError(f"cannot interpret {x!r} as a scalar")


def _float(q: Union[int, Fraction]) -> float:
    """The float backing's form of an exact value."""
    try:
        return float(q)
    except OverflowError:
        raise InputError("a finite scalar beyond the float range cannot be a float") from None


def _exact(q: Fraction) -> Scalar:
    """The rational backing's form of q: an int when integral."""
    return q.numerator if q.denominator == 1 else q


# Internal kind codes of -inf, finite values and +inf.
_NEG, _FIN, _POS = -1, 0, 1


class ExtReal:
    """An immutable extended real: a finite scalar, +inf, or -inf."""

    __slots__ = ("_kind", "_value")

    def __init__(self, value: Scalar):
        self._kind = _FIN
        self._value = as_scalar(value)

    @classmethod
    def _make(cls, kind: int) -> "ExtReal":
        obj = object.__new__(cls)
        obj._kind = kind
        obj._value = math.inf if kind == _POS else -math.inf
        return obj

    @property
    def is_finite(self) -> bool:
        return self._kind == _FIN

    @property
    def is_pos_inf(self) -> bool:
        return self._kind == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self._kind == _NEG

    @property
    def finite_value(self) -> Scalar:
        if self._kind != _FIN:
            raise DomainError(f"{self} has no finite value")
        return self._value

    # The raw scalars order the extended reals (an infinity holds the float
    # infinity of its sign), so every comparison is one native comparison.
    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash((self._kind, self._value))

    def __lt__(self, other: "ExtReal") -> bool:
        return self._value < other._value

    def __le__(self, other: "ExtReal") -> bool:
        return self._value <= other._value

    def __gt__(self, other: "ExtReal") -> bool:
        return self._value > other._value

    def __ge__(self, other: "ExtReal") -> bool:
        return self._value >= other._value

    def __neg__(self) -> "ExtReal":
        if self._kind == _FIN:
            return ExtReal(-self._value)
        return NEG_INF if self._kind == _POS else POS_INF

    def __float__(self) -> float:
        return float(self._value)

    def __repr__(self) -> str:
        if self._kind == _POS:
            return "+inf"
        if self._kind == _NEG:
            return "-inf"
        return str(self._value)


POS_INF = ExtReal._make(_POS)
NEG_INF = ExtReal._make(_NEG)
ZERO = ExtReal(0)


def ext(x) -> ExtReal:
    """Build an ExtReal from an ExtReal, a finite number, or "+inf"/"-inf"."""
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, str):
        if x in ("+inf", "inf"):
            return POS_INF
        if x == "-inf":
            return NEG_INF
        if "/" in x:
            return ExtReal(Fraction(x))
        return ExtReal(Fraction(Decimal(x)) if _backing == "rational" else float(x))
    if isinstance(x, float) and math.isinf(x):
        return POS_INF if x > 0 else NEG_INF
    return ExtReal(x)


def lower_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Extended addition for which -inf is absorbing."""
    if a._kind == _FIN and b._kind == _FIN:
        return ExtReal(a._value + b._value)
    if a._kind == _NEG or b._kind == _NEG:
        return NEG_INF
    return POS_INF


def upper_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Extended addition for which +inf is absorbing."""
    if a._kind == _FIN and b._kind == _FIN:
        return ExtReal(a._value + b._value)
    if a._kind == _POS or b._kind == _POS:
        return POS_INF
    return NEG_INF


def add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Plain extended addition, defined only when not (+inf) + (-inf)."""
    if a._kind == -b._kind and a._kind != _FIN:
        raise DomainError("(+inf) + (-inf) is undefined for the plain addition")
    return lower_add(a, b)


def scalar_mul(lam: Scalar, a: ExtReal) -> ExtReal:
    """Multiply by a finite scalar; 0 * (±inf) = 0."""
    lam = as_scalar(lam)
    if a._kind == _FIN:
        return ExtReal(lam * a._value)
    if lam == 0:
        return ZERO
    if lam > 0:
        return a
    return -a


def neg(a: ExtReal) -> ExtReal:
    return -a


def pos_part(a: ExtReal) -> ExtReal:
    """max(0, a); always nonnegative."""
    return a if a > ZERO else ZERO


def neg_part(a: ExtReal) -> ExtReal:
    """max(0, -a); always nonnegative."""
    return -a if a < ZERO else ZERO


def abs_value(a: ExtReal) -> ExtReal:
    return -a if a < ZERO else a


def scalar_to_jsonable(x: Scalar):
    """Encode a finite scalar so that decoding reproduces it exactly.

    Values whose float repr round-trips are emitted as JSON numbers;
    anything else (e.g. 1/3 under rational backing) becomes a "p/q" string.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        f = float(x)
        if not math.isinf(f) and Fraction(Decimal(repr(f))) == x:
            return f
        return f"{x.numerator}/{x.denominator}"
    return x


def to_jsonable(a: ExtReal):
    """Encode an ExtReal as a JSON number, "p/q", "+inf", or "-inf"."""
    if a._kind == _POS:
        return "+inf"
    if a._kind == _NEG:
        return "-inf"
    return scalar_to_jsonable(a._value)


def from_jsonable(v) -> ExtReal:
    """Decode the output of :func:`to_jsonable` (also accepts plain numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputError(f"cannot decode {v!r} as an extended real")
    return ext(v)


# Per-atom kernels.  They read the raw scalars of ExtReal values and build
# one ExtReal per result, instead of one per atom and operation.


def weighted_parts(weights: Sequence[Scalar],
                   values: Sequence[ExtReal]) -> Tuple[ExtReal, ExtReal]:
    """(sum of w * v over v > 0, sum of w * (-v) over v < 0), both in [0, +inf].

    Zero values are skipped and finite terms are added in atom order, so
    float rounding is that of the term-by-term ``lower_add`` fold of
    ``scalar_mul(w, v)``.  An infinite value on an atom of positive weight
    makes its part +inf; on a null atom it contributes 0 * inf = 0.  Under
    float backing a finite part beyond the float range raises InputError,
    as building the ExtReal does; a part that is +inf anyway does not.
    """
    plus = minus = 0
    plus_inf = minus_inf = False
    for w, v in zip(weights, values):
        x = v._value
        if x > 0:
            if v._kind == _FIN:
                plus += w * x
            elif w:
                plus_inf = True
        elif x < 0:
            if v._kind == _FIN:
                minus -= w * x
            elif w:
                minus_inf = True
    return (POS_INF if plus_inf else ExtReal(plus),
            POS_INF if minus_inf else ExtReal(minus))


def pointwise_min(rows: Sequence[Tuple[ExtReal, ...]]) -> Tuple[ExtReal, ...]:
    """Position-wise minimum of equally long ExtReal tuples.

    Each position keeps the first minimal entry, as ``min`` does.
    """
    acc = rows[0]
    for row in rows[1:]:
        acc = [y if y._value < x._value else x for x, y in zip(acc, row)]
    return tuple(acc)
