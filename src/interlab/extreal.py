"""Extended real scalars with the two extended additions.

The extended real line R ∪ {-inf, +inf} carries two additions that differ
only on the pair (+inf, -inf): the *lower* addition, for which -inf is
absorbing, and the *upper* addition, for which +inf is absorbing.  Scalar
multiplication follows the optimization convention 0 * (±inf) = 0.

An extended real is a plain Python number.  The infinities are the floats
``math.inf`` and ``-math.inf`` (``POS_INF`` / ``NEG_INF``).  Finite scalars
are exact under the default "rational" backing: an integral value is an
``int`` and any other a ``fractions.Fraction`` (the two hash, compare and
serialize alike, and no code divides two scalars, so integer arithmetic
stays native).  Under the "float" backing finite scalars are floats.  The
backing belongs to a measure space (``MeasureSpace.backing``): every value
entering a space, or a function, capacity, integrand or tolerance on it,
is coerced with that space's backing.  Python orders all of these with
each other, so ``<``, ``min``, ``max``, ``-x`` and ``abs(x)`` are the
lattice operations, negation and absolute value of the extended reals.

``ext`` and ``as_scalar`` are the one coercion at the input boundary: floats
entering under rational backing are read with decimal semantics, so 0.7
becomes exactly 7/10, and NaN, booleans and unparseable strings are
rejected.  The additions and ``scalar_mul`` do not coerce: a finite result
keeps its operands' form (an integral Fraction becomes an int), and a float
result beyond the float range raises ``InputError`` instead of becoming an
infinity.

The per-atom kernel ``weighted_parts`` may add exact terms in any order,
since rational addition is associative and commutative: it sums int terms
as ints and Fraction terms per denominator, and reduces each part once.
Float addition rounds at every step, so float terms keep the atom order
that defines the integrals' float results.

Every exact sum in the package is an integer numerator over a positive
denominator that ends in the one reduction ``_reduced(num, den)``: an int
when integral, else a Fraction.  ``common_numerators`` alone puts exact
values over a common denominator, as ints that order like them (the rank
keys of the directedness scan, a table capacity's values and the level
keys of a Choquet integral), and ``exact_numerators`` scales them by
weights into the codes of terms w * x; ``exact_codes`` makes their
infinities ints too, whose sums carry the finite numerator and the counts
of +inf and -inf terms (the scan's rank tables and the selection fold of
``decomposable``);
``parts_value`` gives each integral from a finite sum and the two counts,
which is what ``integrals.RunningParts`` keeps.
"""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, InputError

Scalar = Union[int, Fraction, float]

POS_INF = math.inf
NEG_INF = -math.inf

BACKINGS = ("rational", "float")


def as_scalar(x, backing: str = "rational") -> Scalar:
    """Coerce a finite number, or a decimal or "p/q" string, to ``backing``.

    Rational backing keeps integral values as ``int`` and reads floats via
    their shortest decimal repr, which keeps values like 0.7 exact and
    makes JSON round trips deterministic.
    """
    if isinstance(x, float):
        if math.isnan(x):
            raise InputError("NaN is not a valid scalar")
        if math.isinf(x):
            raise InputError(f"expected a finite scalar, got {to_text(x)}")
        return _kept(Fraction(Decimal(repr(x)))) if backing == "rational" else x
    if type(x) is int or isinstance(x, Fraction):
        if backing != "rational":
            return _float(x)
        return x if type(x) is int else _kept(x if type(x) is Fraction else Fraction(x))
    if isinstance(x, str):
        try:
            frac = Fraction(x) if "/" in x else _decimal_fraction(Decimal(x))
        except (ValueError, ArithmeticError) as e:
            raise InputError(f"cannot interpret {x!r} as a scalar") from e
        if frac is None:
            raise InputError(f"cannot interpret {x!r:.40} as a scalar: its numerator or "
                             f"denominator has more than {MAX_DIGITS} digits")
        return _kept(frac) if backing == "rational" else _float(frac)
    raise InputError(f"cannot interpret {x!r} as a scalar")


# The longest numerator or denominator a decimal string may have: CPython's
# default limit on converting an int to a string, so every value read can be
# printed.  Larger decimals are rejected before the big ints are built (a
# billion-digit ``"1e999999999"`` would take hours).
MAX_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_DIGITS
_LOG10_2 = math.log10(2)


def _decimal_fraction(d: Decimal) -> Optional[Fraction]:
    """``Fraction(d)``, or None when its numerator or denominator in lowest
    terms has more than ``MAX_DIGITS`` digits.

    With c the digits of d less its trailing zeros and e its exponent, d is
    c * 10^e.  For e >= 0 that integer has len(c) + e digits.  For e < 0,
    c has no factor 10, so c / 10^-e reduces by a power of 2 or of 5 alone:
    the denominator keeps at least 2^-e, and the numerator at least
    c / 10^-e.  Beyond those bounds d is rejected unbuilt; within them the
    ints have at most about 18600 digits, and the reduced ratio is measured.
    A NaN or an infinity raises ValueError or OverflowError, as Fraction does.
    """
    _, digits, exp = d.as_tuple()
    if not d.is_finite() or d.is_zero():
        return Fraction(d)
    size = len(digits)
    while digits[size - 1] == 0:
        size -= 1
    exp += len(digits) - size
    if exp >= 0:
        if size + exp > MAX_DIGITS:
            return None
    elif -exp * _LOG10_2 >= MAX_DIGITS or size - 1 + exp >= MAX_DIGITS:
        return None
    frac = Fraction(d)
    if abs(frac.numerator) >= _DIGITS_BOUND or frac.denominator >= _DIGITS_BOUND:
        return None
    return frac


def _float(q: Union[int, Fraction]) -> float:
    """The float backing's form of an exact value."""
    try:
        return float(q)
    except OverflowError:
        raise InputError("a finite scalar beyond the float range cannot be a float") from None


def ext(x, backing: str = "rational") -> Scalar:
    """An extended real in ``backing`` from a finite number, an infinite
    float, or a string: "+inf", "inf", "-inf", a decimal or "p/q"."""
    if isinstance(x, str):
        if x in ("+inf", "inf"):
            return POS_INF
        if x == "-inf":
            return NEG_INF
    elif isinstance(x, float) and math.isinf(x):
        return POS_INF if x > 0 else NEG_INF
    return as_scalar(x, backing)


def coerce_all(values: Iterable, backing: str = "rational", finite: bool = False) -> List[Scalar]:
    """``[ext(v, backing) for v in values]``, or ``as_scalar`` when
    ``finite``, parsing each distinct string once.

    A string met again gets the scalar built the first time, equal in value
    and type (scalars are immutable); an error is raised where the
    per-value coercion raises it, with its text.  Only strings are
    remembered, never floats (-0.0 equals 0.0) or bools (True equals 1),
    and only for this call.  Under rational backing an int is its own
    scalar.
    """
    convert = as_scalar if finite else ext
    exact = backing == "rational"
    parsed: Dict[str, Scalar] = {}
    out = []
    for v in values:
        t = type(v)
        if t is str:
            x = parsed.get(v)
            if x is None:
                x = parsed[v] = convert(v, backing)
        elif t is int and exact:
            x = v
        else:
            x = convert(v, backing)
        out.append(x)
    return out


# Only floats can be infinite, and under rational backing only the
# infinities are floats, so the operations below test ``type(x) is float``
# before comparing x with an infinity: that spares a finite Fraction the
# slow comparison with a float.


def _kept(s: Scalar) -> Scalar:
    """A finite sum or product in its operands' form: an int when an exact
    value is integral; a float beyond the float range raises InputError."""
    if type(s) is Fraction:
        return s.numerator if s.denominator == 1 else s
    if type(s) is float and (s == POS_INF or s == NEG_INF):
        raise InputError(f"expected a finite scalar, got {to_text(s)}")
    return s


def lower_add(a: Scalar, b: Scalar) -> Scalar:
    """Extended addition for which -inf is absorbing."""
    if type(a) is float or type(b) is float:
        if a == NEG_INF or b == NEG_INF:
            return NEG_INF
        if a == POS_INF or b == POS_INF:
            return POS_INF
    return _kept(a + b)


def upper_add(a: Scalar, b: Scalar) -> Scalar:
    """Extended addition for which +inf is absorbing."""
    if type(a) is float or type(b) is float:
        if a == POS_INF or b == POS_INF:
            return POS_INF
        if a == NEG_INF or b == NEG_INF:
            return NEG_INF
    return _kept(a + b)


def add(a: Scalar, b: Scalar) -> Scalar:
    """Plain extended addition, defined only when not (+inf) + (-inf)."""
    if type(a) is float and abs(a) == POS_INF and a == -b:
        raise DomainError("(+inf) + (-inf) is undefined for the plain addition")
    return lower_add(a, b)


def _eq_within(a: Scalar, b: Scalar, tol: Scalar) -> bool:
    """a = b within the tolerance ``tol`` >= 0 when both are finite, else a == b.

    Two exact operands (ints and Fractions) are finite and compare
    directly: a == b, or |a - b| <= tol when tol > 0, so a Fraction meets
    no comparison with an infinity.  Any other pair, floats under float
    backing or an infinity, keeps the extended-real test, where a
    difference beyond the float range raises ``InputError``.
    """
    if type(a) is float or type(b) is float:
        if NEG_INF < a < POS_INF and NEG_INF < b < POS_INF:
            return abs(lower_add(a, -b)) <= tol
        return a == b
    return a == b or (tol > 0 and abs(a - b) <= tol)


def _leq_within(a: Scalar, b: Scalar, tol: Scalar) -> bool:
    """a <= b, or a = b within ``tol`` (``_eq_within``)."""
    if type(a) is float or type(b) is float:
        return a <= b or _eq_within(a, b, tol)
    return a <= b or (tol > 0 and a - b <= tol)


def scalar_mul(lam: Scalar, a: Scalar) -> Scalar:
    """Multiply by a finite scalar; 0 * (±inf) = 0, returned as ``lam``."""
    if type(a) is not float or NEG_INF < a < POS_INF:
        return _kept(lam * a)
    if lam == 0:
        return lam
    return a if lam > 0 else -a


def to_text(a: Scalar) -> str:
    """``a`` as messages print it: "+inf", "-inf" or the finite scalar.

    A value whose digits exceed the int-string limit raises ``DomainError``.
    """
    try:
        return "+inf" if a == POS_INF else str(a)
    except ValueError as e:  # from int.__str__
        raise too_long_to_print(e) from None


def to_jsonable(a: Scalar):
    """Encode an extended real so that ``ext`` decodes it exactly.

    Infinities become "+inf" / "-inf".  Finite values whose float repr
    round-trips are emitted as JSON numbers; anything else (e.g. 1/3, or a
    value beyond the float range, under rational backing) becomes a "p/q"
    string.
    """
    if isinstance(a, Fraction):
        if a.denominator == 1:
            return a.numerator
        try:
            f = float(a)
        except OverflowError:  # beyond the float range
            f = None
        if f is not None and Fraction(Decimal(repr(f))) == a:
            return f
        try:
            return f"{a.numerator}/{a.denominator}"
        except ValueError as e:  # past the interpreter's int-string limit
            raise too_long_to_print(e) from None
    if a == POS_INF:
        return "+inf"
    if a == NEG_INF:
        return "-inf"
    return a


def too_long_to_print(e: ValueError) -> DomainError:
    """The error for a value whose digits exceed the int-string limit."""
    return DomainError(f"a report value is too long to print: {e}")


# Field metadata that ``to_json`` reads: leave the field out of the JSON
# form when its value is None.
JSON_UNLESS_NONE = {"json": "omit_none"}

_PLAIN = frozenset({int, str, bool, type(None)})


def to_json(obj):
    """The JSON form of a report: a dataclass becomes a dict of its fields,
    a list or tuple a list, a dict a dict, and a scalar ``to_jsonable(scalar)``.

    Types are matched exactly, plain scalars first, since reports are
    mostly scalars; a dataclass leaves out the fields of value None that
    its metadata marks with ``JSON_UNLESS_NONE``.
    """
    t = type(obj)
    if t in _PLAIN:
        return obj
    if t is Fraction or t is float:
        return to_jsonable(obj)
    if t is list or t is tuple:
        return [x if type(x) in _PLAIN else to_json(x) for x in obj]
    if t is dict:
        return {k: to_json(v) for k, v in obj.items()}
    out = {}
    for f in dataclasses.fields(obj):  # TypeError for any other type
        value = getattr(obj, f.name)
        if value is not None or f.metadata.get("json") != "omit_none":
            out[f.name] = to_json(value)
    return out


class Report:
    """Base of the report dataclasses: the JSON form of a report is its fields."""

    def to_json_dict(self) -> dict:
        return to_json(self)


# Per-atom kernels: one pass over the atoms with native arithmetic, and one
# normalisation per result instead of one per atom and operation.


def weighted_parts(weights: Sequence[Scalar],
                   values: Sequence[Scalar]) -> Tuple[Scalar, Scalar]:
    """(sum of w * v over v > 0, sum of w * (-v) over v < 0), both in [0, +inf].

    Zero values are skipped.  An infinite value on an atom of positive weight
    makes its part +inf; on a null atom it contributes 0 * inf = 0.

    The path follows the scalar types met, not the backing.  When every
    finite factor is an ``int`` or a ``Fraction``, the terms may be summed
    in any order, since rational addition is exact: int * int terms add up
    in an int, and a term with a Fraction factor adds its numerator
    product to the sum kept for its denominator product.  Each part is then
    reduced once, so its value is the exact sum, an integral part is an
    ``int``, and a Fraction costs one gcd per part instead of one per term.
    Float addition rounds at every step, so under float backing, where
    every weight and value is a float, the whole call is the atom-order
    fold of ``_ordered_parts``, whose rounding is that of
    the term-by-term ``lower_add`` fold of ``scalar_mul(w, v)``; a finite
    float is never taken for an infinity.
    """
    plus = minus = 0            # int * int terms
    plus_by_den = {}            # Fraction terms: denominator -> numerator sum
    minus_by_den = {}
    plus_inf = minus_inf = False
    for w, x in zip(weights, values):
        if x is _ZERO:
            continue
        tx = type(x)
        if tx is int:
            if type(w) is int:
                if x > 0:
                    plus += w * x
                else:
                    minus -= w * x
                continue
            if type(w) is not Fraction:
                return _ordered_parts(weights, values)
            n, d = w.as_integer_ratio()
            n *= x
        elif tx is Fraction:
            tw = type(w)
            if tw is int:
                n, d = x.as_integer_ratio()
                n *= w
            elif tw is Fraction:
                n, d = w.as_integer_ratio()
                xn, xd = x.as_integer_ratio()
                n *= xn
                d *= xd
            else:
                return _ordered_parts(weights, values)
        elif tx is float and type(w) is not float and (x == POS_INF or x == NEG_INF):
            if w:
                if x > 0:
                    plus_inf = True
                else:
                    minus_inf = True
            continue
        else:
            return _ordered_parts(weights, values)
        if n > 0:
            plus_by_den[d] = plus_by_den.get(d, 0) + n
        elif n < 0:
            minus_by_den[d] = minus_by_den.get(d, 0) - n
    return (POS_INF if plus_inf else _exact_sum(plus, plus_by_den),
            POS_INF if minus_inf else _exact_sum(minus, minus_by_den))


# A stored exact zero is almost always CPython's shared int 0, so the kernel
# skips it with an identity test, cheaper than any comparison; another zero
# takes the general path and adds nothing.
_ZERO = 0


def _exact_sum(whole: int, by_den: dict) -> Scalar:
    """whole + the sum of n / d over by_den, reduced once."""
    if not by_den:
        return whole
    den = math.lcm(*by_den)
    return _reduced(sum([n * (den // d) for d, n in by_den.items()], whole * den), den)


# The most bits of a common denominator ``common_numerators`` builds: past it
# the lcm of many denominators nears their product, costlier than Fractions.
_KEY_BITS = 4096


class ExactCodes(NamedTuple):
    """Rows of exact terms w * x as ints: ``exact_numerators``, with S
    (``scale``) above twice the sum over the A rows of the row's largest
    |numerator| for a +inf term and -S (A + 1) for a -inf one.  So a code
    orders like its term, and a sum of at most one code per row is
    N + S (p - (A + 1) m) for the sum N of its finite numerators, |N| < S / 2,
    and the counts p and m of its +inf and -inf terms.  ``infinite`` tells
    whether any code is; without one, S is 0 and every sum is its N."""

    den: int
    rows: list
    scale: int
    infinite: bool

    def finite(self, code: int) -> bool:
        """Whether the sum ``code`` is the numerator N of a finite sum."""
        return not self.infinite or 2 * abs(code) < self.scale

    def ceil(self, x: Scalar) -> Scalar:
        """ceil(x * den), or an infinite ``x`` itself."""
        return x if type(x) is float else -(-x.numerator * self.den // x.denominator)

    def value(self, code: int, combine) -> Scalar:
        """The integral whose ``Functional.parts`` is ``combine`` of terms
        whose codes sum to ``code``."""
        if self.finite(code):
            return _reduced(code, self.den)
        minus, plus = divmod((code + self.scale // 2) // self.scale, len(self.rows) + 1)
        return parts_value(0, plus, -minus, combine)


def exact_codes(weights: Sequence[Scalar], rows: Sequence[Sequence[Scalar]]):
    """The ``ExactCodes`` of ``exact_numerators``, or None where that is."""
    den, codes = exact_numerators(weights, rows) or (None, None)
    if codes is None or not any(POS_INF in row or NEG_INF in row for row in codes):
        return None if codes is None else ExactCodes(den, codes, 0, False)
    scale = 2 * len(codes) * max([abs(c) for row in codes for c in row if type(c) is int],
                                 default=0) + 2
    return ExactCodes(den, [[c if type(c) is int else scale if c > 0 else -scale * (len(codes) + 1)
                             for c in row] for row in codes], scale, True)


def exact_numerators(weights: Sequence[Scalar], rows: Sequence[Sequence[Scalar]]):
    """(den, codes): the terms w * x, for each x of a row and w its weight, as
    int numerators over den, the lcm of the weights' denominators times that
    of the values' (a term of weight 0 is 0, an infinite one its infinity),
    so each orders like its term; rows of ints of weight 1 are their own.
    None for a float weight or a den of more than ``_KEY_BITS`` bits."""
    weight_types = set(map(type, weights))
    lw = _lcm({w.denominator for w in weights}) if Fraction in weight_types else 1
    common = float not in weight_types and lw and common_numerators(rows)
    if not common or (lw * common[0]).bit_length() > _KEY_BITS:
        return None
    lx, codes = common
    factors = weights if lw == 1 else [w.numerator * (lw // w.denominator) for w in weights]
    if factors.count(1) < len(rows):
        codes = [row if f == 1 else [c * f for c in row] if f else [0] * len(row)
                 for f, row in zip(factors, codes)]
    return lw * lx, codes


def common_numerators(rows: Sequence[Sequence[Scalar]]):
    """(den, codes): the values of the rows as int numerators over den, the
    lcm of their denominators, so that each code orders like its value; an
    int x is x * den, a float (an infinity under exact weights) is kept.
    Rows without a Fraction are their own codes, over 1; so are float rows.
    None for a den of more than ``_KEY_BITS`` bits.

    This is the one common denominator of the package: the directedness
    scan ranks on these codes, ``exact_numerators`` scales them by the
    weights, and a table ``integrals.Capacity`` and ``integrals.choquet``
    hold their values and level keys as them.
    """
    dens = {x.denominator for row in rows for x in row if type(x) is Fraction}
    if not dens:
        return 1, rows
    den = _lcm(dens)
    if not den:
        return None
    up = {d: den // d for d in dens}
    return den, [[x * den if type(x) is int else x.numerator * up[x.denominator]
                  if type(x) is Fraction else x for x in row] for row in rows]


def _lcm(dens) -> int:
    """The lcm of ``dens``, or 0 past ``_KEY_BITS`` bits."""
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den.bit_length() > _KEY_BITS:
            return 0
    return den


def parts_value(finite: Scalar, plus: int, minus: int, combine) -> Scalar:
    """The integral whose ``functionals.Functional.parts`` is ``combine`` of a
    function whose finite terms sum to ``finite``, with ``plus`` terms +inf
    and ``minus`` terms -inf: that sum when both counts are 0; else the
    integral depends only on which counts are nonzero."""
    if plus or minus:
        return combine(POS_INF if plus else 0, POS_INF if minus else 0)
    return finite


def _reduced(num: int, den: int) -> Scalar:
    """num / den for a positive den, reduced once: an int when integral."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _ordered_parts(weights: Sequence[Scalar],
                   values: Sequence[Scalar]) -> Tuple[Scalar, Scalar]:
    """``weighted_parts`` of float weights and values, adding the terms in
    atom order.

    A finite part beyond the float range raises InputError, as
    ``lower_add`` does; a part that is +inf anyway does not.
    """
    plus = minus = 0.0
    plus_inf = minus_inf = False
    for w, x in zip(weights, values):
        if x > 0:
            if x != POS_INF:
                plus += w * x
            elif w:
                plus_inf = True
        elif x < 0:
            if x != NEG_INF:
                minus -= w * x
            elif w:
                minus_inf = True
    return (POS_INF if plus_inf else _kept(plus),
            POS_INF if minus_inf else _kept(minus))


def pointwise_min(rows: Sequence[Tuple[Scalar, ...]]) -> Tuple[Scalar, ...]:
    """Position-wise minimum of equally long tuples of extended reals.

    Each position keeps the first minimal entry, as ``min`` does.
    """
    acc = rows[0]
    for row in rows[1:]:
        acc = [y if y < x else x for x, y in zip(acc, row)]
    return tuple(acc)
