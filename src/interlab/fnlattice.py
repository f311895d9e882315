"""The lattice of measurable functions modulo almost-everywhere equality.

A function is an atom-indexed vector of extended reals (plain scalars, see
``extreal``) on a fixed space, in that space's backing.
Two functions are equal as classes when they agree on every atom of positive
weight; ordering works the same way.  Representatives are stored exactly as
given (never normalized), so every comparison goes through the null-atom
filter.

On an atomic space the essential infimum of a finite family is the
per-atom minimum, which this module computes literally on all atoms; the
result is then simultaneously a pointwise and an essential greatest lower
bound.

Integrability classification splits functions into the integrable cone
(both parts finite), the two semi-integrable cones, and the rest:

* L1_PLUS  - positive part has finite integral (so f < +inf a.e.);
* L1_MINUS - negative part has finite integral (so f > -inf a.e.);
* L1_FULL  - both;
* L0_ONLY  - neither.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Iterable, Sequence, Tuple

from .errors import InputError
from .extreal import (
    NEG_INF,
    POS_INF,
    Scalar,
    add,
    as_scalar,
    coerce_all,
    ext,
    lower_add,
    pointwise_min,
    scalar_mul,
    to_jsonable,
    to_text,
    upper_add,
    weighted_parts,
)
from .measure import MeasureSpace


class IntegrabilityTag(Enum):
    L1_FULL = "L1_FULL"
    L1_PLUS = "L1_PLUS"
    L1_MINUS = "L1_MINUS"
    L0_ONLY = "L0_ONLY"

    @property
    def semi_integrable(self) -> bool:
        return self is not IntegrabilityTag.L0_ONLY

    @property
    def in_l1_plus(self) -> bool:
        return self in (IntegrabilityTag.L1_PLUS, IntegrabilityTag.L1_FULL)

    @property
    def in_l1_minus(self) -> bool:
        return self in (IntegrabilityTag.L1_MINUS, IntegrabilityTag.L1_FULL)


class FnClass:
    """A measurable function as a vector of extended reals over the atoms.

    The constructor coerces the values with ``extreal.coerce_all`` in the
    space's backing, so each distinct string among them is parsed once per
    call.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values: Sequence):
        if len(values) != len(space.atoms):
            raise InputError(
                f"function has {len(values)} values for {len(space.atoms)} atoms"
            )
        self.space = space
        self.values = tuple(coerce_all(values, space.backing))

    @classmethod
    def from_ext(cls, space: MeasureSpace, values: Tuple[Scalar, ...]) -> "FnClass":
        """A function from a tuple of extended reals, one per atom of space.

        Skips the coercion and length check of the constructor, for values
        already in the space's backing form (built by ``ext`` or by the
        ``extreal`` operations).
        """
        f = object.__new__(cls)
        f.space = space
        f.values = values
        return f

    @classmethod
    def constant(cls, space: MeasureSpace, value) -> "FnClass":
        return cls(space, [value] * len(space.atoms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FnClass):
            return NotImplemented
        if self.space != other.space:
            return False
        return all(
            self.values[i] == other.values[i] for i in self.space.non_null_indices()
        )

    def __hash__(self) -> int:
        return hash(
            (self.space, tuple(self.values[i] for i in self.space.non_null_indices()))
        )

    def __repr__(self) -> str:
        return f"FnClass([{', '.join(map(to_text, self.values))}])"

    def map(self, op: Callable[[Scalar], Scalar]) -> "FnClass":
        return FnClass(self.space, [op(v) for v in self.values])

    def to_jsonable(self) -> list:
        return [to_jsonable(v) for v in self.values]


def _same_space(f: FnClass, g: FnClass) -> None:
    if f.space != g.space:
        raise InputError("functions live on different measure spaces")


def mu_leq(f: FnClass, g: FnClass) -> bool:
    """f <= g outside a null set, i.e. on every atom of positive weight."""
    _same_space(f, g)
    return all(f.values[i] <= g.values[i] for i in f.space.non_null_indices())


def pointwise_inf(family: Iterable[FnClass]) -> FnClass:
    """Per-atom minimum; the greatest lower bound for the mu-pointwise order."""
    members = list(family)
    if not members:
        raise InputError("pointwise_inf of an empty family")
    space = members[0].space
    for m in members[1:]:
        _same_space(members[0], m)
    return FnClass.from_ext(space, pointwise_min([m.values for m in members]))


def pos_neg_parts(f: FnClass) -> Tuple[FnClass, FnClass]:
    """(f_plus, f_minus), both nonnegative, with f = f_plus + (-f_minus)."""
    return f.map(lambda v: max(0, v)), f.map(lambda v: max(0, -v))


def fn_neg(f: FnClass) -> FnClass:
    return FnClass.from_ext(f.space, tuple(-v for v in f.values))


def fn_scale(lam: Scalar, f: FnClass) -> FnClass:
    lam = as_scalar(lam, f.space.backing)
    return f.map(lambda v: scalar_mul(lam, v))


def fn_add(f: FnClass, g: FnClass, mode: str = "plain") -> FnClass:
    """Atomwise sum under the chosen addition ("plain", "lower", "upper")."""
    _same_space(f, g)
    op = {"plain": add, "lower": lower_add, "upper": upper_add}.get(mode)
    if op is None:
        raise InputError(f"unknown addition mode {mode!r}")
    return FnClass(f.space, [op(a, b) for a, b in zip(f.values, g.values)])


def fn_shift(f: FnClass, c) -> FnClass:
    """Add the constant c atomwise (plain addition; c must be finite)."""
    c = ext(c, f.space.backing)
    return f.map(lambda v: add(v, c))


def classify(f: FnClass) -> IntegrabilityTag:
    """Integrability of f from the finiteness of the integrals of its parts."""
    from .integrals import part_integrals

    ip, im = part_integrals(f)
    plus = ip != POS_INF
    minus = im != POS_INF
    if plus and minus:
        return IntegrabilityTag.L1_FULL
    if plus:
        return IntegrabilityTag.L1_PLUS
    if minus:
        return IntegrabilityTag.L1_MINUS
    return IntegrabilityTag.L0_ONLY


def lp_norm(f: FnClass, p: Scalar) -> Scalar:
    """(sum of weight * |f|^p)^(1/p) for p in [1, inf).

    At p == 1 this is the integral of |f|, the positive part of
    ``weighted_parts``, so exact under rational backing; otherwise it is
    evaluated in float.  Returns +inf when f is infinite on an atom of
    positive weight, and raises InputError when the float evaluation
    overflows.
    """
    space = f.space
    p = as_scalar(p, space.backing)
    if p < 1:
        raise InputError("lp_norm requires p >= 1")
    if p == 1:
        return weighted_parts(space.weights, [abs(v) for v in f.values])[0]
    for i in space.non_null_indices():
        if abs(f.values[i]) == POS_INF:
            return POS_INF
    try:
        acc = 0.0
        for i in space.non_null_indices():
            acc += float(space.weights[i]) * abs(float(f.values[i])) ** float(p)
        norm = acc ** (1.0 / float(p))
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        raise InputError("the L^p norm overflows the float range")
    return as_scalar(norm, space.backing)


def ess_sup_value(f: FnClass) -> Scalar:
    """Largest value on non-null atoms; -inf when every atom is null."""
    values = f.values
    return max([values[i] for i in f.space.non_null_indices()], default=NEG_INF)


def ess_sup_table(space: MeasureSpace, fields):
    """Rank table of ``ess_sup_value`` (see ``integrals.RANK_TABLES``).

    One global rank orders the values of every non-null atom, ties going
    to the earlier atom as ``max`` does.  An atom's global rank grows with
    its own rank r, and in the thermometer code of a key the bit r - 1 of
    the atom's field is set exactly when its rank is at least r, so a
    key's score is the value of its set bit of highest global rank, else
    the largest value at rank 0: bits tested in global order, no scalar
    compared.
    """
    non_null = space.non_null_indices()
    if not non_null:
        return lambda key: NEG_INF
    levels = []
    bits = []  # (global rank, key bit) of the ranks r >= 1, increasing
    for g, (v, neg_i, r) in enumerate(sorted(
            (v, -i, r) for i in non_null for r, v in enumerate(fields[i][0]))):
        levels.append(v)
        if r:
            bits.append((g, 1 << (fields[-neg_i][1] + r - 1)))
        else:
            base = g  # the largest global rank at rank 0, in the end
    bits = [gb for gb in reversed(bits) if gb[0] > base]

    def score(key: int) -> Scalar:
        for g, bit in bits:
            if key & bit:
                return levels[g]
        return levels[base]

    return score
