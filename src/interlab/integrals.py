"""Integral functionals on finite atomic spaces.

Four integrals are provided:

* ``lebesgue_extended``  - integral of positive part plus minus the integral
  of the negative part, for semi-integrable functions (atom weights are
  finite, so a +inf value on a zero-weight atom contributes 0 * inf = 0);
* ``outer_integral`` / ``inner_integral`` - total on all functions; the
  closed forms combine the part integrals with the upper resp. lower
  extended addition, so they disagree exactly when both parts diverge
  (``PART_SUMS`` holds each integral's combination, which ``RunningParts``
  applies to parts kept up to date atom by atom);
* ``choquet``            - layer-cake integral with respect to a capacity,
  computed exactly by sorting the distinct finite values.

On a mu-a.e. nonnegative function all three Lebesgue forms equal the
weighted sum of the values on the atoms of positive weight, the supremum
over dominated simple functions.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress, count
from typing import Iterable, Mapping

from .errors import DomainError, InputError
from .extreal import (
    NEG_INF,
    POS_INF,
    Scalar,
    _kept,
    add,
    as_scalar,
    coerce_all,
    exact_codes,
    lower_add,
    parts_value,
    scalar_mul,
    to_text,
    upper_add,
    weighted_parts,
)
from .fnlattice import FnClass, ess_sup_table, ess_sup_value, fn_neg
from .measure import AtomSet, MeasureSpace, iter_atom_subsets


def part_integrals(f: FnClass) -> tuple:
    """(integral of f+, integral of f-) in one pass over the atoms."""
    return weighted_parts(f.space.weights, f.values)


def _semi_integrable_sum(ip: Scalar, im: Scalar) -> Scalar:
    if ip == im == POS_INF:
        raise DomainError(
            "function is not semi-integrable (both parts have infinite integral); "
            "use outer_integral or inner_integral"
        )
    return add(ip, -im)


def _upper_sum(ip: Scalar, im: Scalar) -> Scalar:
    return upper_add(ip, -im)


def _lower_sum(ip: Scalar, im: Scalar) -> Scalar:
    return lower_add(ip, -im)


def lebesgue_extended(f: FnClass) -> Scalar:
    """Extended Lebesgue integral of a semi-integrable function."""
    return _semi_integrable_sum(*part_integrals(f))


def outer_integral(f: FnClass) -> Scalar:
    """Infimum of integrals of dominating integrable functions (closed form)."""
    return _upper_sum(*part_integrals(f))


def inner_integral(f: FnClass) -> Scalar:
    """Supremum of integrals of dominated integrable functions (closed form)."""
    return _lower_sum(*part_integrals(f))


# How each integral combines its part integrals (integral of f+, integral of
# f-) into its value, keyed by the integral, for callers that keep the parts
# themselves (``RunningParts``, the selection fold of ``decomposable``).
PART_SUMS = {
    lebesgue_extended: _semi_integrable_sum,
    outer_integral: _upper_sum,
    inner_integral: _lower_sum,
}


def part_sum(eval_fn):
    """The ``PART_SUMS`` entry of ``eval_fn``, or None when it has none.

    Looked up by identity: an eval_fn need not be hashable.
    """
    return next((c for f, c in PART_SUMS.items() if f is eval_fn), None)


class RunningParts:
    """The part integrals of a function whose values change a few atoms at a time.

    Holds the exact sum of the terms w * x of the atoms of positive weight
    and finite value and the counts of those where x is +inf and -inf, which
    ``move`` updates from one atom's old and new values, so ``value``, that
    is ``extreal.parts_value`` with the integral's ``PART_SUMS`` entry, costs
    no pass over the atoms.  Exact sums may be kept in any order, so this is
    for rational backing; float sums round in atom order and are left to the
    integrals.
    """

    __slots__ = ("weights", "combine", "total", "infinite")

    def __init__(self, weights, combine, values):
        self.weights, self.combine, self.total = weights, combine, 0
        self.infinite = {POS_INF: 0, NEG_INF: 0}  # the two counts, in this order
        for i in compress(count(), values):  # the atoms of nonzero value
            self.move(i, 0, values[i])

    @classmethod
    def of(cls, space: MeasureSpace, eval_fn, values):
        """Running parts of ``values`` for the integral ``eval_fn``, or None
        when ``eval_fn`` is not in ``PART_SUMS`` or the space is not rational."""
        combine = part_sum(eval_fn)
        if combine is None or space.backing != "rational":
            return None
        return cls(space.weights, combine, values)

    def move(self, i: int, old: Scalar, new: Scalar) -> None:
        """Atom ``i`` changes its value from ``old`` to ``new``."""
        w = self.weights[i]
        if w:  # null atoms add 0 whatever their value
            if type(old) is float and (old == POS_INF or old == NEG_INF):
                self.infinite[old] -= 1
            elif old:
                self.total -= w * old
            if type(new) is float and (new == POS_INF or new == NEG_INF):
                self.infinite[new] += 1
            elif new:
                self.total += w * new

    def value(self) -> Scalar:
        return parts_value(_kept(self.total), *self.infinite.values(), self.combine)


def _integral_table(combine, space: MeasureSpace, fields, lhs: Scalar, tol: Scalar):
    """Rank table of the integral whose ``PART_SUMS`` entry is ``combine``
    (see ``RANK_TABLES``): a key's code is the sum of the
    ``extreal.exact_codes`` of its ranks' terms w * x.  A finite sum passes
    exactly when it is at least the one int ``ExactCodes.ceil(lhs - tol)``;
    any other when lhs is at most its infinite value, and maps to None where
    the integral raises, so that the scan runs it.  Built only when the
    codes are, tol is exact and lhs exact or infinite, so float rounding is
    left to the integrals and the scan.
    """
    exact = type(tol) is not float and (type(lhs) is not float or lhs in (POS_INF, NEG_INF))
    codes = exact and exact_codes(space.weights, [level for level, _, _ in fields])
    if not codes:
        return None
    atoms = [(off, mask, row) for (_, off, mask), row in zip(fields, codes.rows) if any(row)]
    base = sum([row[0] for _, mask, row in atoms if not mask])
    atoms = [atom for atom in atoms if atom[1]]
    # Every finite integral passes lhs = -inf and none passes +inf, as
    # ``_leq_within`` has it.
    threshold = codes.ceil(lhs - tol if tol else lhs)
    infinite, finite = codes.infinite, codes.finite

    def passes(key: int):
        total = base + sum([row[((key >> off) & mask).bit_count()] for off, mask, row in atoms])
        if not infinite or finite(total):  # no call per key without infinities
            return total >= threshold
        try:
            return lhs <= codes.value(total, combine)
        except DomainError:
            return None

    return passes


# Rank tables for the directedness scan, keyed by a functional's evaluation
# function.  ``build(space, fields, lhs, tol)`` takes the fields of
# ``interchange._rank_code`` and the scan's bound, and returns None (no
# table) or ``passes``: it maps the key of a subset infimum to whether
# ``extreal._leq_within(lhs, value, tol)`` holds for the value the function
# gives on that infimum, or to None where the function must run.
RANK_TABLES = {
    **{f: partial(_integral_table, combine) for f, combine in PART_SUMS.items()},
    ess_sup_value: ess_sup_table,
}


class Capacity:
    """A monotone set function with c(empty) = 0 on the atoms of a space.

    Values are nonnegative extended reals.  On a finite space continuity
    from above holds automatically, which is what the Choquet interchange
    results require.

    ``Capacity(space, table)`` is the "table" kind: a dense table of all
    2^n values, keyed by sets of the space's atoms and validated once at
    construction.  ``Capacity.distortion``
    builds no table; it evaluates c(A) when asked, in O(n), so a Choquet
    integral costs O(n) per level set it reads and large spaces are fine.
    Table values are converted once, by the constructor, in the space's
    backing, each distinct string among them parsed once
    (``extreal.coerce_all``).
    """

    __slots__ = ("space", "_table")
    kind = "table"

    def __init__(self, space: MeasureSpace, table: Mapping[AtomSet, Scalar]):
        self.space = space
        atoms = frozenset(space.atoms)
        for s in table:
            if not atoms.issuperset(s):
                raise _foreign_set(space, frozenset(s))
        sets = list(iter_atom_subsets(space))
        missing = next((i for i, s in enumerate(sets) if s not in table), None)
        # The values before the first missing set are read first, so a bad
        # one among them is the error reported.
        values = coerce_all([table[s] for s in sets[:missing]], space.backing)
        if missing is not None:
            raise InputError(f"capacity table misses the set {_set_str(space, sets[missing])}")
        self._table = dict(zip(sets, values))
        self._validate()

    def _validate(self) -> None:
        empty = frozenset()
        if self._table[empty] != 0:
            raise InputError("capacity must vanish on the empty set")
        # Rounding to float is monotone, so unequal floats order the exact
        # values; only float ties need the exact comparison.
        approx = {s: _monotone_float(v) for s, v in self._table.items()}
        for s, v in self._table.items():
            if v < 0:
                raise InputError(
                    f"capacity value {v} on {_set_str(self.space, s)} is negative")
            fv = approx[s]
            for a in self.space.atoms:
                if a not in s:
                    bigger = s | {a}
                    fb = approx[bigger]
                    if fb < fv or (fb == fv and self._table[bigger] < v):
                        raise _not_monotone(self.space, s, v, bigger, self._table[bigger])

    def of(self, s: Iterable[str]) -> Scalar:
        s = frozenset(s)
        try:
            return self._table[s]
        except KeyError:
            raise _foreign_set(self.space, s) from None

    def _chain_reader(self):
        """``of`` for reads along a chain of shrinking sets (Choquet's level
        sets).  A table was validated whole, so it needs no further check."""
        return self.of

    @classmethod
    def distortion(cls, space: MeasureSpace, gamma: Scalar) -> "Capacity":
        """c(A) = (mu(A)/mu(Omega))^gamma * mu(Omega), evaluated on demand.

        Computed in float: a fractional power is irrational in general, so
        this family is for demos and tolerance-based checks, not for exact
        interchange verdicts.  ``of(A)`` adds the float weights of A's atoms
        in atom order, starting from 0, and returns
        ``(t / total) ** gamma * total``: the float operations, in that
        order, of the dense table this kind used to build, so every value
        is the same, and none depends on the hash seed.

        Monotonicity, for A a subset of B:

        * t(A) <= t(B): B's sum is A's with terms inserted, every term is
          nonnegative, and IEEE round-to-nearest addition is monotone, so
          each partial sum of B is at least the matching one of A;
        * dividing and multiplying by the positive total are monotone too;
        * ``pow`` is the one step without a guarantee (libm does not round
          it correctly).  A scan of 1.8 million adjacent float pairs for
          gamma in {0.3, 0.5, 0.8, 1.25, 2, 3.7} found no inversion.
          Choquet still checks the values it reads along its nested level
          sets and raises ``InputError`` on an increase, so a failure of
          the argument cannot pass silently.

        gamma, the weights and the total are converted to float here, and
        c(Omega), the largest value since t(Omega) bounds every t(A), is
        evaluated once, so ``of`` meets no overflow later.
        """
        return _Distortion(space, gamma)


_BEYOND_FLOAT = "distortion gamma, weights and values must lie within the float range"


class _Distortion(Capacity):
    """The distortion kind; see ``Capacity.distortion``."""

    __slots__ = ("gamma", "_atoms", "_weights", "_total")
    kind = "distortion"

    def __init__(self, space: MeasureSpace, gamma: Scalar):
        try:
            g = float(gamma)
            total = float(space.total_mass())
            weights = tuple(float(w) for w in space.weights)
        except OverflowError:
            raise InputError(_BEYOND_FLOAT) from None
        if g <= 0:
            raise InputError("distortion exponent must be positive")
        if total == 0:
            raise InputError("distortion of the zero measure is degenerate")
        if not (math.isfinite(total) and math.isfinite(sum(weights))):
            raise InputError(_BEYOND_FLOAT)
        self.space = space
        self.gamma = g
        self._atoms = frozenset(space.atoms)
        self._weights = weights
        self._total = total
        try:
            self.of(space.atoms)
        except OverflowError:  # from pow, when t(Omega) / total rounds above 1
            raise InputError(_BEYOND_FLOAT) from None

    def of(self, s: Iterable[str]) -> Scalar:
        s = frozenset(s)
        if not s <= self._atoms:
            raise _foreign_set(self.space, s)
        t = sum(w for a, w in zip(self.space.atoms, self._weights) if a in s)
        return as_scalar((t / self._total) ** self.gamma * self._total, self.space.backing)

    def _chain_reader(self):
        """``of`` that raises unless each value read is at most the last one."""
        last = []

        def read(s: AtomSet) -> Scalar:
            v = self.of(s)
            if last and v > last[1]:
                raise _not_monotone(self.space, s, v, *last)
            last[:] = (s, v)
            return v

        return read


def _set_str(space: MeasureSpace, s: AtomSet) -> str:
    """``s`` in space order, e.g. {a0, a1}; atoms outside the space follow, sorted."""
    atoms = [a for a in space.atoms if a in s]
    atoms += sorted(map(str, s.difference(space.atoms)))
    return "{" + ", ".join(map(str, atoms)) + "}"


def _not_monotone(space, s, v, bigger, vb) -> InputError:
    return InputError(f"capacity is not monotone: c({_set_str(space, s)}) = {to_text(v)} "
                      f"> c({_set_str(space, bigger)}) = {to_text(vb)}")


def _foreign_set(space, s) -> InputError:
    return InputError(f"set {_set_str(space, s)} is not over this capacity's space")


def _monotone_float(v: Scalar) -> float:
    """float(v); a value beyond the float range becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def choquet(f: FnClass, c: Capacity) -> Scalar:
    """Choquet integral of a one-signed function.

    Nonnegative (mu-a.e.) functions integrate as the layer cake
    sum of (v_i - v_{i-1}) * c({f > v_{i-1}}) over the sorted distinct
    finite values, plus an infinite plateau that contributes +inf exactly
    when c({f = +inf}) > 0.  Nonpositive functions go through negation;
    mixed signs are rejected.

    Level sets use the literal representative values, so the integral is
    monotone for the plain pointwise order under any capacity (and for the
    mu-pointwise order whenever the capacity ignores null atoms).  The
    capacity is read at most n + 1 times, on nested sets; under a
    distortion a value that exceeds the one read on the enclosing set is
    an ``InputError``.
    """
    if f.space != c.space:
        raise InputError("capacity and function live on different spaces")
    nonneg = all(f.values[i] >= 0 for i in f.space.non_null_indices())
    nonpos = all(f.values[i] <= 0 for i in f.space.non_null_indices())
    if nonneg:
        return _choquet_nonneg(f, c)
    if nonpos:
        return -_choquet_nonneg(fn_neg(f), c)
    raise DomainError("choquet requires a mu-a.e. one-signed function")


def _choquet_nonneg(f: FnClass, c: Capacity) -> Scalar:
    space = f.space
    of = c._chain_reader()  # the level sets below shrink, the plateau last
    finite_levels = sorted({v for v in f.values if 0 < v < POS_INF})
    total = prev = as_scalar(0, space.backing)
    for v in finite_levels:
        level_set = frozenset(
            a for a, fv in zip(space.atoms, f.values) if fv > prev
        )
        total = lower_add(total, scalar_mul(v - prev, of(level_set)))
        prev = v
    plateau = frozenset(a for a, fv in zip(space.atoms, f.values) if fv == POS_INF)
    if plateau and of(plateau) > 0:
        return POS_INF
    return total
