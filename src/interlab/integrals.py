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
  from one pass over the atoms, one sort of the distinct level keys (int
  numerators under rational backing) and one capacity read per level,
  summed as ints and reduced once.

On a mu-a.e. nonnegative function all three Lebesgue forms equal the
weighted sum of the values on the atoms of positive weight, the supremum
over dominated simple functions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache, partial
from itertools import combinations, compress, count, repeat
from operator import eq, gt, is_, itemgetter
from typing import Iterable, Mapping

from .errors import DomainError, InputError
from .extreal import (
    NEG_INF,
    POS_INF,
    Scalar,
    _kept,
    _reduced,
    add,
    as_scalar,
    coerce_all,
    common_numerators,
    exact_codes,
    lower_add,
    parts_value,
    to_text,
    upper_add,
    weighted_parts,
)
from .fnlattice import FnClass, ess_sup_table, ess_sup_value
from .measure import AtomSet, MeasureSpace, atom_order_sum


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


# A table entry that no key of the mapping filled.
_MISSING = object()


class Capacity:
    """A monotone set function with c(empty) = 0 on the atoms of a space.

    Values are nonnegative extended reals.  On a finite space continuity
    from above holds automatically, which is what the Choquet interchange
    results require.

    ``Capacity(space, table)`` is the "table" kind: a dense table of all
    2^n values, keyed by sets of the space's atoms.  It is held as one list
    indexed by atom bitmask (bit i is atom i of the space), so a read of a
    level set is one list index.  Table values are converted once, by the
    constructor, in the space's backing, each distinct string among them
    parsed once (``extreal.coerce_all``), and validated once, on masks: the
    first missing set and the first pair (A, A + a) with c(A) > c(A + a) are
    reported in ``iter_atom_subsets`` order, A before a, atoms in space
    order.  A negative value needs no check of its own: the chain from the
    empty set up to it drops at an earlier set.  Beside the values, built
    once, a table keeps them as int numerators over their common
    denominator C (``extreal.common_numerators``, +inf kept as +inf), the
    codes that ``choquet`` reads.  Under float backing, or past that
    helper's bit cap, the codes are the values themselves over C = 1,
    with no second list.  ``Capacity.distortion`` builds no table; it
    evaluates c(A) when asked, in O(n), so a Choquet integral costs O(n)
    per level set it reads and large spaces are fine.
    ``of(A)`` reads either kind by a set of atom names.
    """

    __slots__ = ("space", "_values", "_codes", "_den")
    kind = "table"

    def __init__(self, space: MeasureSpace, table: Mapping[AtomSet, Scalar]):
        self.space = space
        bits = {a: 1 << i for i, a in enumerate(space.atoms)}
        listed = [_MISSING] * (1 << len(bits))
        for s, v in table.items():
            try:
                mask = sum(map(bits.__getitem__, s))
            except KeyError:
                raise _foreign_set(space, frozenset(s)) from None
            if isinstance(s, frozenset):  # no other key equals a set of atoms
                listed[mask] = v
        order, rank, smaller, bigger = _subset_order(len(bits))
        ranked = list(map(listed.__getitem__, order))
        missing = next(compress(count(), map(is_, ranked, repeat(_MISSING))), None)
        # The values before the first missing set are read first, so a bad
        # one among them is the error reported.
        values = coerce_all(ranked[:missing], space.backing)
        if missing is not None:
            raise InputError(f"capacity table misses the set {_mask_str(space, order[missing])}")
        if values[0] != 0:
            raise InputError("capacity must vanish on the empty set")
        # Rounding to float is monotone, so a drop of the floats is one of the
        # exact values; only float ties need the exact comparison.
        approx = list(map(_monotone_float, values))
        low = list(map(approx.__getitem__, smaller))
        high = list(map(approx.__getitem__, bigger))
        first = next(compress(count(), map(gt, low, high)), len(low))
        first = next((p for p in compress(range(first), map(eq, low, high))
                      if values[smaller[p]] > values[bigger[p]]), first)
        if first < len(low):
            i, j = smaller[first], bigger[first]
            raise _not_monotone(space, order[i], values[i], order[j], values[j])
        self._values = list(map(values.__getitem__, rank))
        self._den, (self._codes,) = common_numerators([self._values]) or (1, [self._values])

    def of(self, s: Iterable[str]) -> Scalar:
        return self._values[_mask(self.space, s)]

    def _chain_codes(self):
        """(read, den): ``read`` gives the value of a mask times ``den``, for
        reads along a chain of shrinking sets (Choquet's level sets).  A
        table reads its codes, and was validated whole, so it needs no
        further check."""
        return self._codes.__getitem__, self._den

    @classmethod
    def distortion(cls, space: MeasureSpace, gamma: Scalar) -> "Capacity":
        """c(A) = (mu(A)/mu(Omega))^gamma * mu(Omega), evaluated on demand.

        Computed in float: a fractional power is irrational in general, so
        this family is for demos and tolerance-based checks, not for exact
        interchange verdicts.  A read adds the float weights of A's atoms
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
        evaluated once, so a read meets no overflow later.
        """
        return _Distortion(space, gamma)


_BEYOND_FLOAT = "distortion gamma, weights and values must lie within the float range"


class _Distortion(Capacity):
    """The distortion kind; see ``Capacity.distortion``."""

    __slots__ = ("gamma", "_weights", "_total")
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
        if not (math.isfinite(total) and math.isfinite(atom_order_sum(weights))):
            raise InputError(_BEYOND_FLOAT)
        self.space = space
        self.gamma = g
        self._weights = weights
        self._total = total
        try:
            self._value((1 << len(weights)) - 1)
        except OverflowError:  # from pow, when t(Omega) / total rounds above 1
            raise InputError(_BEYOND_FLOAT) from None

    def of(self, s: Iterable[str]) -> Scalar:
        return self._value(_mask(self.space, s))

    def _value(self, mask: int) -> Scalar:
        """c of the atoms of ``mask``, their weights added in atom order."""
        t = atom_order_sum([w for i, w in enumerate(self._weights) if mask >> i & 1])
        return as_scalar((t / self._total) ** self.gamma * self._total, self.space.backing)

    def _chain_codes(self):
        """``_value`` over 1, raising unless each value read is at most the last one."""
        last = []

        def read(mask: int) -> Scalar:
            v = self._value(mask)
            if last and v > last[1]:
                raise _not_monotone(self.space, mask, v, *last)
            last[:] = (mask, v)
            return v

        return read, 1


@cache
def _subset_order(n: int) -> tuple:
    """For n atoms: the masks of the subsets in ``iter_atom_subsets`` order
    (size, then lexicographic in atom order), the position of each mask in
    that order, and the pairs (A, A + a), A in that order and then a outside
    A in atom order, as the two lists of their sets' positions.  Kept for
    each n met: about 16 MB at n = 16, where the table itself is 2^16
    values."""
    order = [sum([1 << i for i in combo]) for k in range(n + 1)
             for combo in combinations(range(n), k)]
    rank = [0] * len(order)
    for p, mask in enumerate(order):
        rank[mask] = p
    smaller = [p for p, mask in enumerate(order) for i in range(n) if not mask >> i & 1]
    bigger = [rank[mask | 1 << i] for mask in order for i in range(n) if not mask >> i & 1]
    return order, rank, smaller, bigger


def _mask(space: MeasureSpace, s: Iterable[str]) -> int:
    """The bitmask of the atom set ``s``; InputError when it is not over the space."""
    s = frozenset(s)
    if not s.issubset(space.atoms):
        raise _foreign_set(space, s)
    return sum([1 << space.index(a) for a in s])


def _set_str(space: MeasureSpace, s: AtomSet) -> str:
    """``s`` in space order, e.g. {a0, a1}; atoms outside the space follow, sorted."""
    atoms = [a for a in space.atoms if a in s]
    atoms += sorted(map(str, s.difference(space.atoms)))
    return "{" + ", ".join(map(str, atoms)) + "}"


def _mask_str(space: MeasureSpace, mask: int) -> str:
    """The atoms of ``mask`` as ``_set_str`` writes them."""
    return _set_str(space, frozenset(a for i, a in enumerate(space.atoms) if mask >> i & 1))


def _not_monotone(space, smaller: int, v, bigger: int, vb) -> InputError:
    return InputError(f"capacity is not monotone: c({_mask_str(space, smaller)}) = {to_text(v)} "
                      f"> c({_mask_str(space, bigger)}) = {to_text(vb)}")


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
    when c({f = +inf}) > 0.  Nonpositive functions go through negation,
    which keeps a zero cake the backing's zero (+0.0 under float backing);
    mixed signs are rejected.

    The values become level keys: int numerators k = v * D over their
    common denominator D (``extreal.common_numerators``), or, under float
    backing or past that helper's bit cap, the values themselves over
    D = 1.  One pass over the atoms puts the atoms of each nonzero key into
    one bitmask; one sort of the distinct keys decides the sign on the
    atoms of positive weight and orders the levels.  The level sets are
    one shrinking mask, which loses one key's atoms per level, and the
    capacity is read once per level, on that mask, and last on the
    plateau: at most n + 1 reads, on nested sets.  A read gives the
    capacity's value times its denominator C (a table's codes; a
    distortion or a float table reads values over 1); under a distortion
    a value that exceeds the one read on the enclosing set is an
    ``InputError``.

    The cake is one loop, total = sum of (k_j - k_{j-1}) * code(A_j) in
    level order, and the integral one ``extreal._reduced(total, D * C)``:
    on int codes every step is an int operation, and a Fraction total
    (Fraction keys or values read) is reduced over its own denominator
    times D * C.  Under float backing the loop is the level-order float
    fold, bit for bit, so a finite total beyond the float range raises
    ``InputError`` unless some level's capacity is +inf, which makes the
    integral +inf.

    Level sets use the literal representative values, so the integral is
    monotone for the plain pointwise order under any capacity (and for the
    mu-pointwise order whenever the capacity ignores null atoms).
    """
    if f.space is not c.space and f.space != c.space:
        raise InputError("capacity and function live on different spaces")
    den, (keys,) = common_numerators([f.values]) or (1, [f.values])
    atoms_of = {}  # key -> the mask of the atoms holding it
    bit = 1
    for k in keys:
        atoms_of[k] = atoms_of.get(k, 0) | bit
        bit <<= 1
    zero = atoms_of.pop(0, 0)
    levels = sorted(atoms_of.items(), key=_level_key)
    below = bisect_left(levels, 0, key=_level_key)  # the levels of negative value
    negative = sum([atoms for _, atoms in levels[:below]]) if below else 0
    positive = (bit - 1) ^ zero ^ negative
    non_null = f.space.non_null_mask()
    if not negative & non_null:
        return _layer_cake(c, levels[below:] if below else levels, positive, den)
    if not positive & non_null:
        cake = _layer_cake(c, [(-k, atoms) for k, atoms in reversed(levels[:below])],
                           negative, den)
        return -cake or cake  # -0.0 is false: a zero cake stays the backing's zero
    raise DomainError("choquet requires a mu-a.e. one-signed function")


_level_key = itemgetter(0)


def _layer_cake(c: Capacity, levels: list, mask: int, den: int) -> Scalar:
    """The Choquet integral of the nonnegative function whose positive
    values times ``den``, ascending, hold the atoms of their masks
    (``levels``), and whose positive atoms are ``mask``."""
    read, cden = c._chain_codes()
    plateau = levels.pop()[1] if levels and levels[-1][0] == POS_INF else 0
    total = low = 0.0 if c.space.backing == "float" else 0
    for k, atoms in levels:  # each level set loses the atoms of the level below it
        code = read(mask)
        if code:
            if code == POS_INF:
                return POS_INF
            total += (k - low) * code
        low, mask = k, mask ^ atoms
    if type(total) is float:
        cake = _kept(total)
    else:  # an int, or a Fraction when the keys or the values read are Fractions
        cake = _reduced(total.numerator, total.denominator * den * cden)
    return POS_INF if plateau and read(plateau) > 0 else cake
