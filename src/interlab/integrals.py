"""Integral functionals on finite atomic spaces.

Four integrals are provided:

* ``lebesgue_nonneg``    - weighted sum for nonnegative functions; equals the
  supremum over dominated simple functions (atom weights are finite, so a
  +inf value on a zero-weight atom contributes 0 * inf = 0);
* ``lebesgue_extended``  - integral of positive part plus minus the integral
  of the negative part, for semi-integrable functions;
* ``outer_integral`` / ``inner_integral`` - total on all functions; the
  closed forms combine the part integrals with the upper resp. lower
  extended addition, so they disagree exactly when both parts diverge
  (``PART_SUMS`` holds each integral's combination, which ``RunningParts``
  applies to parts kept up to date atom by atom);
* ``choquet``            - layer-cake integral with respect to a capacity,
  computed exactly by sorting the distinct finite values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from typing import Dict, Iterable, Mapping

from .errors import DomainError, InputError
from .extreal import (
    NEG_INF,
    POS_INF,
    Scalar,
    _kept,
    _over_common_den,
    _reduced,
    add,
    as_scalar,
    coerce_all,
    lower_add,
    scalar_mul,
    to_jsonable,
    to_text,
    upper_add,
    weighted_parts,
)
from .fnlattice import FnClass, ess_sup_table, ess_sup_value, fn_neg
from .measure import AtomSet, MeasureSpace, iter_atom_subsets


def part_integrals(f: FnClass) -> tuple:
    """(integral of f+, integral of f-) in one pass over the atoms."""
    return weighted_parts(f.space.weights, f.values)


def lebesgue_nonneg(f: FnClass) -> Scalar:
    """Integral of a mu-a.e. nonnegative function; value in [0, +inf]."""
    for i in f.space.non_null_indices():
        if f.values[i] < 0:
            raise DomainError(
                f"lebesgue_nonneg: negative value {f.values[i]} on non-null atom "
                f"{f.space.atoms[i]!r}"
            )
    # Null atoms add 0 whatever their value, so this is the positive part.
    return part_integrals(f)[0]


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

    Holds the exact sums of the terms w * x of the atoms of positive weight
    and finite value, positive and negative x apart, and the counts of those
    atoms where x is +inf and where it is -inf, so ``move`` updates them
    from one atom's old and new values and ``value`` costs no pass over the
    atoms.  ``value`` combines the parts as the integral does, through its
    entry in ``PART_SUMS``, so it raises the integral's own ``DomainError``
    and returns its form: an int when integral, as ``weighted_parts`` gives.
    Exact sums may be kept in any order, so this is for rational backing;
    float sums round in atom order and are left to the integrals.
    """

    __slots__ = ("weights", "combine", "plus", "minus", "plus_inf", "minus_inf")

    def __init__(self, weights, combine, values):
        self.weights = weights
        self.combine = combine
        self.plus = self.minus = 0
        self.plus_inf = self.minus_inf = 0
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
            self._add(-w, old, -1)
            self._add(w, new, 1)

    def _add(self, w: Scalar, x: Scalar, sign: int) -> None:
        """Add w * x to its part, or ``sign`` to its count when x is infinite."""
        if type(x) is float and (x == POS_INF or x == NEG_INF):
            if x > 0:
                self.plus_inf += sign
            else:
                self.minus_inf += sign
        elif x > 0:
            self.plus += w * x
        elif x < 0:
            self.minus -= w * x

    def value(self) -> Scalar:
        if not (self.plus_inf or self.minus_inf):
            # Finite parts: every integral is ip - im, in the exact form.
            return _kept(self.plus - self.minus)
        ip = POS_INF if self.plus_inf else _kept(self.plus)
        im = POS_INF if self.minus_inf else _kept(self.minus)
        return self.combine(ip, im)


_EXACT = (int, Fraction)


def _integral_table(space: MeasureSpace, fields):
    """Rank table of the three integrals above (see ``RANK_TABLES``).

    Each term w * x of an atom of positive weight and each of its ranks is
    held as an integer numerator over one common denominator
    (``extreal._over_common_den``), so a key is scored by adding one
    numerator per atom and reducing once (``extreal._reduced``): an int
    when integral, as ``weighted_parts`` gives.  Null atoms add 0 whatever
    their value.  Built only when every weight and finite value is exact
    (int or Fraction), the path on which ``weighted_parts`` sums exactly, so
    float rounding is left to the integrals.  A key with an infinite value on an
    atom of positive weight maps to None, and so do all keys when an atom
    of positive weight holds one infinite value only: the integrals score
    those, with their own convention for infinite parts and their own
    ``DomainError``.
    """
    places, terms = [], []  # (offset, mask), [(numerator, denominator) per rank]
    plus_inf = minus_inf = 0  # key bits of the infinite ranks
    for w, (level, offset, mask) in zip(space.weights, fields):
        if type(w) not in _EXACT:
            return None
        ratios = []
        for x in level:
            if type(x) in _EXACT:
                ratios.append(x.as_integer_ratio())
            elif x == POS_INF or x == NEG_INF:
                ratios.append((0, 1))  # never read: the key maps to None
            else:
                return None
        if w == 0:
            continue
        if level[-1] == POS_INF or level[0] == NEG_INF:
            if not mask:
                return None
            if level[-1] == POS_INF:
                plus_inf |= 1 << (offset + mask.bit_length() - 1)
            if level[0] == NEG_INF:
                minus_inf |= 1 << offset
        wn, wd = w.as_integer_ratio()
        places.append((offset, mask))
        terms.append([(wn * n, wd * d) for n, d in ratios])
    den, rows = _over_common_den(terms)
    base = sum([codes[0] for (_, mask), codes in zip(places, rows) if not mask])
    atoms = [(offset, mask, codes) for (offset, mask), codes in zip(places, rows) if mask]

    def score(key: int):
        if key & plus_inf or ~key & minus_inf:
            return None
        return _reduced(base + sum([codes[((key >> off) & mask).bit_count()]
                                    for off, mask, codes in atoms]), den)

    return score


# Rank tables for the directedness scan, keyed by a functional's evaluation
# function.  A table maps the key of a subset infimum (see
# ``interchange._rank_code``) to the value its function gives on that
# infimum, in value and in type, or to None where the function must run.
RANK_TABLES = {
    lebesgue_extended: _integral_table,
    outer_integral: _integral_table,
    inner_integral: _integral_table,
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
    def from_measure(cls, space: MeasureSpace) -> "Capacity":
        """The additive capacity A -> mu(A); makes Choquet match Lebesgue."""
        from .measure import measure

        return cls(space, {s: measure(space, s) for s in iter_atom_subsets(space)})

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

    def to_json_dict(self) -> dict:
        values = {}
        for s in iter_atom_subsets(self.space):
            for a in s:
                if "," in a or "{" in a or "}" in a:
                    raise InputError(
                        f"atom id {a!r} cannot appear in a capacity table key"
                    )
            key = "{" + ",".join(a for a in self.space.atoms if a in s) + "}"
            values[key] = to_jsonable(self._table[s])
        return {"kind": "table", "values": values}

    @classmethod
    def from_json_dict(cls, d: dict, space: MeasureSpace) -> "Capacity":
        if not isinstance(d, dict):
            raise InputError(f"a capacity must be a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == "distortion":
            if d.get("of_measure", True) is not True:
                raise InputError(f"distortion 'of_measure' must be true, got {d['of_measure']!r}")
            if "gamma" not in d:
                raise InputError("a distortion capacity needs 'gamma'")
            if isinstance(d["gamma"], bool):
                raise InputError(f"distortion 'gamma' must be a number, got {d['gamma']!r}")
            return cls.distortion(space, as_scalar(d["gamma"], space.backing))
        if kind != "table":
            raise InputError(f"unknown capacity kind {kind!r}")
        values = d.get("values", {})
        if not isinstance(values, dict):
            raise InputError(f"capacity 'values' must be a JSON object, got {values!r}")
        table: Dict[AtomSet, Scalar] = {}
        for key, v in values.items():
            key = key.strip()
            if not (key.startswith("{") and key.endswith("}")):
                raise InputError(f"capacity key {key!r} must look like '{{a,b}}'")
            inner = key[1:-1].strip()
            atoms = frozenset(a.strip() for a in inner.split(",")) if inner else frozenset()
            if atoms in table:
                raise InputError(f"capacity table lists the set {_set_str(space, atoms)} twice")
            table[atoms] = v  # the constructor converts it
        return cls(space, table)


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

    def to_json_dict(self) -> dict:
        return {"kind": "distortion", "of_measure": True, "gamma": self.gamma}


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
