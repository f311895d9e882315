"""Integral functionals on finite atomic spaces.

Four integrals are provided:

* ``lebesgue_nonneg``    - weighted sum for nonnegative functions; equals the
  supremum over dominated simple functions (atom weights are finite, so a
  +inf value on a zero-weight atom contributes 0 * inf = 0);
* ``lebesgue_extended``  - integral of positive part plus minus the integral
  of the negative part, for semi-integrable functions;
* ``outer_integral`` / ``inner_integral`` - total on all functions; the
  closed forms combine the part integrals with the upper resp. lower
  extended addition, so they disagree exactly when both parts diverge;
* ``choquet``            - layer-cake integral with respect to a capacity,
  computed exactly by sorting the distinct finite values.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional

from .errors import DomainError, InputError
from .extreal import (
    POS_INF,
    ZERO,
    ExtReal,
    Scalar,
    as_scalar,
    ext,
    lower_add,
    neg,
    scalar_mul,
    to_jsonable,
    upper_add,
    add,
    weighted_parts,
)
from .fnlattice import FnClass
from .measure import AtomSet, MeasureSpace, iter_atom_subsets


def part_integrals(f: FnClass) -> tuple:
    """(integral of f+, integral of f-) in one pass over the atoms."""
    return weighted_parts(f.space.weights, f.values)


def lebesgue_nonneg(f: FnClass) -> ExtReal:
    """Integral of a mu-a.e. nonnegative function; value in [0, +inf]."""
    for i in f.space.non_null_indices():
        if f.values[i] < ZERO:
            raise DomainError(
                f"lebesgue_nonneg: negative value {f.values[i]} on non-null atom "
                f"{f.space.atoms[i]!r}"
            )
    # Null atoms add 0 whatever their value, so this is the positive part.
    return part_integrals(f)[0]


def lebesgue_extended(f: FnClass) -> ExtReal:
    """Extended Lebesgue integral of a semi-integrable function."""
    ip, im = part_integrals(f)
    if not (ip.is_finite or im.is_finite):
        raise DomainError(
            "function is not semi-integrable (both parts have infinite integral); "
            "use outer_integral or inner_integral"
        )
    return add(ip, neg(im))


def outer_integral(f: FnClass) -> ExtReal:
    """Infimum of integrals of dominating integrable functions (closed form)."""
    ip, im = part_integrals(f)
    return upper_add(ip, neg(im))


def inner_integral(f: FnClass) -> ExtReal:
    """Supremum of integrals of dominated integrable functions (closed form)."""
    ip, im = part_integrals(f)
    return lower_add(ip, neg(im))


class Capacity:
    """A monotone set function with c(empty) = 0, given as a dense table.

    Values are nonnegative extended reals.  On a finite space continuity
    from above holds automatically, which is what the Choquet interchange
    results require.
    """

    __slots__ = ("space", "_table", "kind", "gamma")

    def __init__(self, space: MeasureSpace, table: Mapping[AtomSet, ExtReal],
                 kind: str = "table", gamma: Optional[Scalar] = None):
        self.space = space
        self.kind = kind
        self.gamma = gamma
        full: Dict[AtomSet, ExtReal] = {}
        for s in iter_atom_subsets(space):
            if s not in table:
                raise InputError(f"capacity table misses the set {set(s) or '{}'}")
            full[s] = ext(table[s])
        self._table = full
        self._validate()

    def _validate(self) -> None:
        empty = frozenset()
        if self._table[empty] != ZERO:
            raise InputError("capacity must vanish on the empty set")
        # Rounding to float is monotone, so unequal floats order the exact
        # values; only float ties need the exact comparison.
        approx = {s: _monotone_float(v) for s, v in self._table.items()}
        for s, v in self._table.items():
            if v < ZERO:
                raise InputError(f"capacity value {v} on {set(s)} is negative")
            fv = approx[s]
            for a in self.space.atoms:
                if a not in s:
                    bigger = s | {a}
                    fb = approx[bigger]
                    if fb < fv or (fb == fv and self._table[bigger] < v):
                        raise InputError(
                            f"capacity is not monotone: c({set(s) or '{}'}) = {v} "
                            f"> c({set(bigger)}) = {self._table[bigger]}"
                        )

    def of(self, s: Iterable[str]) -> ExtReal:
        s = frozenset(s)
        try:
            return self._table[s]
        except KeyError:
            raise InputError(f"set {set(s)} is not over this capacity's space") from None

    @classmethod
    def from_measure(cls, space: MeasureSpace) -> "Capacity":
        """The additive capacity A -> mu(A); makes Choquet match Lebesgue."""
        from .measure import measure

        return cls(space, {s: measure(space, s) for s in iter_atom_subsets(space)})

    @classmethod
    def distortion(cls, space: MeasureSpace, gamma: Scalar) -> "Capacity":
        """c(A) = (mu(A)/mu(Omega))^gamma * mu(Omega).

        Computed in float: a fractional power is irrational in general, so
        this family is for demos and tolerance-based checks, not for exact
        interchange verdicts.  mu(A) sums the float weights in atom order,
        so the table does not depend on the hash seed and is monotone in
        floating point too.
        """
        g = float(gamma)
        if g <= 0:
            raise InputError("distortion exponent must be positive")
        total = float(space.total_mass())
        if total == 0:
            raise InputError("distortion of the zero measure is degenerate")
        weights = [float(w) for w in space.weights]
        # Same order as iter_atom_subsets: by size, then combinations order.
        subset_weights = (ws for k in range(len(weights) + 1)
                          for ws in combinations(weights, k))
        table = {}
        for s, ws in zip(iter_atom_subsets(space), subset_weights):
            table[s] = ExtReal((sum(ws) / total) ** g * total)
        return cls(space, table, kind="distortion", gamma=gamma)

    def to_json_dict(self) -> dict:
        if self.kind == "distortion":
            return {"kind": "distortion", "of_measure": True,
                    "gamma": float(self.gamma)}
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
            if "gamma" not in d:
                raise InputError("a distortion capacity needs 'gamma'")
            return cls.distortion(space, as_scalar(d["gamma"]))
        if kind != "table":
            raise InputError(f"unknown capacity kind {kind!r}")
        table: Dict[AtomSet, ExtReal] = {}
        for key, v in d.get("values", {}).items():
            key = key.strip()
            if not (key.startswith("{") and key.endswith("}")):
                raise InputError(f"capacity key {key!r} must look like '{{a,b}}'")
            inner = key[1:-1].strip()
            atoms = frozenset(a.strip() for a in inner.split(",")) if inner else frozenset()
            table[atoms] = ext(v)
        return cls(space, table)


def _monotone_float(v: ExtReal) -> float:
    """float(v); a value beyond the float range becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > ZERO else -math.inf


def choquet(f: FnClass, c: Capacity) -> ExtReal:
    """Choquet integral of a one-signed function.

    Nonnegative (mu-a.e.) functions integrate as the layer cake
    sum of (v_i - v_{i-1}) * c({f > v_{i-1}}) over the sorted distinct
    finite values, plus an infinite plateau that contributes +inf exactly
    when c({f = +inf}) > 0.  Nonpositive functions go through negation;
    mixed signs are rejected.

    Level sets use the literal representative values, so the integral is
    monotone for the plain pointwise order under any capacity (and for the
    mu-pointwise order whenever the capacity ignores null atoms).
    """
    if f.space != c.space:
        raise InputError("capacity and function live on different spaces")
    nonneg = all(f.values[i] >= ZERO for i in f.space.non_null_indices())
    nonpos = all(f.values[i] <= ZERO for i in f.space.non_null_indices())
    if nonneg:
        return _choquet_nonneg(f, c)
    if nonpos:
        return neg(_choquet_nonneg(f.map(neg), c))
    raise DomainError("choquet requires a mu-a.e. one-signed function")


def _choquet_nonneg(f: FnClass, c: Capacity) -> ExtReal:
    space = f.space
    finite_levels = sorted(
        {v for v in f.values if v.is_finite and v > ZERO},
    )
    total = ZERO
    prev = ZERO
    for v in finite_levels:
        level_set = frozenset(
            a for a, fv in zip(space.atoms, f.values) if fv > prev
        )
        step = v.finite_value - prev.finite_value
        total = lower_add(total, scalar_mul(step, c.of(level_set)))
        prev = v
    plateau = frozenset(a for a, fv in zip(space.atoms, f.values) if fv.is_pos_inf)
    if plateau and c.of(plateau) > ZERO:
        return POS_INF
    return total
