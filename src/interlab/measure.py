"""Finite atomic measure spaces.

A space is an ordered list of named atoms with nonnegative finite weights.
Null sets are exactly the sets of zero-weight atoms, which keeps the
almost-everywhere machinery of the function lattice to a per-atom scan.
A space may carry a ``truncation_of`` label describing the countable space
it finitely truncates (used by the gallery's diverging-sequence examples).

A space also owns the scalar backing of everything built on it:
``"rational"`` (exact, the default) or ``"float"``.  Its weights, and the
values of the functions, capacities, integrands and tolerances on it, are
coerced with that backing where they enter.  The backing is part of the
space's equality, so values of the two backings never meet in one
computation: combining them raises ``InputError``.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError
from .extreal import BACKINGS, Scalar, _kept, as_scalar, coerce_all, to_jsonable

AtomSet = FrozenSet[str]


class MeasureSpace:
    """Atoms with weights; immutable after construction.

    The weights are coerced with ``extreal.coerce_all`` in ``backing``, as
    finite scalars, so each distinct string among them is parsed once per
    call.
    """

    __slots__ = ("atoms", "weights", "truncation_of", "backing", "_index", "_non_null")

    def __init__(
        self,
        atoms: Sequence[str],
        weights: Sequence[Scalar],
        truncation_of: Optional[str] = None,
        backing: str = "rational",
    ):
        if backing not in BACKINGS:
            raise InputError(f"unknown backing {backing!r}; expected one of {BACKINGS}")
        atoms = tuple(atoms)
        if not atoms:
            raise InputError("a measure space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise InputError("atom identifiers must be distinct")
        if len(weights) != len(atoms):
            raise InputError("weights and atoms must align")
        ws = coerce_all(weights, backing, finite=True)
        for w in ws:
            if w < 0:
                raise InputError(f"negative atom weight {w}")
        self.atoms = atoms
        self.weights = tuple(ws)
        self.truncation_of = truncation_of
        self.backing = backing
        self._index = {a: i for i, a in enumerate(atoms)}
        self._non_null = tuple(i for i, w in enumerate(ws) if w != 0)

    def index(self, atom: str) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise InputError(f"unknown atom {atom!r}") from None

    def is_null_atom(self, i: int) -> bool:
        return self.weights[i] == 0

    def non_null_indices(self) -> Tuple[int, ...]:
        """Indices of the atoms of positive weight, in atom order."""
        return self._non_null

    def total_mass(self) -> Scalar:
        """The sum of the weights; under rational backing an int when integral."""
        total = sum(self.weights, as_scalar(0, self.backing))
        return total if self.backing == "float" else _kept(total)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return (
            self.atoms == other.atoms
            and self.weights == other.weights
            and self.truncation_of == other.truncation_of
            and self.backing == other.backing
        )

    def __hash__(self) -> int:
        return hash((self.atoms, self.weights, self.truncation_of, self.backing))

    def __repr__(self) -> str:
        label = f", truncation_of={self.truncation_of!r}" if self.truncation_of else ""
        return f"MeasureSpace({list(self.atoms)!r}, {list(self.weights)!r}{label})"

    def to_json_dict(self) -> dict:
        d = {
            "atoms": list(self.atoms),
            "weights": [to_jsonable(w) for w in self.weights],
        }
        if self.truncation_of is not None:
            d["truncation_of"] = self.truncation_of
        return d

    @classmethod
    def from_json_dict(cls, d: dict, backing: str = "rational") -> "MeasureSpace":
        if not isinstance(d, dict) or "atoms" not in d or "weights" not in d:
            raise InputError("space object needs 'atoms' and 'weights'")
        for w in d["weights"]:
            # JSON numbers and "p/q" strings; the constructor converts them.
            if not (type(w) in (int, float) or isinstance(w, str) and "/" in w):
                raise InputError(f"cannot decode {w!r} as a weight")
        return cls(d["atoms"], d["weights"], d.get("truncation_of"), backing)


def _check_subset(space: MeasureSpace, s: Iterable[str]) -> AtomSet:
    s = frozenset(s)
    for a in s:
        space.index(a)
    return s


def measure(space: MeasureSpace, s: Iterable[str]) -> Scalar:
    """Total weight of the atoms in ``s``; finite and nonnegative.

    The weights are added in atom order, so a float sum does not depend on
    the hash seed.
    """
    s = _check_subset(space, s)
    return as_scalar(sum(w for a, w in zip(space.atoms, space.weights) if a in s),
                     space.backing)


def is_null(space: MeasureSpace, s: Iterable[str]) -> bool:
    """True iff ``s`` has measure zero."""
    return measure(space, s) == 0


def iter_atom_subsets(space: MeasureSpace) -> Iterator[AtomSet]:
    """All subsets of the atoms, smallest first; 2**len(space) of them."""
    for k in range(len(space.atoms) + 1):
        for combo in combinations(space.atoms, k):
            yield frozenset(combo)
