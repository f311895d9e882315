"""Desk-scale interchange over decomposable selection sets.

An integrand is a finite table f(atom, control); a selection assigns one
control index to every atom, and G maps selections to functions by
G(u)(atom) = f(atom, u(atom)).  Selection sets come in two forms: PRODUCT
(per-atom admissible control subsets) and EXPLICIT (a plain list).

Decomposability at this scale means closure under patching members with
arbitrary reachable values on arbitrary atom sets, which is the same as
being the product of the per-atom projections; both characterizations are
computed and must agree.  Closure under single-atom patches already implies
closure under every patch (apply a patch one atom at a time: each
intermediate is a member).  The patch side reads each member of an explicit
set U with projections P_1..P_n as one mixed-radix integer code over the
P_i, so on a decomposable set it costs about n * |U| integer operations and
set lookups.  A set computes its projections once.  Note the patching
clause uses the values the set actually reaches at each atom: constraining
controls per atom is expressed through the selection set (or with +inf
penalties in the integrand), and the minimized side of the interchange uses
the same reachable sets.

``verify_rw_interchange`` brute-forces the selection side against the
integral of the per-atom minimum in one pass over the set, a block of
selections at a time; a product folds its trailing atoms one atom layer
at a time, with the additions of ``outer_integral(G(u))`` in its order.
The same pass collects the minimizers, and the selections that pick a
per-atom minimizer on every non-null atom are read off the per-atom
argmins, so ``verify_rw_argmin`` checks the selection-by-selection argmin
characterization (whenever the common value is finite) from the
interchange report without enumerating again.  ``verify_shapiro`` checks
the hypotheses and conclusion of the norm-convergence interchange for
general order-preserving functionals on a probability space; for the
built-in integrals its conclusion takes the minimum of the same fold.
"""

from __future__ import annotations

import math
from cmath import isinf
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, compress, islice, product, repeat
from operator import add, contains, eq, getitem, sub
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetError, DomainError, InputError, InvariantError
from .extreal import (
    NEG_INF,
    NOT_JSON,
    POS_INF,
    Report,
    Scalar,
    _eq_within,
    _leq_within,
    as_scalar,
    coerce_all,
    exact_codes,
    to_text,
    weighted_parts,
)
from .fnlattice import FnClass, fn_add, fn_neg, lp_norm
from .functionals import Functional
from .integrals import PART_SUMS, outer_integral, part_sum
from .interchange import _tolerance
from .measure import MeasureSpace

DEFAULT_ENUM_BUDGET = 10**6

# Selections folded together: a product folds its trailing atoms whose
# admissible sets multiply to at most this many one atom layer at a time,
# and an explicit set is read this many selections at a time.
SELECTION_BLOCK = 1024

Selection = Tuple[int, ...]


@dataclass(frozen=True)
class Integrand:
    """A total table over atoms x controls, with extended-real entries.

    The control labels only name the table's columns, so only their count
    is kept.  The entries are coerced in one ``extreal.coerce_all`` call, so
    each distinct string among them is parsed once per table.
    """

    space: MeasureSpace
    n_controls: int
    table: Tuple[Tuple[Scalar, ...], ...]

    def __init__(self, space: MeasureSpace, controls: Sequence, table: Sequence[Sequence]):
        k = len(controls)
        if not k:
            raise InputError("an integrand needs at least one control")
        if len(table) != len(space.atoms):
            raise InputError("integrand table must have one row per atom")
        short = next((i for i, row in enumerate(table) if len(row) != k), None)
        # The rows before the first misfit are read first, so a bad entry
        # among them is the error reported.
        values = coerce_all([v for row in table[:short] for v in row], space.backing)
        if short is not None:
            raise InputError("integrand table row must have one entry per control")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "n_controls", k)
        object.__setattr__(self, "table", tuple(tuple(values[i:i + k])
                                                for i in range(0, len(values), k)))

    def g_of(self, selection: Selection) -> FnClass:
        """The function omega -> f(omega, u(omega)) for a selection u."""
        if len(selection) != len(self.space.atoms):
            raise InputError("selection must assign a control to every atom")
        return FnClass.from_ext(
            self.space,
            tuple([self.table[i][c] for i, c in enumerate(selection)]),
        )

    def g_flat(self, admissible: Optional[Sequence[Sequence[int]]] = None) -> FnClass:
        """Per-atom minimum of f(omega, .) over the given control sets."""
        sets = admissible or [range(self.n_controls)] * len(self.space.atoms)
        return FnClass(
            self.space,
            [min(self.table[i][c] for c in cs) for i, cs in enumerate(sets)],
        )

    def per_atom_argmin(self, admissible: Optional[Sequence[Sequence[int]]] = None) -> List[Tuple[int, ...]]:
        sets = admissible or [range(self.n_controls)] * len(self.space.atoms)
        out = []
        for i, cs in enumerate(sets):
            best = min(self.table[i][c] for c in cs)
            out.append(tuple(c for c in cs if self.table[i][c] == best))
        return out


def _control_indices(items, n_controls: int, what: str) -> Tuple[int, ...]:
    """``items`` as a tuple of control indices: ints (not bools) in range."""
    indices = tuple(items)
    for c in indices:
        if isinstance(c, bool) or not isinstance(c, int):
            raise InputError(f"{what} has a non-integer control index {c!r}")
        if not 0 <= c < n_controls:
            raise InputError(f"{what} uses an out-of-range control index")
    return indices


def check_selection(s, n_atoms: int, n_controls: int) -> Selection:
    """``s`` as a selection: one control index in range per atom."""
    if not isinstance(s, (list, tuple)):
        raise InputError(f"a selection must be a list of control indices, got {s!r}")
    if len(s) != n_atoms:
        raise InputError("selection length must equal the atom count")
    return _control_indices(s, n_controls, "selection")


class SelectionSet:
    """Either an explicit list of selections or a per-atom product."""

    __slots__ = ("kind", "n_atoms", "n_controls", "selections", "admissible", "_projections")

    def __init__(self, kind, n_atoms, n_controls, selections=None, admissible=None):
        self.kind = kind
        self.n_atoms = n_atoms
        self.n_controls = n_controls
        if kind == "explicit":
            sels = []
            seen = set()
            for s in selections or ():
                s = check_selection(s, n_atoms, n_controls)
                if s not in seen:
                    seen.add(s)
                    sels.append(s)
            if not sels:
                raise InputError("a selection set must be nonempty")
            self.selections = tuple(sels)
            self.admissible = None
            self._projections = None
        elif kind == "product":
            adm = []
            if admissible is None or len(admissible) != n_atoms:
                raise InputError("product form needs one admissible set per atom")
            for s in admissible:
                s = tuple(sorted(set(_control_indices(s, n_controls, "admissible set"))))
                if not s:
                    raise InputError("admissible sets must be nonempty")
                adm.append(s)
            self.admissible = self._projections = tuple(adm)
            self.selections = None
        else:
            raise InputError(f"unknown selection-set kind {kind!r}")

    @classmethod
    def explicit(cls, selections: Sequence[Selection], n_atoms: int, n_controls: int):
        return cls("explicit", n_atoms, n_controls, selections=selections)

    @classmethod
    def full_product(cls, n_atoms: int, n_controls: int):
        return cls("product", n_atoms, n_controls,
                   admissible=[range(n_controls)] * n_atoms)

    def count(self) -> int:
        if self.kind == "explicit":
            return len(self.selections)
        total = 1
        for s in self.admissible:
            total *= len(s)
        return total

    def iter_selections(self, budget: int = DEFAULT_ENUM_BUDGET):
        if self.count() > budget:
            raise BudgetError(
                f"selection enumeration needs {self.count()} > budget {budget}; "
                "refusing to sample where exact equality is claimed"
            )
        if self.kind == "explicit":
            return iter(self.selections)
        return product(*self.admissible)

    def projections(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-atom sorted sets of reachable control indices, computed once."""
        if self._projections is None:
            self._projections = tuple(
                tuple(sorted(set(column))) for column in zip(*self.selections)
            )
        return self._projections


@dataclass
class DecomposabilityReport(Report):
    decomposable: bool
    witness_patch: Optional[dict] = None
    notes: List[str] = field(default_factory=list)


def is_decomposable(u_set: SelectionSet) -> DecomposabilityReport:
    """Patch-closure check, cross-validated against the projection product.

    Explicit sets are decomposable exactly when they equal the product of
    their per-atom projections.  The patch side tests closure under
    single-atom patches (replace one atom's value of a member by another
    reachable value) on the members' mixed-radix codes (``_patch_closed``):
    about n * |U| integer operations and set lookups on a decomposable set,
    with the projections computed once per set.  Closure under single-atom
    patches implies closure under every patch, since a patch applied one
    atom at a time passes only through members.  It must agree with the
    product count.  On failure the reported witness is the first violating
    patch of the first member, in the order of increasing atom count, then
    atom set, then values: every point of the product of the projections is
    a patch of that member, so no later member is ever needed.
    """
    if u_set.kind == "product":
        return DecomposabilityReport(True, notes=["product form: decomposable by construction"])

    projections = u_set.projections()
    places = _code_places(projections)
    columns = list(zip(*u_set.selections))
    codes = [0] * len(u_set.selections)
    for place, column in zip(places, columns):
        codes = list(map(add, codes, map(place.__getitem__, column)))
    by_patching = _patch_closed(columns, places, codes)
    by_product = len(u_set.selections) == math.prod(map(len, projections))
    if by_patching != by_product:
        raise InvariantError(
            "patch-closure and projection-product decomposability tests disagree"
        )
    witness = None
    if not by_patching:
        witness = _first_patch_witness(u_set.selections[0], projections, places, set(codes))
    return DecomposabilityReport(by_patching, witness_patch=witness)


def _code_places(projections):
    """Per atom i, the map from a reachable control c to pos_i(c) * R_i.

    A selection u gets the mixed-radix code sum_i pos_i(u_i) * R_i, where
    pos_i is the place of a control in the sorted projection P_i and R_i the
    product of the later projection sizes, so the points of the product of
    the P_i get the distinct codes 0 to prod_i |P_i| - 1.
    """
    places, radix = [], 1
    for values in reversed(projections):
        places.append(dict(zip(values, range(0, radix * len(values), radix))))
        radix *= len(values)
    places.reverse()
    return places


def _patch_closed(columns, places, codes) -> bool:
    """Whether every single-atom patch of a member by a reachable value is a
    member, on the members' codes (see ``_code_places``), whose per-atom
    controls are ``columns``.

    The set is closed under patches at atom i iff it is closed under the
    cyclic successor of atom i's value (one patch, and |P_i| - 1 of them
    reach every other reachable value): every code plus R_i, or minus
    (|P_i| - 1) * R_i at the last place, is a code.  So each atom costs one
    addition and one set lookup per member, n * |U| in all.
    """
    members = set(codes)
    for place, column in zip(places, columns):
        offsets = list(place.values())
        successor = dict(zip(place, map(sub, offsets[1:] + offsets[:1], offsets)))
        if not members.issuperset(map(add, codes, map(successor.__getitem__, column))):
            return False
    return True


def _first_patch_witness(base: Selection, projections, places, members) -> Optional[dict]:
    """The first patch of ``base`` whose code (see ``_code_places``) is not
    in ``members``, in the order of increasing atom count, then atom set,
    then values, or None.

    The codes of the patches on one atom set are built together, in the
    product order of their values, from the code of ``base``.
    """
    n = len(base)
    start = sum(map(getitem, places, base))
    for k in range(1, n + 1):
        for atoms in combinations(range(n), k):
            patches = [start]
            for i in atoms:
                own = places[i][base[i]]
                patches = [c + p - own for c in patches for p in places[i].values()]
            if members.issuperset(patches):
                continue
            index = next(j for j, c in enumerate(patches) if c not in members)
            patch_values = []
            for i in reversed(atoms):
                index, q = divmod(index, len(projections[i]))
                patch_values.append(projections[i][q])
            patch_values.reverse()
            patched = list(base)
            for i, v in zip(atoms, patch_values):
                patched[i] = v
            return {
                "base": list(base),
                "atoms": list(atoms),
                "values": patch_values,
                "patched": patched,
            }
    return None


@dataclass
class RwInterchangeReport(Report):
    lhs: Scalar
    rhs: Scalar
    equal: bool
    decomposable: bool
    hypothesis_notes: List[str] = field(default_factory=list)
    minimizers: List[Selection] = field(default_factory=list)
    # Selections picking a per-atom minimizer on every non-null atom, in
    # enumeration order; read by verify_rw_argmin, not reported.
    pointwise_argmin: List[Selection] = field(default_factory=list, repr=False,
                                              metadata=NOT_JSON)


def _check_fits(u_set: SelectionSet, integrand: Integrand) -> None:
    """InputError unless ``u_set`` has the integrand's atom and control counts."""
    if u_set.n_atoms != len(integrand.space.atoms):
        raise InputError("selection set and integrand disagree on the atom count")
    if u_set.n_controls != integrand.n_controls:
        raise InputError("selection set and integrand disagree on the control count")


def verify_rw_interchange(
    integrand: Integrand,
    u_set: SelectionSet,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    tolerance: Optional[Scalar] = None,
) -> RwInterchangeReport:
    """Brute-force min over selections of the outer integral, against the
    outer integral of the per-atom minimum over the reachable controls.

    A non-decomposable set is still evaluated, flagged as a hypothesis
    violation: equality may fail there.  The inequality lhs >= rhs always
    holds, since G(u) >= G-flat on every atom and the outer integral and
    float rounding are monotone, so lhs below rhs beyond the tolerance is
    an InvariantError, as is inequality on a decomposable set.  Requires
    some selection with integrable positive part.  The set is enumerated
    once (see ``_min_over_selections``).
    """
    tol = _tolerance(tolerance, integrand.space.backing)
    _check_fits(u_set, integrand)

    decomp = is_decomposable(u_set)
    notes = list(decomp.notes)
    if not decomp.decomposable:
        notes.append("hypothesis violated: selection set is not decomposable")

    projections = u_set.projections()
    lhs, minimizers, pointwise_argmin = _min_over_selections(
        integrand, u_set, projections, enum_budget
    )
    rhs = outer_integral(integrand.g_flat(projections))
    equal = _eq_within(lhs, rhs, tol)
    if not equal and decomp.decomposable:
        raise InvariantError(
            f"interchange equality failed on a decomposable set: "
            f"lhs={to_text(lhs)}, rhs={to_text(rhs)}"
        )
    if not equal:
        if lhs < rhs:
            raise InvariantError(
                f"min over selections below the integral of the per-atom minimum: "
                f"lhs={to_text(lhs)}, rhs={to_text(rhs)}"
            )
        notes.append("strict inequality lhs > rhs")
    return RwInterchangeReport(
        lhs=lhs, rhs=rhs, equal=equal, decomposable=decomp.decomposable,
        hypothesis_notes=notes, minimizers=minimizers,
        pointwise_argmin=pointwise_argmin,
    )


def _min_over_selections(integrand, u_set, projections, enum_budget):
    """(min, minimizers, pointwise argmin set) of outer_integral(G(u)) over u,
    from one walk of ``_selection_folds``.

    A block's minimizers are ``compress``-ed out of the one selection
    iterator.  A product's pointwise argmin set is the product of the
    per-atom argmin controls (every reachable control on a null atom); an
    explicit set's is its members that pick such controls.  Raises
    DomainError when no selection has a finite positive part, that is, when
    the minimum is +inf.
    """
    blocks, finish = _selection_folds(integrand, u_set, projections, enum_budget,
                                      PART_SUMS[outer_integral])
    lhs, minimizers = None, []
    for values, block in blocks:
        m = min(values)
        if lhs is None or m < lhs:
            lhs, minimizers = m, list(compress(block, map(eq, values, repeat(m))))
        elif m == lhs:
            minimizers += compress(block, map(eq, values, repeat(m)))
    lhs = finish(lhs)
    if lhs == POS_INF:
        raise DomainError(
            "precondition failure: no selection has integrable positive part"
        )
    space = integrand.space
    argmin_sets = [
        cs if space.is_null_atom(i) else best
        for i, (cs, best) in enumerate(zip(projections, integrand.per_atom_argmin(projections)))
    ]
    if u_set.kind == "product":
        return lhs, minimizers, list(product(*argmin_sets))
    picks = [set(cs) for cs in argmin_sets]
    return lhs, minimizers, [s for s in u_set.selections if all(map(contains, picks, s))]


def _selection_folds(integrand, u_set, projections, enum_budget, combine):
    """(blocks, finish): (values, selections) per block of ``u_set``, in
    enumeration order, and the map from the least value to the least
    integral of G(u) whose ``integrals.PART_SUMS`` entry is ``combine``.
    Values order as those integrals do, and equal integrals have equal
    values but for +inf, which is least only when every value is.

    Every (atom, reachable control) gets one code, and a selection's parts
    are the atom-order left fold of its codes.  Under float backing a code
    is the complex (positive term, negative term) of ``weighted_parts``,
    whose addition adds the two parts with its rounding, bit for bit, and a
    fold z gives ``combine(z.real, z.imag)`` when a code is infinite, else
    ip - im.  Under rational backing it is the int of
    ``extreal.exact_codes`` of the reachable entries, and
    ``ExactCodes.ordered`` makes a block's folds order as their integrals
    do.  Either way the integral's own DomainError comes at its first
    selection.  A product folds the trailing atoms whose admissible sets
    multiply to at most ``SELECTION_BLOCK`` one atom layer at a time, from
    the fold of the leading atoms; an explicit set folds each selection.
    Where a fold could differ from ``weighted_parts`` (see
    ``_complex_codes``) or no exact code is built, each selection is
    ``combine(*weighted_parts(...))``.
    """
    space = integrand.space
    selections = u_set.iter_selections(enum_budget)
    if space.backing == "float":
        codes, rows, zero = None, _complex_codes(space.weights, integrand.table, projections), 0j
    else:
        codes = exact_codes(space.weights, [  # 0 where no selection reaches
            [x if c in reach else 0 for c, x in enumerate(row)]
            for row, reach in zip(integrand.table, map(set, projections))])
        rows, zero = codes and codes.rows, 0

    def finish(least):
        return least if codes is None or type(least) is float else codes.value(least, combine)

    if rows is None:
        def value(sel):
            return combine(*weighted_parts(
                space.weights, [row[c] for row, c in zip(integrand.table, sel)]))

        return _listed_blocks(selections, value), finish
    if u_set.kind == "product":
        blocks = _product_blocks(rows, u_set.admissible, selections, zero)
    else:
        blocks = _listed_blocks(selections, lambda sel: reduce(add, map(getitem, rows, sel), zero))
    if codes is None and any(map(isinf, chain.from_iterable(rows))):
        blocks = (([combine(z.real, z.imag) for z in values], block) for values, block in blocks)
    elif codes is None:
        blocks = (([z.real - z.imag for z in values], block) for values, block in blocks)
    elif codes.infinite:
        blocks = ((codes.ordered(values, combine), block) for values, block in blocks)
    return blocks, finish


def _min_of_folds(integrand, u_set, enum_budget, combine):
    """The least value of ``_selection_folds``: min over u of the integral of G(u)."""
    blocks, finish = _selection_folds(integrand, u_set, u_set.projections(), enum_budget, combine)
    return finish(min([min(values) for values, _ in blocks]))


def _product_blocks(rows, admissible, selections, zero):
    """(folds, selections) per block of a product, in enumeration order.

    The leading atoms advance an odometer, one block per head tuple; what
    the consumer leaves unread of a block's selections is skipped.
    """
    h, size = len(rows), 1
    while h and size * len(admissible[h - 1]) <= SELECTION_BLOCK:
        h -= 1
        size *= len(admissible[h])
    layers = [[row[c] for c in cs] for row, cs in zip(rows, admissible)]
    for head in product(*layers[:h]):
        acc = [reduce(add, head, zero)]
        for layer in layers[h:]:
            acc = [s + t for s in acc for t in layer]
        block = islice(selections, size)
        yield acc, block
        deque(block, maxlen=0)


def _listed_blocks(selections, value):
    """(values, selections) per run of ``SELECTION_BLOCK`` selections."""
    while block := list(islice(selections, SELECTION_BLOCK)):
        yield [value(sel) for sel in block], block


def _complex_codes(weights, table, projections):
    """Per atom, the complex codes (positive term, negative term) of the
    float values at the reachable controls; None when a fold could leave
    the float range."""
    rows, plus_bound, minus_bound = [], 0.0, 0.0
    for w, row, controls in zip(weights, table, projections):
        codes = [0j] * len(row)
        plus_max = minus_max = 0.0
        for c in controls:
            x = row[c]
            if x == POS_INF or x == NEG_INF:
                if w:  # 0 * inf = 0 on a null atom
                    codes[c] = complex(POS_INF, 0.0) if x > 0 else complex(0.0, POS_INF)
            elif x > 0:
                codes[c] = complex(w * x, 0.0)
                plus_max = max(plus_max, w * x)
            elif x < 0:
                codes[c] = complex(0.0, w * -x)
                minus_max = max(minus_max, w * -x)
        plus_bound += plus_max
        minus_bound += minus_max
        rows.append(codes)
    if plus_bound == POS_INF or minus_bound == POS_INF:
        return None
    return rows


@dataclass
class RwArgminReport(Report):
    applicable: bool
    characterization_holds: Optional[bool]
    common_value: Optional[Scalar]
    argmin_selections: List[Selection] = field(default_factory=list)
    per_atom_argmin: List[Tuple[int, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def verify_rw_argmin(
    integrand: Integrand,
    u_set: SelectionSet,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    interchange: Optional[RwInterchangeReport] = None,
) -> RwArgminReport:
    """Check: u minimizes the selection problem iff u picks per-atom
    minimizers on every non-null atom.  Not applicable at common value -inf.

    ``interchange`` is the report of ``verify_rw_interchange`` on the same
    integrand and set, whose single enumeration already collected both
    sides; without it the interchange is run here, at the default tolerance.
    """
    base = interchange
    if base is None:
        base = verify_rw_interchange(integrand, u_set, enum_budget)
    if base.lhs == NEG_INF:
        return RwArgminReport(
            applicable=False, characterization_holds=None, common_value=base.lhs,
            notes=["common value is -inf: characterization not applicable"],
        )
    holds = set(base.minimizers) == set(base.pointwise_argmin)
    return RwArgminReport(
        applicable=True,
        characterization_holds=holds,
        common_value=base.lhs,
        argmin_selections=base.minimizers,
        per_atom_argmin=integrand.per_atom_argmin(u_set.projections()),
        notes=[] if holds else ["argmin sets differ"],
    )


@dataclass
class ShapiroScenario:
    """Inputs for the norm-convergence interchange check.

    ``selection_prefix`` is the finite prefix of the sequence (u_n);
    ``selection_set`` is the full feasible set (defaults to the prefix as an
    explicit set).  The flat function G-flat minimizes the integrand
    per atom over all controls; a declared one, when given, is checked
    against the computed one.
    """

    functional: Functional
    p: Scalar
    integrand: Integrand
    selection_prefix: List[Selection]
    declared_gflat: Optional[FnClass] = None
    selection_set: Optional[SelectionSet] = None
    tolerance: Optional[Scalar] = None


@dataclass
class Hypothesis:
    """One itemized hypothesis of a Shapiro check."""

    name: str
    ok: bool
    detail: str


@dataclass
class ShapiroReport(Report):
    hypotheses: List[Hypothesis]
    norms: List[Scalar]
    conclusion_lhs: Scalar
    conclusion_rhs: Scalar
    conclusion_holds: bool
    conclusion_mode: str  # "exact" or "sampled"
    notes: List[str] = field(default_factory=list)


def verify_shapiro(sc: ShapiroScenario, enum_budget: int = DEFAULT_ENUM_BUDGET) -> ShapiroReport:
    """Itemize the hypotheses and test the conclusion inf Phi(G(u)) = Phi(G-flat).

    The space needs mass 1, under float backing as the correctly rounded sum
    of the weights.  Within ``enum_budget``, the inf of a Phi in
    ``integrals.PART_SUMS`` is the least value of ``_selection_folds``, in
    value, type and first error that of min Phi(G(u)); any other Phi is
    evaluated on each G(u).  When G-flat is the computed per-atom minimum
    over all controls (none declared, or a declared one equal to it), every
    G(u) is at least G-flat, so for a declared order-preserving Phi the
    conclusion's lhs below Phi(G-flat) beyond the tolerance is an
    InvariantError, in "sampled" mode too.
    """
    space = sc.integrand.space
    if not _unit_mass(space):
        raise InputError("Shapiro scenarios require a probability space (mass 1)")
    p = as_scalar(sc.p, space.backing)
    if p < 1:
        raise InputError("exponent p must lie in [1, inf)")
    tol = _tolerance(sc.tolerance, space.backing)
    if not sc.selection_prefix:
        raise InputError("the selection sequence prefix must be nonempty")
    u_set = sc.selection_set or SelectionSet.explicit(
        sc.selection_prefix, len(space.atoms), sc.integrand.n_controls
    )
    _check_fits(u_set, sc.integrand)

    gflat = sc.integrand.g_flat()
    notes: List[str] = []
    hypotheses: List[Hypothesis] = []
    gflat_computed = sc.declared_gflat is None or sc.declared_gflat == gflat
    if sc.declared_gflat is not None:
        if gflat_computed:
            notes.append("declared G-flat matches the computed per-atom minimum")
        else:
            hypotheses.append(
                Hypothesis("declared_gflat", False, "declared G-flat differs from computed")
            )
        gflat = sc.declared_gflat

    non_null = space.non_null_indices()
    gflat_finite = all(abs(gflat.values[i]) != POS_INF for i in non_null)
    hypotheses.append(Hypothesis(
        "gflat_in_lp", gflat_finite,
        "G-flat finite on non-null atoms" if gflat_finite else "G-flat is infinite somewhere"))

    s1_ok, s1_detail = True, "all G(u) finite on non-null atoms"
    try:
        sels = u_set.iter_selections(enum_budget)
        exact = True
    except BudgetError:
        sels = [tuple(s) for s in sc.selection_prefix]
        exact = False
        notes.append("selection set beyond budget: S1 checked on the prefix only")
    prefix_fns = [sc.integrand.g_of(tuple(s)) for s in sc.selection_prefix]
    # The set is streamed, never held: S1 reads the entries of the atoms of
    # positive weight, and the conclusion folds codes or builds each G(u).
    infinite = [(i, [abs(v) == POS_INF for v in sc.integrand.table[i]]) for i in non_null]
    infinite = [(i, row) for i, row in infinite if any(row)]
    if infinite:
        for sel in sels:
            if any(row[sel[i]] for i, row in infinite):
                s1_ok, s1_detail = False, f"G({list(sel)}) is infinite on a non-null atom"
                break
    hypotheses.append(Hypothesis("S1_image_in_lp", s1_ok, s1_detail))

    norms = [lp_norm(fn_add(g, fn_neg(gflat), mode="lower"), p) for g in prefix_fns]
    # Norms are float-valued for p != 1, so a zero tolerance would be
    # unsatisfiable for genuinely converging (never stabilizing) sequences.
    norm_tol = tol if tol > 0 else as_scalar(1e-6, space.backing)
    converged = norms[-1] <= norm_tol
    hypotheses.append(Hypothesis(
        "S2a_norm_convergence", converged,
        f"last prefix norm {to_text(norms[-1])} vs tolerance {norm_tol}"))

    phi_vals = [sc.functional(g) for g in prefix_fns]
    tail = phi_vals[len(phi_vals) // 2:]
    liminf_est = min(tail)
    phi_flat = sc.functional(gflat)
    s2b = phi_flat >= liminf_est or _eq_within(phi_flat, liminf_est, tol)
    hypotheses.append(Hypothesis(
        "S2b_liminf", s2b,
        f"Phi(G-flat) = {to_text(phi_flat)} vs prefix liminf {to_text(liminf_est)}"))

    combine = part_sum(sc.functional.eval_fn)
    mode = "exact" if exact else "sampled"
    if not exact:
        inf_val = min(phi_vals)
        notes.append("conclusion estimated from the prefix only (an upper bound on inf)")
    elif combine is None:
        g_of = sc.integrand.g_of
        inf_val = min(sc.functional(g_of(sel)) for sel in u_set.iter_selections(enum_budget))
    else:
        inf_val = _min_of_folds(sc.integrand, u_set, enum_budget, combine)
    if (gflat_computed and sc.functional.order_preserving
            and not _leq_within(phi_flat, inf_val, tol)):
        raise InvariantError(
            f"Shapiro conclusion below Phi of the per-atom minimum for an order-preserving "
            f"Phi: lhs={to_text(inf_val)}, rhs={to_text(phi_flat)}"
        )
    holds = _eq_within(inf_val, phi_flat, tol)
    return ShapiroReport(
        hypotheses=hypotheses,
        norms=norms,
        conclusion_lhs=inf_val,
        conclusion_rhs=phi_flat,
        conclusion_holds=holds,
        conclusion_mode=mode,
        notes=notes,
    )


def _unit_mass(space: MeasureSpace) -> bool:
    """Whether the weights sum to 1; floats by ``math.fsum``, in no atom order."""
    if space.backing == "rational":
        return space.total_mass() == 1
    try:
        return math.fsum(space.weights) == 1
    except OverflowError:  # nonnegative weights: the sum is above 1
        return False
