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
set lookups.  A set computes its projections once.  The patching clause,
like the minimized side of the interchange, uses the values the set reaches
at each atom: per-atom constraints on controls go in the selection set (or
as +inf penalties in the integrand).

One walk, ``_selection_folds``, takes min over u of Phi(G(u)) for every
Phi.  It folds the built-in integrals, with the additions of the integral
of G(u) in its order, and evaluates any other Phi on each G(u).  A fold is
monotone in each term, so on a product it visits only the prefixes whose
least completion is the least fold (``_product_walk``).
``verify_rw_interchange`` takes the outer integral's minimum and
minimizers from it, against the integral of the per-atom minimum.
``verify_rw_argmin`` derives the selections that pick a per-atom minimizer
on every non-null atom from the per-atom argmins, and checks the argmin
characterization (whenever the common value is finite) against those
minimizers without enumerating again.  ``verify_shapiro`` checks the
hypotheses and conclusion of the norm-convergence interchange for general
order-preserving functionals on a probability space by the same walk; its
S1 check reads only the entries at reachable controls and walks no product.
"""

from __future__ import annotations

import math
from cmath import isinf
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, compress, islice, product, repeat
from operator import add, contains, eq, getitem, sub
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetError, DomainError, InputError, InvariantError
from .extreal import (
    NEG_INF,
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
from .integrals import outer_integral, part_sum
from .interchange import _tolerance
from .measure import MeasureSpace

DEFAULT_ENUM_BUDGET = 10**6

# Selections of an explicit set, or of a product that is not walked, read
# at a time.
SELECTION_BLOCK = 1024

Selection = Tuple[int, ...]

OUTER = Functional("outer", outer_integral)  # the Phi of rw-check


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
            sels = list(dict.fromkeys(  # the first of each repeated selection
                check_selection(s, n_atoms, n_controls) for s in selections or ()))
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
            raise BudgetError(f"selection enumeration needs {self.count()} > budget {budget}; "
                              "refusing to sample where exact equality is claimed")
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
    """Min over selections of the outer integral, against the outer
    integral of the per-atom minimum over the reachable controls.

    A non-decomposable set is still evaluated, flagged as a hypothesis
    violation: equality may fail there.  The inequality lhs >= rhs always
    holds, since G(u) >= G-flat on every atom and the outer integral and
    float rounding are monotone, so lhs below rhs beyond the tolerance is
    an InvariantError, as is inequality on a decomposable set.  Requires
    some selection with integrable positive part.  The set is walked once
    (see ``_selection_folds``): a product's minimizers by a pruned walk,
    an explicit set selection by selection.
    """
    tol = _tolerance(tolerance, integrand.space.backing)
    _check_fits(u_set, integrand)

    decomp = is_decomposable(u_set)
    notes = list(decomp.notes)
    if not decomp.decomposable:
        notes.append("hypothesis violated: selection set is not decomposable")

    projections = u_set.projections()
    lhs, minimizers = _min_over_selections(integrand, u_set, projections, enum_budget)
    rhs = outer_integral(integrand.g_flat(projections))
    equal = _eq_within(lhs, rhs, tol)
    if not equal and decomp.decomposable:
        raise InvariantError(f"interchange equality failed on a decomposable set: "
                             f"lhs={to_text(lhs)}, rhs={to_text(rhs)}")
    if not equal:
        if lhs < rhs:
            raise InvariantError(f"min over selections below the integral of the per-atom "
                                 f"minimum: lhs={to_text(lhs)}, rhs={to_text(rhs)}")
        notes.append("strict inequality lhs > rhs")
    return RwInterchangeReport(
        lhs=lhs, rhs=rhs, equal=equal, decomposable=decomp.decomposable,
        hypothesis_notes=notes, minimizers=minimizers,
    )


def _min_over_selections(integrand, u_set, projections, enum_budget):
    """(min, minimizers) of outer_integral(G(u)) over u, from one walk of
    ``_selection_folds``.  Raises DomainError when no selection has a finite
    positive part, that is, when the minimum is +inf.
    """
    blocks, finish = _selection_folds(integrand, u_set, projections, enum_budget, OUTER)
    lhs, minimizers = None, []
    for m, at_m in blocks:
        if lhs is None or m < lhs:
            lhs, minimizers = m, at_m
        elif m == lhs:
            minimizers += at_m
    lhs = finish(lhs)
    if lhs == POS_INF:
        raise DomainError("precondition failure: no selection has integrable positive part")
    return lhs, minimizers


def _selection_folds(integrand, u_set, projections, enum_budget, phi):
    """(blocks, finish): per block, in enumeration order, its least value
    and the selections at it, in that order, and the map from the least
    value to the least ``phi(G(u))``: the one walk over a selection set, for
    every Phi.  Values order as those of Phi do, and equal Phi values have
    equal values.

    A Phi with no ``integrals.PART_SUMS`` entry is evaluated on each G(u),
    and ``finish`` is the identity.  For an integral, whose entry is
    ``combine``, every (atom, reachable control) gets one code, and a
    selection's fold is the atom-order left fold of its codes.  Under float
    backing a code is the complex (positive term, negative term) of
    ``weighted_parts``, whose addition adds the two parts with its rounding,
    bit for bit, and a fold z has the value ``combine(z.real, z.imag)`` when
    a code is infinite, else ip - im.  Under rational backing it is the int
    of ``extreal.exact_codes`` of the reachable entries, and a fold beyond
    the finite band has the value of its decoded infinities.  A product is
    the one block of ``_product_walk``; an explicit set folds each
    selection.  Where a fold could differ from ``weighted_parts`` (see
    ``_complex_codes``) or no exact code is built, each selection is
    ``combine(*weighted_parts(...))``.  The integral's own DomainError comes
    whenever a selection has one.
    """
    space = integrand.space
    selections = u_set.iter_selections(enum_budget)
    combine = part_sum(phi.eval_fn)
    if combine is None:
        g_of = integrand.g_of
        return _listed_blocks(selections, lambda sel: phi(g_of(sel))), lambda least: least
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
        return _listed_blocks(selections, lambda sel: combine(*weighted_parts(
            space.weights, [row[c] for row, c in zip(integrand.table, sel)]))), finish
    if codes is not None:
        def value(v):
            return v if codes.finite(v) else codes.value(v, combine)
    elif any(map(isinf, chain.from_iterable(rows))):
        def value(z):
            return combine(z.real, z.imag)
    else:
        def value(z):
            return z.real - z.imag
    if u_set.kind == "product":
        return [_product_walk(rows, u_set.admissible, value, zero)], finish
    return _listed_blocks(
        selections, lambda sel: value(reduce(add, map(getitem, rows, sel), zero))), finish


def _min_of_folds(integrand, u_set, enum_budget, phi):
    """The least value of ``_selection_folds``: min over u of ``phi(G(u))``."""
    blocks, finish = _selection_folds(integrand, u_set, u_set.projections(), enum_budget, phi)
    return finish(min([m for m, _ in blocks]))


def _product_walk(rows, admissible, value, zero):
    """(m, selections): the least value m of a product's folds (see
    ``_selection_folds``) and the selections at it, in product order.

    A value is monotone in each code (exact int sums, IEEE rounding to
    nearest), so the fold with every atom at its least code has value m.
    The walk extends its prefixes one atom at a time and keeps one only when
    its least completion, its fold continued with each later atom's least
    code, is not above m; every completion is at least that.  A kept
    prefix's least completion is a minimizer, so no layer holds more
    prefixes than there are minimizers, and a child at its atom's least
    code keeps its parent's least completion unread.  When a selection has
    a +inf term at atom i and a -inf one elsewhere, the least code of that
    other atom is -inf, so the value of the all-least fold, or else the bound
    of the all-least prefix's +inf child at i, raises the integral's
    DomainError.
    """
    # Each control as a 1-tuple, so that a child's prefix is one concatenation.
    layers = [[((c,), row[c]) for c in cs] for row, cs in zip(rows, admissible)]
    least = [min([z for _, z in layer], key=value) for layer in layers]
    m = value(reduce(add, least, zero))
    kept = [(zero, ())]
    for i, (layer, low) in enumerate(zip(layers[:-1], least)):
        tail = least[i + 1:]
        kept = [(fold + z, prefix + c) for fold, prefix in kept for c, z in layer
                if z == low or value(reduce(add, tail, fold + z)) <= m]
    low = least[-1]
    found = [prefix + c for fold, prefix in kept for c, z in layers[-1]
             if z == low or value(fold + z) <= m]
    return m, found


def _listed_blocks(selections, value):
    """(least value, the selections at it) per run of ``SELECTION_BLOCK``
    selections."""
    while block := list(islice(selections, SELECTION_BLOCK)):
        values = [value(sel) for sel in block]
        m = min(values)
        yield m, list(compress(block, map(eq, values, repeat(m))))


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
    integrand and set, whose single walk already collected the minimizers;
    without it the interchange is run here, at the default tolerance.
    ``_pointwise_argmin`` derives the other side.  On a decomposable set
    under rational backing, where the common value here is finite, the
    characterization is a theorem, so its failure is an InvariantError;
    under float backing rounding ties can add minimizers.
    """
    base = interchange
    if base is None:
        base = verify_rw_interchange(integrand, u_set, enum_budget)
    if base.lhs == NEG_INF:
        return RwArgminReport(
            applicable=False, characterization_holds=None, common_value=base.lhs,
            notes=["common value is -inf: characterization not applicable"],
        )
    per_atom = integrand.per_atom_argmin(u_set.projections())
    pointwise = _pointwise_argmin(integrand, u_set, per_atom)
    # No selection repeats in either list, so this is set equality.
    holds = len(base.minimizers) == len(pointwise) and set(pointwise).issuperset(base.minimizers)
    if not holds and base.decomposable and integrand.space.backing == "rational":
        raise InvariantError(
            f"argmin characterization failed on a decomposable set under exact arithmetic: "
            f"{len(base.minimizers)} minimizers, {len(pointwise)} pointwise argmin selections")
    return RwArgminReport(
        applicable=True,
        characterization_holds=holds,
        common_value=base.lhs,
        argmin_selections=base.minimizers,
        per_atom_argmin=per_atom,
        notes=[] if holds else ["argmin sets differ"],
    )


def _pointwise_argmin(integrand, u_set, per_atom):
    """The selections of ``u_set`` that pick a control of ``per_atom`` (the
    per-atom argmins over the projections) on every non-null atom, in
    enumeration order: for a product, the product of those controls, with
    every reachable control on a null atom."""
    space = integrand.space
    picks = [cs if space.is_null_atom(i) else best
             for i, (cs, best) in enumerate(zip(u_set.projections(), per_atom))]
    if u_set.kind == "product":
        return list(product(*picks))
    picks = list(map(set, picks))
    return [s for s in u_set.selections if all(map(contains, picks, s))]


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
    of the weights.  Within ``enum_budget``, the inf is the least value of
    ``_selection_folds``, the walk of ``rw-check`` too, in value, type and
    first error that of min Phi(G(u)).  When G-flat is the computed
    per-atom minimum over all controls (none declared, or a declared one
    equal to it), every G(u) is at least G-flat, so for a declared
    order-preserving Phi the conclusion's lhs below Phi(G-flat) beyond the
    tolerance is an InvariantError, in "sampled" mode too.  A prefix member
    outside the selection set is an InputError.
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

    prefix = [tuple(s) for s in sc.selection_prefix]
    prefix_fns = [sc.integrand.g_of(s) for s in prefix]
    # One pass over an explicit set, holding only the prefix members.
    outside = (set(prefix).difference(u_set.selections) if u_set.kind == "explicit"
               else {s for s in prefix if not all(map(contains, u_set.admissible, s))})
    if outside:
        first = next(s for s in prefix if s in outside)
        raise InputError(f"selection prefix member {list(first)} is not in the selection set")
    exact = u_set.count() <= enum_budget
    if not exact:
        notes.append("selection set beyond budget: S1 checked on the prefix only")
    failing = _first_infinite_selection(
        sc.integrand, u_set, non_null, None if exact else prefix)
    hypotheses.append(Hypothesis(
        "S1_image_in_lp", failing is None,
        "all G(u) finite on non-null atoms" if failing is None else
        f"G({list(failing)}) is infinite on a non-null atom"))

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

    if exact:
        inf_val = _min_of_folds(sc.integrand, u_set, enum_budget, sc.functional)
    else:
        inf_val = min(phi_vals)
        notes.append("conclusion estimated from the prefix only (an upper bound on inf)")
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
        conclusion_mode="exact" if exact else "sampled",
        notes=notes,
    )


def _first_infinite_selection(integrand, u_set, non_null, prefix=None):
    """The first selection of ``prefix`` when given, else of ``u_set``,
    whose G(u) is infinite on an atom of ``non_null``, or None; only the
    entries at reachable controls are read.  A product's is computed: the
    all-first selection if it fails, else that one with its last failing
    atom set to its least infinite control, as any earlier change of it
    comes later in the product order."""
    projections = u_set.projections()
    infinite = {i: cs for i in non_null
                if (cs := {c for c in projections[i] if abs(integrand.table[i][c]) == POS_INF})}
    if not infinite:
        return None
    if prefix is None and u_set.kind == "product":
        first = [cs[0] for cs in u_set.admissible]
        if not any(first[i] in cs for i, cs in infinite.items()):
            last = max(infinite)
            first[last] = min(infinite[last])
        return first
    sels = u_set.selections if prefix is None else prefix
    return next((s for s in sels if any(s[i] in cs for i, cs in infinite.items())), None)


def _unit_mass(space: MeasureSpace) -> bool:
    """Whether the weights sum to 1; floats by ``math.fsum``, in no atom order."""
    if space.backing == "rational":
        return space.total_mass() == 1
    try:
        return math.fsum(space.weights) == 1
    except OverflowError:  # nonnegative weights: the sum is above 1
        return False
