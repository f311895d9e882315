"""Independent test-side oracles.

These deliberately avoid the library's closed forms: the simple-function
oracle enumerates dominated step functions, the dominating-psi oracle walks
candidate integrable majorants from a value grid, and the Choquet oracle is
a brute-force Riemann sum over an explicit t-grid (run in integer units of
the grid step, so level-set boundaries are exact).  The naive directedness
scans rebuild inf S from the members for every subset, in size order, and
evaluate the condition afresh each time.  The selection-set references
enumerate every patch of every member, and build G(u) and its outer integral
selection by selection.  The naive kernels fold one extended real per atom
and operation, with ``lower_add`` and ``scalar_mul``, and classify and order
values by their (kind, value) model rather than by native comparison.  The
naive distortion table is the dense 2^n construction, with the float weights
of each subset summed in atom order.  The naive Choquet integral is the
plain layer cake, each level set a frozenset of atom names read from a
dict.  The reference rank code ranks each
atom's member values with ``sorted(set(column))``, whatever their type.
The reference tolerance tests are the extended-real definitions, which
test every operand against both infinities first.

The (kind, value) model is the textbook case analysis of the extended
reals: kind -1 is -inf, 1 is +inf, and 0 a finite value.  Its operations
add and multiply finite values with Python's operators, so they follow the
operands' backing, and ``from_model`` coerces a finite result the way the
library must: under float backing a finite result beyond the float range
raises InputError.

The builders at the end (constants, shifts, scalings, the additive
capacity, cone membership and a random integrand table) make test inputs
the library has no command for.
"""

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

from interlab.decomposable import Integrand
from interlab.errors import DomainError, InvariantError
from interlab.extreal import (
    NEG_INF,
    POS_INF,
    add,
    as_scalar,
    ext,
    lower_add,
    scalar_mul,
    upper_add,
)
from interlab.fnlattice import FnClass, IntegrabilityTag, classify, fn_add, fn_neg, pointwise_inf
from interlab.integrals import Capacity, lebesgue_extended, outer_integral
from interlab.interchange import default_tolerance
from interlab.measure import iter_atom_subsets, measure
from interlab.oracle import FINITE_VALUE_GRID


def reference_eq_within(a, b, tol):
    """a = b within ``tol`` when both are finite, else a == b: each operand
    is tested against both infinities, and the difference is ``lower_add``'s."""
    if NEG_INF < a < POS_INF and NEG_INF < b < POS_INF:
        return abs(lower_add(a, -b)) <= tol
    return a == b


def reference_leq_within(a, b, tol):
    """a <= b, or a = b within ``tol`` (``reference_eq_within``)."""
    return a <= b or reference_eq_within(a, b, tol)


def weighted_sum(space, values):
    """Plain finite weighted sum of finite Fractions; the dumb integral."""
    total = Fraction(0)
    for w, v in zip(space.weights, values):
        total += Fraction(w) * Fraction(v)
    return total


def simple_function_sup(f: FnClass, caps=(4, 16, 256)):
    """Supremum of integrals of dominated nonnegative simple functions.

    Enumerates per-atom levels {0, 1, ..., cap} / 4 for growing caps; if the
    supremum keeps strictly growing with the cap, the value is +inf.
    """
    space = f.space
    best_by_cap = []
    for cap in caps:
        levels = [Fraction(k, 4) for k in range(4 * cap + 1)]
        best = Fraction(0)
        for i, fv in enumerate(f.values):
            # Per-atom maximization is exact for weighted sums of
            # nonnegative step functions dominated by f.
            allowed = [l for l in levels if ext(l) <= fv]
            if allowed:
                best += Fraction(space.weights[i]) * max(allowed)
        best_by_cap.append(best)
    if best_by_cap[-1] > best_by_cap[-2]:
        return POS_INF
    return ext(best_by_cap[-1])


def dominating_psi_infimum(f: FnClass, grid):
    """Infimum of integrals over finite-valued psi >= f from a value grid.

    Returns (value, empty) where empty flags that no grid candidate (hence
    no integrable function at all, when f is +inf on a non-null atom)
    dominates f.  Null atoms are free: psi is set to 0 there.
    """
    space = f.space
    non_null = [i for i in space.non_null_indices()]
    choices = []
    for i in non_null:
        ok = [g for g in grid if ext(Fraction(g)) >= f.values[i]]
        if not ok:
            return POS_INF, True
        choices.append(ok)
    best = None
    for combo in product(*choices):
        total = Fraction(0)
        for i, v in zip(non_null, combo):
            total += Fraction(space.weights[i]) * Fraction(v)
        if best is None or total < best:
            best = total
    return ext(best if best is not None else 0), False


def choquet_riemann(f: FnClass, capacity, step_units_per_one=10_000):
    """Riemann sum of t -> c({f > t}) over a uniform grid, in float.

    Values of f must be finite nonnegative multiples of the grid step
    (1/step_units_per_one); the sum is then exact up to float rounding.
    """
    import numpy as np

    space = f.space
    units = []
    for v in f.values:
        q = Fraction(v) * step_units_per_one
        assert q.denominator == 1, "test values must sit on the t-grid"
        units.append(int(q))
    vmax = max(units, default=0)
    if vmax == 0:
        return 0.0
    units_arr = np.array(units, dtype=np.int64)[:, None]
    t = np.arange(vmax, dtype=np.int64)[None, :]
    membership = units_arr > t
    codes = (membership * (1 << np.arange(len(units))[:, None])).sum(axis=0)
    lookup = np.zeros(1 << len(units), dtype=np.float64)
    for code in np.unique(codes):
        atoms = frozenset(
            a for k, a in enumerate(space.atoms) if code & (1 << k)
        )
        lookup[code] = float(capacity.of(atoms))
    return float(lookup[codes].sum()) / step_units_per_one


def reference_rank_code(members):
    """The scan's thermometer code, ranking each atom's values directly:
    (rows, fields) as ``interchange._rank_code`` returns them."""
    rows = [0] * len(members)
    fields = []
    offset = 0
    for column in zip(*(m.values for m in members)):
        level = sorted(set(column))
        rank = {v: r for r, v in enumerate(level)}
        for j, v in enumerate(column):
            rows[j] |= ((1 << rank[v]) - 1) << offset
        fields.append((level, offset, (1 << (len(level) - 1)) - 1))
        offset += len(level) - 1
    return rows, fields


def _naive_subsets(n, subset_budget):
    """(subsets, mode): every nonempty subset, smallest first, within the
    budget; beyond it only those of 1, 2, n - 1 or n members."""
    subsets = [c for k in range(1, n + 1) for c in combinations(range(n), k)]
    if n <= subset_budget:
        return subsets, "exhaustive"
    return [c for c in subsets if len(c) in (1, 2, n - 1, n)], "sampled"


def naive_phi_inf_directed(family, phi, subset_budget, tol=None):
    """(directed, witness, mode, shortcut_agrees) of the subset condition,
    each subset judged within ``tol``, by default the default tolerance of
    the family's backing."""
    if tol is None:
        tol = default_tolerance(family.space.backing)
    members = family.members
    lhs = min(phi(x) for x in members)

    def holds(v):
        return reference_leq_within(lhs, v, tol)

    subsets, mode = _naive_subsets(len(members), subset_budget)
    witness = next(
        (idx for idx in subsets
         if not holds(phi(pointwise_inf([members[i] for i in idx])))),
        None,
    )
    directed = witness is None
    shortcut = holds(phi(pointwise_inf(members)))
    return directed, witness, mode, shortcut == directed


def naive_giner_gap_directed(family, subset_budget):
    """(directed, witness, mode) of the gap form."""
    members = family.members
    subsets, mode = _naive_subsets(len(members), subset_budget)

    def gap_ok(idx):
        m = pointwise_inf([members[i] for i in idx])
        gap = min(lebesgue_extended(fn_add(x, fn_neg(m), mode="lower")) for x in members)
        return gap <= 0

    witness = next((idx for idx in subsets if not gap_ok(idx)), None)
    return witness is None, witness, mode


def naive_is_decomposable(u_set):
    """(decomposable, witness) by full patch enumeration.

    Every member is patched on every atom set with every combination of
    reachable values; the first patch that leaves the set is the witness.
    Costs |U| * prod(|P_i| + 1) patches on a decomposable set.
    """
    if u_set.kind == "product":
        return True, None
    members = set(u_set.selections)
    projections = u_set.projections()
    n = u_set.n_atoms
    for u in u_set.selections:
        for k in range(1, n + 1):
            for atoms in combinations(range(n), k):
                for patch_values in product(*(projections[i] for i in atoms)):
                    patched = list(u)
                    for i, v in zip(atoms, patch_values):
                        patched[i] = v
                    if tuple(patched) not in members:
                        return False, {
                            "base": list(u),
                            "atoms": list(atoms),
                            "values": list(patch_values),
                            "patched": patched,
                        }
    return True, None


def naive_rw(integrand, u_set, tolerance):
    """The Rockafellar-Wets verdicts, selection by selection.

    Returns (lhs, rhs, minimizers, pointwise argmin set); raises DomainError
    when no selection has an integrable positive part and InvariantError
    when a decomposable set misses equality.
    """
    lhs, minimizers, has_l1_plus = None, [], False
    for sel in u_set.iter_selections():
        g = integrand.g_of(sel)
        if in_l1_plus(g):
            has_l1_plus = True
        v = outer_integral(g)
        if lhs is None or v < lhs:
            lhs, minimizers = v, [tuple(sel)]
        elif v == lhs:
            minimizers.append(tuple(sel))
    if not has_l1_plus:
        raise DomainError("no selection has integrable positive part")
    projections = u_set.projections()
    rhs = outer_integral(integrand.g_flat(projections))
    if not reference_eq_within(lhs, rhs, tolerance) and naive_is_decomposable(u_set)[0]:
        raise InvariantError("interchange equality failed on a decomposable set")
    space = integrand.space
    argmin = []
    for i, cs in enumerate(projections):
        best = min(integrand.table[i][c] for c in cs)
        argmin.append({c for c in cs if integrand.table[i][c] == best})
    pointwise = {
        tuple(sel) for sel in u_set.iter_selections()
        if all(space.is_null_atom(i) or sel[i] in argmin[i] for i in range(len(sel)))
    }
    return lhs, rhs, minimizers, pointwise


def to_model(x):
    """The (kind, value) model of an extended real."""
    if isinstance(x, float) and math.isinf(x):
        return (1 if x > 0 else -1, 0)
    return (0, x)


def from_model(m, backing):
    """The extended real of a model pair, in the backing's form."""
    kind, value = m
    if kind:
        return ext("+inf" if kind > 0 else "-inf")
    return as_scalar(value, backing)


def model_lower_add(a, b):
    if a[0] == -1 or b[0] == -1:
        return (-1, 0)
    if a[0] == 1 or b[0] == 1:
        return (1, 0)
    return (0, a[1] + b[1])


def model_upper_add(a, b):
    if a[0] == 1 or b[0] == 1:
        return (1, 0)
    if a[0] == -1 or b[0] == -1:
        return (-1, 0)
    return (0, a[1] + b[1])


def model_add(a, b):
    if {a[0], b[0]} == {1, -1}:
        raise DomainError("(+inf) + (-inf)")
    return model_lower_add(a, b)


def model_scalar_mul(lam, a):
    if a[0] == 0:
        return (0, lam * a[1])
    if lam == 0:
        return (0, lam)  # 0 * (±inf) = 0, in the form of lam (a float keeps its sign)
    return (a[0] if lam > 0 else -a[0], 0)


def naive_part_integrals(f: FnClass):
    """(integral of f+, integral of f-) by the term-by-term ``lower_add`` fold."""
    plus = minus = ext(0, f.space.backing)
    for w, v in zip(f.space.weights, f.values):
        kind, x = to_model(v)
        if kind == 1 or (kind == 0 and x > 0):
            plus = lower_add(plus, scalar_mul(w, v))
        elif kind == -1 or x < 0:
            minus = lower_add(minus, scalar_mul(w, -v))
    return plus, minus


def naive_integral(kind, f: FnClass):
    """extended_lebesgue, outer or inner from ``naive_part_integrals``."""
    ip, im = naive_part_integrals(f)
    if kind == "outer":
        return upper_add(ip, -im)
    if kind == "inner":
        return lower_add(ip, -im)
    if to_model(ip)[0] and to_model(im)[0]:
        raise DomainError("function is not semi-integrable")
    return add(ip, -im)


def naive_pointwise_inf(members):
    """Per-atom minimum: the first member value of least (kind, value)."""
    return tuple(
        min((m.values[i] for m in members), key=to_model)
        for i in range(len(members[0].space))
    )


def naive_distortion_table(space, gamma):
    """{subset: c(subset)} of the distortion, built densely over all 2^n subsets."""
    g = float(gamma)
    total = float(space.total_mass())
    weights = [float(w) for w in space.weights]
    # Same order as iter_atom_subsets: by size, then combinations order.  The
    # weights are added left to right (``sum`` of floats compensates its
    # rounding from Python 3.12 on).
    subset_weights = (ws for k in range(len(weights) + 1)
                      for ws in combinations(weights, k))
    return {s: ext((reduce(operator.add, ws, 0) / total) ** g * total, space.backing)
            for s, ws in zip(iter_atom_subsets(space), subset_weights)}


def naive_choquet(f: FnClass, table):
    """Choquet integral of f under the capacity ``table``, a dict from
    frozensets of atom names to values in f's backing: the layer cake over
    the sorted distinct finite values, each level set rebuilt from the atom
    names and read from the dict, and the terms (v - prev) * c added with
    Python's operators from a Fraction 0 under rational backing and 0.0
    under float.  A +inf capacity, or a positive one on the +inf plateau,
    makes the integral +inf.  Nonpositive functions go through negation,
    which leaves a zero total as it is, so a float zero stays +0.0."""
    space = f.space
    non_null = [f.values[i] for i in space.non_null_indices()]
    if all(v >= 0 for v in non_null):
        sign, values = 1, f.values
    elif all(v <= 0 for v in non_null):
        sign, values = -1, [-v for v in f.values]
    else:
        raise DomainError("choquet requires a mu-a.e. one-signed function")
    total = prev = Fraction(0) if space.backing == "rational" else 0.0
    infinite = False
    for v in sorted({x for x in values if 0 < x < POS_INF}):
        c = table[frozenset(a for a, x in zip(space.atoms, values) if x > prev)]
        if c == POS_INF:
            infinite = True
        else:
            total += (v - prev) * c
        prev = v
    plateau = frozenset(a for a, x in zip(space.atoms, values) if x == POS_INF)
    if infinite or (plateau and table[plateau] > 0):
        total = POS_INF
    elif type(total) is Fraction and total.denominator == 1:
        total = total.numerator
    return total if sign > 0 or total == 0 else -total


# Builders ---------------------------------------------------------------------

def constant(space, value):
    """The function equal to ``value`` on every atom."""
    return FnClass(space, [value] * len(space.atoms))


def shift(f, c):
    """f + c atomwise, by plain extended addition (c finite)."""
    c = ext(c, f.space.backing)
    return FnClass(f.space, [add(v, c) for v in f.values])


def scale(lam, f):
    """lam * f atomwise, with 0 * inf = 0."""
    lam = as_scalar(lam, f.space.backing)
    return FnClass(f.space, [scalar_mul(lam, v) for v in f.values])


def additive_capacity(space):
    """The table capacity A -> mu(A), under which Choquet is the Lebesgue integral."""
    return Capacity(space, {s: measure(space, s) for s in iter_atom_subsets(space)})


def in_l1_plus(f):
    """The positive part of f has a finite integral."""
    return classify(f) in (IntegrabilityTag.L1_PLUS, IntegrabilityTag.L1_FULL)


def in_l1_minus(f):
    """The negative part of f has a finite integral."""
    return classify(f) in (IntegrabilityTag.L1_MINUS, IntegrabilityTag.L1_FULL)


def semi_integrable(f):
    """One part of f at least has a finite integral."""
    return classify(f) is not IntegrabilityTag.L0_ONLY


def random_integrand(rng, space, max_controls=4):
    """A random finite table; control 0 is kept finite so that the
    integrable-positive-part precondition always has a witness selection."""
    n_controls = rng.randint(1, max_controls)
    grid = FINITE_VALUE_GRID
    table = []
    for _ in space.atoms:
        row = [rng.choice(grid)]
        for _ in range(n_controls - 1):
            if rng.random() < 0.08:
                row.append(POS_INF)
            else:
                row.append(rng.choice(grid))
        table.append(row)
    controls = [[k] for k in range(n_controls)]
    return Integrand(space, controls, table)
