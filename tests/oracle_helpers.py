"""Independent test-side oracles.

These deliberately avoid the library's closed forms: the simple-function
oracle enumerates dominated step functions, the dominating-psi oracle walks
candidate integrable majorants from a value grid, and the Choquet oracle is
a brute-force Riemann sum over an explicit t-grid (run in integer units of
the grid step, so level-set boundaries are exact).  The naive directedness
scans rebuild inf S from the members for every subset, in size order, and
evaluate the condition afresh each time.  The selection-set references
enumerate every patch of every member, and build G(u) and its outer integral
selection by selection.  The naive kernels fold one ExtReal per atom and
operation, with ``lower_add`` and ``scalar_mul``, and order values by their
kind and finite value rather than by ExtReal comparison.  The naive
distortion table is the dense 2^n construction, with the float weights of
each subset summed in atom order.
"""

from fractions import Fraction
from itertools import combinations, product

from interlab.errors import DomainError, InvariantError
from interlab.extreal import POS_INF, ZERO, ExtReal, add, lower_add, neg, scalar_mul, upper_add
from interlab.fnlattice import FnClass, classify, fn_add, fn_neg, pointwise_inf
from interlab.integrals import lebesgue_extended, outer_integral
from interlab.interchange import _eq_within, _sampled_subsets
from interlab.measure import iter_atom_subsets


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
            allowed = [l for l in levels if ExtReal(l) <= fv]
            if allowed:
                best += Fraction(space.weights[i]) * max(allowed)
        best_by_cap.append(best)
    if best_by_cap[-1] > best_by_cap[-2]:
        return POS_INF
    return ExtReal(best_by_cap[-1])


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
        ok = [g for g in grid if ExtReal(Fraction(g)) >= f.values[i]]
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
    return ExtReal(best if best is not None else 0), False


def choquet_riemann(f: FnClass, capacity, step_units_per_one=10_000):
    """Riemann sum of t -> c({f > t}) over a uniform grid, in float.

    Values of f must be finite nonnegative multiples of the grid step
    (1/step_units_per_one); the sum is then exact up to float rounding.
    """
    import numpy as np

    space = f.space
    units = []
    for v in f.values:
        q = Fraction(v.finite_value) * step_units_per_one
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


def _naive_subsets(n, subset_budget, seed, samples):
    # The sample is drawn by the library: which subsets are sampled is not
    # what the naive scans check, only what each subset's verdict is.
    if n <= subset_budget:
        return [c for k in range(1, n + 1) for c in combinations(range(n), k)], "exhaustive"
    return _sampled_subsets(n, seed, samples), "sampled"


def naive_phi_inf_directed(family, phi, subset_budget, seed=0, samples=64):
    """(directed, witness, mode, shortcut_agrees) of the subset condition."""
    members = family.members
    lhs = min(phi(x) for x in members)
    subsets, mode = _naive_subsets(len(members), subset_budget, seed, samples)
    witness = next(
        (idx for idx in subsets
         if not lhs <= phi(pointwise_inf([members[i] for i in idx]))),
        None,
    )
    directed = witness is None
    shortcut = lhs <= phi(pointwise_inf(members))
    return directed, witness, mode, (shortcut == directed) if mode == "exhaustive" else None


def naive_giner_gap_directed(family, subset_budget, seed=0, samples=64):
    """(directed, witness, mode) of the gap form."""
    members = family.members
    subsets, mode = _naive_subsets(len(members), subset_budget, seed, samples)

    def gap_ok(idx):
        m = pointwise_inf([members[i] for i in idx])
        gap = min(lebesgue_extended(fn_add(x, fn_neg(m), mode="lower")) for x in members)
        return gap <= ZERO

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
        if classify(g).in_l1_plus:
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
    if not _eq_within(lhs, rhs, tolerance) and naive_is_decomposable(u_set)[0]:
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


def naive_part_integrals(f: FnClass):
    """(integral of f+, integral of f-) by the term-by-term ExtReal fold."""
    plus = minus = ZERO
    for w, v in zip(f.space.weights, f.values):
        if v.is_pos_inf or (v.is_finite and v.finite_value > 0):
            plus = lower_add(plus, scalar_mul(w, v))
        elif v.is_neg_inf or v.finite_value < 0:
            minus = lower_add(minus, scalar_mul(w, neg(v)))
    return plus, minus


def naive_integral(kind, f: FnClass):
    """extended_lebesgue, outer or inner from ``naive_part_integrals``."""
    ip, im = naive_part_integrals(f)
    if kind == "outer":
        return upper_add(ip, neg(im))
    if kind == "inner":
        return lower_add(ip, neg(im))
    if not (ip.is_finite or im.is_finite):
        raise DomainError("function is not semi-integrable")
    return add(ip, neg(im))


def _order_key(v):
    if v.is_finite:
        return (0, v.finite_value)
    return (1, 0) if v.is_pos_inf else (-1, 0)


def naive_pointwise_inf(members):
    """Per-atom minimum: the first member value of least (kind, value)."""
    return tuple(
        min((m.values[i] for m in members), key=_order_key)
        for i in range(len(members[0].space))
    )


def naive_distortion_table(space, gamma):
    """{subset: c(subset)} of the distortion, built densely over all 2^n subsets."""
    g = float(gamma)
    total = float(space.total_mass())
    weights = [float(w) for w in space.weights]
    # Same order as iter_atom_subsets: by size, then combinations order.
    subset_weights = (ws for k in range(len(weights) + 1)
                      for ws in combinations(weights, k))
    return {s: ExtReal((sum(ws) / total) ** g * total)
            for s, ws in zip(iter_atom_subsets(space), subset_weights)}
