"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything here is
exact under the default rational backing except where a criterion itself
states a tolerance (the Choquet Riemann oracle at 1e-6).
"""

import random
from fractions import Fraction

from interlab.decomposable import Integrand, SelectionSet, verify_rw_argmin, verify_rw_interchange
from interlab.extreal import NEG_INF, POS_INF, ext, lower_add, upper_add
from interlab.fnlattice import (
    FnClass,
    IntegrabilityTag,
    classify,
    fn_add,
    fn_neg,
    fn_scale,
    fn_shift,
    pointwise_inf,
)
from interlab.functionals import make_builtin, parameterless_builtins
from interlab.integrals import choquet, inner_integral, lebesgue_extended, outer_integral
from interlab.interchange import (
    DEFAULT_SUBSET_BUDGET,
    Family,
    SequenceSpec,
    check_seq_inf_continuity,
    giner_gap_directed,
    is_phi_inf_directed,
    verify_interchange,
)
from interlab.measure import MeasureSpace
from interlab.oracle import (
    FINITE_VALUE_GRID,
    random_capacity,
    random_instance,
    random_integrand,
    random_semi_integrable,
    random_space,
)
from interlab.scenario import build_sequence
from oracle_helpers import choquet_riemann, naive_giner_gap_directed

LEB = make_builtin("extended_lebesgue")


def announce(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# 1 -------------------------------------------------------------------------

def test_criterion_1_interchange_equivalence_1000_instances():
    rng = random.Random(20260810)
    disagreements = 0
    for _ in range(1000):
        inst = random_instance(rng, max_atoms=6, max_family=5)
        report = verify_interchange(inst.family, inst.functional)
        directed = is_phi_inf_directed(inst.family, inst.functional)
        if (report.interchange_holds == "holds") != directed.directed:
            disagreements += 1
    announce(
        1, disagreements == 0,
        f"Phi-inf-directed verdict equals interchange verdict on 1000 random "
        f"instances (disagreements: {disagreements})",
    )


# 2 -------------------------------------------------------------------------

def _random_chain(rng, space, grid, length):
    f = FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
    members = [f]
    for _ in range(length - 1):
        bump = [ext(rng.choice([0, Fraction(1, 2), 1])) for _ in space.atoms]
        f = FnClass(space, [lower_add(a, b) for a, b in zip(f.values, bump)])
        members.append(f)
    return members


def _min_closure(rng, space, grid, base_count):
    base = [
        FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
        for _ in range(base_count)
    ]
    from itertools import combinations

    members = list(base)
    for k in range(2, base_count + 1):
        for combo in combinations(base, k):
            members.append(pointwise_inf(list(combo)))
    return members


def test_criterion_2_inf_directed_families_pass_every_functional():
    rng = random.Random(7)
    nonneg_grid = [0, Fraction(1, 2), 1, 2, 3]
    failures = 0
    for trial in range(500):
        space = random_space(rng, 4)
        if rng.random() < 0.5:
            members = _random_chain(rng, space, nonneg_grid, rng.randint(1, 6))
        else:
            members = _min_closure(rng, space, nonneg_grid, rng.randint(1, 3))
        family = Family(members)
        assert pointwise_inf(family.members) in family.members
        functionals = parameterless_builtins() + [
            make_builtin("choquet", capacity=random_capacity(rng, space))
        ]
        for phi in functionals:
            res = is_phi_inf_directed(family, phi)
            if res.directed is not True:
                failures += 1
    announce(
        2, failures == 0,
        f"500 inf-directed families are Phi-inf-directed for every registered "
        f"functional (failures: {failures})",
    )


# 3 -------------------------------------------------------------------------

def test_criterion_3_example_2_6_gallery():
    from interlab.interchange import verify_interchange_sequence

    _, seq = build_sequence({"generator": "example-2-6"}, 100)
    seq_report = verify_interchange_sequence(seq, LEB)
    prefix_ok = seq_report.prefix["prefix_lhs"][-1] == ext(-100)
    fired = (
        seq_report.prefix["lhs_trend"] == "diverging"
        and seq_report.prefix["rhs_trend"] == "diverging"
    )
    verdict_ok = (
        seq_report.interchange_holds == "holds-in-limit"
        and "interchange holds in the limit (-inf = -inf)" in seq_report.notes
        and seq_report.lhs == NEG_INF
        and seq_report.rhs == NEG_INF
    )

    _, seq5 = build_sequence({"generator": "example-2-6"}, 5)
    literal = verify_interchange(Family(seq5.prefix()), LEB)
    literal_ok = (
        literal.phi_inf_directed == "no"
        and literal.lhs == ext(-5)
        and literal.rhs == ext(-15)
    )
    announce(
        3, prefix_ok and fired and verdict_ok and literal_ok,
        "prefix lhs = -100 exactly, divergence fired on both sides, verdict "
        "holds-in-limit; literal N=5 truncation reported not directed "
        f"(lhs={literal.lhs}, rhs={literal.rhs})",
    )


# 4 -------------------------------------------------------------------------

def _independent_part_integrals(f):
    plus = Fraction(0)
    minus = Fraction(0)
    plus_inf = minus_inf = False
    for w, v in zip(f.space.weights, f.values):
        if w == 0:
            continue
        if v == POS_INF:
            plus_inf = True
        elif v == NEG_INF:
            minus_inf = True
        elif v > 0:
            plus += Fraction(w) * v
        else:
            minus += Fraction(w) * (-v)
    return (
        POS_INF if plus_inf else ext(plus),
        POS_INF if minus_inf else ext(minus),
    )


def test_criterion_4_outer_inner_closed_forms_10k():
    rng = random.Random(41)
    grid = FINITE_VALUE_GRID + ["+inf", "-inf"]
    violations = 0
    for _ in range(10_000):
        space = random_space(rng, 5)
        f = FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
        ip, im = _independent_part_integrals(f)
        outer = outer_integral(f)
        inner = inner_integral(f)
        ok = (
            outer == upper_add(ip, -im)
            and inner == lower_add(ip, -im)
            and inner <= outer
        )
        if classify(f).semi_integrable:
            ok = ok and outer == lebesgue_extended(f) == inner
        if not ok:
            violations += 1
    announce(
        4, violations == 0,
        f"outer/inner closed forms, outer >= inner, and agreement with the "
        f"extended integral hold exactly on 10^4 functions (violations: {violations})",
    )


# 5 -------------------------------------------------------------------------

def _random_in_cone(rng, space, cone):
    f = random_semi_integrable(rng, space)
    tag = classify(f)
    if cone == "plus" and not tag.in_l1_plus:
        f = fn_neg(f)
    if cone == "minus" and not tag.in_l1_minus:
        f = fn_neg(f)
    return f


def test_criterion_5_additivity_negation_homogeneity_10k():
    rng = random.Random(51)
    from interlab.extreal import add, scalar_mul

    violations = 0
    for _ in range(10_000):
        space = random_space(rng, 5)
        f = _random_in_cone(rng, space, "plus")
        g = _random_in_cone(rng, space, "plus")
        s = fn_add(f, g, mode="lower")
        if lebesgue_extended(s) != add(lebesgue_extended(f), lebesgue_extended(g)):
            violations += 1

        fm = _random_in_cone(rng, space, "minus")
        gm = _random_in_cone(rng, space, "minus")
        sm = fn_add(fm, gm, mode="upper")
        if lebesgue_extended(sm) != add(lebesgue_extended(fm), lebesgue_extended(gm)):
            violations += 1

        if lebesgue_extended(fn_neg(f)) != -lebesgue_extended(f):
            violations += 1

        lam = rng.choice([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 3])
        expected = (
            ext(0) if lam == 0 else scalar_mul(lam, lebesgue_extended(f))
        )
        if lebesgue_extended(fn_scale(lam, f)) != expected:
            violations += 1
    announce(
        5, violations == 0,
        f"additivity on each cone, negation, and homogeneity exact on 10^4 "
        f"random pairs (violations: {violations})",
    )


# 6 -------------------------------------------------------------------------

def test_criterion_6_extended_monotone_convergence():
    rng = random.Random(61)
    violations = 0
    prefix = 12
    for _ in range(120):
        space = random_space(rng, 5)
        f = _random_in_cone(rng, space, "plus")
        mass = Fraction(space.total_mass())
        base = lebesgue_extended(f)
        for n in range(prefix):
            val = lebesgue_extended(fn_shift(f, Fraction(1, n + 1)))
            if abs(base) != POS_INF:
                gap = val - base
            else:
                gap = Fraction(0) if val == base else None
            if gap is None or gap > 3 * mass / (n + 1):
                violations += 1
        seq = SequenceSpec(
            generator=lambda n, f=f: fn_shift(f, Fraction(1, n + 1)),
            prefix_len=prefix,
            declared_limit=f,
        )
        report = check_seq_inf_continuity(LEB, seq, tolerance=3 * mass / prefix)
        if report.verdict != "holds":
            violations += 1

    # Decreasing to a function with infinite negative part: the divergence
    # verdict must match the analytic limit -inf.
    diverging_checked = 0
    while diverging_checked < 30:
        space = random_space(rng, 4)
        f = random_semi_integrable(rng, space)
        if not classify(f).in_l1_plus:
            f = fn_neg(f)
        bad = [
            i for i in space.non_null_indices() if f.values[i] == NEG_INF
        ]
        if not bad:
            continue
        diverging_checked += 1

        def clamp(n, f=f):
            vals = [
                ext(-1000 * (n + 1)) if v == NEG_INF else v for v in f.values
            ]
            return FnClass(f.space, vals)

        seq = SequenceSpec(
            generator=clamp, prefix_len=32, declared_limit=f,
            divergence_threshold=2000,
        )
        report = check_seq_inf_continuity(LEB, seq)
        if not (report.diverging and report.verdict == "holds" and report.rhs == NEG_INF):
            violations += 1
    announce(
        6, violations == 0,
        f"MCT rate bound 3*mass/(n+1) and 'holds' verdicts on shifted sequences; "
        f"divergence verdict matches -inf on {diverging_checked} clamped sequences "
        f"(violations: {violations})",
    )


# 7 -------------------------------------------------------------------------

def test_criterion_7_choquet():
    rng = random.Random(71)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 6)
        space = MeasureSpace(
            [f"w{i}" for i in range(n)],
            [rng.choice([0, Fraction(1, 2), 1, 2]) for _ in range(n)],
        )
        cap = random_capacity(rng, space, allow_infinite=False)
        f = FnClass(space, [Fraction(rng.randrange(0, 101), 100) for _ in range(n)])
        closed = float(choquet(f, cap))
        riemann = choquet_riemann(f, cap)
        worst = max(worst, abs(closed - riemann))
    oracle_ok = worst <= 1e-6

    unit2 = MeasureSpace(["a", "b"], [1, 1])
    from interlab.integrals import Capacity

    cap = Capacity.from_json_dict(
        {"kind": "table", "values": {"{}": 0, "{a}": 0.5, "{b}": 0.7, "{a,b}": 1}},
        unit2,
    )
    worked_ok = choquet(FnClass(unit2, [1, 2]), cap) == ext(Fraction(17, 10))

    disagreements = 0
    for _ in range(300):
        inst = random_instance(rng, max_atoms=5, max_family=4)
        if inst.kind != "choquet":
            continue
        report = verify_interchange(inst.family, inst.functional)
        directed = is_phi_inf_directed(inst.family, inst.functional)
        if (report.interchange_holds == "holds") != directed.directed:
            disagreements += 1
    announce(
        7, oracle_ok and worked_ok and disagreements == 0,
        f"closed form within 1e-6 of the t-grid oracle on 10^3 instances "
        f"(worst {worst:.2e}), worked example exactly 1.7, Choquet interchange "
        f"equivalence exact (disagreements: {disagreements})",
    )


# 8 -------------------------------------------------------------------------

def test_criterion_8_rockafellar_wets_desk_scale():
    rng = random.Random(81)
    violations = 0
    for _ in range(200):
        space = random_space(rng, 4)
        integrand = random_integrand(rng, space, max_controls=4)
        u = SelectionSet.full_product(len(space.atoms), integrand.n_controls)
        inter = verify_rw_interchange(integrand, u)
        if not inter.equal:
            violations += 1
        argmin = verify_rw_argmin(integrand, u)
        if not (argmin.applicable and argmin.characterization_holds):
            violations += 1

    unit2 = MeasureSpace(["a", "b"], [1, 1])
    counter = Integrand(unit2, [[0], [1]], [[0, 1], [1, 0]])
    two_constants = SelectionSet.explicit([(0, 0), (1, 1)], 2, 2)
    report = verify_rw_interchange(counter, two_constants)
    counter_ok = (
        not report.decomposable and not report.equal and report.lhs > report.rhs
    )
    announce(
        8, violations == 0 and counter_ok,
        f"200 random full-product integrands give exact equality and argmin "
        f"characterization (violations: {violations}); the two-constant set is "
        f"flagged with strict inequality lhs={report.lhs} > rhs={report.rhs}",
    )


# 9 -------------------------------------------------------------------------

def test_criterion_9_giner_gap_form_agreement():
    rng = random.Random(91)
    checked = 0
    disagreements = 0
    while checked < 400:
        inst = random_instance(rng, max_atoms=6, max_family=5)
        if inst.kind != "extended_lebesgue":
            continue
        if any(classify(m) is not IntegrabilityTag.L1_FULL for m in inst.family.members):
            continue
        checked += 1
        gap = giner_gap_directed(inst.family)
        naive = naive_giner_gap_directed(inst.family, DEFAULT_SUBSET_BUDGET)
        if (gap.directed, gap.witness, gap.mode) != naive:
            disagreements += 1
    announce(
        9, disagreements == 0,
        f"gap-form verdicts, witnesses and modes agree with the integral of "
        f"(x - inf S) evaluated subset by subset on {checked} finite-valued "
        f"integrable families (disagreements: {disagreements})",
    )
