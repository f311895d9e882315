import random
from fractions import Fraction

import pytest

from interlab.errors import DomainError, InputError, InvariantError, ScenarioError
from interlab.extreal import NEG_INF, as_scalar, ext
from interlab.fnlattice import FnClass, fn_shift, pointwise_inf
from interlab.functionals import Functional, make_builtin, parameterless_builtins
from interlab.integrals import Capacity, lebesgue_extended
from interlab.interchange import (
    _eq_within,
    Family,
    SequenceSpec,
    check_seq_inf_continuity,
    giner_gap_directed,
    is_inf_directed,
    is_phi_inf_directed,
    verify_interchange,
    verify_interchange_sequence,
)
from interlab.measure import MeasureSpace
from interlab.oracle import random_instance, random_space
from interlab.scenario import build_sequence

LEB = make_builtin("extended_lebesgue")


def fn(space, *values):
    return FnClass(space, list(values))


@pytest.fixture
def unit2():
    return MeasureSpace(["a", "b"], [1, 1])


# inf-directedness -----------------------------------------------------------

def test_is_inf_directed_examples(unit2):
    chain = Family([fn(unit2, 0, 0), fn(unit2, 1, 1), fn(unit2, 2, 2)])
    assert is_inf_directed(chain) == (True, None)

    pair = Family([fn(unit2, 0, 1), fn(unit2, 1, 0)])
    ok, witness = is_inf_directed(pair)
    assert not ok and witness == (0, 1)

    singleton = Family([fn(unit2, 5, -1)])
    assert is_inf_directed(singleton) == (True, None)


def test_phi_inf_directed_giner_pair(unit2):
    pair = Family([fn(unit2, 0, 1), fn(unit2, 1, 0)])
    res = is_phi_inf_directed(pair, LEB)
    assert res.directed is False
    assert res.witness == (0, 1)  # the full family is the smallest violator
    assert res.mode == "exhaustive"
    assert res.shortcut_agrees


def test_phi_inf_directed_singleton(unit2):
    res = is_phi_inf_directed(Family([fn(unit2, 3, "-inf")]), LEB)
    assert res.directed is True


def test_inf_directed_implies_phi_inf_directed_for_all_builtins():
    rng = random.Random(0)
    space = MeasureSpace(["a", "b", "c"], [1, Fraction(1, 2), 0])
    cap = Capacity.distortion(space, 0.8)
    functionals = parameterless_builtins() + [make_builtin("choquet", capacity=cap)]
    for _ in range(40):
        base = [
            FnClass(space, [ext(rng.choice([0, 1, 2, 3])) for _ in space.atoms])
            for _ in range(3)
        ]
        # Close under pointwise minima: the result is inf-directed.
        members = list(base)
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                members.append(pointwise_inf([base[i], base[j]]))
        members.append(pointwise_inf(base))
        family = Family(members)
        assert is_inf_directed(family)[0]
        for phi in functionals:
            if all(phi.defined_on(m) for m in family.members):
                assert is_phi_inf_directed(family, phi).directed is True


# verify_interchange ---------------------------------------------------------

def test_verify_interchange_giner_pair(unit2):
    report = verify_interchange(Family([fn(unit2, 0, 1), fn(unit2, 1, 0)]), LEB)
    assert report.lhs == ext(1)
    assert report.rhs == 0
    assert report.interchange_holds == "fails"
    assert report.phi_inf_directed == "no"
    assert report.witness == (0, 1)


def test_verify_interchange_chain_holds(unit2):
    chain = Family([fn(unit2, 2, 2), fn(unit2, 1, 1), fn(unit2, 0, 0)])
    report = verify_interchange(chain, LEB)
    assert report.interchange_holds == "holds"
    assert report.phi_inf_directed == "yes"
    assert report.lhs == report.rhs == 0


def test_verify_interchange_singleton(unit2):
    f = fn(unit2, 4, "-inf")
    report = verify_interchange(Family([f]), LEB)
    assert report.lhs == report.rhs == NEG_INF
    assert report.holds


def test_wrongly_declared_functional_raises_invariant_error(unit2):
    bad = Functional(
        "bad", "semi_integrable", lambda f: -lebesgue_extended(f),
        order_preserving=True,  # a lie; must surface loudly, never silently
    )
    with pytest.raises(InvariantError):
        verify_interchange(Family([fn(unit2, 0, 1), fn(unit2, 1, 0)]), bad)


def test_undeclared_functional_gets_sample_checked_note(unit2):
    honest = Functional(
        "anti", "semi_integrable", lambda f: -lebesgue_extended(f),
        order_preserving=False,
    )
    report = verify_interchange(Family([fn(unit2, 0, 0), fn(unit2, 1, 1)]), honest)
    assert any("sample-checked" in n for n in report.notes)


def test_sampled_mode_beyond_subset_budget(unit2):
    members = [fn(unit2, i, 5 - i) for i in range(5)]
    report = verify_interchange(Family(members), LEB, subset_budget=3)
    assert any("sampled" in n for n in report.notes)
    # The pair witness is still found: sampled scans cover all pairs.
    assert report.interchange_holds == "fails"
    assert report.phi_inf_directed == "no"


def test_one_sided_bound_holds_on_random_families():
    rng = random.Random(1)
    for _ in range(100):
        space = random_space(rng, 4)
        members = [
            FnClass(space, [ext(rng.choice([-2, -1, 0, 1, 3])) for _ in space.atoms])
            for _ in range(rng.randint(1, 4))
        ]
        report = verify_interchange(Family(members), LEB)
        assert report.rhs <= report.lhs


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_scan_agrees_with_the_verdict_at_any_tolerance(backing):
    rng = random.Random(3)
    for _ in range(300):
        instance = random_instance(rng, 4, 4, backing)
        tol = rng.choice([0, "1/4", "1/2", 1, 3, 10])
        report = verify_interchange(instance.family, instance.functional, tolerance=tol)
        assert report.holds == (report.phi_inf_directed == "yes")
        assert report.holds == _eq_within(report.lhs, report.rhs, as_scalar(tol, backing))


# sequences ------------------------------------------------------------------

def test_example_2_6_sequence_prefix_100():
    space, seq = build_sequence({"generator": "example-2-6"}, 100)
    report = verify_interchange_sequence(seq, LEB)
    assert report.prefix["prefix_lhs"][-1] == ext(-100)
    assert report.prefix["lhs_trend"] == "diverging"
    assert report.prefix["rhs_trend"] == "diverging"
    assert report.lhs == NEG_INF and report.rhs == NEG_INF
    assert report.interchange_holds == "holds-in-limit"
    assert "interchange holds in the limit (-inf = -inf)" in report.notes
    assert report.phi_inf_directed == "diverging"


@pytest.mark.parametrize("prefix", [5.7, 5.0, True, "5", None])
def test_build_sequence_rejects_a_prefix_that_is_not_an_integer(prefix):
    with pytest.raises(ScenarioError, match="prefix must be an integer"):
        build_sequence({"generator": "example-2-6", "prefix": prefix})


def test_build_sequence_reads_an_integer_prefix():
    _, seq = build_sequence({"generator": "example-2-6", "prefix": 7})
    assert seq.prefix_len == 7


def test_example_2_6_literal_truncation_is_not_phi_inf_directed():
    space, seq = build_sequence({"generator": "example-2-6"}, 5)
    family = Family(seq.prefix())
    report = verify_interchange(family, LEB)
    assert report.lhs == ext(-5)
    assert report.rhs == ext(-15)
    assert report.interchange_holds == "fails"
    assert report.phi_inf_directed == "no"


def test_constant_sequence_stabilizes(unit2):
    f = fn(unit2, 2, -1)
    seq = SequenceSpec(generator=lambda n: f, prefix_len=8)
    report = verify_interchange_sequence(seq, LEB)
    assert report.lhs == report.rhs == ext(1)
    assert report.interchange_holds == "holds"
    assert report.phi_inf_directed == "yes"


def test_finite_family_as_exhaustive_sequence_agrees(unit2):
    members = [fn(unit2, 0, 1), fn(unit2, 1, 0), fn(unit2, 0, 0)]
    direct = verify_interchange(Family(members), LEB)
    seq = SequenceSpec(
        generator=lambda n: members[n], prefix_len=3, exhaustive=True
    )
    via_seq = verify_interchange_sequence(seq, LEB)
    assert via_seq.lhs == direct.lhs
    assert via_seq.rhs == direct.rhs
    assert via_seq.interchange_holds == direct.interchange_holds
    assert via_seq.phi_inf_directed == direct.phi_inf_directed


def test_declared_limit_witnessed_by_prefix(unit2):
    f = fn(unit2, 1, 2)
    members = [fn_shift(f, Fraction(1, n + 1)) for n in range(3)] + [f] * 5
    seq = SequenceSpec(
        generator=lambda n: members[n], prefix_len=len(members), declared_limit=f
    )
    report = verify_interchange_sequence(seq, LEB)
    assert any("witnessed" in n for n in report.notes)
    assert report.interchange_holds == "holds"


def test_declared_limit_not_witnessed_is_flagged(unit2):
    f = fn(unit2, 0, 0)
    seq = SequenceSpec(
        generator=lambda n: fn_shift(f, Fraction(1, n + 1)),
        prefix_len=6,
        declared_limit=f,
    )
    report = verify_interchange_sequence(seq, LEB)
    assert any("hypothesis unverified" in n for n in report.notes)


def test_declared_limit_above_prefix_rejected(unit2):
    seq = SequenceSpec(
        generator=lambda n: fn(unit2, 0, 0),
        prefix_len=4,
        declared_limit=fn(unit2, 1, 1),
    )
    with pytest.raises(InputError):
        verify_interchange_sequence(seq, LEB)


def test_stabilized_lhs_with_diverging_rhs_fails():
    # Members are 0 except for -1 on their own atom: every integral is -1,
    # but the prefix infima accumulate and diverge, so the interchange fails.
    n_atoms = 40
    space = MeasureSpace([f"u{i}" for i in range(n_atoms)], [1] * n_atoms)

    def gen(k):
        values = [0] * n_atoms
        values[k] = -1
        return FnClass(space, values)

    seq = SequenceSpec(generator=gen, prefix_len=n_atoms, divergence_threshold=10)
    report = verify_interchange_sequence(seq, LEB)
    assert report.lhs == ext(-1)
    assert report.rhs == NEG_INF
    assert report.interchange_holds == "fails"
    assert report.phi_inf_directed == "no"


def test_fails_in_limit_for_non_monotone_functional(unit2):
    anti = Functional(
        "anti", "semi_integrable", lambda f: -lebesgue_extended(f),
        order_preserving=False,
    )
    zero = fn(unit2, 0, 0)
    seq = SequenceSpec(
        generator=lambda n: fn(unit2, n, n),
        prefix_len=16,
        declared_limit=zero,
        divergence_threshold=10,
    )
    report = verify_interchange_sequence(seq, anti)
    assert report.lhs == NEG_INF and report.rhs == 0
    assert report.interchange_holds == "fails-in-limit"


def test_slowly_decreasing_prefix_is_inconclusive(unit2):
    seq = SequenceSpec(
        generator=lambda n: fn(unit2, -n, -n), prefix_len=8
    )  # default threshold 1e9 is never crossed
    report = verify_interchange_sequence(seq, LEB)
    assert report.interchange_holds == "inconclusive"
    assert report.phi_inf_directed == "inconclusive"


# sequential-inf continuity ---------------------------------------------------

def test_seq_inf_continuity_mct_rate(unit2):
    f = fn(unit2, 1, -3)
    mass = unit2.total_mass()
    seq = SequenceSpec(
        generator=lambda n: fn_shift(f, Fraction(1, n + 1)),
        prefix_len=10,
        declared_limit=f,
    )
    report = check_seq_inf_continuity(LEB, seq, tolerance=Fraction(mass, 10))
    assert report.verdict == "holds"
    for n, gap in enumerate(report.gaps):
        assert gap == ext(Fraction(mass, n + 1))
        assert gap <= ext(3 * Fraction(mass, n + 1))


def test_seq_inf_continuity_ess_sup(unit2):
    ess = make_builtin("ess_sup")
    f = fn(unit2, 0, 2)
    seq = SequenceSpec(
        generator=lambda n: fn_shift(f, Fraction(1, n + 1)),
        prefix_len=10,
        declared_limit=f,
    )
    report = check_seq_inf_continuity(ess, seq, tolerance=Fraction(1, 10))
    assert report.verdict == "holds"


def test_seq_inf_continuity_constant_is_exact(unit2):
    f = fn(unit2, 3, 3)
    seq = SequenceSpec(generator=lambda n: f, prefix_len=5)
    report = check_seq_inf_continuity(LEB, seq)
    assert report.verdict == "holds" and report.exact


def test_seq_inf_continuity_divergence(unit2):
    # f has -inf mass: the truncations' integrals run away to -inf.
    seq = SequenceSpec(
        generator=lambda n: fn(unit2, 1, -1000 * (n + 1)),
        prefix_len=16,
        declared_limit=fn(unit2, 1, "-inf"),
        divergence_threshold=5000,
    )
    report = check_seq_inf_continuity(LEB, seq)
    assert report.diverging
    assert report.verdict == "holds"
    assert report.rhs == NEG_INF


def test_seq_inf_continuity_requires_nonincreasing(unit2):
    seq = SequenceSpec(
        generator=lambda n: fn(unit2, n, n), prefix_len=4
    )
    with pytest.raises(InputError):
        check_seq_inf_continuity(LEB, seq)


# Giner gap form ---------------------------------------------------------------

def test_giner_gap_agrees_with_direct_condition_spot():
    rng = random.Random(2)
    for _ in range(120):
        space = random_space(rng, 4)
        members = [
            FnClass(space, [ext(rng.choice([-2, -1, 0, 1, 3])) for _ in space.atoms])
            for _ in range(rng.randint(1, 4))
        ]
        family = Family(members)
        gap = giner_gap_directed(family)
        direct = is_phi_inf_directed(family, LEB)
        assert gap.directed == direct.directed


def test_giner_gap_rejects_non_integrable(unit2):
    family = Family([fn(unit2, "+inf", 0)])
    with pytest.raises(DomainError):
        giner_gap_directed(family)
