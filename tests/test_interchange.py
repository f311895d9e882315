import random
import re
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interlab.decomposable import (
    Integrand,
    SelectionSet,
    ShapiroScenario,
    verify_rw_interchange,
    verify_shapiro,
)
from interlab.errors import DomainError, InputError, InvariantError, ScenarioError
from interlab.extreal import NEG_INF, POS_INF, as_scalar, ext, to_text
from interlab.fnlattice import FnClass, fn_shift, mu_leq, pointwise_inf
from interlab.functionals import Functional, make_builtin, parameterless_builtins
from interlab.integrals import Capacity, lebesgue_extended, outer_integral
from interlab.interchange import (
    _eq_within,
    Family,
    SequenceSpec,
    check_seq_inf_continuity,
    giner_gap_directed,
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
    res = is_phi_inf_directed(chain, LEB)
    assert (res.directed, res.witness) == (True, None)

    pair = Family([fn(unit2, 0, 1), fn(unit2, 1, 0)])
    res = is_phi_inf_directed(pair, LEB)
    assert (res.directed, res.witness) == (False, (0, 1))

    singleton = Family([fn(unit2, 5, -1)])
    res = is_phi_inf_directed(singleton, LEB)
    assert (res.directed, res.witness) == (True, None)


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
        assert pointwise_inf(family.members) in family.members
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


def test_undeclared_functional_gets_counterexample_note(unit2):
    # A chain: the verdict fails (lhs -2, rhs 0) while the scan says yes.
    # The member attaining min Phi is the counterexample K.
    honest = Functional(
        "anti", "semi_integrable", lambda f: -lebesgue_extended(f),
        order_preserving=False,
    )
    report = verify_interchange(Family([fn(unit2, 0, 0), fn(unit2, 1, 1)]), honest)
    assert (report.interchange_holds, report.phi_inf_directed) == ("fails", "yes")
    assert report.notes[-1] == (
        "order preservation not declared; it fails on this family: K = inf of "
        "members [1] has inf X <= K but Phi(K) = -2 < Phi(inf X) = 0"
    )


def _negated_from_five(f):
    # The outer integral, negated once any finite value reaches 5: monotone
    # on every function whose finite values stay below 5.
    value = outer_integral(f)
    return -value if any(NEG_INF < v < POS_INF and v >= 5 for v in f.values) else value


def test_non_monotone_functional_beyond_any_fixed_grid_is_judged_on_the_family(unit2):
    family = Family([fn(unit2, 5, 6), fn(unit2, 6, 5)])
    undeclared = Functional("neg5", "all", _negated_from_five, order_preserving=False)
    report = verify_interchange(family, undeclared)
    assert (report.lhs, report.rhs) == (-11, -10)
    assert (report.interchange_holds, report.phi_inf_directed) == ("fails", "yes")
    found = ("K = inf of members [0] has inf X <= K but Phi(K) = -11 < "
             "Phi(inf X) = -10")
    assert report.notes[-1] == f"order preservation not declared; it fails on this family: {found}"
    declared = replace(undeclared, order_preserving=True)
    with pytest.raises(InvariantError, match=re.escape(found)):
        verify_interchange(family, declared)


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


WEIGHTS = [0, 1, "1/2", 2]
VALUES = [-1, 0, "1/2", 1, 2, "+inf"]
PHI_VALUES = [-2, -1, "-1/2", 0, "1/2", 1, "+inf", "-inf"]
K_NOTE = re.compile(r"K = inf of members \[([\d, ]+)\] has inf X <= K but "
                    r"Phi\(K\) = (\S+) < Phi\(inf X\) = (\S+)$")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_undeclared_functionals_are_judged_on_the_family(data):
    """Random tables as Phi: neither monotone nor declared so.

    Every disagreement between verdict and scan must come with a
    counterexample K that re-checks here, never with InvariantError; the
    same table declared order-preserving raises exactly when K is named.
    """
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 3), label="n_atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    rows = data.draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=n_atoms,
                                       max_size=n_atoms), min_size=1, max_size=6),
                     label="rows")
    members = [FnClass(space, row) for row in rows]
    table_rng = random.Random(data.draw(st.integers(0, 2**32), label="table seed"))
    table = {}

    def lookup(f):
        if f.values not in table:
            table[f.values] = ext(table_rng.choice(PHI_VALUES), backing)
        return table[f.values]

    undeclared = Functional("table", "all", lookup, order_preserving=False)
    budget = data.draw(st.sampled_from([0, 2, 12]), label="budget")
    tol = data.draw(st.sampled_from([0, "1/2", 1]), label="tolerance")
    report = verify_interchange(Family(members), undeclared, budget, tolerance=tol)
    note, = [n for n in report.notes if n.startswith("order preservation not declared")]
    found = K_NOTE.search(note)
    if found:
        k = pointwise_inf([members[int(i)] for i in found.group(1).split(",")])
        assert mu_leq(pointwise_inf(members), k)
        assert lookup(k) < report.rhs
        assert (found.group(2), found.group(3)) == (to_text(lookup(k)), to_text(report.rhs))
    else:
        assert note == "order preservation not declared; verdict and scan agree without it"
        assert report.holds == (report.phi_inf_directed == "yes")
    declared = replace(undeclared, order_preserving=True)
    with (pytest.raises(InvariantError, match=re.escape(found.group(0))) if found
          else nullcontext()):
        verify_interchange(Family(members), declared, budget, tolerance=tol)


@pytest.mark.parametrize("budget", [-1, 2.5, "3", True])
@pytest.mark.parametrize("verifier", ["family", "directed", "sequence", "giner"])
def test_bad_subset_budget_is_an_input_error(verifier, budget):
    f = fn(MeasureSpace(["a", "b"], ["1/2", "1/2"]), 1, 2)
    seq = SequenceSpec(generator=lambda n: fn(f.space, -n, -n), prefix_len=8,
                       divergence_threshold=4)
    run = {
        "family": lambda: verify_interchange(Family([f]), LEB, budget),
        "directed": lambda: is_phi_inf_directed(Family([f]), LEB, budget),
        "sequence": lambda: verify_interchange_sequence(seq, LEB, budget),
        "giner": lambda: giner_gap_directed(Family([f]), budget),
    }[verifier]
    with pytest.raises(InputError, match=re.escape(
            f"subset_budget must be a nonnegative integer, got {budget!r}")):
        run()


@pytest.mark.parametrize("verifier", ["family", "sequence", "seq-continuity", "rw", "shapiro"])
def test_negative_tolerance_is_an_input_error(verifier):
    half = MeasureSpace(["a", "b"], ["1/2", "1/2"])
    f = fn(half, 1, 2)
    seq = SequenceSpec(generator=lambda n: f, prefix_len=2)
    integrand = Integrand(half, [[0], [1]], [[0, 1], [0, 1]])
    run = {
        "family": lambda: verify_interchange(Family([f]), LEB, tolerance=-1),
        "sequence": lambda: verify_interchange_sequence(seq, LEB, tolerance=-1),
        "seq-continuity": lambda: check_seq_inf_continuity(LEB, seq, tolerance=-1),
        "rw": lambda: verify_rw_interchange(
            integrand, SelectionSet.full_product(2, 2), tolerance=-1),
        "shapiro": lambda: verify_shapiro(
            ShapiroScenario(LEB, 1, integrand, [(0, 0)], tolerance=-1)),
    }[verifier]
    with pytest.raises(InputError, match="tolerance must be nonnegative, got -1"):
        run()


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

def test_giner_gap_rejects_non_integrable(unit2):
    family = Family([fn(unit2, "+inf", 0)])
    with pytest.raises(DomainError):
        giner_gap_directed(family)
