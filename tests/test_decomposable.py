import random
import tracemalloc
from fractions import Fraction

import pytest

from interlab import decomposable
from interlab.decomposable import (
    Integrand,
    SelectionSet,
    ShapiroScenario,
    is_decomposable,
    verify_rw_argmin,
    verify_rw_interchange,
    verify_shapiro,
)
from interlab.errors import BudgetError, DomainError, InputError, InvariantError
from interlab.extreal import ext
from interlab.fnlattice import FnClass, mu_leq
from interlab.functionals import DOMAIN_ALL, Functional, make_builtin
from interlab.integrals import outer_integral
from interlab.measure import MeasureSpace
from interlab.oracle import random_integrand, random_space

LEB = make_builtin("extended_lebesgue")


@pytest.fixture
def unit2():
    return MeasureSpace(["a", "b"], [1, 1])


# decomposability -------------------------------------------------------------

def test_product_sets_are_decomposable():
    u = SelectionSet.full_product(2, 2)
    report = is_decomposable(u)
    assert report.decomposable


def test_two_constants_are_not_decomposable_with_witness():
    u = SelectionSet.explicit([(0, 0), (1, 1)], n_atoms=2, n_controls=2)
    report = is_decomposable(u)
    assert not report.decomposable
    patch = report.witness_patch
    assert patch is not None
    assert tuple(patch["patched"]) not in {(0, 0), (1, 1)}  # a mixed selection


def test_explicit_full_product_is_decomposable():
    sels = [(i, j) for i in range(2) for j in range(2)]
    u = SelectionSet.explicit(sels, n_atoms=2, n_controls=2)
    assert is_decomposable(u).decomposable


def test_explicit_product_of_proper_projections_is_decomposable():
    # Reachable controls are {0,1} x {2}: a product, hence decomposable.
    u = SelectionSet.explicit([(0, 2), (1, 2)], n_atoms=2, n_controls=3)
    assert is_decomposable(u).decomposable


def test_selection_set_validation():
    with pytest.raises(InputError):
        SelectionSet.explicit([], n_atoms=2, n_controls=2)
    with pytest.raises(InputError):
        SelectionSet.explicit([(0, 5)], n_atoms=2, n_controls=2)
    with pytest.raises(InputError):
        SelectionSet("product", 2, 2, admissible=[[0], []])


# Rockafellar-Wets interchange -------------------------------------------------

def test_rw_trivial_identity_integrand(unit2):
    integrand = Integrand(unit2, [[0], [1]], [[0, 1], [0, 1]])
    report = verify_rw_interchange(integrand, SelectionSet.full_product(2, 2))
    assert report.lhs == report.rhs == 0
    assert report.equal and report.decomposable


def test_rw_squared_distance_integrand(unit2):
    # f(w, u) = (u - target_w)^2 with targets (0, 1); enumeration oracle
    # gives 0 at the selection (0, 1).
    integrand = Integrand(unit2, [[0], [1]], [[0, 1], [1, 0]])
    report = verify_rw_interchange(integrand, SelectionSet.full_product(2, 2))
    assert report.lhs == report.rhs == 0
    assert report.minimizers == [(0, 1)]


def test_rw_non_decomposable_strict_inequality(unit2):
    # Mixing rewards: constants are suboptimal, and the two-constant set
    # cannot mix, so lhs stays strictly above rhs.
    integrand = Integrand(unit2, [[0], [1]], [[0, 1], [1, 0]])
    u = SelectionSet.explicit([(0, 0), (1, 1)], n_atoms=2, n_controls=2)
    report = verify_rw_interchange(integrand, u)
    assert not report.decomposable
    assert report.lhs == ext(1) and report.rhs == 0
    assert not report.equal
    assert any("strict inequality" in n for n in report.hypothesis_notes)
    assert any("hypothesis violated" in n for n in report.hypothesis_notes)


def test_rw_precondition_requires_an_integrable_selection(unit2):
    integrand = Integrand(unit2, [[0]], [["+inf"], [0]])
    with pytest.raises(DomainError):
        verify_rw_interchange(integrand, SelectionSet.full_product(2, 1))


def test_rw_enumeration_budget_refuses():
    space = MeasureSpace([f"w{i}" for i in range(21)], [1] * 21)
    integrand = Integrand(space, [[0], [1]], [[0, 1]] * 21)
    with pytest.raises(BudgetError):
        verify_rw_interchange(
            integrand, SelectionSet.full_product(21, 2), enum_budget=10**6
        )


def test_rw_random_product_instances_are_exactly_equal():
    rng = random.Random(13)
    for _ in range(30):
        space = random_space(rng, 3)
        integrand = random_integrand(rng, space, max_controls=3)
        u = SelectionSet.full_product(len(space.atoms), integrand.n_controls)
        report = verify_rw_interchange(integrand, u)
        assert report.equal


# argmin characterization --------------------------------------------------------

def test_rw_argmin_identity(unit2):
    integrand = Integrand(unit2, [[0], [1]], [[0, 1], [0, 1]])
    report = verify_rw_argmin(integrand, SelectionSet.full_product(2, 2))
    assert report.applicable and report.characterization_holds
    assert report.argmin_selections == [(0, 0)]


def test_rw_argmin_two_minimizers_per_atom():
    space = MeasureSpace(["a", "b"], [1, 1])
    # Ties at both atoms: the argmin set is the full product of per-atom ties.
    integrand = Integrand(space, [[0], [1], [2]], [[0, 0, 5], [3, 1, 1]])
    report = verify_rw_argmin(integrand, SelectionSet.full_product(2, 3))
    assert report.characterization_holds
    assert set(report.argmin_selections) == {(0, 1), (0, 2), (1, 1), (1, 2)}


def test_rw_argmin_ignores_null_atoms():
    space = MeasureSpace(["a", "b"], [1, 0])
    integrand = Integrand(space, [[0], [1]], [[0, 1], [0, 1]])
    report = verify_rw_argmin(integrand, SelectionSet.full_product(2, 2))
    assert report.characterization_holds
    assert set(report.argmin_selections) == {(0, 0), (0, 1)}


def test_rw_argmin_not_applicable_at_minus_infinity(unit2):
    integrand = Integrand(unit2, [[0], [1]], [[0, "-inf"], [0, 0]])
    report = verify_rw_argmin(integrand, SelectionSet.full_product(2, 2))
    assert not report.applicable
    assert report.characterization_holds is None


def test_gflat_below_every_selection():
    rng = random.Random(14)
    for _ in range(30):
        space = random_space(rng, 3)
        integrand = random_integrand(rng, space, max_controls=3)
        gflat = integrand.g_flat()
        u = SelectionSet.full_product(len(space.atoms), integrand.n_controls)
        for sel in u.iter_selections():
            assert mu_leq(gflat, integrand.g_of(sel))


# Shapiro ----------------------------------------------------------------------

def shapiro_demo_scenario():
    space = MeasureSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
    controls = [[Fraction(1, n)] for n in range(1, 9)] + [[0]]
    values = [c[0] for c in controls]
    integrand = Integrand(space, controls, [values, values])
    prefix = [(n, n) for n in range(len(controls))]
    return ShapiroScenario(
        functional=LEB,
        p=2,
        integrand=integrand,
        selection_prefix=prefix,
        selection_set=SelectionSet.full_product(2, len(controls)),
    )


def test_shapiro_demo_all_hypotheses_and_conclusion():
    report = verify_shapiro(shapiro_demo_scenario())
    assert report.hypotheses_ok, report.hypotheses
    assert report.conclusion_holds
    assert report.conclusion_mode == "exact"
    assert report.conclusion_lhs == report.conclusion_rhs == 0


@pytest.mark.parametrize("declared", [None, (0, 0)])
def test_shapiro_lhs_below_phi_of_gflat_is_an_invariant_failure(monkeypatch, declared):
    scenario = shapiro_demo_scenario()
    if declared is not None:  # a declared G-flat equal to the computed one
        scenario.declared_gflat = FnClass(scenario.integrand.space, declared)
    fold = decomposable._min_of_folds
    monkeypatch.setattr(decomposable, "_min_of_folds", lambda *args: fold(*args) - 1)
    with pytest.raises(InvariantError, match="below Phi of the per-atom minimum"):
        verify_shapiro(scenario)


def test_shapiro_invariant_needs_the_computed_gflat_and_a_declared_order(monkeypatch):
    fold = decomposable._min_of_folds
    monkeypatch.setattr(decomposable, "_min_of_folds", lambda *args: fold(*args) - 1)
    scenario = shapiro_demo_scenario()
    scenario.declared_gflat = FnClass(scenario.integrand.space, [1, 1])
    report = verify_shapiro(scenario)
    assert not report.conclusion_holds and report.conclusion_lhs == -1
    scenario = shapiro_demo_scenario()
    scenario.functional = Functional("outer", DOMAIN_ALL, outer_integral,
                                     order_preserving=False)
    assert not verify_shapiro(scenario).conclusion_holds


@pytest.mark.parametrize("order_preserving", [True, False])
def test_shapiro_invariant_holds_in_sampled_mode(order_preserving):
    # -outer is order-reversing: on the prefix it reaches -1 < -outer(G-flat) = 0.
    scenario = shapiro_demo_scenario()
    scenario.functional = Functional("-outer", DOMAIN_ALL, lambda f: -outer_integral(f),
                                     order_preserving=order_preserving)
    if order_preserving:
        with pytest.raises(InvariantError, match="below Phi of the per-atom minimum"):
            verify_shapiro(scenario, enum_budget=10)
    else:
        report = verify_shapiro(scenario, enum_budget=10)
        assert report.conclusion_mode == "sampled" and report.conclusion_lhs == -1
        assert not report.conclusion_holds


def test_shapiro_constant_integrand_trivially_holds():
    space = MeasureSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
    integrand = Integrand(space, [[0], [1]], [[2, 2], [2, 2]])
    scenario = ShapiroScenario(
        functional=LEB, p=1, integrand=integrand,
        selection_prefix=[(0, 0), (1, 1)],
        selection_set=SelectionSet.full_product(2, 2),
    )
    report = verify_shapiro(scenario)
    assert report.hypotheses_ok
    assert report.conclusion_holds
    assert report.conclusion_lhs == ext(2)


def test_shapiro_ess_sup_reports_failing_hypotheses():
    # Rotating indicators: norms stay at 1/2, ess_sup stays at 1, so both
    # (S2a) and (S2b) fail and the conclusion is false; the report says so.
    space = MeasureSpace(list("abcd"), [Fraction(1, 4)] * 4)
    integrand = Integrand(space, [[0], [1]], [[0, 1]] * 4)
    prefix = []
    for n in range(8):
        sel = [0, 0, 0, 0]
        sel[n % 4] = 1
        prefix.append(tuple(sel))
    scenario = ShapiroScenario(
        functional=make_builtin("ess_sup"), p=2, integrand=integrand,
        selection_prefix=prefix,
        selection_set=SelectionSet.explicit(prefix, 4, 2),
    )
    report = verify_shapiro(scenario)
    failed = {h.name for h in report.hypotheses if not h.ok}
    assert "S2a_norm_convergence" in failed
    assert "S2b_liminf" in failed
    assert not report.conclusion_holds
    assert report.conclusion_lhs == ext(1) and report.conclusion_rhs == 0


def test_shapiro_requires_probability_space():
    space = MeasureSpace(["a", "b"], [1, 1])
    integrand = Integrand(space, [[0]], [[0], [0]])
    scenario = ShapiroScenario(
        functional=LEB, p=1, integrand=integrand, selection_prefix=[(0, 0)],
    )
    with pytest.raises(InputError):
        verify_shapiro(scenario)


def test_shapiro_s1_failure_reported():
    space = MeasureSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
    integrand = Integrand(space, [[0], [1]], [[0, "+inf"], [0, 0]])
    scenario = ShapiroScenario(
        functional=LEB, p=1, integrand=integrand,
        selection_prefix=[(0, 0)],
        selection_set=SelectionSet.full_product(2, 2),
    )
    report = verify_shapiro(scenario)
    failed = {h.name for h in report.hypotheses if not h.ok}
    assert "S1_image_in_lp" in failed
    detail = {h.name: h.detail for h in report.hypotheses}["S1_image_in_lp"]
    assert detail == "G([1, 0]) is infinite on a non-null atom"


def test_shapiro_streams_the_selection_set():
    # 4^8 = 65536 selections under float backing: holding every selection
    # and every G(u) at once took a 17.9 MB traced peak.
    n, k = 8, 4
    space = MeasureSpace([f"a{i}" for i in range(n)], [1 / n] * n, backing="float")
    integrand = Integrand(space, list(range(k)),
                          [[2.0 ** -(c + 1) + i for c in range(k)] for i in range(n)])
    scenario = ShapiroScenario(
        functional=make_builtin("outer"), p=1, integrand=integrand,
        selection_prefix=[(c,) * n for c in range(k)],
        selection_set=SelectionSet.full_product(n, k),
    )
    tracemalloc.start()
    try:
        report = verify_shapiro(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.conclusion_mode == "exact" and report.conclusion_holds
    assert report.conclusion_lhs == 3.5625
    assert peak < 2 * 10**6


@pytest.mark.parametrize("u_set, what", [
    (SelectionSet.full_product(2, 3), "control count"),  # indexed past the table
    (SelectionSet.full_product(2, 1), "control count"),
    (SelectionSet.full_product(3, 2), "atom count"),
    (SelectionSet.full_product(40, 2), "atom count"),  # beyond the budget below
])
def test_shapiro_and_rw_reject_a_set_that_does_not_fit_the_integrand(u_set, what):
    space = MeasureSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
    integrand = Integrand(space, [[0], [1]], [[0, 1], [1, 0]])
    scenario = ShapiroScenario(
        functional=LEB, p=1, integrand=integrand,
        selection_prefix=[(0, 1), (1, 0)], selection_set=u_set,
    )
    message = f"selection set and integrand disagree on the {what}"
    with pytest.raises(InputError, match=message):
        verify_shapiro(scenario, enum_budget=10**4)
    with pytest.raises(InputError, match=message):
        verify_rw_interchange(integrand, u_set, enum_budget=10**4)
