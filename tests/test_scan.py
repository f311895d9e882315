"""The directedness scan against naive reference scans, and its Phi count."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from interlab.extreal import ext
from interlab.fnlattice import FnClass
from interlab.functionals import Functional, make_builtin
from interlab.integrals import Capacity, lebesgue_extended
from interlab.interchange import (
    Family,
    giner_gap_directed,
    is_phi_inf_directed,
    verify_interchange,
)
from interlab.measure import MeasureSpace, iter_atom_subsets

from oracle_helpers import naive_giner_gap_directed, naive_phi_inf_directed

KINDS = ("extended_lebesgue", "outer", "inner", "ess_sup", "choquet", "wobble")
WEIGHTS = [0, 1, "1/2", 2]
FINITE = [-2, -1, "-1/2", 0, "1/3", 1, 3]
NONNEG = [0, "1/3", 1, 3, "+inf"]

# Neither monotone nor declared so: the scan must not lean on monotonicity.
WOBBLE = Functional(
    "wobble", "all",
    lambda f: f.values[-1] if f.values[0] <= 0 else -f.values[-1],
    order_preserving=False,
)


def _functional(kind, space, cap_weights):
    if kind == "wobble":
        return WOBBLE
    if kind == "choquet":
        # (sum of per-atom weights)^2: monotone and not additive.
        table = {
            s: ext(sum((Fraction(w) for a, w in zip(space.atoms, cap_weights) if a in s),
                       Fraction(0)) ** 2)
            for s in iter_atom_subsets(space)
        }
        return make_builtin("choquet", capacity=Capacity(space, table))
    return make_builtin(kind)


def _grid(kind, infinity):
    if kind == "choquet":
        return NONNEG
    if kind == "extended_lebesgue":
        # One sign of infinity per family keeps every member and every
        # infimum semi-integrable.
        return FINITE + [infinity]
    return FINITE + ["-inf", "+inf"]


@st.composite
def _rows(draw, grid, n_atoms):
    """1-9 members: few distinct values, so infima repeat, or a covering.

    In a covering family member j is low on atom j mod n_atoms and high
    elsewhere, so under ess_sup the smallest violating subsets are large.
    """
    values = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(st.sampled_from(values), min_size=n_atoms,
                                      max_size=n_atoms), min_size=n, max_size=n))
    low, high = min(values, key=ext), max(values, key=ext)
    return [[low if i == j % n_atoms else high for i in range(n_atoms)] for j in range(n)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_matches_naive_reference(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    cap_weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                     max_size=n_atoms), label="capacity")
    grid = _grid(kind, data.draw(st.sampled_from(["-inf", "+inf"]), label="inf"))
    rows = data.draw(_rows(grid, n_atoms), label="family")
    budget = data.draw(st.integers(0, 9), label="budget")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    family = Family([FnClass(space, r) for r in rows])
    phi = _functional(kind, space, cap_weights)
    res = is_phi_inf_directed(family, phi, budget)
    expected = naive_phi_inf_directed(family, phi, budget)
    assert (res.directed, res.witness, res.mode, res.shortcut_agrees) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_giner_gap_scan_matches_naive_reference(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    # Integrable members: finite on every atom of positive weight.  Few
    # distinct values, so infima repeat.
    values = data.draw(st.lists(st.sampled_from(FINITE), min_size=1, max_size=3,
                                unique=True), label="values")
    cells = [st.sampled_from(values + (["-inf", "+inf"] if w == 0 else []))
             for w in weights]
    rows = data.draw(st.lists(st.tuples(*cells), min_size=1, max_size=9),
                     label="family")
    budget = data.draw(st.integers(0, 9), label="budget")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    family = Family([FnClass(space, list(r)) for r in rows])
    res = giner_gap_directed(family, budget)
    expected = naive_giner_gap_directed(family, budget)
    assert (res.directed, res.witness, res.mode) == expected


def test_phi_evaluated_once_per_member_and_once_on_the_infimum():
    calls = []

    def counted(f):
        calls.append(f)
        return lebesgue_extended(f)

    phi = Functional("counted", "semi_integrable", counted)
    space = MeasureSpace(["a", "b", "c"], [1, "1/2", 2])
    chain = Family([FnClass(space, [k, k + 1, 2 * k]) for k in (3, 2, 1, 0)])

    report = verify_interchange(chain, phi)
    assert report.interchange_holds == "holds" and report.phi_inf_directed == "yes"
    assert len(calls) == 5  # the 4 members and inf X; every subset infimum is a member

    calls.clear()
    assert is_phi_inf_directed(chain, phi).directed is True
    assert len(calls) == 4  # inf X is the last member, already scored
