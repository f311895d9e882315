"""The directedness scan against naive reference scans, and its Phi count."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from interlab import interchange
from interlab.errors import DomainError
from interlab.extreal import NEG_INF, POS_INF, ext
from interlab.fnlattice import FnClass, ess_sup_value, pointwise_inf
from interlab.functionals import Functional, make_builtin
from interlab.integrals import RANK_TABLES, Capacity, lebesgue_extended
from interlab.interchange import (
    Family,
    giner_gap_directed,
    is_phi_inf_directed,
    verify_interchange,
)
from interlab.measure import MeasureSpace, iter_atom_subsets

from oracle_helpers import naive_giner_gap_directed, naive_phi_inf_directed

LEB = make_builtin("extended_lebesgue")
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
    if backing == "rational":
        expected = naive_giner_gap_directed(family, budget)
    else:
        # Under float the rounding of the integral of (x - inf S) against the
        # difference of integrals may move the witness; the gap form is
        # defined as the Lebesgue scan at tolerance 0.
        expected = naive_phi_inf_directed(family, LEB, budget, tol=0.0)[:3]
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


# -- rank tables ------------------------------------------------------------

BUILTINS = ("extended_lebesgue", "outer", "inner", "ess_sup")
# Thirds and halves, so that sums of Fraction terms often reduce to ints;
# under float backing -0.0 ties with 0.0, and ess_sup keeps the first.
TABLE_VALUES = [-2, -1, "-2/3", "-1/2", 0, -0.0, "1/3", "1/2", "2/3", 1, 3, "-inf", "+inf"]


def _table_mismatches(phi, members, build=None):
    """Subsets whose rank-table score differs from Phi on their decoded
    infimum in value or in type (or in the sign of a float zero); None when
    no table is built.

    Also checks when a table may decline: an integral table is built under
    exact weights unless an atom of positive weight holds one infinite value
    only, and declines exactly the keys with an infinite value on an atom of
    positive weight; the ess_sup table is always built and declines nothing.
    """
    space = members[0].space
    integral = phi.eval_fn is not ess_sup_value
    heavy = space.non_null_indices()

    def infinite(values):
        return any(values[i] in (POS_INF, NEG_INF) for i in heavy)

    rows, fields = interchange._rank_code(members)
    table = (build or RANK_TABLES[phi.eval_fn])(space, fields)
    stuck = any(fields[i][0] in ([POS_INF], [NEG_INF]) for i in heavy)
    assert (table is None) == (integral and (space.backing == "float" or stuck))
    if table is None:
        return None
    mismatches = []
    for k in range(1, len(members) + 1):
        for idx in combinations(range(len(members)), k):
            key = -1
            for i in idx:
                key &= rows[i]
            inf_s = tuple(lv[((key >> off) & mask).bit_count()] for lv, off, mask in fields)
            assert inf_s == pointwise_inf([members[i] for i in idx]).values
            got = table(key)
            assert (got is None) == (integral and infinite(inf_s))
            if got is not None:
                want = phi(FnClass.from_ext(space, inf_s))
                if (type(got), repr(got)) != (type(want), repr(want)):
                    mismatches.append((idx, got, want))
    return mismatches


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_rank_tables_agree_with_phi_in_value_and_type(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(BUILTINS), label="kind")
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS + ["1/3", "3/2"]),
                                 min_size=n_atoms, max_size=n_atoms), label="weights")
    rows = data.draw(st.lists(st.lists(st.sampled_from(TABLE_VALUES), min_size=n_atoms,
                                       max_size=n_atoms), min_size=1, max_size=6),
                     label="family")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    members = [FnClass(space, r) for r in rows]
    assert _table_mismatches(make_builtin(kind), members) in (None, [])


def test_all_null_space_tables():
    space = MeasureSpace(["a", "b"], [0, 0])
    members = [FnClass(space, r) for r in (["+inf", -1], ["-inf", "1/2"], [3, "+inf"])]
    for kind in BUILTINS:
        assert _table_mismatches(make_builtin(kind), members) == []


@pytest.mark.parametrize("kind", BUILTINS)
def test_table_comparison_catches_a_dropped_atom(kind):
    space = MeasureSpace(["a", "b"], [1, "1/2"])
    members = [FnClass(space, r) for r in ([1, 2], [2, "1/3"])]
    phi = make_builtin(kind)
    build = RANK_TABLES[phi.eval_fn]
    # An atom whose code is dropped adds nothing: 0 to a sum, -inf to a max.
    blank = NEG_INF if kind == "ess_sup" else 0

    def dropping(space, fields):
        level, offset, mask = fields[0]
        return build(space, [([blank] * len(level), offset, mask)] + fields[1:])

    assert _table_mismatches(phi, members) == []
    assert _table_mismatches(phi, members, dropping)


def test_both_parts_infinite_after_the_table_is_built(monkeypatch):
    builds = []
    build = RANK_TABLES[lebesgue_extended]

    def counted(space, fields):
        builds.append(fields)
        return build(space, fields)

    monkeypatch.setitem(RANK_TABLES, lebesgue_extended, counted)
    space = MeasureSpace(["a", "b", "c"], [1, 1, 1])
    rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2], ["+inf", 0, 4], ["+inf", "-inf", 5]]
    family = Family([FnClass(space, r) for r in rows])
    phi = make_builtin("extended_lebesgue")
    # The last member is not semi-integrable, so it gets a caller's value;
    # only the last pair's infimum is +inf on a and -inf on b.
    values = [phi(m) for m in family.members[:-1]] + [NEG_INF]
    with pytest.raises(DomainError) as err:
        is_phi_inf_directed(family, phi, phi_values=values)
    assert str(err.value) == (
        "function is not semi-integrable (both parts have infinite integral); "
        "use outer_integral or inner_integral"
    )
    assert len(builds) == 1


# -- subset counts ----------------------------------------------------------

def _count_subsets(monkeypatch):
    drawn = []
    for name in ("_nonempty_subsets", "_sampled_subsets"):
        def counted(n, gen=getattr(interchange, name)):
            for idx in gen(n):
                drawn.append(idx)
                yield idx
        monkeypatch.setattr(interchange, name, counted)
    return drawn


def _directed_family(rng, space, n):
    """n - 1 random members and their pointwise minimum."""
    values = [-2, -1, "-1/3", 0, "1/2", 1, "5/4", "3/2", 3]
    rows = [FnClass(space, [rng.choice(values) for _ in space.atoms]) for _ in range(n - 1)]
    return Family(rows + [pointwise_inf(rows)])


WIDE = MeasureSpace([f"a{i}" for i in range(8)], ["1/2", 1, "3/2", 2, 1, "1/2", 2, "3/2"])


def test_directed_scan_visits_every_subset(monkeypatch):
    drawn = _count_subsets(monkeypatch)
    family = _directed_family(random.Random(12), WIDE, 12)
    report = verify_interchange(family, make_builtin("extended_lebesgue"))
    assert (report.phi_inf_directed, report.witness) == ("yes", None)
    assert len(drawn) == 2 ** 12 - 1


def test_covering_scan_stops_at_the_first_cover(monkeypatch):
    drawn = _count_subsets(monkeypatch)
    n = 10
    rows = [[0 if i == j % 8 else 1 for i in range(8)] for j in range(n)]
    family = Family([FnClass(WIDE, r) for r in rows])
    report = verify_interchange(family, make_builtin("ess_sup"))
    assert (report.phi_inf_directed, report.witness) == ("no", tuple(range(8)))
    assert len(drawn) == sum(comb(n, k) for k in range(1, 8)) + 1


def test_sampled_scan_visits_the_fixed_sample(monkeypatch):
    drawn = _count_subsets(monkeypatch)
    n = 13
    family = _directed_family(random.Random(13), WIDE, n)
    report = verify_interchange(family, make_builtin("outer"))
    assert (report.phi_inf_directed, report.witness) == ("yes", None)
    assert len(drawn) == n * (n + 3) // 2 + 1
