"""The directedness scan against naive reference scans, and its Phi count."""

import json
import random
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice
from math import comb
from pathlib import Path
from operator import and_

import pytest
from hypothesis import assume, given, settings, strategies as st

from interlab import interchange
from interlab.errors import DomainError, InvariantError
from interlab.extreal import NEG_INF, POS_INF, _leq_within, as_scalar, ext
from interlab.fnlattice import FnClass, ess_sup_value, pointwise_inf
from interlab.functionals import Functional, make_builtin
from interlab.integrals import RANK_TABLES, Capacity, lebesgue_extended
from interlab.interchange import (
    Family,
    is_phi_inf_directed,
    verify_interchange,
)
from interlab.measure import MeasureSpace, iter_atom_subsets
from interlab.scenario import build_family, build_space

from oracle_helpers import naive_giner_gap_directed, naive_phi_inf_directed

LEB = make_builtin("extended_lebesgue")
KINDS = ("extended_lebesgue", "outer", "inner", "ess_sup", "choquet", "wobble")
WEIGHTS = [0, 1, "1/2", 2]
FINITE = [-2, -1, "-1/2", 0, "1/3", 1, 3]
NONNEG = [0, "1/3", 1, 3, "+inf"]
GOLDEN_SCENARIOS = Path(__file__).resolve().parent / "golden" / "scenarios"

# Neither monotone nor declared so: the scan must not lean on monotonicity.
WOBBLE = Functional(
    "wobble",
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_minus_infinity_on_a_member_needs_no_scan(data):
    """A family with a member of Phi = -inf is directed whatever Phi gives
    on the infima: the verdict, witness and mode are the naive scan's, and
    Phi runs on the members only, with no rank code and no rank table."""
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(KINDS[:5]), label="kind")
    n_atoms = data.draw(st.integers(1, 4), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    cap_weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                     max_size=n_atoms), label="capacity")
    # Choquet integrates nonpositive functions through -C(-f).
    grid = (["-inf", -3, -1, "-1/3", 0] if kind == "choquet" else
            _grid(kind, data.draw(st.sampled_from(["-inf", "+inf"]), label="inf")))
    # Both sides of the default subset budget of 12.
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 14)), label="members")
    rows = data.draw(st.lists(st.lists(st.sampled_from(grid), min_size=n_atoms,
                                       max_size=n_atoms), min_size=n, max_size=n),
                     label="family")
    # A member that is -inf on every atom has Phi = -inf, unless no atom
    # carries weight (or capacity); assume() drops those draws.
    rows[data.draw(st.integers(0, n - 1), label="low")] = ["-inf"] * n_atoms
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    family = Family([FnClass(space, r) for r in rows])
    phi = _functional(kind, space, cap_weights)
    try:
        values = [phi(m) for m in family.members]
    except DomainError:
        values = None
    assume(values is not None and min(values) == NEG_INF)
    expected = naive_phi_inf_directed(family, phi, interchange.DEFAULT_SUBSET_BUDGET)

    def raising(*args):
        raise AssertionError("the scan scored a subset")

    calls = []
    call = Functional.__call__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interchange, "_rank_code", raising)
        for eval_fn in list(RANK_TABLES):
            mp.setitem(RANK_TABLES, eval_fn, raising)
        mp.setattr(Functional, "__call__", lambda self, f: calls.append(f) or call(self, f))
        res = is_phi_inf_directed(family, phi)
    assert (res.directed, res.witness, res.mode, res.shortcut_agrees) == expected
    assert calls == list(family.members)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_giner_gap_scan_matches_naive_reference(data):
    """Giner's gap form, min over x in X of the integral of (x - inf S) <= 0
    for every S, on an integrable, mu-a.e. finite family: the Lebesgue scan
    at tolerance 0."""
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
    res = is_phi_inf_directed(family, LEB, budget, tolerance=0)
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

    phi = Functional("counted", counted)
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
    """(lhs, tol, subset) triples where the rank table's answer differs from
    ``_leq_within(lhs, Phi(decoded infimum), tol)``, with lhs each value Phi
    gives on a subset infimum, each finite one plus and minus 10^-9, -inf
    and +inf, and tol 0 and 1/3; None when no table is built.

    Also checks when a table may decline: an integral table is built under
    exact weights, infinite values included, and declines exactly the keys
    where Phi raises DomainError, which it does only on an infimum with an
    infinite value on an atom of positive weight, whatever the bound; the
    ess_sup table is always built and declines nothing.
    """
    space = members[0].space
    integral = phi.eval_fn is not ess_sup_value
    heavy = space.non_null_indices()

    def infinite(values):
        return any(values[i] in (POS_INF, NEG_INF) for i in heavy)

    rows, fields = interchange._rank_code(members)
    scored = []  # (subset, key, Phi on its infimum or None where Phi raises)
    for k in range(1, len(members) + 1):
        for idx in combinations(range(len(members)), k):
            key = -1
            for i in idx:
                key &= rows[i]
            inf_s = tuple(lv[((key >> off) & mask).bit_count()] for lv, off, mask in fields)
            assert inf_s == pointwise_inf([members[i] for i in idx]).values
            try:
                value = phi(FnClass.from_ext(space, inf_s))
            except DomainError:
                assert integral and infinite(inf_s)
                value = None
            scored.append((idx, key, value))
    # Just above and below a value, ceil((lhs - tol) * den) is no multiple
    # of den, so a floor in its place fails too.
    tiny = as_scalar("1/1000000000", space.backing)
    finite = {v for *_, v in scored if v is not None and NEG_INF < v < POS_INF}
    bounds = ({v for *_, v in scored if v is not None} | {NEG_INF, POS_INF}
              | {v + tiny for v in finite} | {v - tiny for v in finite})
    tols = [as_scalar(t, space.backing) for t in (0, "1/3")]
    mismatches = []
    for lhs in sorted(bounds):
        for tol in tols:
            table = (build or RANK_TABLES[phi.eval_fn])(space, fields, lhs, tol)
            assert (table is None) == (integral and space.backing == "float")
            if table is None:
                return None
            for idx, key, value in scored:
                got = table(key)
                assert (got is None) == (value is None)
                if got is not None and got is not _leq_within(lhs, value, tol):
                    mismatches.append((lhs, tol, idx, got, value))
    return mismatches


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_rank_tables_answer_as_phi_does_on_every_bound(data):
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


def test_integral_table_needs_an_exact_bound():
    space = MeasureSpace(["a", "b"], [1, "1/2"])
    _, fields = interchange._rank_code([FnClass(space, r) for r in ([1, 2], [2, "1/3"])])
    assert lebesgue_extended(FnClass(space, [1, "1/3"])) == Fraction(7, 6)
    passes = RANK_TABLES[lebesgue_extended](space, fields, Fraction(7, 6), 0)
    assert passes(0) is True
    assert RANK_TABLES[lebesgue_extended](space, fields, 7 / 6, 0) is None
    assert RANK_TABLES[lebesgue_extended](space, fields, Fraction(7, 6), 1e-9) is None
    assert RANK_TABLES[lebesgue_extended](space, fields, NEG_INF, 0)(0) is True


@pytest.mark.parametrize("kind", BUILTINS)
def test_table_comparison_catches_a_dropped_atom(kind):
    space = MeasureSpace(["a", "b"], [1, "1/2"])
    members = [FnClass(space, r) for r in ([1, 2], [2, "1/3"])]
    phi = make_builtin(kind)
    build = RANK_TABLES[phi.eval_fn]
    # An atom whose code is dropped adds nothing: 0 to a sum, -inf to a max.
    blank = NEG_INF if kind == "ess_sup" else 0

    def dropping(space, fields, lhs, tol):
        level, offset, mask = fields[0]
        return build(space, [([blank] * len(level), offset, mask)] + fields[1:], lhs, tol)

    assert _table_mismatches(phi, members) == []
    assert _table_mismatches(phi, members, dropping)


# A not semi-integrable last member, given a caller's value: a finite value
# below every finite infimum.  The first member is +inf on a, so the first
# infimum that is +inf on a and -inf on b is also the first to go below that
# value, and the members between give the scan enough new infima to build
# its table first.
BOTH_PARTS_INFINITE = [
    ([["+inf", 0, 4], [2, 3, 3], [3, 3, 3], [1, 2, 3], [1, 3, 2], ["+inf", "-inf", 5]], -10),
    ([["+inf", 0, 4], [1, 2, 3], [2, 3, 1], [3, 1, 2], [1, 3, 2], [2, 1, 3],
      ["+inf", "-inf", 5]], -10),
    ([["+inf", 0, 4], [1, 2, 3], [2, 3, 1], [3, 1, 2], [1, 3, 2], [2, 1, 3], [3, 2, 1],
      ["+inf", "-inf", 5]], -100),
]


@pytest.mark.parametrize("rows,last", BOTH_PARTS_INFINITE)
def test_both_parts_infinite_after_the_table_is_built(monkeypatch, rows, last):
    builds = []
    build = RANK_TABLES[lebesgue_extended]

    def counted(space, fields, lhs, tol):
        builds.append(lhs)
        return build(space, fields, lhs, tol)

    monkeypatch.setitem(RANK_TABLES, lebesgue_extended, counted)
    space = MeasureSpace(["a", "b", "c"], [1, 1, 1])
    family = Family([FnClass(space, r) for r in rows])
    phi = make_builtin("extended_lebesgue")
    values = [phi(m) for m in family.members[:-1]] + [last]
    with pytest.raises(DomainError) as err:
        is_phi_inf_directed(family, phi, phi_values=values)
    assert str(err.value) == (
        "function is not semi-integrable (both parts have infinite integral); "
        "use outer_integral or inner_integral"
    )
    assert builds == [last]


def test_a_caller_given_minus_infinity_passes_without_scoring(monkeypatch):
    """min Phi(X) = -inf passes every subset, the infimum that is +inf on a
    and -inf on b too: the scan scores nothing and answers "yes"."""
    def raising(*args):
        raise AssertionError("the scan scored a subset")

    space = MeasureSpace(["a", "b", "c"], [1, 1, 1])
    rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2], ["+inf", 0, 4], ["+inf", "-inf", 5]]
    family = Family([FnClass(space, r) for r in rows])
    phi = make_builtin("extended_lebesgue")
    values = [phi(m) for m in family.members[:-1]] + [NEG_INF]
    monkeypatch.setattr(interchange, "_rank_code", raising)
    monkeypatch.setitem(RANK_TABLES, lebesgue_extended, raising)
    monkeypatch.setattr(Functional, "__call__", raising)
    res = is_phi_inf_directed(family, phi, phi_values=values)
    assert (res.directed, res.witness, res.mode, res.shortcut_agrees) == \
        (True, None, "exhaustive", True)


@pytest.mark.parametrize("name", ["check-lebesgue-inf", "check-outer-inf",
                                  "check-inner-inf-column"])
def test_rank_tables_score_infinite_values(monkeypatch, name):
    """On the golden families with infinite values on atoms of positive
    weight, one of them +inf in every member on an atom, the scan builds the
    integral's rank table, and the table answers every key it is asked,
    infinite integrals included, as Phi does."""
    sc = json.loads((GOLDEN_SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    space = build_space(sc["space"], "rational")
    family = build_family(sc["family"], space)
    phi = make_builtin(sc["functional"]["kind"])
    build = RANK_TABLES[phi.eval_fn]
    scored = []  # (answer, Phi on the key's infimum)

    def counted(space, fields, lhs, tol):
        table = build(space, fields, lhs, tol)
        assert table is not None

        def passes(key):
            inf_s = tuple(lv[((key >> off) & mask).bit_count()] for lv, off, mask in fields)
            value = phi(FnClass.from_ext(space, inf_s))
            scored.append((table(key), _leq_within(lhs, value, tol), value))
            return scored[-1][0]

        return passes

    monkeypatch.setitem(RANK_TABLES, phi.eval_fn, counted)
    verify_interchange(family, phi)
    assert scored and all(answer is holds for answer, holds, _ in scored)
    assert any(value in (POS_INF, NEG_INF) for *_, value in scored)


def test_a_witness_the_table_fails_is_scored_again(monkeypatch):
    """A table's false "fails" on a family whose verdict fails anyway would
    move the witness; Phi re-scores the witness and disagrees."""
    build = RANK_TABLES[ess_sup_value]
    monkeypatch.setitem(RANK_TABLES, ess_sup_value, lambda *args: (lambda key: False))
    rows = [[0 if i == j % 8 else 1 for i in range(8)] for j in range(10)]
    family = Family([FnClass(WIDE, r) for r in rows])
    with pytest.raises(InvariantError, match="rank table of the directedness scan fails"):
        verify_interchange(family, make_builtin("ess_sup"))
    monkeypatch.setitem(RANK_TABLES, ess_sup_value, build)
    report = verify_interchange(family, make_builtin("ess_sup"))
    assert (report.interchange_holds, report.witness) == ("fails", tuple(range(8)))


# -- level keys ---------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_level_keys_follow_the_subset_order(data):
    n = data.draw(st.integers(1, 12), label="members")
    rows = data.draw(st.lists(st.integers(0, 2 ** 16 - 1), min_size=n, max_size=n),
                     label="rows")
    stop = data.draw(st.integers(1, 2 ** n - 1), label="stop")
    expected = [(idx, reduce(and_, (rows[i] for i in idx), -1))
                for idx in interchange._nonempty_subsets(n)]
    walk = zip(interchange._nonempty_subsets(n),
               chain.from_iterable(interchange._level_keys(rows)))
    assert list(islice(walk, stop)) == expected[:stop]
    assert list(walk) == expected[stop:]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_level_scan_stops_where_the_naive_scan_does(data):
    """Families of 3-12 members, whose exhaustive scans read level keys,
    against the naive scan, with a functional that is not monotone, so the
    witness may come at any size."""
    n = data.draw(st.integers(3, 12), label="members")
    n_atoms = data.draw(st.integers(1, 3), label="atoms")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], [1] * n_atoms)
    rows = data.draw(st.lists(st.lists(st.sampled_from(FINITE), min_size=n_atoms,
                                       max_size=n_atoms), min_size=n, max_size=n),
                     label="family")
    family = Family([FnClass(space, r) for r in rows])
    res = is_phi_inf_directed(family, WOBBLE, 12)
    assert res.mode == "exhaustive"
    assert (res.directed, res.witness, res.mode, res.shortcut_agrees) == \
        naive_phi_inf_directed(family, WOBBLE, 12)


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
