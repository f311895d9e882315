"""Selection-set verdicts against naive references, the single enumeration, and
the fold behind Shapiro's conclusion against the minimum of Phi over the set."""

import json
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from interlab import decomposable
from interlab.cli import main
from interlab.decomposable import (
    SELECTION_BLOCK,
    Integrand,
    SelectionSet,
    ShapiroScenario,
    is_decomposable,
    verify_rw_argmin,
    verify_rw_interchange,
    verify_shapiro,
)
from interlab.errors import InterlabError, InvariantError
from interlab.extreal import NEG_INF, weighted_parts
from interlab.functionals import Functional, make_builtin
from interlab.integrals import (
    inner_integral,
    lebesgue_extended,
    outer_integral,
    part_sum,
)
from interlab.interchange import default_tolerance
from interlab.measure import MeasureSpace

from oracle_helpers import additive_capacity, naive_is_decomposable, naive_rw

WEIGHTS = [0, 1, "1/2", 2, 0.1]
# Denominators 3, 7 and 97 (and 10 from the decimals): a common denominator
# of several primes.
VALUES = [-2, -1, "-1/3", 0, 0.1, 0.7, "1/3", "5/7", "-11/97", 1, 3, "+inf", "-inf"]
# Largest control count per atom count that keeps the product at 81
# selections, so the naive patch enumeration stays cheap.
MAX_CONTROLS = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def explicit_selections(draw, n_atoms, n_controls):
    """Subsets of a product of per-atom admissible sets, in random order:
    the full product, the product minus one selection, or any subset."""
    admissible = [
        draw(st.lists(st.integers(0, n_controls - 1), min_size=1, max_size=n_controls,
                      unique=True))
        for _ in range(n_atoms)
    ]
    sels = draw(st.permutations(list(product(*admissible))))
    shape = draw(st.sampled_from(["full", "minus-one", "subset"]))
    if shape == "minus-one" and len(sels) > 1:
        sels = sels[:-1]
    elif shape == "subset":
        keep = draw(st.lists(st.booleans(), min_size=len(sels), max_size=len(sels)))
        sels = [s for s, k in zip(sels, keep) if k] or sels[:1]
    return sels


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_patch_closure_matches_full_patch_enumeration(data):
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    n_controls = data.draw(st.integers(1, MAX_CONTROLS[n_atoms]), label="controls")
    sels = data.draw(explicit_selections(n_atoms, n_controls), label="selections")
    u_set = SelectionSet.explicit(sels, n_atoms, n_controls)
    report = is_decomposable(u_set)
    assert (report.decomposable, report.witness_patch) == naive_is_decomposable(u_set)


@pytest.mark.parametrize("forced, sels", [
    (True, [s for s in product(range(2), (0, 2)) if s != (1, 2)]),  # a hole
    (False, list(product(range(2), (0, 2)))),  # the full product
])
def test_a_faulty_patch_closure_is_caught_by_the_product_count(monkeypatch, forced, sels):
    u_set = SelectionSet.explicit(sels, 2, 3)
    assert is_decomposable(u_set).decomposable is not forced
    monkeypatch.setattr(decomposable, "_patch_closed", lambda *args: forced)
    with pytest.raises(InvariantError, match="decomposability tests disagree"):
        is_decomposable(u_set)
    space = MeasureSpace(["a", "b"], [1, 1])
    with pytest.raises(InvariantError, match="decomposability tests disagree"):
        verify_rw_interchange(Integrand(space, [[0], [1], [2]], [[0, 1, 2]] * 2), u_set)


def test_projections_are_computed_once_per_set():
    sels = [(2, 0, 1), (0, 0, 1), (2, 0, 1), (0, 0, 0)]
    u_set = SelectionSet.explicit(sels, 3, 3)
    assert u_set.projections() == ((0, 2), (0,), (0, 1))
    assert u_set.projections() is u_set.projections()


def _outcome(fn):
    try:
        return fn()
    except InterlabError as e:  # the error type is part of the verdict
        return type(e)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rw_verdicts_match_naive_reference(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 4), label="atoms")
    n_controls = data.draw(st.integers(1, 3), label="controls")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    table = data.draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    kind = data.draw(st.sampled_from(["product", "admissible", "explicit"]), label="kind")
    if kind == "explicit":
        sels = data.draw(explicit_selections(n_atoms, n_controls), label="selections")
    elif kind == "admissible":
        admissible = [data.draw(st.lists(st.integers(0, n_controls - 1), min_size=1,
                                         max_size=n_controls, unique=True))
                      for _ in range(n_atoms)]
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    if kind == "explicit":
        u_set = SelectionSet.explicit(sels, n_atoms, n_controls)
    elif kind == "admissible":
        u_set = SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    else:
        u_set = SelectionSet.full_product(n_atoms, n_controls)
    expected = _outcome(lambda: naive_rw(integrand, u_set, default_tolerance(backing)))
    report = _outcome(lambda: verify_rw_interchange(integrand, u_set))
    if isinstance(report, type):
        assert report is expected
        assert _outcome(lambda: verify_rw_argmin(integrand, u_set)) is expected
        return
    argmin = verify_rw_argmin(integrand, u_set, interchange=report)
    alone = verify_rw_argmin(integrand, u_set)
    lhs, rhs, minimizers, pointwise = expected
    assert (report.lhs, report.rhs, report.minimizers) == (lhs, rhs, minimizers)
    assert repr(report.lhs) == repr(lhs)  # the same type, and the same zero
    assert set(report.pointwise_argmin) == pointwise
    assert argmin.to_json_dict() == alone.to_json_dict()
    if lhs == NEG_INF:
        assert not argmin.applicable
    else:
        assert argmin.characterization_holds == (set(minimizers) == pointwise)
        assert argmin.argmin_selections == minimizers


def test_rw_check_enumerates_the_selection_set_once(tmp_path, monkeypatch, capsys):
    calls = []
    iter_selections = SelectionSet.iter_selections

    def counted(self, *args, **kwargs):
        calls.append(self.kind)
        return iter_selections(self, *args, **kwargs)

    monkeypatch.setattr(SelectionSet, "iter_selections", counted)
    for sel in ({"kind": "product"},
                {"kind": "explicit", "selections": [[0, 0], [0, 1], [1, 0], [1, 1]]}):
        path = tmp_path / "rw.json"
        path.write_text(json.dumps({
            "space": {"atoms": ["a", "b"], "weights": [1, 1]},
            "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
            "selection_set": sel,
        }))
        calls.clear()
        assert main(["rw-check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["argmin"]["characterization_holds"]
        assert calls == [sel["kind"]]


# Values near the top of the float range: float folds of these overflow, so
# the enumeration falls back to ``weighted_parts`` selection by selection.
HUGE = ["1e308", "-1e308", "1e307"]
# Few finite values: blocks tie, and worse blocks sit between tying ones.
FINITE = [-1, 0, "1/2", 1]


@st.composite
def multi_block_products(draw):
    """Admissible sets whose product holds 1.5 to 4 blocks of selections,
    with single-control atoms mixed in."""
    n_controls = draw(st.integers(2, 4), label="controls")
    sizes, count = [], 1
    while 2 * count < 3 * SELECTION_BLOCK:
        size = draw(st.sampled_from(
            [k for k in range(2, n_controls + 1) if count * k <= 4 * SELECTION_BLOCK]))
        sizes.append(size)
        count *= size
    sizes = draw(st.permutations(sizes + [1] * draw(st.integers(0, 2))))
    admissible = [draw(st.lists(st.integers(0, n_controls - 1), min_size=k, max_size=k,
                                unique=True)) for k in sizes]
    return n_controls, admissible


def _assert_matches_naive(integrand, u_set, backing):
    expected = _outcome(lambda: naive_rw(integrand, u_set, default_tolerance(backing)))
    report = _outcome(lambda: verify_rw_interchange(integrand, u_set))
    if isinstance(expected, type):
        assert report is expected
        return
    lhs, rhs, minimizers, pointwise = expected
    assert (report.lhs, report.rhs, report.minimizers) == (lhs, rhs, minimizers)
    assert repr(report.lhs) == repr(lhs)  # the same type, and the same zero
    assert set(report.pointwise_argmin) == pointwise
    assert len(report.pointwise_argmin) == len(pointwise)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multi_block_sets_match_naive_reference(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_controls, admissible = data.draw(multi_block_products(), label="admissible")
    n_atoms = len(admissible)
    values = data.draw(st.sampled_from([VALUES, VALUES + HUGE, FINITE]), label="values")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    table = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    u_set = SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    if data.draw(st.booleans(), label="explicit"):
        sels = list(u_set.iter_selections())
        data.draw(st.randoms(use_true_random=False), label="order").shuffle(sels)
        u_set = SelectionSet.explicit(sels[:data.draw(st.integers(1, len(sels)))],
                                      n_atoms, n_controls)
    _assert_matches_naive(integrand, u_set, backing)


@pytest.mark.parametrize("backing", ["rational", "float"])
@pytest.mark.parametrize("value", [3, "-1/4", "+inf", "-inf"])
def test_constant_integrand_ties_span_every_block(backing, value):
    n_atoms, n_controls = 6, 4  # 4 blocks of 1024 selections
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], [1, 0, "1/2", 2, 1, "1/4"],
                         backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)],
                          [[value] * n_controls] * n_atoms)
    u_set = SelectionSet.full_product(n_atoms, n_controls)
    assert u_set.count() == 4 * SELECTION_BLOCK
    _assert_matches_naive(integrand, u_set, backing)
    if value != "+inf":
        report = verify_rw_interchange(integrand, u_set)
        assert report.minimizers == list(product(range(n_controls), repeat=n_atoms))


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_blocks_skipped_between_tying_blocks(backing):
    """Atom 0 heads five blocks of 4^5 selections with values 2, 5, 2, 1, 1:
    the second block is skipped, the third ties the first, the fourth
    replaces them, and the fifth ties it."""
    space = MeasureSpace([f"a{i}" for i in range(6)], [1] * 6, backing=backing)
    table = [[2, 5, 2, 1, 1]] + [[0, "1/2", 1, 0, 0]] * 5
    integrand = Integrand(space, [[c] for c in range(5)], table)
    u_set = SelectionSet("product", 6, 5, admissible=[range(5)] + [range(4)] * 5)
    report = verify_rw_interchange(integrand, u_set)
    assert [s[0] for s in report.minimizers] == [3] * 32 + [4] * 32
    _assert_matches_naive(integrand, u_set, backing)


# The overflow probe: selection (0, 0, 0) folds 1e308 + 1e308 before its
# +inf term, so its positive part is +inf, as outer_integral(G(u)) says.
PROBE_TABLE = [[1e308, 1], [1e308, 1], ["+inf", 1]]


def _rw_file(tmp_path, weights, table, selection_set):
    path = tmp_path / "rw.json"
    path.write_text(json.dumps({
        "space": {"atoms": [f"a{i}" for i in range(len(weights))], "weights": weights},
        "integrand": {"controls": [[c] for c in range(len(table[0]))], "table": table},
        "selection_set": selection_set,
    }))
    return str(path)


def _rw_check(path, backing, monkeypatch, capsys):
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    code = main(["rw-check", path])
    out, err = capsys.readouterr()
    return code, (json.loads(out)["report"]["interchange"] if code == 0 else err)


@pytest.mark.parametrize("backing", ["rational", "float"])
@pytest.mark.parametrize("weights, table", [
    ([1, 1, 1], PROBE_TABLE),
    # 2 * 1e308 overflows as a term, on a selection that is +inf anyway.
    ([2, 1, 1], [[1e308, 0.5], [1, 1], ["+inf", 1]]),
])
def test_overflow_before_an_infinite_term_is_not_an_error(
        backing, weights, table, tmp_path, monkeypatch, capsys):
    path = _rw_file(tmp_path, weights, table,
                    {"kind": "explicit", "selections": [[0, 0, 0], [1, 1, 1]]})
    code, inter = _rw_check(path, backing, monkeypatch, capsys)
    assert code == 0
    assert inter["lhs"] == 3 and type(inter["lhs"]) is (float if backing == "float" else int)
    assert inter["minimizers"] == [[1, 1, 1]]


def test_float_overflow_without_an_infinite_term_still_exits_3(tmp_path, monkeypatch, capsys):
    path = _rw_file(tmp_path, [1, 1, 1], [[1e308, 1], [1e308, 1], [1, 1]],
                    {"kind": "explicit", "selections": [[0, 0, 0], [1, 1, 1]]})
    code, err = _rw_check(path, "float", monkeypatch, capsys)
    assert code == 3
    assert "expected a finite scalar, got +inf" in err


def test_full_product_probe_fails_where_outer_integral_fails(tmp_path, monkeypatch, capsys):
    """In the full product, selection (0, 0, 1) has no +inf term, and its
    finite positive part 2e308 + 1 lies beyond the float range."""
    path = _rw_file(tmp_path, [1, 1, 1], PROBE_TABLE, {"kind": "product"})
    assert _rw_check(path, "rational", monkeypatch, capsys)[0] == 0
    assert _rw_check(path, "float", monkeypatch, capsys)[0] == 3
    space = MeasureSpace(["a0", "a1", "a2"], [1, 1, 1], backing="float")
    integrand = Integrand(space, [[0], [1]], PROBE_TABLE)
    _assert_matches_naive(integrand, SelectionSet.full_product(3, 2), "float")


def test_lhs_below_rhs_is_an_invariant_failure(monkeypatch):
    space = MeasureSpace(["a", "b"], [1, 1])
    integrand = Integrand(space, [[0], [1]], [[0, 1], [0, 1]])
    u_set = SelectionSet.explicit([(0, 1), (1, 0)], 2, 2)  # not decomposable
    assert verify_rw_interchange(integrand, u_set).hypothesis_notes[-1] == (
        "strict inequality lhs > rhs")
    monkeypatch.setattr(decomposable, "_min_over_selections",
                        lambda *args: (-1, [(0, 1)], []))
    with pytest.raises(InvariantError, match="below"):
        verify_rw_interchange(integrand, u_set)


def test_rational_fold_does_no_fraction_arithmetic(monkeypatch):
    """The exact terms are integer codes over one denominator, infinite
    values included, so the Fraction additions of a product's verdict do not
    grow with its size, and no selection is evaluated on its own."""
    for infinite in (False, True):
        counts = []
        for n_atoms in (4, 6):
            space = MeasureSpace([f"a{i}" for i in range(n_atoms)], ["1/3"] * n_atoms)
            table = [[f"{(i + 5 * c) % 11 - 5}/{(2, 3, 7)[(i + c) % 3]}" for c in range(4)]
                     for i in range(n_atoms)]
            if infinite:  # on atoms of positive weight
                table[0][1], table[1][2], table[2][3] = "+inf", "-inf", "+inf"
            integrand = Integrand(space, [[c] for c in range(4)], table)
            u_set = SelectionSet.full_product(n_atoms, 4)
            adds, parts = [], []
            with monkeypatch.context() as patch:
                for name in ("__add__", "__radd__"):
                    def counted(a, b, _op=getattr(Fraction, name)):
                        adds.append(1)
                        return _op(a, b)

                    patch.setattr(Fraction, name, counted)
                patch.setattr(decomposable, "weighted_parts",
                              lambda *args: parts.append(1) or weighted_parts(*args))
                report = verify_rw_interchange(integrand, u_set)
            assert report.equal
            assert report.lhs == NEG_INF if infinite else type(report.lhs) is Fraction
            assert parts == []
            counts.append(len(adds))
        assert counts[0] == counts[1]


def test_unreachable_entries_bear_on_no_exact_code(monkeypatch):
    """An entry whose denominator alone passes the exact codes' bit cap
    turns the rational fold off only when a selection reaches it; out of
    every admissible set it bears on no code, and no selection is evaluated
    on its own."""
    table = [[(i + 3 * c) % 7 - 3 for c in range(4)] for i in range(4)]
    table[1][3] = f"1/{2 ** 5000 + 1}"
    integrand = Integrand(MeasureSpace(["a", "b", "c", "d"], ["1/3"] * 4),
                          [[c] for c in range(4)], table)
    calls = []
    monkeypatch.setattr(decomposable, "weighted_parts",
                        lambda *args: calls.append(1) or weighted_parts(*args))
    reports = []
    for reached in (range(4), range(3)):
        calls.clear()
        u_set = SelectionSet("product", 4, 4, admissible=[range(4), reached, range(4), range(4)])
        reports.append(verify_rw_interchange(integrand, u_set))
        assert reports[-1].equal
        assert (calls == []) == (len(reached) == 3)
    assert reports[0].lhs == reports[1].lhs == -3


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_enumeration_memory_does_not_grow_with_the_set(backing):
    """A 4^9 product holds 262144 selections; their float values alone
    would take over 8 MB, while the walk holds one block at a time."""
    n_atoms, n_controls = 9, 4
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], ["1/2", 1, 2, "1/4"] * 2 + [1],
                         backing=backing)
    table = [[(i + 3 * c) % 7 + 1 for c in range(n_controls)] for i in range(n_atoms)]
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    u_set = SelectionSet.full_product(n_atoms, n_controls)
    tracemalloc.start()
    try:
        report = verify_rw_interchange(integrand, u_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.minimizers) == 1 and report.equal
    assert peak < 1_000_000


# Shapiro's conclusion: the least value of the selection fold against the
# minimum of Phi(G(u)) over the set.  Weights 1e300 and values 1e300 or
# 1e308 make float folds overflow, so those sets are evaluated selection by
# selection.
FOLD_WEIGHTS = WEIGHTS + [1e300]
INTEGRALS = {"extended_lebesgue": lebesgue_extended, "outer": outer_integral,
             "inner": inner_integral}


def _value_or_error(fn):
    try:
        return fn()
    except InterlabError as e:  # the error class and text are part of the verdict
        return type(e), str(e)


def _assert_fold_is_the_min_of_phi(integrand, u_set, phi):
    expected = _value_or_error(
        lambda: min(phi(integrand.g_of(s)) for s in u_set.iter_selections()))
    got = _value_or_error(
        lambda: decomposable._min_of_folds(integrand, u_set, 10**6, part_sum(phi)))
    assert got == expected and repr(got) == repr(expected)  # value, type and zero


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_shapiro_fold_is_the_min_of_phi(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    phi = INTEGRALS[data.draw(st.sampled_from(sorted(INTEGRALS)), label="phi")]
    if data.draw(st.booleans(), label="blocks"):
        n_controls, admissible = data.draw(multi_block_products(), label="admissible")
        n_atoms = len(admissible)
    else:
        n_atoms = data.draw(st.integers(1, 4), label="atoms")
        n_controls = data.draw(st.integers(1, 3), label="controls")
        admissible = [data.draw(st.lists(st.integers(0, n_controls - 1), min_size=1,
                                         max_size=n_controls, unique=True))
                      for _ in range(n_atoms)]
    values = data.draw(st.sampled_from([VALUES, VALUES + HUGE + ["1e300"], FINITE]),
                       label="values")
    weights = data.draw(st.lists(st.sampled_from(FOLD_WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    table = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    u_set = SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    if data.draw(st.booleans(), label="explicit"):
        sels = list(u_set.iter_selections())
        data.draw(st.randoms(use_true_random=False), label="order").shuffle(sels)
        u_set = SelectionSet.explicit(sels[:data.draw(st.integers(1, len(sels)))],
                                      n_atoms, n_controls)
    _assert_fold_is_the_min_of_phi(integrand, u_set, phi)


@pytest.mark.parametrize("backing", ["rational", "float"])
@pytest.mark.parametrize("table, selections", [
    # Both parts +inf from the first selection on.
    ([["+inf", 0], ["-inf", 0]], [(0, 0), (1, 1), (0, 1)]),
    # A finite minimum first; the second selection has both parts +inf.
    ([["+inf", 1], ["-inf", 2]], [(1, 1), (0, 0)]),
    # A float part beyond the float range before, or after, both parts +inf.
    ([[1e308, "+inf"], [1e308, "-inf"], [1e308, 0]], [(0, 0, 0), (1, 1, 1)]),
    ([[1e308, "+inf"], [1e308, "-inf"], [1e308, 0]], [(1, 1, 1), (0, 0, 0)]),
])
def test_shapiro_fold_raises_the_first_error_of_the_integral(backing, table, selections):
    n = len(table)
    space = MeasureSpace([f"a{i}" for i in range(n)], [1] * n, backing=backing)
    integrand = Integrand(space, [[0], [1]], table)
    u_set = SelectionSet.explicit(selections, n, 2)
    for phi in INTEGRALS.values():
        _assert_fold_is_the_min_of_phi(integrand, u_set, phi)
    with pytest.raises(InterlabError):
        min(lebesgue_extended(integrand.g_of(s)) for s in selections)


@pytest.mark.parametrize("backing", ["rational", "float"])
@pytest.mark.parametrize("kind", ["extended_lebesgue", "outer", "inner", "ess_sup", "choquet"])
def test_only_other_functionals_evaluate_every_selection(backing, kind, monkeypatch):
    """ess_sup and Choquet call Phi once per selection of the set, besides
    the prefix and G-flat; the three integrals fold the set instead."""
    space = MeasureSpace(["a", "b", "c"], ["1/2", "1/4", "1/4"], backing=backing)
    integrand = Integrand(space, [[0], [1], [2]], [[3, 1, 0], [2, "1/2", 0], [1, 1, 0]])
    phi = make_builtin(kind, capacity=additive_capacity(space))
    prefix = [(c, c, c) for c in range(3)]
    calls = []
    call = Functional.__call__
    monkeypatch.setattr(Functional, "__call__", lambda self, f: calls.append(1) or call(self, f))
    report = verify_shapiro(ShapiroScenario(
        functional=phi, p=1, integrand=integrand, selection_prefix=prefix,
        selection_set=SelectionSet.full_product(3, 3)))
    assert report.conclusion_holds and report.conclusion_lhs == 0
    per_selection = 27 if kind in ("ess_sup", "choquet") else 0
    assert len(calls) == len(prefix) + 1 + per_selection
