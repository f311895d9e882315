"""Selection-set verdicts against naive references, the single enumeration, and
the walk behind Shapiro's conclusion against the minimum of Phi over the set."""

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
from interlab.errors import InputError, InterlabError, InvariantError
from interlab.extreal import NEG_INF, weighted_parts
from interlab.functionals import Functional, make_builtin
from interlab.integrals import lebesgue_extended
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


def _pointwise_argmin(integrand, u_set):
    """The selections that pick a per-atom minimizer on every non-null
    atom, as ``verify_rw_argmin`` derives them."""
    per_atom = integrand.per_atom_argmin(u_set.projections())
    return decomposable._pointwise_argmin(integrand, u_set, per_atom)


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
    assert set(_pointwise_argmin(integrand, u_set)) == pointwise
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
    argmin = _pointwise_argmin(integrand, u_set)
    assert set(argmin) == pointwise and len(argmin) == len(pointwise)


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
                        lambda *args: (-1, [(0, 1)]))
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


# Shapiro's conclusion: the least value of the selection walk against the
# minimum of Phi(G(u)) over the set.  Weights 1e300 and values 1e300 or
# 1e308 make float folds overflow, so those sets are evaluated selection by
# selection.  The three integrals fold; the other Phi, with no part sum,
# are evaluated on each G(u).
FOLD_WEIGHTS = WEIGHTS + [1e300]
PHIS = ["extended_lebesgue", "outer", "inner", "ess_sup", "choquet", "post_compose"]


def _phi(kind, space):
    """The Functional ``kind`` on ``space``: Choquet for the table capacity
    of the measure, and post-composition of the outer integral with a floor
    at -1."""
    if kind == "choquet":
        return make_builtin(kind, capacity=additive_capacity(space))
    if kind == "post_compose":
        return make_builtin(kind, base=make_builtin("outer"), mapping=lambda x: max(x, -1))
    return make_builtin(kind)


def _value_or_error(fn):
    try:
        return fn()
    except InterlabError as e:  # the error class and text are part of the verdict
        return type(e), str(e)


def _assert_fold_is_the_min_of_phi(integrand, u_set, phi):
    expected = _value_or_error(
        lambda: min(phi(integrand.g_of(s)) for s in u_set.iter_selections()))
    got = _value_or_error(
        lambda: decomposable._min_of_folds(integrand, u_set, 10**6, phi))
    assert got == expected and repr(got) == repr(expected)  # value, type and zero


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_shapiro_fold_is_the_min_of_phi(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(PHIS), label="phi")
    # A table Choquet costs 2^n per capacity; ess_sup and post_compose walk
    # the multi-block sets without a part sum.
    if kind != "choquet" and data.draw(st.booleans(), label="blocks"):
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
    if kind == "choquet":  # Choquet on nonnegative integrands
        values = [v for v in values if not str(v).startswith("-")]
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
    _assert_fold_is_the_min_of_phi(integrand, u_set, _phi(kind, space))


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
    for kind in PHIS:
        _assert_fold_is_the_min_of_phi(integrand, u_set, _phi(kind, space))
    with pytest.raises(InterlabError):
        min(lebesgue_extended(integrand.g_of(s)) for s in selections)


# Floats whose folds round to ties: 1e16 + 1.0 is 1e16, and 0.1 + 0.2 is
# not 0.3.
ROUNDING = [1e16, 1.0, -1e16, 0.1, 0.2, 0.3]
# Entries for the product walk: infinities, ties and rounding.
WALK_VALUES = [-1, 0, 1, "1/3", "+inf", "-inf"] + ROUNDING


def _undefined_somewhere(integrand, u_set):
    """Whether the extended Lebesgue integral of some G(u) is undefined."""
    lebesgue = make_builtin("extended_lebesgue")
    return any(isinstance(_value_or_error(lambda s=s: lebesgue(integrand.g_of(s))), tuple)
               for s in u_set.iter_selections())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_product_walk_matches_every_selection(data):
    """The pruned walk against every selection: the rw verdicts and
    minimizers, and the least value of each integral with its error."""
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    n_controls = data.draw(st.integers(1, 4 if n_atoms < 5 else 3), label="controls")
    values = data.draw(st.sampled_from([WALK_VALUES, FINITE, ROUNDING]), label="values")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    table = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    admissible = [data.draw(st.lists(st.integers(0, n_controls - 1), min_size=1,
                                     max_size=n_controls, unique=True))
                  for _ in range(n_atoms)]
    # +inf and -inf options at admissible controls, so that extended Lebesgue
    # is often undefined on some selections and not on others.
    cells = st.tuples(st.integers(0, n_atoms - 1), st.integers(0, n_controls - 1),
                      st.sampled_from(["+inf", "-inf"]))
    infinite = data.draw(st.lists(cells, max_size=4), label="infinite entries")
    if n_atoms > 1 and data.draw(st.booleans(), label="both signs"):
        i, j = data.draw(st.permutations(range(n_atoms)), label="atoms")[:2]
        infinite += [(i, 0, "+inf"), (j, 0, "-inf")]
    for i, k, x in infinite:
        table[i][admissible[i][k % len(admissible[i])]] = x
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    u_set = SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    _assert_matches_naive(integrand, u_set, backing)
    for kind in ("extended_lebesgue", "outer", "inner"):
        _assert_fold_is_the_min_of_phi(integrand, u_set, make_builtin(kind))
    least = _value_or_error(lambda: decomposable._min_of_folds(
        integrand, u_set, 10**6, make_builtin("extended_lebesgue")))
    assert isinstance(least, tuple) == _undefined_somewhere(integrand, u_set)


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_a_walk_that_drops_a_minimizer_fails_the_exact_argmin_check(
        backing, tmp_path, monkeypatch, capsys):
    """Under rational backing the argmin characterization on a decomposable
    set is a theorem, so a lost minimizer exits 4; under float backing,
    where rounding ties add minimizers, it is reported."""
    weights, table = [1, "1/2", 0], [[1, 1, 2], [0, 3, 0], [5, 4, 3]]
    space = MeasureSpace(["a0", "a1", "a2"], weights, backing=backing)
    integrand = Integrand(space, [[0], [1], [2]], table)
    u_set = SelectionSet.full_product(3, 3)
    assert len(verify_rw_interchange(integrand, u_set).minimizers) == 12
    assert verify_rw_argmin(integrand, u_set).characterization_holds
    walk = decomposable._product_walk
    monkeypatch.setattr(decomposable, "_product_walk",
                        lambda *args: (lambda m, found: (m, found[1:]))(*walk(*args)))
    path = _rw_file(tmp_path, weights, table, {"kind": "product"})
    code, out = _rw_check(path, backing, monkeypatch, capsys)
    if backing == "rational":
        with pytest.raises(InvariantError, match="argmin characterization failed"):
            verify_rw_argmin(integrand, u_set)
        assert code == 4 and "argmin characterization failed" in out
    else:
        report = verify_rw_argmin(integrand, u_set)
        assert (report.characterization_holds, report.notes) == (False, ["argmin sets differ"])
        assert code == 0 and len(out["minimizers"]) == 11


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


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_shapiro_walk_of_any_phi_holds_one_block(backing):
    """ess_sup has no part sum, so the walk evaluates it on each of the
    65536 selections of a 4^8 product, whose values alone would take over
    2 MB, holding one block at a time."""
    n_atoms, n_controls = 8, 4
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)],
                         ["1/4", "1/4", "1/8", "1/8", "1/8", "1/16", "1/16", 0], backing=backing)
    table = [[(i + 3 * c) % 7 + 1 for c in range(n_controls)] for i in range(n_atoms)]
    scenario = ShapiroScenario(
        functional=make_builtin("ess_sup"), p=1,
        integrand=Integrand(space, [[c] for c in range(n_controls)], table),
        selection_prefix=[(0,) * n_atoms],
        selection_set=SelectionSet.full_product(n_atoms, n_controls))
    tracemalloc.start()
    try:
        report = verify_shapiro(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.conclusion_holds and report.conclusion_lhs == 3
    assert peak < 500_000


def _naive_s1(integrand, u_set, prefix, enum_budget):
    """S1 by the walk: the first selection of the set within the budget, of
    the prefix beyond it, with an infinite entry on an atom of positive
    weight, read over every control."""
    sels = u_set.iter_selections() if u_set.count() <= enum_budget else prefix
    non_null = integrand.space.non_null_indices()
    for s in sels:
        if any(abs(integrand.table[i][s[i]]) == float("inf") for i in non_null):
            return False, f"G({list(s)}) is infinite on a non-null atom"
    return True, "all G(u) finite on non-null atoms"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_s1_matches_the_naive_walk(data):
    """Products and explicit sets, with infinite entries at reachable and
    unreachable controls, null atoms among them, within and beyond the
    enumeration budget."""
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 4), label="atoms")
    n_controls = data.draw(st.integers(1, 4), label="controls")
    null = data.draw(st.lists(st.booleans(), min_size=n_atoms, max_size=n_atoms), label="null")
    null[data.draw(st.integers(0, n_atoms - 1), label="heavy")] = False
    # Halves down the atoms of positive weight, the last one taking the
    # rest, so the mass is 1 exactly under both backings.
    heavy = [i for i in range(n_atoms) if not null[i]]
    weights = [0] * n_atoms
    for j, i in enumerate(heavy):
        weights[i] = f"1/{2 ** min(j + 1, len(heavy) - 1)}"
    table = data.draw(st.lists(st.lists(st.sampled_from([0, 1, "-1/3"]), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    cells = st.tuples(st.integers(0, n_atoms - 1), st.integers(0, n_controls - 1),
                      st.sampled_from(["+inf", "-inf"]))
    for i, c, x in data.draw(st.lists(cells, max_size=6), label="infinite entries"):
        table[i][c] = x
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    if data.draw(st.booleans(), label="explicit"):
        u_set = SelectionSet.explicit(data.draw(explicit_selections(n_atoms, n_controls)),
                                      n_atoms, n_controls)
    else:
        u_set = SelectionSet("product", n_atoms, n_controls, admissible=[
            data.draw(st.lists(st.integers(0, n_controls - 1), min_size=1,
                               max_size=n_controls, unique=True)) for _ in range(n_atoms)])
    members = list(u_set.iter_selections())
    prefix = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4),
                       label="prefix")
    if data.draw(st.booleans(), label="within budget"):
        enum_budget = len(members) + data.draw(st.integers(0, 1), label="spare")
    else:
        enum_budget = data.draw(st.integers(0, len(members) - 1), label="budget")
    report = verify_shapiro(ShapiroScenario(
        functional=make_builtin("ess_sup"), p=1, integrand=integrand,
        selection_prefix=prefix, selection_set=u_set), enum_budget)
    s1 = next(h for h in report.hypotheses if h.name == "S1_image_in_lp")
    assert (s1.ok, s1.detail) == _naive_s1(integrand, u_set, prefix, enum_budget)


@pytest.mark.parametrize("u_set", [
    SelectionSet("product", 2, 3, admissible=[[0, 1], [1, 2]]),
    SelectionSet.explicit([(0, 1), (1, 2), (1, 1)], 2, 3),
])
def test_a_prefix_member_outside_the_set_is_an_input_error(u_set):
    space = MeasureSpace(["a", "b"], ["1/2", "1/2"])
    scenario = ShapiroScenario(
        functional=make_builtin("extended_lebesgue"), p=1,
        integrand=Integrand(space, [[0], [1], [2]], [[0, 1, 2], [2, 1, 0]]),
        selection_prefix=[(0, 1), (1, 0), (2, 2)], selection_set=u_set)
    with pytest.raises(InputError, match=r"selection prefix member \[1, 0\] is not in"):
        verify_shapiro(scenario)


@pytest.mark.parametrize("admissible, cells", [
    # The all-first selection fails.
    ([[1, 2], [0], [0, 3]], [(0, 1), (2, 3)]),
    # It holds; the last failing atom has two infinite admissible controls.
    ([[0, 1], [0, 1], [1, 2, 3]], [(0, 1), (2, 3), (2, 2)]),
    # Infinite only at controls no admissible set reaches, or on the null atom.
    ([[0, 1], [0, 1], [0, 1]], [(0, 2), (2, 3), (1, 0)]),
])
def test_s1_of_a_product_is_the_first_of_the_walk(admissible, cells):
    space = MeasureSpace(["a", "b", "c"], ["1/2", 0, "1/2"])
    table = [[0, 1, 2, 3] for _ in range(3)]
    for i, c in cells:
        table[i][c] = "+inf"
    integrand = Integrand(space, [[c] for c in range(4)], table)
    u_set = SelectionSet("product", 3, 4, admissible=admissible)
    prefix = [tuple(cs[0] for cs in admissible)]
    report = verify_shapiro(ShapiroScenario(
        functional=make_builtin("ess_sup"), p=1, integrand=integrand,
        selection_prefix=prefix, selection_set=u_set))
    s1 = next(h for h in report.hypotheses if h.name == "S1_image_in_lp")
    assert (s1.ok, s1.detail) == _naive_s1(integrand, u_set, prefix, 10**6)
