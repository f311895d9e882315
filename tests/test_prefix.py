"""The running prefix of a sequence against naive prefix infima, in its
three forms (a held prefix, a generator called term by term, declared
steps), its cross-checks, its Phi count and its memory."""

import contextlib
import dataclasses
import io
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from interlab import cli, integrals, interchange, scenario
from interlab.errors import DomainError, InputError, InvariantError
from interlab.extreal import ext
from interlab.fnlattice import FnClass, pointwise_inf
from interlab.functionals import make_builtin
from interlab.integrals import Capacity, RunningParts
from interlab.interchange import SequenceSpec, verify_interchange_sequence
from interlab.measure import MeasureSpace, iter_atom_subsets
from interlab.scenario import build_sequence

KINDS = ("extended_lebesgue", "outer", "inner", "ess_sup", "choquet", "post_compose")
WEIGHTS = [0, 1, "1/2", "1/3", 2]
# Few values, so prefixes tie and often leave the infimum as it was; thirds
# and halves, so exact sums often reduce to ints; -0.0 ties with 0.0 under
# float backing.
VALUES = [-2, -1, "-1/2", 0, -0.0, "1/3", "1/2", "2/3", 1, 3, "-inf", "+inf"]


def _functional(kind, space):
    if kind == "choquet":
        # (mass of the set)^2: monotone and not additive.
        table = {s: ext(sum((Fraction(w) for a, w in zip(space.atoms, space.weights)
                             if a in s), Fraction(0)) ** 2)
                 for s in iter_atom_subsets(space)}
        return make_builtin("choquet", capacity=Capacity(space, table))
    if kind == "post_compose":
        return make_builtin("post_compose", base=make_builtin("outer"),
                            mapping=lambda v: min(v, 2))
    return make_builtin(kind)


def _form(x):
    return type(x), repr(x)


def _naive(members, phi):
    """Phi on the members and on every prefix infimum, each built afresh."""
    phi_values = [phi(m) for m in members]
    n = len(members)
    prefix_lhs = [min(phi_values[:k + 1]) for k in range(n)]
    prefix_rhs = [phi(pointwise_inf(members[:k + 1])) for k in range(n)]
    return phi_values, prefix_lhs, prefix_rhs, pointwise_inf(members)


def _spec(members, step=False):
    """The sequence of ``members``; with ``step``, declared by the atoms
    where each term differs from the one before in type or ``repr`` (so a
    float -0.0 after 0.0 is a change), plus every third atom anyway."""
    def changes(k):
        return {i: y for i, (x, y) in enumerate(zip(members[k - 1].values, members[k].values))
                if _form(x) != _form(y) or i % 3 == k % 3}
    return SequenceSpec(generator=members.__getitem__, prefix_len=len(members),
                        step=changes if step else None)


def _terms(spec, phi):
    """``_prefix_terms`` as ``verify_interchange_sequence`` calls it."""
    return interchange._prefix_terms(spec, phi, spec.first())


def _outcome(run):
    try:
        phi_values, lhs, rhs, last = run()
    except (DomainError, InvariantError) as e:
        return type(e), str(e)
    return ([_form(v) for v in phi_values], [_form(v) for v in lhs],
            [_form(v) for v in rhs], [_form(v) for v in last.values])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_running_prefix_matches_naive_prefix(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    n_atoms = data.draw(st.integers(1, 6), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4,
                                unique=True), label="values")
    rows = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_atoms,
                                       max_size=n_atoms), min_size=1, max_size=8),
                     label="sequence")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    members = [FnClass(space, r) for r in rows]
    phi = _functional(kind, space)
    got = _outcome(lambda: _terms(_spec(members), phi))
    assert got == _outcome(lambda: _naive(members, phi))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_step_form_matches_the_generator_and_the_naive_prefix(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    n_atoms = data.draw(st.integers(1, 6), label="atoms")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4,
                                unique=True), label="values")
    row = st.lists(st.sampled_from(values), min_size=n_atoms, max_size=n_atoms)
    # A None repeats the term before: an empty step.  Few values, so steps
    # often restore an earlier value.
    rows = data.draw(st.lists(st.one_of(st.none(), row), min_size=0, max_size=9),
                     label="sequence")
    rows = [data.draw(row, label="first")] + rows
    for k in range(1, len(rows)):
        rows[k] = rows[k - 1] if rows[k] is None else rows[k]
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    members = [FnClass(space, r) for r in rows]
    phi = _functional(kind, space)
    naive = _outcome(lambda: _naive(members, phi))
    assert _outcome(lambda: _terms(_spec(members, step=True), phi)) == naive
    assert _outcome(lambda: _terms(_spec(members), phi)) == naive


def test_a_step_that_disagrees_with_the_generator_is_an_invariant_error():
    _, spec = build_sequence({"generator": "example-2-6"}, 6)
    bad = dataclasses.replace(spec, step=lambda k: {k: ext(-(k + 1))})  # never clears k - 1
    with pytest.raises(InvariantError, match="the steps build -1 .int. on atom 0 of the "
                                             "last term, but the generator gives 0 .int."):
        verify_interchange_sequence(bad, make_builtin("extended_lebesgue"))
    # A float zero of the wrong sign differs too.
    _, spec = build_sequence({"generator": "example-2-6"}, 3, backing="float")
    steps = spec.step
    signed = dataclasses.replace(spec, step=lambda k: {**steps(k), k - 1: -0.0})
    with pytest.raises(InvariantError, match="-0.0 .float. on atom 0 of the last term"):
        verify_interchange_sequence(signed, make_builtin("ess_sup"))


@pytest.mark.parametrize("index", [-1, 6, 2.0, True, "1"])
def test_a_step_index_out_of_range_is_an_input_error(index):
    _, spec = build_sequence({"generator": "example-2-6"}, 6)
    bad = dataclasses.replace(spec, step=lambda k: {index: ext(0), **spec.step(k)})
    with pytest.raises(InputError, match=f"step 1 changes atom {index!r}, outside 0..5"):
        verify_interchange_sequence(bad, make_builtin("extended_lebesgue"))


@pytest.mark.parametrize("kind", KINDS)
def test_a_tie_keeps_the_running_entry(kind):
    # -0.0 == 0.0: the infimum keeps the earlier zero, as pointwise_inf does.
    space = MeasureSpace(["a", "b"], [1, 0], backing="float")
    members = [FnClass(space, r) for r in ([0, -0.0], [-0.0, 0], [-0.0, -1])]
    phi = _functional(kind, space)
    got = _outcome(lambda: _terms(_spec(members), phi))
    assert got == _outcome(lambda: _naive(members, phi))
    assert got[3] == [_form(0.0), _form(-1.0)]
    assert _outcome(lambda: _terms(_spec(members, step=True), phi)) == got


def test_a_prefix_infimum_that_is_not_semi_integrable_raises_as_the_naive_loop():
    # inf(x_0, x_1) is +inf on a and -inf on b.  Every infinite value of an
    # infimum is some member's, so x_1 is not semi-integrable either, and
    # both loops meet the error on the members.
    space = MeasureSpace(["a", "b", "c"], [1, "1/2", 0])
    rows = [["+inf", 1, "-inf"], ["+inf", "-inf", 2], [0, 0, 0]]
    members = [FnClass(space, r) for r in rows]
    got = _outcome(lambda: _terms(_spec(members), make_builtin("extended_lebesgue")))
    assert got == _outcome(lambda: _naive(members, make_builtin("extended_lebesgue")))
    assert got == (DomainError, "function is not semi-integrable (both parts have "
                                "infinite integral); use outer_integral or inner_integral")


def _score(run):
    try:
        return _form(run())
    except DomainError as e:
        return DomainError, str(e)


@pytest.mark.parametrize("kind, both_infinite", [
    ("extended_lebesgue", DomainError), ("outer", float("inf")), ("inner", float("-inf"))])
def test_running_parts_combine_as_each_integral(kind, both_infinite):
    space = MeasureSpace(["a", "b", "c"], [1, "1/3", 0])
    phi = make_builtin(kind)
    start = (ext(2), ext("-1/2"), ext("+inf"))
    parts = RunningParts.of(space, phi.parts, start)
    values = list(start)
    steps = [(1, "+inf"), (0, "-inf"), (1, "1/3"), (0, "-2/3"), (2, "-inf"), (1, 3),
             (0, "+inf"), (1, "-inf")]
    for i, x in steps:
        x = ext(x)
        parts.move(i, values[i], x)
        values[i] = x
        assert _score(parts.value) == _score(lambda: phi(FnClass.from_ext(space, tuple(values))))
    # Both parts end infinite: each integral's own convention.
    if both_infinite is DomainError:
        with pytest.raises(DomainError, match="not semi-integrable"):
            parts.value()
    else:
        assert parts.value() == both_infinite
    assert RunningParts.of(MeasureSpace(["a"], [1], backing="float"),
                           phi.parts, (1.0,)) is None
    assert RunningParts.of(space, make_builtin("ess_sup").parts, start) is None


def _example_2_6(prefix):
    return build_sequence({"generator": "example-2-6"}, prefix)[1]


def _off_by_one_numerator(v):
    q = Fraction(v)
    off = Fraction(q.numerator + 1, q.denominator)
    return off.numerator if off.denominator == 1 else off


def _fault_at_call(monkeypatch, fault, at, prefix, match):
    """Apply ``fault`` to the ``at``-th value of the running parts: both the
    API and the CLI must raise the cross-check."""
    value = RunningParts.value
    calls = []

    def off(self):
        v = value(self)
        calls.append(v)
        return fault(v) if len(calls) == at else v

    monkeypatch.setattr(RunningParts, "value", off)
    with pytest.raises(InvariantError, match=match):
        verify_interchange_sequence(_example_2_6(prefix), make_builtin("extended_lebesgue"))
    # Term k >= 1 reads the term's parts, then the infimum's.
    assert len(calls) == 2 * (prefix - 1)
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["gallery", "example-2-6", "--prefix", str(prefix)])
    assert code == 4


@pytest.mark.parametrize("fault, found", [
    (_off_by_one_numerator, "-464 .int., but Phi gives -465 .int."),
    (Fraction, "-465 .Fraction., but Phi gives -465 .int."),  # right value, wrong type
])
def test_cross_check_catches_a_fault_in_the_last_running_term(monkeypatch, fault, found):
    # The last infimum term: the last value read.
    prefix = 30
    _fault_at_call(monkeypatch, fault, 2 * (prefix - 1), prefix,
                   "running extended_lebesgue of the last prefix infimum is " + found)


@pytest.mark.parametrize("fault, found", [
    (_off_by_one_numerator, "-29 .int., but Phi gives -30 .int."),
    (Fraction, "-30 .Fraction., but Phi gives -30 .int."),  # right value, wrong type
])
def test_cross_check_catches_a_fault_in_the_last_member_term(monkeypatch, fault, found):
    # The last member term: the value read before the last.
    prefix = 30
    _fault_at_call(monkeypatch, fault, 2 * (prefix - 1) - 1, prefix,
                   "running extended_lebesgue of the last term is " + found)


@pytest.mark.parametrize("prefix", [1, 2, 100])
def test_example_2_6_integrates_each_member_once_and_the_last_infimum(monkeypatch, prefix):
    # Declared steps: Phi integrates the first member, then, as cross-checks,
    # the generator's last member and the last infimum, whatever the prefix.
    calls = []
    part_integrals = integrals.part_integrals

    def counted(f):
        calls.append(f)
        return part_integrals(f)

    monkeypatch.setattr(integrals, "part_integrals", counted)
    monkeypatch.setattr(interchange, "pointwise_inf", None)  # never called
    report = verify_interchange_sequence(_example_2_6(prefix), make_builtin("extended_lebesgue"))
    assert len(calls) == 3
    assert calls[0].values == (-1,) + (0,) * (prefix - 1)
    assert calls[1].values == (0,) * (prefix - 1) + (-prefix,)
    assert calls[2].values == tuple(-(k + 1) for k in range(prefix))
    assert report.prefix["phi_values"] == [-(k + 1) for k in range(prefix)]
    assert report.prefix["prefix_rhs"][-1] == -prefix * (prefix + 1) // 2


def _gallery(prefix, backing, name="example-2-6"):
    out = io.StringIO()
    with mock.patch.dict(os.environ, INTERLAB_BACKING=backing), \
            contextlib.redirect_stdout(out):
        assert cli.main(["gallery", name, "--prefix", str(prefix)]) == 0
    return out.getvalue()


def test_example_2_6_at_prefix_2000_runs_in_linear_memory(monkeypatch):
    _gallery(2000, "rational")  # parser and imports, outside the trace
    tracemalloc.start()
    try:
        steps = _gallery(2000, "rational")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6  # the dense prefix peaked at 32.8 MB
    reports = {"rational": steps, "float": _gallery(2000, "float")}
    # The generator-only spec of the same sequence prints the same bytes.
    build = scenario.SEQUENCE_GENERATORS["example-2-6"]

    def without_steps(*args):
        space, spec = build(*args)
        return space, dataclasses.replace(spec, step=None)

    monkeypatch.setitem(scenario.SEQUENCE_GENERATORS, "example-2-6", without_steps)
    for backing, report in reports.items():
        assert _gallery(2000, backing) == report, backing


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_moving_bump_rank_code_holds_one_column_at_a_time(backing):
    # 1000 members on 1000 atoms: a rank code that held every column at once
    # peaked at 16.7 MB, one that walks the member rows column by column at 9.1.
    _gallery(1000, backing, "moving-bump")  # parser and imports, outside the trace
    tracemalloc.start()
    try:
        _gallery(1000, backing, "moving-bump")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10**6
