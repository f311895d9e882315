"""Dense families: the intake's string memo, the scan's integer ranks and
its skip for one or two members, the indenting JSON renderer, and numbers
too long to read or to print."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from interlab import interchange
from interlab.cli import main
from interlab.errors import InputError
from interlab.extreal import MAX_DIGITS, as_scalar, coerce_all, ext
from interlab.fnlattice import FnClass, pointwise_inf
from interlab.functionals import make_builtin
from interlab.interchange import Family, is_phi_inf_directed
from interlab.measure import MeasureSpace
from interlab.scenario import render_json

from oracle_helpers import reference_rank_code

BACKINGS = ("rational", "float")
GOLDEN = Path(__file__).resolve().parent / "golden"


def _same(a, b) -> bool:
    """Equal in value and type, and in the sign of a float zero."""
    if type(a) is not type(b) or a != b:
        return False
    return type(a) is not float or math.copysign(1, a) == math.copysign(1, b)


# Intake: coerce_all against per-value ext / as_scalar ------------------------

def _per_value(values, backing, finite):
    convert = as_scalar if finite else ext
    out = []
    for v in values:
        try:
            out.append(convert(v, backing))
        except InputError as e:
            return None, (type(e), str(e))
    return out, None


def _memo(values, backing, finite):
    try:
        return coerce_all(values, backing, finite), None
    except InputError as e:
        return None, (type(e), str(e))


def _assert_like_per_value(values, backing, finite):
    got, got_error = _memo(values, backing, finite)
    want, want_error = _per_value(values, backing, finite)
    assert got_error == want_error
    if want is not None:
        assert len(got) == len(want) and all(map(_same, got, want)), (got, want)


RAW = [0, 1, -3, 10**30, Fraction(1, 3), Fraction(-7, 2), 0.0, -0.0, 0.7, 1e300,
       math.inf, -math.inf, math.nan, True, False, None, "0", "-0", "1", "1/2", "-2/4",
       "0.7", "7e-1", "1e-3", "+inf", "inf", "-inf", "x", "1/0", " 1", "1e5000", "nan"]


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.sampled_from(RAW), max_size=20),
       backing=st.sampled_from(BACKINGS), finite=st.booleans())
def test_coerce_all_matches_per_value_coercion(values, backing, finite):
    _assert_like_per_value(values, backing, finite)


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("finite", [False, True])
@pytest.mark.parametrize("values", [
    ["1/2", "1/2", "x"],            # a bad string after a repeated good one
    ["1", "1", True, 1],            # True beside "1" and 1
    ["1", 1, False, "0"],
    [0.0, -0.0, "-0", "0", -0.0],   # -0.0 keeps its sign under float backing
    ["1/2", 0.5, "0.5", "+inf", "+inf", math.inf],
])
def test_coerce_all_edge_cases(values, backing, finite):
    _assert_like_per_value(values, backing, finite)


def test_memo_keys_strings_only(monkeypatch):
    import interlab.extreal

    calls = []

    def counting_ext(x, backing):
        calls.append(x)
        return ext(x, backing)

    monkeypatch.setattr(interlab.extreal, "ext", counting_ext)
    values = coerce_all(["1/2", "1/2", 0.5, 0.5, -0.0, 0.0, "1/2"], "float")
    assert [math.copysign(1, v) for v in values[4:6]] == [-1, 1]
    # The repeated string is parsed once; every float is coerced anew.
    assert [type(x) for x in calls] == [str, float, float, float, float]


# Numbers too long to read ----------------------------------------------------

@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("text", [
    "1e999999999", "-1e999999999", "1e-999999999", f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}",
    "1" * (MAX_DIGITS + 1), "1" * (MAX_DIGITS + 1) + "e-1", "3" + "0" * MAX_DIGITS + ".5",
])
def test_decimal_strings_past_the_digit_bound_are_rejected(backing, text):
    with pytest.raises(InputError, match=f"more than {MAX_DIGITS} digits"):
        ext(text, backing)


@pytest.mark.parametrize("text, value", [
    (f"1e{MAX_DIGITS - 1}", 10 ** (MAX_DIGITS - 1)),
    (f"5e-{MAX_DIGITS}", Fraction(1, 2 * 10 ** (MAX_DIGITS - 1))),
    ("1" * MAX_DIGITS, int("1" * MAX_DIGITS)),
    ("0e999999999", 0),
    ("-0e-999999999", 0),
    ("1" + "0" * 5000 + "e-5000", 1),
    ("2" + "0" * MAX_DIGITS + f"e-{MAX_DIGITS}", 2),
])
def test_decimal_strings_within_the_digit_bound_are_exact(text, value):
    got = as_scalar(text)
    assert _same(got, value)


SPACE = {"atoms": ["a"], "weights": [1]}
LEBESGUE = {"kind": "extended_lebesgue"}


def _scenario(tmp_path, obj, text=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj) if text is None else text)
    return str(path)


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("member", ["1e999999999", "1e5000"])
def test_oversized_member_strings_exit_2(tmp_path, capsys, monkeypatch, backing, member):
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    path = _scenario(tmp_path, {"space": SPACE, "family": [[member]], "functional": LEBESGUE})
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and f"more than {MAX_DIGITS} digits" in err


@pytest.mark.parametrize("backing", BACKINGS)
def test_oversized_json_integer_literal_exits_2(tmp_path, capsys, monkeypatch, backing):
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    text = ('{"space": {"atoms": ["a"], "weights": [1]}, "family": [[' + "7" * 5000
            + ']], "functional": {"kind": "extended_lebesgue"}}')
    assert main(["check", _scenario(tmp_path, None, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "too long to read" in err


# A weight of 10^4000 and a value of 10^4000 integrate to 10^8000; a weight of
# 10^-3000 and a value of 3 * 10^-3000 to 3 / 10^6000.
BIG_PRODUCT = {"space": {"atoms": ["a"], "weights": ["1" + "0" * 4000 + "/1"]},
               "family": [["1e4000"]], "functional": LEBESGUE}
TINY_PRODUCT = {"space": {"atoms": ["a"], "weights": ["1/1" + "0" * 3000]},
                "family": [["3e-3000"]], "functional": LEBESGUE}
# The same product as Phi(G-flat) on a probability space, which the S2b
# detail message prints before any report is rendered.
TINY_SHAPIRO = {"space": {"atoms": ["a", "b"],
                          "weights": ["1/1" + "0" * 3000, "9" * 3000 + "/1" + "0" * 3000]},
                "integrand": {"controls": [[0]], "table": [["3e-3000"], [0]]},
                "functional": LEBESGUE, "p": 2, "selection_prefix": [[0, 0]],
                "selection_set": {"kind": "product"}}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("backing, command, scenario, code", [
    ("rational", "check", BIG_PRODUCT, 3),
    ("rational", "check", TINY_PRODUCT, 3),
    ("rational", "shapiro-check", TINY_SHAPIRO, 3),
    ("float", "check", BIG_PRODUCT, 2),   # the weight is beyond the float range
    ("float", "check", TINY_PRODUCT, 0),  # both products round to 0.0
    ("float", "shapiro-check", TINY_SHAPIRO, 0),
])
def test_report_values_too_long_to_print(tmp_path, capsys, monkeypatch, fmt, backing,
                                         command, scenario, code):
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    assert main([command, _scenario(tmp_path, scenario), "--format", fmt]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err.startswith("domain error: a report value is too long to print")
        assert captured.out == ""
    elif code == 2:
        assert captured.err.startswith("schema error:")


# The scan's rank code ----------------------------------------------------------

# The last two have 2109- and 2106-bit denominators: with either alone the
# family is ranked on integer keys, with both on the Fractions themselves.
VALUES = [-3, -1, 0, 2, 5, "-7/3", "-1/2", "1/3", "2/3", "5/4", "+inf", "-inf",
          f"{3 ** 1330 + 1}/{3 ** 1330}", f"-{7 ** 750 - 2}/{7 ** 750}"]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_rank_code_matches_ranking_the_values(data):
    backing = data.draw(st.sampled_from(BACKINGS), label="backing")
    n_atoms = data.draw(st.integers(1, 30), label="atoms")
    n = data.draw(st.integers(1, 6), label="members")
    weights = data.draw(st.lists(st.sampled_from([0, 1, "1/2"]), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    pool = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=6, unique=True),
                     label="pool")
    rows = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=n_atoms,
                                       max_size=n_atoms), min_size=n, max_size=n),
                     label="rows")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    members = [FnClass(space, row) for row in rows]
    if data.draw(st.booleans(), label="with an infimum"):
        members.append(pointwise_inf(members))
    got_rows, got_fields = interchange._rank_code(members)
    want_rows, want_fields = reference_rank_code(members)
    assert got_rows == want_rows
    assert len(got_fields) == len(want_fields)
    for (level, offset, mask), (want_level, want_offset, want_mask) in zip(got_fields,
                                                                          want_fields):
        assert (offset, mask) == (want_offset, want_mask)
        assert len(level) == len(want_level) and all(map(_same, level, want_level))


# The scan on one or two members ------------------------------------------------

KINDS = {"extended_lebesgue": [-2, "-1/2", 0, "1/3", 1],
         "outer": [-2, "-1/2", 0, "1/3", 1, "+inf", "-inf"],
         "inner": [-2, "-1/2", 0, "1/3", 1, "+inf", "-inf"],
         "ess_sup": [-2, "-1/2", 0, "1/3", 1, "+inf", "-inf"]}


def _scans(family, phi, budget):
    """The scan without and with the members' and the infimum's values."""
    values = [phi(m) for m in family.members]
    bare = is_phi_inf_directed(family, phi, budget)
    given_values = is_phi_inf_directed(family, phi, budget, phi_values=values,
                                       phi_inf=phi(pointwise_inf(family.members)))
    return [(r.verdict, r.witness, r.mode, r.shortcut_agrees) for r in (bare, given_values)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_small_scans_agree_with_and_without_given_values(data):
    backing = data.draw(st.sampled_from(BACKINGS), label="backing")
    kind = data.draw(st.sampled_from(sorted(KINDS)), label="kind")
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    n = data.draw(st.integers(1, 2), label="members")
    weights = data.draw(st.lists(st.sampled_from([0, 1, "1/2"]), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    rows = data.draw(st.lists(st.lists(st.sampled_from(KINDS[kind]), min_size=n_atoms,
                                       max_size=n_atoms), min_size=n, max_size=n),
                     label="rows")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    family = Family([FnClass(space, row) for row in rows])
    bare, given_values = _scans(family, make_builtin(kind), data.draw(st.integers(0, 3)))
    assert bare == given_values


@pytest.mark.parametrize("backing", BACKINGS)
def test_small_scans_build_no_rank_code(monkeypatch, backing):
    space = MeasureSpace(["a", "b"], [1, 1], backing=backing)
    leb = make_builtin("extended_lebesgue")
    families = [Family([FnClass(space, row) for row in rows])
                for rows in ([[0, 1], [1, 0]], [[0, 1]], [[0, 1], [2, 3]])]
    bare = [_scans(family, leb, 12)[0] for family in families]
    assert bare == [("no", (0, 1), "exhaustive", True), ("yes", None, "exhaustive", True),
                    ("yes", None, "exhaustive", True)]

    def no_rank_code(members):
        raise AssertionError("the scan built a rank code")

    monkeypatch.setattr(interchange, "_rank_code", no_rank_code)
    for family, want in zip(families, bare):
        r = is_phi_inf_directed(family, leb, 12, phi_values=[leb(m) for m in family.members],
                                phi_inf=leb(pointwise_inf(family.members)))
        assert (r.verdict, r.witness, r.mode, r.shortcut_agrees) == want


# The JSON renderer ---------------------------------------------------------------

def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/*.json")), ids=lambda p: p.name)
def test_render_json_reproduces_every_golden_payload(path):
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert render_json(payload) == _dumps(payload)
    if path.parent.name in BACKINGS:
        assert render_json(payload) == text


LEAVES = (st.none() | st.booleans() | st.integers(-10**40, 10**40)
          | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(payload=PAYLOADS)
def test_render_json_matches_json_dumps(payload):
    assert render_json(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [{1: 2}, {"a": {1, 2}}, {"a": Fraction(1, 3)}])
def test_render_json_rejects_values_reports_never_hold(payload):
    with pytest.raises(TypeError):
        render_json(payload)
