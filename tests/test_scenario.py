"""The scenario readers behind ``check``, ``rw-check``, ``shapiro-check``
and ``gallery``: every malformed input exits 2 with a schema error, the
gallery runs its entries exactly as their commands run files, and the
scenarios the README shows run as documented."""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from interlab import cli
from interlab.cli import GALLERY, main

README = Path(__file__).resolve().parent.parent / "README.md"

CHECK = {
    "space": {"atoms": ["a", "b"], "weights": [1, "1/2"]},
    "family": [[0, 1], [1, 0]],
    "functional": {"kind": "extended_lebesgue"},
}
SEQUENCE = {
    "family": {"generator": "example-2-6", "prefix": 12, "divergence_threshold": 5},
    "functional": {"kind": "extended_lebesgue"},
}
CHOQUET = dict(CHECK, functional={"kind": "choquet", "capacity": {
    "kind": "table", "values": {"{}": 0, "{a}": "1/2", "{b}": 1, "{a,b}": 1}}})
RW = {
    "space": {"atoms": ["a", "b"], "weights": [1, 1]},
    "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
    "selection_set": {"kind": "product", "admissible": [[0, 1], [1]]},
}
SHAPIRO = {
    "space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]},
    "integrand": {"controls": [[1], [0]], "table": [[1, 0], [1, 0]]},
    "functional": {"kind": "extended_lebesgue"},
    "p": 2,
    "selection_prefix": [[0, 0], [1, 1]],
    "declared_gflat": [0, 0],
    "selection_set": {"kind": "explicit", "selections": [[0, 0], [1, 1], [0, 1], [1, 0]]},
}


def choquet_table(values):
    """A check of the family [[1, 1], [2, 2]] under Choquet with the table ``values``."""
    return dict(CHECK, family=[[1, 1], [2, 2]], functional={"kind": "choquet", "capacity": {
        "kind": "table", "values": values}})


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_scenario(command, scenario, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        return run([command, path, *flags])


@pytest.mark.parametrize("command, scenario", [
    ("check", dict(CHECK, space={"atoms": ["a", "b"], "weights": 5})),
    ("check", dict(CHECK, space={"atoms": "ab", "weights": [1, 1]})),
    ("check", dict(CHECK, space={"atoms": [1, 2], "weights": [1, 1]})),
    ("check", dict(CHECK, space=dict(CHECK["space"], truncation_of=[1]))),
    ("check", dict(CHECK, family=[[0, 1], 5])),
    ("check", dict(SEQUENCE, family={"generator": "example-2-6"}, divergence_threshold="x")),
    ("check", dict(SEQUENCE, family={"generator": "example-2-6"}, divergence_threshold=True)),
    ("check", dict(SEQUENCE, family=dict(SEQUENCE["family"], divergence_threshold="x"))),
    ("check", dict(SEQUENCE, family=dict(SEQUENCE["family"], divergence_threshold=True))),
    ("check", dict(CHECK, divergence_threshold="x")),
    ("check", dict(CHECK, divergence_threshold=True)),
    ("check", dict(SEQUENCE, divergence_threshold="x")),
    ("check", dict(CHECK, functional={"kind": "choquet", "capacity": {
        "kind": "distortion", "of_measure": False, "gamma": 0.8}})),
    ("rw-check", dict(RW, integrand=dict(RW["integrand"], controls=5))),
    ("rw-check", dict(RW, integrand=dict(RW["integrand"], table=[5, 6]))),
    ("shapiro-check", dict(SHAPIRO, declared_gflat=5)),
    ("shapiro-check", dict(SHAPIRO, selection_set={})),
    ("shapiro-check", dict(SHAPIRO, selection_set=[])),
    ("shapiro-check", dict(SHAPIRO, selection_set=None)),
    ("check", choquet_table({"{}": 0, "{a}": "1/2", "{b}": 1, "{a,b}": 1, "{b,a}": "3/4"})),
    ("check", choquet_table({"{}": 0, "{a}": "1/2", "{a, a}": 1, "{b}": 1, "{a,b}": 1})),
], ids=["weights-5", "atoms-string", "atoms-numbers", "label-array", "member-5", "threshold-x",
        "threshold-true", "family-threshold-x", "family-threshold-true", "literal-threshold-x",
        "literal-threshold-true", "family-and-top-threshold-x", "distortion-of-measure-false",
        "controls-5", "table-of-numbers", "declared-gflat-5", "selection-set-empty-object",
        "selection-set-empty-array", "selection-set-null", "capacity-pair-twice",
        "capacity-singleton-twice"])
def test_malformed_scenario_is_a_schema_error(command, scenario):
    code, _, err = run_scenario(command, scenario)
    assert code == 2
    assert err.startswith("schema error:") and "Traceback" not in err


@pytest.mark.parametrize("first, second", [("{a,b}", "{b,a}"), ("{b,a}", "{a,b}"),
                                           ("{a}", "{a, a}"), ("{a, a}", "{a}")])
def test_a_capacity_set_listed_twice_is_named_in_either_key_order(first, second):
    values = {"{}": 0, "{a}": "1/2", "{b}": 1, "{a,b}": 1}
    values.pop(first, None)
    code, out, err = run_scenario("check", choquet_table({**values, first: 1, second: "3/4"}))
    twice = "{a, b}" if "b" in first else "{a}"
    assert (code, out) == (2, "")
    assert err == f"schema error: bad functional: capacity table lists the set {twice} twice\n"


def test_non_finite_divergence_threshold_flag_is_a_schema_error():
    code, _, err = run(["gallery", "example-2-6", "--divergence-threshold", "nan"])
    assert code == 2 and err.startswith("schema error:")


@pytest.mark.parametrize("command, scenario", [("rw-check", RW), ("shapiro-check", SHAPIRO)])
def test_product_kind_alone_is_the_full_product(command, scenario):
    full = dict(scenario, selection_set={"kind": "product", "admissible": [[0, 1], [0, 1]]})
    short = dict(scenario, selection_set={"kind": "product"})
    code, out, _ = run_scenario(command, short)
    assert code == 0
    assert (code, out) == run_scenario(command, full)[:2]


def test_gallery_tolerance_reaches_the_selection_verdict(monkeypatch):
    seen = []

    def spy(integrand, u_set, **kwargs):
        seen.append(kwargs.get("tolerance"))
        return verify(integrand, u_set, **kwargs)

    verify = cli.verify_rw_interchange
    monkeypatch.setattr(cli, "verify_rw_interchange", spy)
    code, out, _ = run(["gallery", "rw-demo", "--tolerance", "0.5"])
    assert code == 0 and json.loads(out)["environment"]["tolerance"] == 0.5
    assert seen == [Fraction(1, 2)]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_entry_runs_as_its_command_runs_a_file(name):
    command, scenario = GALLERY[name]
    code, out, _ = run(["gallery", name])
    file_code, file_out, _ = run_scenario(command, scenario)
    assert code == file_code == 0
    gallery, from_file = json.loads(out), json.loads(file_out)
    assert gallery["environment"].pop("command") == f"gallery {name}"
    assert from_file["environment"].pop("command") == command
    assert gallery["environment"].pop("seed") == 0
    from_file["environment"].pop("seed")
    assert gallery == from_file


def readme_scenarios():
    """(command, scenario) for each complete scenario block of the README."""
    found = []
    for block in re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        try:
            scenario = json.loads(block)
        except json.JSONDecodeError:
            continue  # a fragment, such as the functional specs
        if "selection_prefix" in scenario:
            found.append(("shapiro-check", scenario))
        elif "integrand" in scenario:
            found.append(("rw-check", scenario))
        elif "family" in scenario:
            found.append(("check", scenario))
    return found


def test_readme_has_a_scenario_for_every_command():
    commands = [command for command, _ in readme_scenarios()]
    assert sorted(set(commands)) == ["check", "rw-check", "shapiro-check"]
    assert len(commands) >= 4


@pytest.mark.parametrize("command, scenario", readme_scenarios())
def test_readme_scenario_runs(command, scenario):
    code, _, err = run_scenario(command, scenario)
    assert code == 0, err


# Mutations: replace one entry (at any depth) with a value of another shape,
# delete it, wrap it in an array, unwrap an array to its first element, or
# add to an object an entry that some reader looks for.

READ_KEYS = ["space", "family", "functional", "integrand", "selection_set",
             "selection_prefix", "declared_gflat", "p", "tolerance", "seed",
             "subset_budget", "divergence_threshold", "truncation_of", "capacity",
             "kind", "prefix", "generator", "admissible", "selections", "gamma",
             "values"]

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
    st.sampled_from(["", "x", "1/2", "+inf", "-inf", "a", "product", "explicit"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["kind", "a", "x"]), inner,
                                            max_size=2)),
    max_leaves=6,
)


def paths(value, prefix=()):
    """Every (path, value) inside a JSON value, the root excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,), child
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw):
    command, base = draw(st.sampled_from([
        ("check", CHECK), ("check", SEQUENCE), ("check", CHOQUET),
        ("rw-check", RW), ("shapiro-check", SHAPIRO),
    ]))
    scenario = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["replace", "delete", "wrap", "unwrap", "add"]))
        options = list(paths(scenario))
        if how == "add" or not options:
            objects = [scenario] + [v for _, v in options if isinstance(v, dict)]
            draw(st.sampled_from(objects))[draw(st.sampled_from(READ_KEYS))] = draw(JSON_VALUES)
            continue
        path, old = draw(st.sampled_from(options))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        elif how == "wrap":
            parent[path[-1]] = [old]
        elif how == "unwrap" and isinstance(old, list) and old:
            parent[path[-1]] = old[0]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return command, scenario


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated())
def test_mutated_scenarios_exit_cleanly(case):
    command, scenario = case
    code, _, err = run_scenario(command, scenario)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
