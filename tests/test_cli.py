import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from interlab.cli import build_parser, main


def write_scenario(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


GINER_SCENARIO = {
    "space": {"atoms": ["a", "b"], "weights": [1, 1]},
    "family": [[0, 1], [1, 0]],
    "functional": {"kind": "extended_lebesgue"},
    "subset_budget": 12,
}


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_giner_pair_fails_but_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, "giner.json", GINER_SCENARIO)
    code, out = run_main(capsys, ["check", path])
    assert code == 0  # a "no" verdict is a result, not an error
    report = json.loads(out)["report"]
    assert report["interchange_holds"] == "fails"
    assert report["lhs"] == 1 and report["rhs"] == 0
    assert report["witness"] == [0, 1]


def test_check_chain_holds(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a", "b"], "weights": [1, "1/2"]},
        "family": [[2, 2], [1, 1], [0, 0]],
        "functional": {"kind": "extended_lebesgue"},
    }
    path = write_scenario(tmp_path, "chain.json", scenario)
    code, out = run_main(capsys, ["check", path])
    assert code == 0
    assert json.loads(out)["report"]["interchange_holds"] == "holds"


def test_check_sequence_scenario(tmp_path, capsys):
    scenario = {
        "family": {"generator": "example-2-6", "prefix": 100,
                   "divergence_threshold": 50},
        "functional": {"kind": "extended_lebesgue"},
    }
    path = write_scenario(tmp_path, "seq.json", scenario)
    code, out = run_main(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["lhs"] == "-inf" and report["rhs"] == "-inf"
    assert report["interchange_holds"] == "holds-in-limit"
    assert report["prefix"]["prefix_lhs"][-1] == -100


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def test_missing_family_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, "nofam.json", {"space": GINER_SCENARIO["space"]})
    assert main(["check", path]) == 2


def test_domain_error_exits_3(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a", "b"], "weights": [1, 1]},
        "family": [["+inf", "-inf"]],
        "functional": {"kind": "extended_lebesgue"},
    }
    path = write_scenario(tmp_path, "dom.json", scenario)
    assert main(["check", path]) == 3


def test_fraction_strings_accepted(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a"], "weights": ["1/3"]},
        "family": [["2/3"]],
        "functional": {"kind": "extended_lebesgue"},
    }
    path = write_scenario(tmp_path, "frac.json", scenario)
    code, out = run_main(capsys, ["check", path])
    assert code == 0
    assert json.loads(out)["report"]["lhs"] == "2/9"


SAMPLED_NOTE = "directedness scan sampled (family larger than subset budget)"


@pytest.mark.parametrize("argv, budget", [
    (["check", "{path}"], 0),
    (["check", "{path}", "--subset-budget", "0"], 12),
    (["gallery", "chain", "--subset-budget", "0"], None),
])
def test_explicit_zero_subset_budget_samples_every_scan(tmp_path, capsys, argv, budget):
    path = write_scenario(tmp_path, "zero.json", dict(GINER_SCENARIO, subset_budget=budget))
    code, out = run_main(capsys, [a.format(path=path) for a in argv])
    assert code == 0
    assert SAMPLED_NOTE in json.loads(out)["report"]["notes"]


def test_sampled_report_does_not_depend_on_the_seed(capsys, cli_backing):
    # Every pair of members passes and every triple fails, so the witness is
    # the first subset of the fixed sample larger than a pair.
    path = str(Path(__file__).resolve().parent / "golden" / "scenarios"
               / "check-sampled-pair-cover.json")
    payloads = []
    for seed in range(10):
        code, out = run_main(capsys, ["check", path, "--seed", str(seed)])
        payload = json.loads(out)
        assert code == 0 and payload["environment"].pop("seed") == seed
        payloads.append(payload)
    assert all(p == payloads[0] for p in payloads)
    assert payloads[0]["report"]["witness"] == [0, 1, 2, 3, 4, 5, 6]
    assert SAMPLED_NOTE in payloads[0]["report"]["notes"]


@pytest.mark.parametrize("entry", [
    {"subset_budget": "x"}, {"subset_budget": -1}, {"subset_budget": 1.5},
    {"subset_budget": True}, {"seed": "x"}, {"seed": -1}, {"seed": 2.5},
    {"tolerance": -1}, {"tolerance": "-1/2"},
])
def test_bad_scenario_numbers_exit_2(tmp_path, capsys, entry):
    path = write_scenario(tmp_path, "bad.json", dict(GINER_SCENARIO, **entry))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gallery", "chain", "--subset-budget", "-1"],
    ["gallery", "chain", "--seed", "-1"],
    ["gallery", "chain", "--tolerance", "-0.5"],
    ["oracle", "--trials", "1", "--seed", "-2"],
    ["oracle", "--trials", "1", "--tolerance", "-1"],
    # Flags the command does not read are checked too.
    ["gallery", "rw-demo", "--subset-budget", "-1"],
    ["gallery", "rw-demo", "--prefix", "0"],
    ["gallery", "shapiro-demo", "--subset-budget", "-3"],
    ["gallery", "giner-pair", "--prefix", "0"],
    ["gallery", "giner-pair", "--divergence-threshold", "nan"],
    ["oracle", "--trials", "1", "--subset-budget", "-1"],
    # Oracle options that would make an empty range or an empty campaign.
    ["oracle", "--max-atoms", "0"],
    ["oracle", "--max-family", "0"],
    ["oracle", "--trials", "-5"],
])
def test_negative_flags_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("schema error:")


@pytest.mark.parametrize(
    "name", ["giner-pair", "chain", "example-2-6", "choquet-demo", "rw-demo",
             "shapiro-demo", "moving-bump"]
)
def test_gallery_names_run(name, capsys):
    code, out = run_main(capsys, ["gallery", name])
    assert code == 0
    assert json.loads(out)["environment"]["command"] == f"gallery {name}"


def test_gallery_example_2_6_fires_divergence(capsys):
    code, out = run_main(capsys, ["gallery", "example-2-6", "--prefix", "100"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["interchange_holds"] == "holds-in-limit"
    assert "interchange holds in the limit (-inf = -inf)" in report["notes"]


@pytest.mark.parametrize("prefix, holds", [(20, "inconclusive"), (100, "fails")])
def test_gallery_moving_bump_fails_and_is_not_directed(capsys, prefix, holds):
    # lhs = -1 at every prefix; rhs = -N crosses the gallery threshold of 50.
    code, out = run_main(capsys, ["gallery", "moving-bump", "--prefix", str(prefix)])
    assert code == 0
    report = json.loads(out)["report"]
    assert (report["lhs"], report["prefix"]["prefix_rhs"][-1]) == (-1, -prefix)
    assert report["interchange_holds"] == holds
    assert (report["phi_inf_directed"], report["witness"]) == ("no", [0, 1])


def test_oracle_zero_trials(capsys):
    code, out = run_main(capsys, ["oracle", "--trials", "0"])
    assert code == 0
    assert json.loads(out)["report"]["violations"] == 0


@pytest.mark.parametrize("backing, default", [("rational", 0), ("float", 1e-9)])
def test_oracle_echoes_the_tolerance_it_verifies_at(capsys, monkeypatch, backing, default):
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    code, out = run_main(capsys, ["oracle", "--trials", "3", "--tolerance", "0.5"])
    assert code == 0
    assert json.loads(out)["environment"]["tolerance"] == default
    assert run_main(capsys, ["oracle", "--trials", "3"]) == (code, out)


@pytest.mark.parametrize("flag", [
    ["--subset-budget", "0"], ["--prefix", "5"], ["--divergence-threshold", "3"],
])
def test_oracle_checks_but_does_not_read_the_verifier_flags(capsys, flag):
    argv = ["oracle", "--trials", "20", "--seed", "1", "--max-family", "14"]
    code, out = run_main(capsys, argv + flag)
    assert code == 0
    assert run_main(capsys, argv) == (code, out)


def test_oracle_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["oracle", "--trials", "40", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["oracle", "--trials", "40", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rw_check(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a", "b"], "weights": [1, 1]},
        "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
        "selection_set": {"kind": "product"},
    }
    path = write_scenario(tmp_path, "rw.json", scenario)
    code, out = run_main(capsys, ["rw-check", path])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["interchange"]["equal"]
    assert report["argmin"]["characterization_holds"]


def test_rw_check_counterexample(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a", "b"], "weights": [1, 1]},
        "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
        "selection_set": {"kind": "explicit", "selections": [[0, 0], [1, 1]]},
    }
    path = write_scenario(tmp_path, "rw2.json", scenario)
    code, out = run_main(capsys, ["rw-check", path])
    assert code == 0
    report = json.loads(out)["report"]["interchange"]
    assert not report["equal"] and not report["decomposable"]
    assert report["lhs"] == 1 and report["rhs"] == 0


def test_shapiro_check(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a", "b"], "weights": [0.5, 0.5]},
        "integrand": {"controls": [[1], ["1/2"], [0]],
                      "table": [[1, "1/2", 0], [1, "1/2", 0]]},
        "functional": {"kind": "extended_lebesgue"},
        "p": 2,
        "selection_prefix": [[0, 0], [1, 1], [2, 2]],
        "selection_set": {"kind": "product", "admissible": [[0, 1, 2], [0, 1, 2]]},
    }
    path = write_scenario(tmp_path, "shapiro.json", scenario)
    code, out = run_main(capsys, ["shapiro-check", path])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["conclusion_holds"]
    assert all(h["ok"] for h in report["hypotheses"])


def test_shapiro_check_negative_tolerance_exits_2(tmp_path, capsys):
    scenario = {
        "space": {"atoms": ["a"], "weights": [1]},
        "integrand": {"controls": [[0]], "table": [[0]]},
        "functional": {"kind": "extended_lebesgue"},
        "selection_prefix": [[0]],
        "tolerance": "-1/1000",
    }
    path = write_scenario(tmp_path, "shapiro-neg.json", scenario)
    assert main(["shapiro-check", path]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


def test_text_format(capsys):
    code, out = run_main(capsys, ["gallery", "giner-pair", "--format", "text"])
    assert code == 0
    assert "interchange_holds: fails" in out


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gallery", "chain", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["interchange_holds"] == "holds"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "interlab.cli", "gallery", "giner-pair"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["interchange_holds"] == "fails"


def test_float_backing_via_environment():
    import os

    env = dict(os.environ, INTERLAB_BACKING="float")
    proc = subprocess.run(
        [sys.executable, "-m", "interlab.cli", "gallery", "giner-pair"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["environment"]["backing"] == "float"
    assert payload["environment"]["tolerance"] == 1e-9
    assert payload["report"]["interchange_holds"] == "fails"


RW_SCENARIO = {
    "space": {"atoms": ["a", "b"], "weights": [1, 1]},
    "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
}
SHAPIRO_SCENARIO = {
    "space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]},
    "integrand": {"controls": [[0], [1]], "table": [[1, 0], [1, 0]]},
    "functional": {"kind": "extended_lebesgue"},
    "selection_prefix": [[0, 0], [1, 1]],
}


@pytest.mark.parametrize("command, scenario", [
    ("rw-check", RW_SCENARIO), ("shapiro-check", SHAPIRO_SCENARIO),
])
@pytest.mark.parametrize("selection_set", [
    [[0, 1], [1, 0]], "product", 3,
    {"kind": "explicit", "selections": [["x", 0]]},
    {"kind": "explicit", "selections": 5},
    {"kind": "product", "admissible": 3},
])
def test_malformed_selection_set_exits_2(tmp_path, capsys, command, scenario,
                                         selection_set):
    path = write_scenario(tmp_path, "sel.json", dict(scenario, selection_set=selection_set))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


def test_rw_check_reads_scenario_tolerance(tmp_path, capsys):
    path = write_scenario(tmp_path, "tol.json", dict(RW_SCENARIO, tolerance="1/8"))
    code, out = run_main(capsys, ["rw-check", path])
    assert code == 0
    assert json.loads(out)["environment"]["tolerance"] == 0.125
    code, out = run_main(capsys, ["rw-check", path, "--tolerance", "0.5"])
    assert code == 0
    assert json.loads(out)["environment"]["tolerance"] == 0.5


SEQUENCE_SCENARIO = {
    "family": {"generator": "example-2-6", "prefix": 30},
    "functional": {"kind": "extended_lebesgue"},
}


@pytest.mark.parametrize("prefix", ["x", 0, -3, 1.5, True])
def test_bad_scenario_prefix_exits_2(tmp_path, capsys, prefix):
    family = dict(SEQUENCE_SCENARIO["family"], prefix=prefix)
    path = write_scenario(tmp_path, "prefix.json", dict(SEQUENCE_SCENARIO, family=family))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


def test_value_beyond_float_range_is_reported_exactly(tmp_path, capsys):
    huge = "1" + "0" * 400 + "/3"
    scenario = dict(GINER_SCENARIO, space={"atoms": ["a"], "weights": [1]}, family=[[huge]])
    code, out = run_main(capsys, ["check", write_scenario(tmp_path, "huge.json", scenario)])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["interchange_holds"] == "holds"
    assert report["lhs"] == report["rhs"] == huge


@pytest.mark.parametrize("argv", [
    ["gallery", "example-2-6", "--prefix", "0"],
    ["gallery", "example-2-6", "--prefix", "-1"],
    ["check", "{path}", "--prefix", "0"],
])
def test_nonpositive_prefix_flag_exits_2(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, "seq.json", SEQUENCE_SCENARIO)
    assert main([a.format(path=path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


def test_prefix_flag_overrides_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, "seq.json", SEQUENCE_SCENARIO)
    code, out = run_main(capsys, ["check", path])
    assert code == 0 and json.loads(out)["report"]["prefix"]["prefix_len"] == 30
    code, out = run_main(capsys, ["check", path, "--prefix", "20"])
    assert code == 0 and json.loads(out)["report"]["prefix"]["prefix_len"] == 20


@pytest.mark.parametrize("argv", [
    ["gallery", "chain", "--tolerance", "nan"],
    ["gallery", "chain", "--tolerance", "inf"],
    ["check", "{path}", "--tolerance", "nan"],
])
def test_non_finite_tolerance_flag_exits_2(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, "giner.json", GINER_SCENARIO)
    assert main([a.format(path=path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


def test_unreadable_scenario_tolerance_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, "tol.json", dict(GINER_SCENARIO, tolerance="x"))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


@pytest.mark.parametrize("capacity", [
    {"kind": "distortion", "of_measure": True}, [1, 2],
])
def test_malformed_capacity_exits_2(tmp_path, capsys, capacity):
    scenario = dict(GINER_SCENARIO, functional={"kind": "choquet", "capacity": capacity})
    path = write_scenario(tmp_path, "cap.json", scenario)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


@pytest.mark.parametrize("index", [1.7, "1", True, -1, 2])
def test_explicit_selection_control_index_must_be_an_index(tmp_path, capsys, index):
    sel = {"kind": "explicit", "selections": [[index, 0], [0, 0]]}
    path = write_scenario(tmp_path, "sel.json", dict(RW_SCENARIO, selection_set=sel))
    assert main(["rw-check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


@pytest.mark.parametrize("index", [1.7, "1", True, -1, 2])
def test_admissible_control_index_must_be_an_index(tmp_path, capsys, index):
    sel = {"kind": "product", "admissible": [[0, index], [0, 1]]}
    path = write_scenario(tmp_path, "sel.json", dict(RW_SCENARIO, selection_set=sel))
    assert main(["rw-check", path]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


@pytest.mark.parametrize("with_set", [True, False])
@pytest.mark.parametrize("prefix", [
    [[0, 0], [-1, -1]], [[0, 0], [0, 2]], [[0, 1.7]], [["1", 0]], [[True, 0]],
    [[0]], [0, 1], "x",
])
def test_shapiro_selection_prefix_must_hold_indices(tmp_path, capsys, prefix, with_set):
    scenario = dict(SHAPIRO_SCENARIO, selection_prefix=prefix)
    if with_set:
        scenario["selection_set"] = {"kind": "product", "admissible": [[0, 1], [0, 1]]}
    path = write_scenario(tmp_path, "prefix.json", scenario)
    assert main(["shapiro-check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


@pytest.mark.parametrize("command, scenario", [
    ("rw-check", RW_SCENARIO), ("shapiro-check", SHAPIRO_SCENARIO),
])
def test_selection_commands_check_the_seed(tmp_path, capsys, command, scenario):
    path = write_scenario(tmp_path, "s.json", scenario)
    assert main([command, path, "--seed", "-5"]) == 2
    assert capsys.readouterr().err.startswith("schema error:")
    code, out = run_main(capsys, [command, path, "--seed", "5"])
    assert code == 0 and json.loads(out)["environment"]["seed"] == 5
    code, out = run_main(capsys, [command, path])
    assert code == 0 and json.loads(out)["environment"]["seed"] is None


DISTORTION_SCENARIO = {
    "space": {"atoms": ["a", "b", "c", "d", "e", "f", "g", "h"],
              "weights": ["1/3", "1/7", "1/10", "2/3", "1/5", "3/10", "1/9", "2/7"]},
    "family": [[1, 2, 3, 4, 5, 6, 7, 8], [8, 7, 6, 5, 4, 3, 2, 1],
               [2, 4, 6, 8, 1, 3, 5, 7]],
    "functional": {"kind": "choquet", "capacity": {
        "kind": "distortion", "of_measure": True, "gamma": 0.5}},
}


def test_distortion_report_does_not_depend_on_hash_seed(tmp_path):
    import os

    path = write_scenario(tmp_path, "distortion.json", DISTORTION_SCENARIO)
    reports = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run([sys.executable, "-m", "interlab.cli", "check", path],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1


NON_MONOTONE_TABLE_SCENARIO = {
    "space": {"atoms": ["a0", "a1", "a2", "a3"], "weights": [1, 1, 1, 1]},
    "family": [[1, 0, 0, 0], [0, 1, 0, 0]],
    "functional": {"kind": "choquet", "capacity": {"kind": "table", "values": {
        "{" + ",".join(f"a{i}" for i in range(4) if mask >> i & 1) + "}":
            0 if mask == 0b0111 else bin(mask).count("1")
        for mask in range(16)}}},
}


def test_capacity_error_does_not_depend_on_hash_seed(tmp_path):
    import os

    path = write_scenario(tmp_path, "table.json", NON_MONOTONE_TABLE_SCENARIO)
    errors = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run([sys.executable, "-m", "interlab.cli", "check", path],
                              capture_output=True, env=env)
        assert proc.returncode == 2, proc.stderr
        errors.add(proc.stderr)
    assert errors == {b"schema error: bad functional: capacity is not monotone: "
                      b"c({a0, a1}) = 2 > c({a0, a1, a2}) = 0\n"}


def wide_distortion_scenario(n_atoms, nested):
    """Two members under a distortion; a nested pair holds, disjoint supports fail."""
    weights = [["1/3", 0.7, "2/7", 0, 1.3, "5/9"][i % 6] for i in range(n_atoms)]
    first = [["1/2", 1, 0.7, 2, "7/3"][i % 5] for i in range(n_atoms)]
    if nested:
        second = [v if i % 3 else 3 for i, v in enumerate(first)]
    else:
        second = [0 if i % 2 else v for i, v in enumerate(first)]
        first = [v if i % 2 else 0 for i, v in enumerate(first)]
    return {"space": {"atoms": [f"a{i}" for i in range(n_atoms)], "weights": weights},
            "family": [first, second],
            "functional": {"kind": "choquet", "capacity": {
                "kind": "distortion", "of_measure": True, "gamma": 0.8}}}


@pytest.mark.parametrize("nested, verdict", [(True, "holds"), (False, "fails")])
def test_wide_distortion_check_enumerates_no_subsets(tmp_path, capsys, monkeypatch,
                                                     nested, verdict):
    def no_enumeration(space):
        raise AssertionError(f"2^{len(space)} atom subsets enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("interlab") and hasattr(module, "iter_atom_subsets"):
            monkeypatch.setattr(module, "iter_atom_subsets", no_enumeration)
    assert sys.modules["interlab.measure"].iter_atom_subsets is no_enumeration
    path = write_scenario(tmp_path, "wide.json", wide_distortion_scenario(40, nested))
    code, out = run_main(capsys, ["check", path])
    assert code == 0
    assert json.loads(out)["report"]["interchange_holds"] == verdict


@pytest.mark.parametrize("gamma", [True, False])
def test_distortion_gamma_must_not_be_a_bool(tmp_path, capsys, gamma):
    capacity = {"kind": "distortion", "of_measure": True, "gamma": gamma}
    scenario = dict(DISTORTION_SCENARIO, functional={"kind": "choquet", "capacity": capacity})
    path = write_scenario(tmp_path, "gamma.json", scenario)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "gamma" in err


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_distortion_weight_beyond_float_range_exits_2(tmp_path, capsys, monkeypatch, backing):
    scenario = dict(DISTORTION_SCENARIO, space={"atoms": ["a", "b"], "weights": [10**400, 2]},
                    family=[[1, 0], [0, 1]])
    path = write_scenario(tmp_path, "huge.json", scenario)
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "float range" in err


@pytest.fixture(params=["rational", "float"])
def cli_backing(request, monkeypatch):
    """Run ``main`` under each backing."""
    monkeypatch.setenv("INTERLAB_BACKING", request.param)
    return request.param


TABLE_CAPACITY = {"kind": "table", "values": {"{}": 0, "{a}": 1, "{b}": 1, "{a,b}": 2}}


@pytest.mark.parametrize("scenario", [
    dict(GINER_SCENARIO, family=[[1, "x"], [0, 1]]),
    dict(GINER_SCENARIO, family=[[1, True], [0, 1]]),
    dict(GINER_SCENARIO, tolerance=True),
    dict(GINER_SCENARIO, functional={"kind": "choquet", "capacity": dict(
        TABLE_CAPACITY, values=dict(TABLE_CAPACITY["values"], **{"{a}": "x"}))}),
    dict(GINER_SCENARIO, functional={"kind": "choquet", "capacity": dict(
        TABLE_CAPACITY, values=[1, 2])}),
    dict(GINER_SCENARIO, functional={"kind": "choquet", "capacity": dict(
        TABLE_CAPACITY, values=None)}),
    dict(GINER_SCENARIO, functional={"kind": "choquet", "capacity": dict(
        TABLE_CAPACITY, values=dict(TABLE_CAPACITY["values"], **{"{c}": 5}))}),
], ids=["family-string", "family-bool", "tolerance-bool", "table-string",
        "table-list", "table-null", "table-foreign-atom"])
def test_bad_scalars_and_capacity_tables_exit_2(tmp_path, capsys, cli_backing, scenario):
    path = write_scenario(tmp_path, "bad.json", scenario)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


def test_foreign_table_key_is_named(tmp_path, capsys):
    values = dict(TABLE_CAPACITY["values"], **{"{a,c}": 5})
    scenario = dict(GINER_SCENARIO, functional={
        "kind": "choquet", "capacity": dict(TABLE_CAPACITY, values=values)})
    assert main(["check", write_scenario(tmp_path, "foreign.json", scenario)]) == 2
    assert "{a, c} is not over this capacity's space" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["x", True])
def test_shapiro_bad_p_exits_2(tmp_path, capsys, cli_backing, p):
    scenario = {
        "space": {"atoms": ["a"], "weights": [1]},
        "integrand": {"controls": [[0], [1]], "table": [[0, 1]]},
        "functional": {"kind": "extended_lebesgue"},
        "selection_prefix": [[0]],
        "p": p,
    }
    assert main(["shapiro-check", write_scenario(tmp_path, "p.json", scenario)]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


def _shapiro_probe(tmp_path, capsys, p, table, prefix):
    scenario = {
        "space": {"atoms": ["a"], "weights": [1]},
        "integrand": {"controls": [[0], [1]], "table": [table]},
        "functional": {"kind": "extended_lebesgue"},
        "selection_prefix": prefix,
        "p": p,
    }
    code = main(["shapiro-check", write_scenario(tmp_path, "probe.json", scenario)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_shapiro_p_beyond_the_float_range_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INTERLAB_BACKING", "rational")
    code, _, err = _shapiro_probe(tmp_path, capsys, "1e400", [0, 1], [[0]])
    assert code == 3 and "overflows the float range" in err


def test_shapiro_norm_beyond_the_float_range_exits_3(tmp_path, capsys, cli_backing):
    code, _, err = _shapiro_probe(tmp_path, capsys, 2000, [5, 0], [[0], [1]])
    assert code == 3 and "overflows the float range" in err


def test_shapiro_exact_norm_beyond_the_float_range_is_compared_exactly(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INTERLAB_BACKING", "rational")
    code, out, _ = _shapiro_probe(tmp_path, capsys, 1, ["1e400", 0], [[1], [0]])
    assert code == 0
    ok = {h["name"]: h["ok"] for h in json.loads(out)["report"]["hypotheses"]}
    assert ok["S2a_norm_convergence"] is False


@pytest.mark.parametrize("weights, code", [
    ([0.1] * 10, 0), ([0.5, 0.4], 3), ([1e308, 1e308], 3),
])
def test_shapiro_probability_space_does_not_depend_on_the_backing(
        tmp_path, capsys, cli_backing, weights, code):
    """Ten weights 0.1 add up to 0.9999999999999999 in atom order under
    float backing; their correctly rounded sum is 1, as the exact one is.
    Weights whose float sum overflows are not a probability space either."""
    n = len(weights)
    scenario = {
        "space": {"atoms": [f"a{i}" for i in range(n)], "weights": weights},
        "integrand": {"controls": [[0], [1]], "table": [[1, 0]] * n},
        "functional": {"kind": "extended_lebesgue"},
        "selection_prefix": [[0] * n, [1] * n],
        "selection_set": {"kind": "product"},
    }
    assert main(["shapiro-check", write_scenario(tmp_path, "mass.json", scenario)]) == code
    out, err = capsys.readouterr()
    if code:
        assert "Shapiro scenarios require a probability space" in err
    else:
        assert json.loads(out)["report"]["conclusion_holds"] is True


@pytest.mark.parametrize("tol, holds, directed, witness", [
    (1, "holds", "yes", None), (0.5, "fails", "no", [0, 1]),
])
@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_user_tolerance_judges_the_scan_too(tmp_path, capsys, cli_backing, source,
                                             tol, holds, directed, witness):
    # min Phi = 1 and Phi(inf X) = 0: within tolerance 1 the interchange
    # holds, and the scan must call the pair directed, not raise.
    if source == "flag":
        argv = ["gallery", "giner-pair", "--tolerance", str(tol)]
    else:
        argv = ["check", write_scenario(tmp_path, "tol.json",
                                        dict(GINER_SCENARIO, tolerance=tol))]
    code, out = run_main(capsys, argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["interchange_holds"] == holds
    assert report["phi_inf_directed"] == directed and report["witness"] == witness


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["gallery", "giner-pair"]) == 0
    first_call = len(built)
    assert first_call > 0
    for argv in (["gallery", "chain"], ["gallery", "giner-pair", "--format", "text"],
                 ["oracle", "--trials", "0"]):
        assert main(argv) == 0
    assert len(built) == first_call
    assert build_parser() is build_parser()


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def run_fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "interlab.cli", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # Usage lines wrap at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    steps = [
        ("rational", ["gallery", "giner-pair", "--seed", "5"]),
        ("rational", ["gallery", "giner-pair"]),
        ("rational", ["gallery", "chain", "--format", "text"]),
        ("rational", ["gallery", "chain"]),
        ("rational", ["gallery", "nope"]),
        ("rational", ["gallery", "chain"]),
        ("float", ["gallery", "giner-pair"]),
        ("rational", ["gallery", "giner-pair"]),
    ]
    results = []
    for backing, argv in steps:
        monkeypatch.setenv("INTERLAB_BACKING", backing)
        result = run_in_process(capsys, argv)
        assert result == run_fresh(argv), (backing, argv)
        results.append(result)
    seeds = [json.loads(results[i][1])["environment"]["seed"] for i in (0, 1)]
    assert seeds == [5, 0]
    assert results[4][0] == 2 and results[5][0] == 0
    assert json.loads(results[6][1])["environment"]["backing"] == "float"
    assert json.loads(results[7][1])["environment"]["backing"] == "rational"


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    assert main(["gallery", "chain", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: cannot write report to ")
    assert "Traceback" not in err


def test_non_utf8_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: cannot read scenario ")
    assert "Traceback" not in err


def test_shapiro_prefix_member_outside_the_set_exits_3(tmp_path, capsys):
    """The inner-null golden scenario as it was before its prefix member
    [1, 1, 1], which is not among its explicit selections, became [1, 1, 0]."""
    golden = Path(__file__).resolve().parent / "golden" / "scenarios"
    scenario = json.loads((golden / "shapiro-explicit-inner-null.json").read_text())
    assert scenario["selection_prefix"][1] == [1, 1, 0]
    scenario["selection_prefix"][1] = [1, 1, 1]
    path = write_scenario(tmp_path, "outside.json", scenario)
    assert main(["shapiro-check", path]) == 3
    assert capsys.readouterr().err == (
        "domain error: selection prefix member [1, 1, 1] is not in the selection set\n")
