"""Golden reports of the CLI, byte for byte, under both backings.

Two groups: the selection-set commands, and the interchange path (the
integral and Choquet galleries and two ``check`` scenarios).

Each backing runs in a fresh interpreter, since the backing is chosen when
``interlab`` is imported.  After an intended change to these reports,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interlab

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = GOLDEN / "scenarios"
BACKINGS = ("rational", "float")
FORMATS = {"json": "json", "text": "txt"}
SELECTION_CASES = {
    "gallery-rw-demo": ["gallery", "rw-demo"],
    "gallery-shapiro-demo": ["gallery", "shapiro-demo"],
    "rw-product": ["rw-check", str(SCENARIOS / "rw-product.json")],
    "rw-explicit-decomposable": ["rw-check", str(SCENARIOS / "rw-explicit-decomposable.json")],
    "rw-explicit-holey": ["rw-check", str(SCENARIOS / "rw-explicit-holey.json")],
}
INTERCHANGE_CASES = {
    "gallery-example-2-6": ["gallery", "example-2-6", "--prefix", "100"],
    "gallery-chain": ["gallery", "chain"],
    "gallery-giner-pair": ["gallery", "giner-pair"],
    "gallery-choquet-demo": ["gallery", "choquet-demo"],
    "check-literal-24": ["check", str(SCENARIOS / "check-literal-24.json")],
    "check-choquet-distortion": ["check", str(SCENARIOS / "check-choquet-distortion.json")],
    "check-choquet-distortion-16": ["check", str(SCENARIOS / "check-choquet-distortion-16.json")],
}

# Runs every (case, format) through interlab.cli.main in one process and
# prints the exit codes as JSON.
DRIVER = """
import json, sys
from interlab.cli import main
runs = json.loads(sys.argv[1])
print(json.dumps({key: main(argv) for key, argv in runs}))
"""


def run_reports(backing, out_dir, cases):
    """{(case, format): exit code}, with each report written to out_dir."""
    runs = [
        (f"{case}.{ext}", argv + ["--format", fmt, "--out", str(out_dir / f"{case}.{ext}")])
        for case, argv in cases.items()
        for fmt, ext in FORMATS.items()
    ]
    env = dict(os.environ, INTERLAB_BACKING=backing,
               PYTHONPATH=str(Path(interlab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(runs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_match_golden(backing, out_dir, cases):
    codes = run_reports(backing, out_dir, cases)
    assert set(codes.values()) == {0}
    for name in codes:
        expected = (GOLDEN / backing / name).read_bytes()
        assert (out_dir / name).read_bytes() == expected, f"{backing}/{name}"


@pytest.mark.parametrize("backing", BACKINGS)
def test_selection_reports_match_golden_files(backing, tmp_path):
    assert_match_golden(backing, tmp_path, SELECTION_CASES)


@pytest.mark.parametrize("backing", BACKINGS)
def test_interchange_reports_match_golden_files(backing, tmp_path):
    assert_match_golden(backing, tmp_path, INTERCHANGE_CASES)


if __name__ == "__main__":
    for backing in BACKINGS:
        (GOLDEN / backing).mkdir(parents=True, exist_ok=True)
        codes = run_reports(backing, GOLDEN / backing,
                            {**SELECTION_CASES, **INTERCHANGE_CASES})
        print(backing, codes)
