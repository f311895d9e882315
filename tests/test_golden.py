"""Golden reports: the selection-set commands, byte for byte, under both backings.

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
CASES = {
    "gallery-rw-demo": ["gallery", "rw-demo"],
    "gallery-shapiro-demo": ["gallery", "shapiro-demo"],
    "rw-product": ["rw-check", str(SCENARIOS / "rw-product.json")],
    "rw-explicit-decomposable": ["rw-check", str(SCENARIOS / "rw-explicit-decomposable.json")],
    "rw-explicit-holey": ["rw-check", str(SCENARIOS / "rw-explicit-holey.json")],
}

# Runs every (case, format) through interlab.cli.main in one process and
# prints the exit codes as JSON.
DRIVER = """
import json, sys
from interlab.cli import main
runs = json.loads(sys.argv[1])
print(json.dumps({key: main(argv) for key, argv in runs}))
"""


def run_reports(backing, out_dir):
    """{(case, format): exit code}, with each report written to out_dir."""
    runs = [
        (f"{case}.{ext}", argv + ["--format", fmt, "--out", str(out_dir / f"{case}.{ext}")])
        for case, argv in CASES.items()
        for fmt, ext in FORMATS.items()
    ]
    env = dict(os.environ, INTERLAB_BACKING=backing,
               PYTHONPATH=str(Path(interlab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(runs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("backing", BACKINGS)
def test_selection_reports_match_golden_files(backing, tmp_path):
    codes = run_reports(backing, tmp_path)
    assert set(codes.values()) == {0}
    for name in codes:
        expected = (GOLDEN / backing / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{backing}/{name}"


if __name__ == "__main__":
    for backing in BACKINGS:
        (GOLDEN / backing).mkdir(parents=True, exist_ok=True)
        codes = run_reports(backing, GOLDEN / backing)
        print(backing, codes)
