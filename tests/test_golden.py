"""Golden reports of the CLI, byte for byte, under both backings.

Four groups: the selection-set commands, the interchange path (the
integral, sequence and Choquet galleries and the ``check`` scenarios, one
of them scanned beyond the subset budget), the sha256 digests of the
oracle campaign reports for seeds 0-49, and oracle reports whose violation
is forced, so that each carries the shrunk reproducing scenario the
campaign writes.

The CLI reads ``INTERLAB_BACKING`` on each call of ``main``, so both
backings run in this process.  After an intended change to these reports,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import interlab.oracle as oracle
from interlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = GOLDEN / "scenarios"
ORACLE_DIGESTS = GOLDEN / "oracle-sha256.json"
ORACLE_SEEDS = range(50)
BACKINGS = ("rational", "float")
FORMATS = {"json": "json", "text": "txt"}
SELECTION_CASES = {
    "gallery-rw-demo": ["gallery", "rw-demo"],
    "gallery-shapiro-demo": ["gallery", "shapiro-demo"],
    "rw-product": ["rw-check", str(SCENARIOS / "rw-product.json")],
    "rw-product-blocks": ["rw-check", str(SCENARIOS / "rw-product-blocks.json")],
    "rw-explicit-decomposable": ["rw-check", str(SCENARIOS / "rw-explicit-decomposable.json")],
    "rw-explicit-holey": ["rw-check", str(SCENARIOS / "rw-explicit-holey.json")],
    "rw-explicit-sparse-full": ["rw-check", str(SCENARIOS / "rw-explicit-sparse-full.json")],
    "rw-explicit-sparse-holey": ["rw-check", str(SCENARIOS / "rw-explicit-sparse-holey.json")],
    # A shuffled listing of a whole product, with a null atom: its eight
    # tying minimizers are reported in listed order, not product order.
    "rw-explicit-product-ties": ["rw-check", str(SCENARIOS / "rw-explicit-product-ties.json")],
    "shapiro-product-lebesgue": [
        "shapiro-check", str(SCENARIOS / "shapiro-product-lebesgue.json")],
    "shapiro-explicit-inner-null": [
        "shapiro-check", str(SCENARIOS / "shapiro-explicit-inner-null.json")],
    "shapiro-product-outer-inf": [
        "shapiro-check", str(SCENARIOS / "shapiro-product-outer-inf.json")],
    "shapiro-ess-sup": ["shapiro-check", str(SCENARIOS / "shapiro-ess-sup.json")],
}
INTERCHANGE_CASES = {
    "gallery-example-2-6": ["gallery", "example-2-6", "--prefix", "100"],
    "gallery-moving-bump": ["gallery", "moving-bump"],
    "gallery-chain": ["gallery", "chain"],
    "gallery-giner-pair": ["gallery", "giner-pair"],
    "gallery-choquet-demo": ["gallery", "choquet-demo"],
    "check-literal-24": ["check", str(SCENARIOS / "check-literal-24.json")],
    "check-choquet-distortion": ["check", str(SCENARIOS / "check-choquet-distortion.json")],
    "check-choquet-distortion-16": ["check", str(SCENARIOS / "check-choquet-distortion-16.json")],
    # A table capacity with keys out of space order and a +inf value, on a
    # nonpositive family with ties, a -inf on a null atom and a positive
    # value on it.
    "check-choquet-table-signed": ["check", str(SCENARIOS / "check-choquet-table-signed.json")],
    "check-sampled-pair-cover": ["check", str(SCENARIOS / "check-sampled-pair-cover.json")],
    # Infinite values on atoms of positive weight, in families large enough
    # that the scan builds the integral's rank table; the inner family's
    # atom d holds +inf in every member.
    "check-lebesgue-inf": ["check", str(SCENARIOS / "check-lebesgue-inf.json")],
    "check-outer-inf": ["check", str(SCENARIOS / "check-outer-inf.json")],
    "check-inner-inf-column": ["check", str(SCENARIOS / "check-inner-inf-column.json")],
}

# name -> (functional kind whose violation is forced, argv).  The Choquet
# reproducer holds a table capacity, a null atom and a +inf value; the
# extended-Lebesgue one holds +inf on its null atom and -inf on an atom of
# positive weight.
REPRODUCER_CASES = {
    "oracle-reproducer-choquet": (
        "choquet", ["oracle", "--trials", "20", "--seed", "7", "--max-atoms", "4"]),
    "oracle-reproducer-lebesgue": (
        "extended_lebesgue", ["oracle", "--trials", "20", "--seed", "10", "--max-atoms", "4"]),
}


def forced_violation(kind):
    """A stand-in for ``oracle._violates``: an instance of ``kind`` with at
    least two members on at least two atoms, one of them null, violates.
    The shrink then ends at two members on two atoms."""
    def violates(instance):
        if (instance.kind == kind and len(instance.family.members) >= 2
                and len(instance.space.atoms) >= 2 and 0 in instance.space.weights):
            return f"forced violation ({kind})"
        return None
    return violates


def run_reports(backing, out_dir, cases):
    """{(case, format): exit code}, with each report written to out_dir."""
    with mock.patch.dict(os.environ, INTERLAB_BACKING=backing):
        return {
            name: main(argv + ["--format", fmt, "--out", str(out_dir / name)])
            for case, argv in cases.items()
            for fmt, ext in FORMATS.items()
            for name in [f"{case}.{ext}"]
        }


def oracle_digests(backing):
    """{seed: sha256 of the json report of ``oracle --trials 300 --seed SEED``}."""
    digests = {}
    with mock.patch.dict(os.environ, INTERLAB_BACKING=backing):
        for seed in ORACLE_SEEDS:
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["oracle", "--trials", "300", "--seed", str(seed)]) == 0
            digests[str(seed)] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return digests


def run_reproducers(backing, out_dir):
    """``run_reports`` of the oracle campaigns with forced violations."""
    codes = {}
    for case, (kind, argv) in REPRODUCER_CASES.items():
        with mock.patch.object(oracle, "_violates", forced_violation(kind)):
            codes.update(run_reports(backing, out_dir, {case: argv}))
    return codes


def assert_match_golden(backing, out_dir, codes, code=0):
    assert set(codes.values()) == {code}
    for name in codes:
        expected = (GOLDEN / backing / name).read_bytes()
        assert (out_dir / name).read_bytes() == expected, f"{backing}/{name}"


@pytest.mark.parametrize("backing", BACKINGS)
def test_selection_reports_match_golden_files(backing, tmp_path):
    assert_match_golden(backing, tmp_path, run_reports(backing, tmp_path, SELECTION_CASES))


@pytest.mark.parametrize("backing", BACKINGS)
def test_interchange_reports_match_golden_files(backing, tmp_path):
    assert_match_golden(backing, tmp_path, run_reports(backing, tmp_path, INTERCHANGE_CASES))


@pytest.mark.parametrize("backing", BACKINGS)
def test_oracle_reproducers_match_golden_files(backing, tmp_path):
    # A violation exits 4, and the report names the shrunk reproducer.
    assert_match_golden(backing, tmp_path, run_reproducers(backing, tmp_path), code=4)


@pytest.mark.parametrize("backing", BACKINGS)
def test_oracle_reports_match_pinned_digests(backing):
    expected = json.loads(ORACLE_DIGESTS.read_text(encoding="utf-8"))[backing]
    assert oracle_digests(backing) == expected


if __name__ == "__main__":
    for backing in BACKINGS:
        (GOLDEN / backing).mkdir(parents=True, exist_ok=True)
        codes = run_reports(backing, GOLDEN / backing,
                            {**SELECTION_CASES, **INTERCHANGE_CASES})
        codes.update(run_reproducers(backing, GOLDEN / backing))
        print(backing, codes)
    digests = {backing: oracle_digests(backing) for backing in BACKINGS}
    ORACLE_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
