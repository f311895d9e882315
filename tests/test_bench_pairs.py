"""The bench driver of ``tools/``: the gain rule of ``bench_pairs.claim`` on
synthetic runs, and the probe of ``bench.py`` against this checkout."""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench
import bench_pairs

# Median 104.5, quartiles 102.25 and 106.75: an interquartile range of 4.5.
PARENT = [100 + i for i in range(10)]


def l4_result(metric, change_runs, failed):
    """``metric`` of PARENT and ``change_runs``, and the verdicts each side
    ``failed``, as ``bench_pairs.l4`` reports them."""
    return {"pairs": len(PARENT),
            "correct": {side: n == 0 for side, n in failed.items()}, "failed": failed,
            "metrics": {metric: {
                "parent": bench_pairs._summary(PARENT),
                "change": bench_pairs._summary(change_runs),
                "parent_runs": PARENT, "change_runs": change_runs}}}


@pytest.mark.parametrize("metric, change_runs, change_failed, wins, change_median, met", [
    # The change wins the first nine pairs by 10 and loses the last.
    ("verdicts_per_s", [p + 10 for p in PARENT[:9]] + [100], 0, "9 of 10", 113.5, True),
    # Nine wins by 5.5 put the median 4.5 above the parent's: not beyond the range.
    ("verdicts_per_s", [p + 5.5 for p in PARENT[:9]] + [100], 0, "9 of 10", 109.0, False),
    # Eight wins by 50 move the median far, but two pairs are lost.
    ("verdicts_per_s", [p + 50 for p in PARENT[:8]] + [0, 0], 0, "8 of 10", 152.5, False),
    # A tail in ms is better lower: nine pairs 10 ms below the parent's win.
    ("verdict_ms_tail", [p - 10 for p in PARENT[:9]] + [110], 0, "9 of 10", 94.5, True),
    # The first case's runs, but the change failed a verdict the parent did not.
    ("verdicts_per_s", [p + 10 for p in PARENT[:9]] + [100], 1, "9 of 10", 113.5, False),
], ids=["9-wins-gap-above-iqr", "9-wins-gap-at-iqr", "8-wins", "lower-is-better",
        "more-failures"])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(
        metric, change_runs, change_failed, wins, change_median, met):
    failed = {"parent": 0, "change": change_failed}
    got = bench_pairs.claim(l4_result(metric, change_runs, failed), "wide-atoms", metric)
    assert got == {"metric": f"{metric} on wide-atoms",
                   "better": "higher" if metric == "verdicts_per_s" else "lower",
                   "parent_median": 104.5, "parent_iqr": 4.5, "change_median": change_median,
                   "change_wins": wins, "failed": failed, "met": met}


def test_the_probe_checks_and_digests_every_workload_of_this_checkout():
    # The probe exits non-zero, and run_probe raises, when a verdict fails
    # its check or the probe no longer runs against the library.
    info = bench_pairs.run_probe(str(ROOT), bench.PROBE + "print(json.dumps(info))", [0])
    assert list(info) == list(bench_pairs.WORKLOADS)
    for workload in info.values():
        assert workload["cases"] > 0
        assert re.fullmatch("[0-9a-f]{64}", workload["sha256"])
