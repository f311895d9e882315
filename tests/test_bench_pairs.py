"""The gain rule of ``tools/bench_pairs.claim`` on synthetic runs: the change
wins at least nine tenths of the pairs, and its median verdicts_per_s is
above the parent's by more than the parent's interquartile range."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs

# Median 104.5, quartiles 102.25 and 106.75: an interquartile range of 4.5.
PARENT = [100 + i for i in range(10)]


def l4_result(change_runs):
    """verdicts_per_s of PARENT and ``change_runs`` as ``bench_pairs.l4`` reports it."""
    return {"pairs": len(PARENT), "metrics": {"verdicts_per_s": {
        "parent": bench_pairs._summary(PARENT), "change": bench_pairs._summary(change_runs),
        "parent_runs": PARENT, "change_runs": change_runs}}}


@pytest.mark.parametrize("change_runs, wins, change_median, met", [
    # The change wins the first nine pairs by 10 and loses the last.
    ([p + 10 for p in PARENT[:9]] + [100], "9 of 10", 113.5, True),
    # Nine wins by 5.5 put the median 4.5 above the parent's: not beyond the range.
    ([p + 5.5 for p in PARENT[:9]] + [100], "9 of 10", 109.0, False),
    # Eight wins by 50 move the median far, but two pairs are lost.
    ([p + 50 for p in PARENT[:8]] + [0, 0], "8 of 10", 152.5, False),
], ids=["9-wins-gap-above-iqr", "9-wins-gap-at-iqr", "8-wins"])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(
        change_runs, wins, change_median, met):
    got = bench_pairs.claim(l4_result(change_runs), "wide-atoms")
    assert got == {"metric": "verdicts_per_s on wide-atoms", "parent_median": 104.5,
                   "parent_iqr": 4.5, "change_median": change_median, "change_wins": wins,
                   "met": met}
