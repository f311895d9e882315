"""Before/after numbers for Shapiro's conclusion fold: ``BENCH_shapiro_fold.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_shapiro_fold.py --parent OLD --change NEW \\
        --seed 2718 --seconds 20 --pairs 10 --other-pairs 3 --out BENCH_shapiro_fold.json

L3, in one fresh process per checkout: the Shapiro scenarios of the full
``selections`` plan (``perfbench/workloads.py``, float backing, as the
workload runs them), best of ``--repeat`` timings of the conclusion alone
(the minimum over the selection set as the checkout computes it) and of a
whole ``verify_shapiro``; both checkouts must report the same conclusion.

L4: alternating pairs of ``perfbench/run.py --workload W --seed S --seconds T``
run from each checkout's root, the parent first in even pairs and the change
first in odd ones; ``--pairs`` pairs on ``selections`` and ``--other-pairs``
on each other workload (0 skips them).  For each end-to-end metric the file
holds every run, the median and quartiles per side, and the pairs the change
won.  Then one traced ``selections`` cycle per side (``--trace 1``) gives the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS = ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"verdicts_per_s"}
OTHER_WORKLOADS = ("small-families", "wide-families", "wide-atoms")

# Run in each checkout with src/ and perfbench/ on the path.
L3_PROBE = r"""
import json, sys, time
import workloads
from interlab import decomposable
from interlab.integrals import PART_SUMS
from interlab.scenario import read_shapiro

def conclusion(sc):
    u_set = sc.selection_set
    if hasattr(decomposable, "_min_of_folds"):
        combine = next(c for f, c in PART_SUMS.items() if f is sc.functional.eval_fn)
        return decomposable._min_of_folds(sc.integrand, u_set, 10**6, combine)
    g_of = sc.integrand.g_of
    return min(sc.functional(g_of(s)) for s in u_set.iter_selections())

def best_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(min(times) * 1e3, 4)

seed, repeat = int(sys.argv[1]), int(sys.argv[2])
out = {}
for item in workloads.plan_selections(seed, False):
    if item["command"] != "shapiro-check":
        continue
    sc, _ = read_shapiro(item["scenario"], {"backing": "float"})
    report = decomposable.verify_shapiro(sc)
    assert repr(conclusion(sc)) == repr(report.conclusion_lhs)
    out[item["label"]] = {
        "selections": sc.selection_set.count(),
        "conclusion_lhs": repr(report.conclusion_lhs),
        "conclusion_ms": best_ms(lambda: conclusion(sc), repeat),
        "verify_shapiro_ms": best_ms(lambda: decomposable.verify_shapiro(sc), repeat),
    }
print(json.dumps(out))
"""


def _env(checkout: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(checkout, "src"),
                                         os.path.join(checkout, "perfbench")])
    return env


def l3(checkout: str, seed: int, repeat: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", L3_PROBE, str(seed), str(repeat)],
                          cwd=checkout, env=_env(checkout), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def l4_run(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def l4(parent: str, change: str, workload: str, seed: int, seconds: float, pairs: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(l4_run(parent if side == "parent" else change,
                                     workload, seed, seconds))
    out = {"pairs": pairs,
           "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
           "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
           "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
           "metrics": {}}
    for name in METRICS:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        better = (lambda a, b: a > b) if name in HIGHER_IS_BETTER else (lambda a, b: a < b)
        ps, cs = _summary(p), _summary(c)
        out["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "parent": ps,
            "change": cs,
            "median_change": f"{(cs['median'] / ps['median'] - 1) * 100:+.1f}%",
            "change_wins": f"{sum(map(better, c, p))} of {pairs}",
            "parent_runs": [round(v, 4) for v in p],
            "change_runs": [round(v, 4) for v in c],
        }
    return out


def claim(selections: dict) -> dict:
    """The gain rule on selections verdicts_per_s: the change wins at least
    nine tenths of the pairs, and the medians differ by more than the
    distance between the parent's quartiles."""
    m = selections["metrics"]["verdicts_per_s"]
    wins = sum(map(lambda c, p: c > p, m["change_runs"], m["parent_runs"]))
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gap = m["change"]["median"] - m["parent"]["median"]
    return {"metric": "verdicts_per_s on selections", "parent_median": m["parent"]["median"],
            "parent_iqr": round(iqr, 4), "change_median": m["change"]["median"],
            "change_wins": f"{wins} of {selections['pairs']}",
            "met": 10 * wins >= 9 * selections["pairs"] and gap > iqr}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=200)
    parser.add_argument("--out", default="BENCH_shapiro_fold.json")
    args = parser.parse_args()

    result = {
        "command": " ".join(["python3", "tools/bench_shapiro_fold.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_in_process": {"parent": l3(args.parent, args.seed, args.repeat),
                          "change": l3(args.change, args.seed, args.repeat)},
        "l4": {"selections": l4(args.parent, args.change, "selections", args.seed,
                                args.seconds, args.pairs)},
        # One traced cycle per side: where the time of a selections cycle goes.
        "traced_selections_per_cycle": {
            side: {name: m["value"] for name, m in
                   l4_run(checkout, "selections", args.seed, 1, trace=1)["metrics"].items()}
            for side, checkout in (("parent", args.parent), ("change", args.change))},
    }
    result["claim"] = claim(result["l4"]["selections"])
    for workload in OTHER_WORKLOADS if args.other_pairs else ():
        result["l4"][workload] = l4(args.parent, args.change, workload, args.seed,
                                    args.seconds, args.other_pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
