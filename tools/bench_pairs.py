"""Alternating parent/change runs of ``perfbench/run.py`` and of in-process
probes, shared by the ``tools/bench_*.py`` scripts.

Each run is ``perfbench/run.py --workload W --seed S --seconds T`` from one
checkout's root, with ``PYTHONDONTWRITEBYTECODE=1`` as the benchmark sets
it.  Pair i runs the parent first when i is even and the change first when
it is odd, and so does repetition i of a probe (``alternating``).  A gain is
claimed by the rule of ``claim``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from operator import lt

METRICS = ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"verdicts_per_s"}
WORKLOADS = ("small-families", "wide-families", "wide-atoms", "selections")


def probe_env(checkout: str) -> dict:
    """Environment for an in-process probe of ``checkout``: its ``src`` and
    ``perfbench`` on the path, no bytecode written."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(checkout, "src"),
                                         os.path.join(checkout, "perfbench")])
    return env


# Appended to a probe's source: ``info`` is printed once, then each line
# read from stdin times every function of ``cases`` once, on the value of
# its ``prepare`` function, made untimed, if it has one.
_SERVE = r"""
import json as _json, sys as _sys, time as _time
print(_json.dumps(info), flush=True)
for _ in _sys.stdin:
    _row = {}
    for _label, _fn in cases.items():
        _args = (prepare[_label](),) if _label in globals().get("prepare", {}) else ()
        _t0 = _time.perf_counter()
        _fn(*_args)
        _row[_label] = _time.perf_counter() - _t0
    print(_json.dumps(_row), flush=True)
"""


def alternating(parent: str, change: str, probe: str, argv: list, repeat: int,
                env: dict = None) -> dict:
    """``repeat`` timings of each case of ``probe`` in each checkout, the two
    sides in alternation.

    ``probe`` is the source of a script, run once per checkout with
    ``argv``, ``probe_env`` and ``env``, that sets ``info``, a JSON value
    about its cases, ``cases``, a dict of label to function, and optionally
    ``prepare``, a dict of label to a function whose value, made before the
    timing, that case's function is called with.  Repetition
    i times every case once in the parent and then in the change when i is
    even, the other way round when it is odd, so that a change in the
    machine's load reaches both sides.  Returns each side's ``info`` and, per
    case, each side's best and median time in ms and the repetitions the
    change won.
    """
    procs = {side: subprocess.Popen(
        [sys.executable, "-c", probe + _SERVE, *map(str, argv)], cwd=checkout,
        env=dict(probe_env(checkout), **(env or {})), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
        for side, checkout in (("parent", parent), ("change", change))}
    try:
        info = {side: json.loads(proc.stdout.readline()) for side, proc in procs.items()}
        runs = {side: [] for side in procs}
        for i in range(repeat):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                procs[side].stdin.write("\n")
                procs[side].stdin.flush()
                runs[side].append(json.loads(procs[side].stdout.readline()))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    cases = {}
    for label in runs["parent"][0]:
        p = [r[label] for r in runs["parent"]]
        c = [r[label] for r in runs["change"]]
        cases[label] = {"parent_ms": round(min(p) * 1e3, 4), "change_ms": round(min(c) * 1e3, 4),
                        "parent_median_ms": round(statistics.median(p) * 1e3, 4),
                        "change_median_ms": round(statistics.median(c) * 1e3, 4),
                        "change_wins": f"{sum(map(lt, c, p))} of {repeat}"}
    return {"info": info, "cases": cases}


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
    """Every run of ``pairs`` alternating pairs on ``workload``, and per
    end-to-end metric each side's median and quartiles and the pairs the
    change won."""
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


def traced_cycle(checkout: str, workload: str, seed: int) -> dict:
    """The per-layer metrics of one traced cycle (``--trace 1``)."""
    return {name: m["value"] for name, m in
            l4_run(checkout, workload, seed, 1, trace=1)["metrics"].items()}


def claim(result: dict, workload: str) -> dict:
    """The gain rule on ``workload``'s verdicts_per_s: the change wins at
    least nine tenths of the pairs, and the medians differ by more than the
    distance between the parent's quartiles."""
    m = result["metrics"]["verdicts_per_s"]
    wins = sum(map(lambda c, p: c > p, m["change_runs"], m["parent_runs"]))
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gap = m["change"]["median"] - m["parent"]["median"]
    return {"metric": f"verdicts_per_s on {workload}", "parent_median": m["parent"]["median"],
            "parent_iqr": round(iqr, 4), "change_median": m["change"]["median"],
            "change_wins": f"{wins} of {result['pairs']}",
            "met": 10 * wins >= 9 * result["pairs"] and gap > iqr}
