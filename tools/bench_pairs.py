"""Alternating runs of ``perfbench/run.py`` (``l4``) and of in-process
probes (``alternating``) in two checkouts, ``sides`` "parent" and "change":
the parent first in pair i when i is even, the change first when it is odd.
"""

import json
import os
import statistics
import subprocess
import sys
from operator import lt

METRICS = ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"verdicts_per_s"}
WORKLOADS = ("small-families", "wide-families", "wide-atoms", "selections")
SIDES = ("parent", "change")

def run_env(checkout: str = None, env: dict = None) -> dict:
    """``env`` and no bytecode written, as the benchmark runs; for a probe of
    ``checkout``, its ``src``, ``perfbench`` and ``tests`` on the path."""
    out = dict(os.environ, **(env or {}), PYTHONDONTWRITEBYTECODE="1")
    if checkout:
        out["PYTHONPATH"] = os.pathsep.join(os.path.join(checkout, d)
                                            for d in ("src", "perfbench", "tests"))
    return out


def run_probe(checkout: str, probe: str, argv: list, env: dict = None):
    """The JSON value that the script ``probe`` prints, run once in
    ``checkout`` with ``argv`` and ``run_env(checkout, env)``."""
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], cwd=checkout,
                          env=run_env(checkout, env), stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout)


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


def alternating(sides: dict, probe: str, argv: list, repeat: int, env: dict = None) -> dict:
    """Each case of ``probe`` timed ``repeat`` times in each checkout, the
    sides alternating.  ``probe``, run as ``run_probe`` runs one, sets
    ``info``, a JSON value, ``cases``, a dict of label to function, and
    optionally ``prepare``, label to a function whose value, made untimed,
    that case is called with.  Returns the ``info``, which must be the same
    on both sides, and per case each side's best and median ms and the
    repetitions the change won."""
    procs = {side: subprocess.Popen(
        [sys.executable, "-c", probe + _SERVE, *map(str, argv)], cwd=checkout,
        env=run_env(checkout, env), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, checkout in sides.items()}
    try:
        info = {side: json.loads(proc.stdout.readline()) for side, proc in procs.items()}
        assert info["parent"] == info["change"], "the two checkouts' probes differ"
        runs = {side: [] for side in procs}
        for i in range(repeat):
            for side in SIDES[::-1] if i % 2 else SIDES:
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
    return {"info": info["change"], "cases": cases}


def l4_run(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=run_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def l4(sides: dict, workload: str, seed: int, seconds: float, pairs: int) -> dict:
    """Every run of ``pairs`` alternating pairs on ``workload``, and per
    end-to-end metric each side's median and quartiles and the pairs the
    change won."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES[::-1] if i % 2 else SIDES:
            runs[side].append(l4_run(sides[side], workload, seed, seconds))
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
