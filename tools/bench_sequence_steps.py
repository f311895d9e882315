"""Before/after numbers for sequence prefixes followed by declared steps:
``BENCH_sequence_steps.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_sequence_steps.py --parent OLD --change NEW \\
        --seed 4157 --seconds 20 --pairs 10 --other-pairs 3 --out BENCH_sequence_steps.json

L3, in one fresh process per checkout: an in-process
``gallery example-2-6 --prefix N`` for N in ``--prefixes`` under both
backings, best of ``--repeat`` wall times after one warm-up run, the
tracemalloc peak of one more run, and the sha256 of the report, which must
be the same in both checkouts.

L4: alternating pairs of ``perfbench/run.py`` (see ``bench_pairs``),
``--pairs`` pairs on ``wide-atoms``, the workload that runs example-2-6, and
``--other-pairs`` on each other workload (0 skips them).  Then one traced
``wide-atoms`` cycle per side at ``--trace-seed`` gives the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from bench_pairs import WORKLOADS, claim, l4, probe_env, traced_cycle

# Run in each checkout with src/ on the path.
L3_PROBE = r"""
import contextlib, hashlib, io, json, os, sys, time, tracemalloc
from interlab import cli

def run(prefix):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gallery", "example-2-6", "--prefix", str(prefix)]) == 0
    return out.getvalue()

prefixes, repeat = json.loads(sys.argv[1]), int(sys.argv[2])
result = {}
for backing in ("rational", "float"):
    os.environ["INTERLAB_BACKING"] = backing
    for prefix in prefixes:
        report = run(prefix)
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            run(prefix)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        run(prefix)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        result[f"{backing}/{prefix}"] = {
            "best_s": round(min(times), 4),
            "traced_peak_mb": round(peak / 1e6, 2),
            "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        }
print(json.dumps(result))
"""


def l3(checkout: str, prefixes: list, repeat: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", L3_PROBE, json.dumps(prefixes), str(repeat)],
                          cwd=checkout, env=probe_env(checkout), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=4157)
    parser.add_argument("--trace-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--prefixes", type=int, nargs="+", default=[250, 1000, 2000])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", default="BENCH_sequence_steps.json")
    args = parser.parse_args()

    l3_result = {side: l3(checkout, args.prefixes, args.repeat)
                 for side, checkout in (("parent", args.parent), ("change", args.change))}
    digests = {side: {case: r["report_sha256"] for case, r in cases.items()}
               for side, cases in l3_result.items()}
    if digests["parent"] != digests["change"]:
        sys.exit("the two checkouts print different example-2-6 reports")
    result = {
        "command": " ".join(["python3", "tools/bench_sequence_steps.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_in_process": l3_result,
        "l4": {"wide-atoms": l4(args.parent, args.change, "wide-atoms", args.seed,
                                args.seconds, args.pairs)},
        # One traced cycle per side: where the time of a wide-atoms cycle goes.
        f"traced_wide_atoms_per_cycle_seed_{args.trace_seed}": {
            side: traced_cycle(checkout, "wide-atoms", args.trace_seed)
            for side, checkout in (("parent", args.parent), ("change", args.change))},
    }
    result["claim"] = claim(result["l4"]["wide-atoms"], "wide-atoms")
    for workload in [w for w in WORKLOADS if w != "wide-atoms"] if args.other_pairs else ():
        result["l4"][workload] = l4(args.parent, args.change, workload, args.seed,
                                    args.seconds, args.other_pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
