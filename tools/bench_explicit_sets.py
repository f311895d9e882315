"""Before/after numbers for the patch-closure check on integer codes:
``BENCH_explicit_sets.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_explicit_sets.py --parent OLD --change NEW \\
        --seed 5171 --seconds 20 --pairs 10 --out BENCH_explicit_sets.json

L3, in one fresh process per checkout and backing: best of ``--repeat``
timings of ``is_decomposable`` on the ``explicit-243`` set of the full
``selections`` plan (``perfbench/workloads.py``) and on a shuffled explicit
4^7 full product, each time on a freshly built ``SelectionSet``, so the
projections are computed inside the timing; both checkouts must give the
same verdict and witness.

L4: alternating pairs of ``perfbench/run.py --workload W --seed S --seconds T``
run from each checkout's root, the parent first in even pairs and the change
first in odd ones, ``--pairs`` pairs on every workload.  For each end-to-end
metric the file holds every run, the median and quartiles per side, and the
pairs the change won.  Then ``--traced-runs`` traced ``selections`` cycles
per side (``--trace 1``), alternating sides, give the per-layer metrics of
the first and ``decomposable.patch_check_s`` of each: a traced cycle times
each ``is_decomposable`` call once, cold, so one cycle alone is noisy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from bench_pairs import WORKLOADS, claim, l4, probe_env, traced_cycle

BACKINGS = ("rational", "float")

# Run in each checkout with src/ and perfbench/ on the path.
L3_PROBE = r"""
import json, random, sys, time
from itertools import product
import workloads
from interlab.decomposable import is_decomposable
from interlab.scenario import read_selection_set

seed, repeat, backing = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
cases = {}
for item in workloads.plan_selections(seed, False):
    if item["label"] == "explicit-243" and "explicit-243" not in cases:
        sc = item["scenario"]
        cases["explicit-243"] = (sc["selection_set"], len(sc["integrand"]["table"]),
                                 len(sc["integrand"]["controls"]))
sels = [list(s) for s in product(range(4), repeat=7)]
random.Random(seed).shuffle(sels)
cases["shuffled-explicit-4^7"] = ({"kind": "explicit", "selections": sels}, 7, 4)

out = {}
for label, (obj, n_atoms, n_controls) in cases.items():
    times, report = [], None
    for _ in range(repeat):
        u_set = read_selection_set(obj, n_atoms, n_controls)
        t0 = time.perf_counter()
        report = is_decomposable(u_set)
        times.append(time.perf_counter() - t0)
    out[label] = {"selections": u_set.count(), "backing": backing,
                  "decomposable": report.decomposable, "witness_patch": report.witness_patch,
                  "is_decomposable_ms": round(min(times) * 1e3, 4)}
print(json.dumps(out))
"""


def l3(checkout: str, seed: int, repeat: int, backing: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", L3_PROBE, str(seed), str(repeat), backing],
                          cwd=checkout, env=dict(probe_env(checkout), INTERLAB_BACKING=backing),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=5171)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--traced-runs", type=int, default=5)
    parser.add_argument("--out", default="BENCH_explicit_sets.json")
    args = parser.parse_args()

    l3_runs = {side: {backing: l3(checkout, args.seed, args.repeat, backing)
                      for backing in BACKINGS}
               for side, checkout in (("parent", args.parent), ("change", args.change))}
    for backing in BACKINGS:
        for label, row in l3_runs["parent"][backing].items():
            other = l3_runs["change"][backing][label]
            assert (row["decomposable"], row["witness_patch"]) == \
                (other["decomposable"], other["witness_patch"]), (backing, label)
    result = {
        "command": " ".join(["python3", "tools/bench_explicit_sets.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_in_process": l3_runs,
        "l4": {workload: l4(args.parent, args.change, workload, args.seed, args.seconds,
                            args.pairs)
               for workload in WORKLOADS},
    }
    traced = {"parent": [], "change": []}
    for i in range(args.traced_runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            traced[side].append(traced_cycle(args.parent if side == "parent" else args.change,
                                             "selections", args.seed))
    # Where the time of a selections cycle goes, from each side's first traced cycle.
    result["traced_selections_per_cycle"] = {side: runs[0] for side, runs in traced.items()}
    result["traced_patch_check_s"] = {
        side: {"runs": [round(r["decomposable.patch_check_s"], 6) for r in runs],
               "median": round(statistics.median(r["decomposable.patch_check_s"]
                                                 for r in runs), 6)}
        for side, runs in traced.items()}
    result["claim"] = claim(result["l4"]["selections"], "selections")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
