"""Before/after numbers for the patch-closure check on integer codes:
``BENCH_explicit_sets.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_explicit_sets.py --parent OLD --change NEW \\
        --seed 5171 --seconds 20 --pairs 10 --out BENCH_explicit_sets.json

L3, in one process per checkout and backing, the two checkouts timed in
alternation per repetition (``bench_pairs.alternating``): ``--repeat``
timings of ``is_decomposable`` on the ``explicit-243`` set of the full
``selections`` plan (``perfbench/workloads.py``) and on a shuffled explicit
4^7 full product, each time on a freshly built ``SelectionSet``, so the
projections are computed inside the timing; per case each side's best and
median time and the repetitions the change won.  Both checkouts must give
the same verdict and witness.

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
import sys

from bench_pairs import WORKLOADS, alternating, claim, l4, traced_cycle

BACKINGS = ("rational", "float")

# Run in each checkout with src/ and perfbench/ on the path.
L3_PROBE = r"""
import random, sys
from itertools import product
import workloads
from interlab.decomposable import is_decomposable
from interlab.scenario import read_selection_set

seed, backing = int(sys.argv[1]), sys.argv[2]
sets = {}
for item in workloads.plan_selections(seed, False):
    if item["label"] == "explicit-243" and "explicit-243" not in sets:
        sc = item["scenario"]
        sets["explicit-243"] = (sc["selection_set"], len(sc["integrand"]["table"]),
                                len(sc["integrand"]["controls"]))
sels = [list(s) for s in product(range(4), repeat=7)]
random.Random(seed).shuffle(sels)
sets["shuffled-explicit-4^7"] = ({"kind": "explicit", "selections": sels}, 7, 4)

info, cases, prepare = {}, {}, {}
for label, args in sets.items():
    u_set = read_selection_set(*args)
    report = is_decomposable(u_set)
    info[label] = {"selections": u_set.count(), "backing": backing,
                   "decomposable": report.decomposable, "witness_patch": report.witness_patch}
    cases[label] = is_decomposable
    prepare[label] = lambda args=args: read_selection_set(*args)
"""


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

    l3_runs = {backing: alternating(args.parent, args.change, L3_PROBE, [args.seed, backing],
                                    args.repeat, env={"INTERLAB_BACKING": backing})
               for backing in BACKINGS}
    for backing, run in l3_runs.items():
        assert run["info"]["parent"] == run["info"]["change"], backing
    result = {
        "command": " ".join(["python3", "tools/bench_explicit_sets.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_alternating": {backing: {"sets": run["info"]["change"], "cases": run["cases"]}
                           for backing, run in l3_runs.items()},
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
