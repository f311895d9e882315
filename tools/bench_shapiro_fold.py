"""Before/after numbers for Shapiro's conclusion fold: ``BENCH_shapiro_fold.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_shapiro_fold.py --parent OLD --change NEW \\
        --seed 2718 --seconds 20 --pairs 10 --other-pairs 3 --out BENCH_shapiro_fold.json

L3, in one process per checkout, the two checkouts timed in alternation per
repetition (``bench_pairs.alternating``): the Shapiro scenarios of the full
``selections`` plan (``perfbench/workloads.py``, float backing, as the
workload runs them), ``--repeat`` timings of the conclusion alone (the
minimum over the selection set as the checkout computes it) and of a whole
``verify_shapiro``; per case each side's best and median time and the
repetitions the change won.  Both checkouts must report the same
conclusion.

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
import sys

from bench_pairs import WORKLOADS, alternating, claim, l4, traced_cycle

# Run in each checkout with src/ and perfbench/ on the path.
L3_PROBE = r"""
import sys
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

info, cases = {}, {}
for item in workloads.plan_selections(int(sys.argv[1]), False):
    if item["command"] != "shapiro-check":
        continue
    sc, _ = read_shapiro(item["scenario"], {"backing": "float"})
    report = decomposable.verify_shapiro(sc)
    assert repr(conclusion(sc)) == repr(report.conclusion_lhs)
    label = item["label"]
    info[label] = {"selections": sc.selection_set.count(),
                   "conclusion_lhs": repr(report.conclusion_lhs)}
    cases[label + "/conclusion"] = lambda sc=sc: conclusion(sc)
    cases[label + "/verify_shapiro"] = lambda sc=sc: decomposable.verify_shapiro(sc)
"""


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

    l3 = alternating(args.parent, args.change, L3_PROBE, [args.seed], args.repeat)
    assert l3["info"]["parent"] == l3["info"]["change"], "the conclusions differ"
    result = {
        "command": " ".join(["python3", "tools/bench_shapiro_fold.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_alternating": {"scenarios": l3["info"]["change"], "cases": l3["cases"]},
        "l4": {"selections": l4(args.parent, args.change, "selections", args.seed,
                                args.seconds, args.pairs)},
        # One traced cycle per side: where the time of a selections cycle goes.
        "traced_selections_per_cycle": {
            side: traced_cycle(checkout, "selections", args.seed)
            for side, checkout in (("parent", args.parent), ("change", args.change))},
    }
    result["claim"] = claim(result["l4"]["selections"], "selections")
    for workload in [w for w in WORKLOADS if w != "selections"] if args.other_pairs else ():
        result["l4"][workload] = l4(args.parent, args.change, workload, args.seed,
                                    args.seconds, args.other_pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
