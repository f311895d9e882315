"""Before/after numbers for the directedness scan on level keys and pass/fail
rank tables: ``BENCH_level_scan.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_level_scan.py --parent OLD --change NEW \\
        --seed 8123 --seconds 20 --pairs 10 --out BENCH_level_scan.json

L3, in-process, rational backing, parent and change timed in alternation
per repetition (``bench_pairs.alternating``), ``--repeat`` repetitions:

* ``wide-NN-<case>``: ``verify_interchange`` on each case of the full
  ``wide-families`` plan (``perfbench/workloads.py``); both checkouts must
  give the same report;
* ``small-<n>-members-x<count>``: every ``small-families`` verdict of n
  members, n = 1..5, whose scans keep the per-subset ANDs.

``cutoff``, in the change checkout alone: ``is_phi_inf_directed`` on five
directed families of n members on 8 atoms (n - 1 random members of the
``wide-families`` value grid and their minimum), as ``verify_interchange``
calls it, with ``interchange._LEVEL_KEYS_FROM`` set to 1 (level keys) and
to n + 1 (each subset's rows ANDed) in alternation, n = 3..12, per
functional: the best time per scan of each and the repetitions the level
keys won.

``recheck``: per covering case of the plan, in each checkout, the Phi
evaluations of its verdict beyond the members and inf X (the change
re-scores a witness that a rank table failed), and the best time of Phi on
the witness's infimum built by ``pointwise_inf``, more than the re-check
pays, since it decodes the infimum from its key.

L4: alternating pairs of ``perfbench/run.py --workload W --seed S --seconds T``
run from each checkout's root (``tools/bench_pairs.py``), ``--pairs`` pairs on
every workload.  Then ``--traced-runs`` traced ``wide-families`` cycles per
side (``--trace 1``), alternating sides: ``interchange.subsets_scanned``,
``functionals.phi_evals``, ``interchange.us_per_subset`` and
``interchange.scan_s`` of each, and one traced cycle per side at each of
seeds 0, 1 and 2, the seeds of the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from bench_pairs import WORKLOADS, alternating, claim, l4, probe_env, traced_cycle

# Both probes build the API cases of a plan as perfbench/run.py does.
_API = r"""
import sys
from types import SimpleNamespace
import interlab, workloads
from interlab import interchange
il = SimpleNamespace(MeasureSpace=interlab.MeasureSpace, FnClass=interlab.FnClass,
                     Family=interlab.Family, Capacity=interlab.Capacity,
                     make_builtin=interlab.make_builtin, interchange=interchange)
"""

# Run in each checkout with src/ and perfbench/ on the path.
L3_PROBE = _API + r"""
from interlab.extreal import to_json
seed = int(sys.argv[1])
wide = workloads.plan_wide_families(seed, False)
small = workloads.plan_small_families(seed, False)
info, cases = {}, {}
for i, (item, case) in enumerate(zip(wide, workloads._build_api(wide, il))):
    report = case.run()
    assert case.check(report) is None, item["label"]
    label = f"wide-{i:02d}-{item['label']}"
    info[label] = to_json(report)
    cases[label] = case.run
small_cases = list(zip(small, workloads._build_api(small, il)))
for item, case in small_cases:
    assert case.check(case.run()) is None, item["label"]
for n in range(1, 6):
    runs = [case.run for item, case in small_cases if len(item["family"]) == n]
    cases[f"small-{n}-members-x{len(runs)}"] = lambda runs=runs: [run() for run in runs]
"""

CUTOFF_PROBE = r"""
import json, random, sys, time
from interlab import interchange
from interlab.fnlattice import FnClass, pointwise_inf
from interlab.functionals import make_builtin
from interlab.interchange import Family, is_phi_inf_directed
from interlab.measure import MeasureSpace
import workloads

seed, repeat = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(f"cutoff:{seed}")
space = MeasureSpace([f"a{i}" for i in range(8)],
                     [rng.choice(workloads.WIDE_WEIGHTS) for _ in range(8)])
out = {}
for kind in ("extended_lebesgue", "ess_sup"):
    phi = make_builtin(kind)
    rows_out = {}
    for n in range(3, 13):
        scans = []
        for _ in range(5):
            rows = [FnClass(space, [rng.choice(workloads.WIDE_VALUES) for _ in range(8)])
                    for _ in range(n - 1)]
            family = Family(rows + [pointwise_inf(rows)])
            scans.append((family, [phi(m) for m in family.members],
                          phi(pointwise_inf(family.members))))
        times = {"level": [], "inf_key": []}
        reps = max(repeat, (repeat * 256) >> n)
        for r in range(reps):
            for mode in ("level", "inf_key") if r % 2 == 0 else ("inf_key", "level"):
                interchange._LEVEL_KEYS_FROM = 1 if mode == "level" else n + 1
                t0 = time.perf_counter()
                for family, values, inf in scans:
                    is_phi_inf_directed(family, phi, phi_values=values, phi_inf=inf)
                times[mode].append((time.perf_counter() - t0) / len(scans))
        level, plain = min(times["level"]), min(times["inf_key"])
        wins = sum(a < b for a, b in zip(times["level"], times["inf_key"]))
        rows_out[n] = {"level_us": round(level * 1e6, 2), "inf_key_us": round(plain * 1e6, 2),
                       "ratio": round(level / plain, 3), "level_wins": f"{wins} of {reps}"}
    out[kind] = rows_out
print(json.dumps(out))
"""

RECHECK_PROBE = _API + r"""
import json, time
from interlab import functionals
from interlab.fnlattice import pointwise_inf
seed, repeat = int(sys.argv[1]), int(sys.argv[2])
wide = workloads.plan_wide_families(seed, False)
calls = [0]
call = functionals.Functional.__call__
def counted(self, f):
    calls[0] += 1
    return call(self, f)
out = {}
for i, (item, case) in enumerate(zip(wide, workloads._build_api(wide, il))):
    if not item["label"].startswith("covering"):
        continue
    functionals.Functional.__call__ = counted
    calls[0] = 0
    report = case.run()
    functionals.Functional.__call__ = call
    space = il.MeasureSpace(item["atoms"], item["weights"])
    family = [il.FnClass(space, row) for row in item["family"]]
    phi = il.make_builtin(item["kind"])
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        phi(pointwise_inf([family[j] for j in report.witness]))
        times.append(time.perf_counter() - t0)
    out[f"wide-{i:02d}-{item['label']}"] = {
        "scan_phi_evals": calls[0] - len(family) - 1,
        "witness_score_us": round(min(times) * 1e6, 2)}
print(json.dumps(out))
"""


def run_probe(checkout: str, probe: str, *argv) -> dict:
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], cwd=checkout,
                          env=probe_env(checkout), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


TRACED = ("interchange.subsets_scanned", "functionals.phi_evals",
          "interchange.us_per_subset", "interchange.scan_s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=8123)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=40)
    parser.add_argument("--traced-runs", type=int, default=5)
    parser.add_argument("--out", default="BENCH_level_scan.json")
    args = parser.parse_args()

    sides = (("parent", args.parent), ("change", args.change))
    l3 = alternating(args.parent, args.change, L3_PROBE, [args.seed], args.repeat)
    assert l3["info"]["parent"] == l3["info"]["change"], "the reports differ"
    recheck = {side: run_probe(checkout, RECHECK_PROBE, args.seed, args.repeat)
               for side, checkout in sides}
    result = {
        "topic": "Directedness scan on 9-12-member families: one AND per subset from the "
                 "size below, and rank tables that answer pass/fail on integers",
        "layer": "L1 (fnlattice.ess_sup_table), L2 (integrals._integral_table), "
                 "L3 (interchange._level_keys, _scan_subsets); L4 all four workloads",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "command": " ".join(["python3", "tools/bench_level_scan.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_alternating_rational": l3["cases"],
        "cutoff": run_probe(args.change, CUTOFF_PROBE, args.seed, args.repeat),
        "recheck": recheck,
        "l4": {workload: l4(args.parent, args.change, workload, args.seed, args.seconds,
                            args.pairs)
               for workload in WORKLOADS},
    }
    traced = {"parent": [], "change": []}
    for i in range(args.traced_runs):
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            traced[side].append(traced_cycle(checkout, "wide-families", args.seed))
    result["traced_wide_families"] = {
        side: {name: {"runs": [round(r[name], 6) for r in runs],
                      "median": round(statistics.median(r[name] for r in runs), 6)}
               for name in TRACED}
        for side, runs in traced.items()}
    result["traced_gate_seeds"] = {}
    for seed in (0, 1, 2):
        cycles = {side: traced_cycle(checkout, "wide-families", seed) for side, checkout in sides}
        result["traced_gate_seeds"][seed] = {
            side: {name: cycle[name] for name in TRACED[:2]} for side, cycle in cycles.items()}
    result["claim"] = claim(result["l4"]["wide-families"], "wide-families")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
