"""Before/after numbers for dense families on hundreds of atoms:
``BENCH_dense_families.json``.

Compares two checkouts of the repository, each holding ``src/interlab`` and
``perfbench/``::

    python3 tools/bench_dense_families.py --parent OLD --change NEW \\
        --seed 7717 --seconds 20 --pairs 10 --out BENCH_dense_families.json

L0-L3, in one fresh process per checkout, rational backing: best of
``--repeat`` timings on the three dense ``check`` families of the full
``wide-atoms`` plan (``perfbench/workloads.py``), one per part of the change,
and on a worst case for the string memo, a 4-member family on 400 atoms
whose 1600 strings are all distinct, and one for the integer ranks (rank
code only, since a verdict would sum the values), 4 members on 400 atoms
whose 1600 denominators are distinct 2000-digit numbers, about pairwise
coprime, so the family is ranked on its Fractions:

* ``intake_ms``: ``build_space`` and ``build_family`` from the scenario
  dict, where each distinct string is now parsed once per call;
* ``rank_code_ms``: ``interchange._rank_code`` on the members, now ranked
  on integer keys while the family's common denominator has at most
  ``interchange._KEY_BITS`` bits;
* ``scan_ms``: ``is_phi_inf_directed`` given the members' and the
  infimum's values, as ``verify_interchange`` calls it, which now builds no
  rank code for two members;
* ``cli_ms``: one in-process ``interlab.cli.main`` verdict on the scenario
  file, whose report must be byte-identical in both checkouts.

A checkout whose ``tests/oracle_helpers.py`` has ``reference_rank_code``
(the ``sorted(set(column))`` code) times its rank code and its verdicts in
alternation with that code in place of ``_rank_code``:
``rank_code_ms_reference`` and ``cli_ms_reference_ranks``, and the number
of the ``--repeat`` alternations the integer ranks won (``rank_code_wins``,
``cli_wins_over_reference_ranks``), so the difference is the integer
ranks' own share.

Inputs: per workload, the share of the scalar strings of the full plan
that repeat a string of the same intake call (a member, a weight list, a
capacity table, an integrand table).

L4: alternating pairs of ``perfbench/run.py --workload W --seed S --seconds T``
run from each checkout's root (``tools/bench_pairs.py``), ``--pairs`` pairs on
every workload.  Then ``--traced-runs`` traced cycles per side (``--trace 1``),
alternating sides, on every workload: ``interchange.subsets_scanned`` of each,
and on ``wide-atoms`` also ``scenario.parse_s`` and ``interchange.scan_s``.
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

# Run in each checkout with src/, perfbench/ and tests/ on the path.
PROBE = r"""
import io, json, os, sys, tempfile, time
from contextlib import redirect_stdout
import workloads
from interlab import interchange
from interlab.cli import main
from interlab.fnlattice import pointwise_inf
from interlab.functionals import make_builtin
from interlab.scenario import build_family, build_space
try:
    from oracle_helpers import reference_rank_code
except ImportError:
    reference_rank_code = None

seed, repeat = int(sys.argv[1]), int(sys.argv[2])
cases = {}
for item in workloads.plan_wide_atoms(seed, False):
    if item["label"] in ("extended_lebesgue-200", "outer-300", "inner-400"):
        cases.setdefault(item["label"], item["scenario"])
atoms = [f"a{i}" for i in range(400)]
cases["distinct-strings-400"] = {
    "space": {"atoms": atoms, "weights": [1] * 400},
    "family": [[f"{k * 400 + i}/{k * 400 + i + 1}" for i in range(400)] for k in range(4)],
    "functional": {"kind": "outer"}}


def best(fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(min(times) * 1e3, 4)


# Best of repeat timings of fn and of reference, run in alternation so that
# a change in the machine's load reaches both, and how many fn won.
def paired(fn, reference):
    a, b = [], []
    for _ in range(repeat):
        for times, f in ((a, fn), (b, reference)):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
    return round(min(a) * 1e3, 4), round(min(b) * 1e3, 4), sum(x < y for x, y in zip(a, b))


def with_reference_ranks(fn):
    own = interchange._rank_code
    interchange._rank_code = reference_rank_code
    try:
        return fn()
    finally:
        interchange._rank_code = own


def verdict(path):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check", path]) == 0
    return out.getvalue()


def rank_code_times(row, members):
    rank = lambda: interchange._rank_code(members)
    if reference_rank_code is None:
        row["rank_code_ms"] = best(rank)
        return
    assert reference_rank_code(members) == rank()
    (row["rank_code_ms"], row["rank_code_ms_reference"],
     row["rank_code_wins"]) = paired(rank, lambda: reference_rank_code(members))


out = {}
with tempfile.TemporaryDirectory() as tmp:
    for label, sc in cases.items():
        path = os.path.join(tmp, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc, fh)
        space = build_space(sc["space"], "rational")
        family = build_family(sc["family"], space)
        phi = make_builtin(sc["functional"]["kind"])
        values = [phi(m) for m in family.members]
        inf = phi(pointwise_inf(family.members))
        row = {
            "members": len(family.members), "atoms": len(space.atoms),
            "intake_ms": best(lambda: build_family(sc["family"],
                                                   build_space(sc["space"], "rational"))),
            "scan_ms": best(lambda: interchange.is_phi_inf_directed(
                family, phi, phi_values=values, phi_inf=inf)),
            "report": verdict(path),
        }
        rank_code_times(row, family.members)
        if reference_rank_code is None:
            row["cli_ms"] = best(lambda: verdict(path))
        else:
            assert with_reference_ranks(lambda: verdict(path)) == row["report"]
            (row["cli_ms"], row["cli_ms_reference_ranks"],
             row["cli_wins_over_reference_ranks"]) = paired(
                lambda: verdict(path), lambda: with_reference_ranks(lambda: verdict(path)))
        out[label] = row
space = build_space({"atoms": atoms, "weights": [1] * 400}, "rational")
members = build_family([[f"{k * 400 + i + 1}/{10 ** 2000 + 2 * (k * 400 + i) + 1}"
                         for i in range(400)] for k in range(4)], space).members
row = {"members": 4, "atoms": 400}
rank_code_times(row, members)
out["large-denominators-400"] = row
print(json.dumps(out))
"""


def probe(checkout: str, seed: int, repeat: int) -> dict:
    env = probe_env(checkout)
    env["PYTHONPATH"] += os.pathsep + os.path.join(checkout, "tests")
    proc = subprocess.run([sys.executable, "-c", PROBE, str(seed), str(repeat)],
                          cwd=checkout, env=dict(env, INTERLAB_BACKING="rational"),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# Probe of the inputs: each intake call's scalars, from the full plans.
SHARES = r"""
import json, sys
import workloads

def intakes_api(item):
    yield item["weights"]
    yield from item["family"]
    if "capacity" in item:
        yield [v for _, v in item["capacity"]]

def intakes_cli(sc):
    if "space" in sc:
        yield sc["space"]["weights"]
    if isinstance(sc.get("family"), list):
        yield from sc["family"]
    cap = sc.get("functional", {}).get("capacity", {})
    if cap.get("kind") == "table":
        yield list(cap["values"].values())
    if "integrand" in sc:
        yield [v for row in sc["integrand"]["table"] for v in row]
    if "declared_gflat" in sc:
        yield sc["declared_gflat"]

out = {}
for name, plan in (("small-families", workloads.plan_small_families),
                   ("wide-families", workloads.plan_wide_families),
                   ("wide-atoms", workloads.plan_wide_atoms),
                   ("selections", workloads.plan_selections)):
    scalars = strings = repeated = 0
    for item in plan(int(sys.argv[1]), False):
        calls = intakes_cli(item["scenario"]) if "scenario" in item else (
            intakes_api(item) if "family" in item else ())
        for values in calls:
            texts = [v for v in values if type(v) is str]
            scalars += len(values)
            strings += len(texts)
            repeated += len(texts) - len(set(texts))
    out[name] = {"scalars": scalars, "strings": strings, "repeated_strings": repeated,
                 "repeated_share_of_strings": round(repeated / strings, 4) if strings else 0.0}
print(json.dumps(out))
"""


def input_shares(checkout: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", SHARES, str(seed)], cwd=checkout,
                          env=probe_env(checkout), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


TRACED = ("interchange.subsets_scanned", "scenario.parse_s", "interchange.scan_s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=7717)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--traced-runs", type=int, default=5)
    parser.add_argument("--out", default="BENCH_dense_families.json")
    args = parser.parse_args()

    sides = (("parent", args.parent), ("change", args.change))
    in_process = {side: probe(checkout, args.seed, args.repeat) for side, checkout in sides}
    for label, row in in_process["parent"].items():
        assert row.pop("report", None) == in_process["change"][label].pop("report", None), label
    result = {
        "topic": "Dense families on hundreds of atoms: each distinct scalar string parsed "
                 "once per intake call, no rank code for a scan that is given every "
                 "subset's score, and integer rank keys under rational backing",
        "layer": "L0 (extreal.coerce_all), L3 (interchange._rank_code, _scan_subsets); "
                 "L4 all four workloads",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "command": " ".join(["python3", "tools/bench_dense_families.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "in_process_rational": in_process,
        "input_strings": input_shares(args.change, args.seed),
        "l4": {workload: l4(args.parent, args.change, workload, args.seed, args.seconds,
                            args.pairs)
               for workload in WORKLOADS},
    }
    traced = {workload: {"parent": [], "change": []} for workload in WORKLOADS}
    for i in range(args.traced_runs):
        for workload in WORKLOADS:
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                traced[workload][side].append(traced_cycle(checkout, workload, args.seed))
    result["traced"] = {
        workload: {side: {name: {"runs": [round(r[name], 6) for r in runs],
                                 "median": round(statistics.median(r[name] for r in runs), 6)}
                          for name in (TRACED if workload == "wide-atoms" else TRACED[:1])}
                   for side, runs in by_side.items()}
        for workload, by_side in traced.items()}
    # Where the time of a wide-atoms cycle goes, from each side's first traced cycle.
    result["traced_wide_atoms_per_cycle"] = {
        side: runs[0] for side, runs in traced["wide-atoms"].items()}
    result["claim"] = claim(result["l4"]["wide-atoms"], "wide-atoms")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
