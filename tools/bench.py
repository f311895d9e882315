"""Before/after numbers for any change, parent checkout against change, each
holding ``src/interlab`` and ``perfbench/``::

    python3 tools/bench.py --parent OLD --change NEW --seed S --out BENCH_<topic>.json \\
        --claim selections verdicts_per_s

One probe serves every change.  In each checkout it plans every workload of
``perfbench/workloads.py`` at ``--seed``, full size, builds its cases as
``perfbench/run.py`` does, checks every verdict against its known answer and
digests the reports; both checkouts must give the same digests.  The JSON
holds ``in_process``, each workload's case count and digest and one cycle
per workload timed ``--repeat`` times per side, the sides alternating;
``l4``, ``--pairs`` alternating pairs of ``perfbench/run.py`` on every
workload (0 skips them); ``traced``, ``--traced-runs`` traced cycles per side
on every workload, each per-layer counter summarized; and with ``--claim``,
the gain rule on that workload's metric.

A change adds no probe or case here: what it claims shows on a workload of
the benchmark, or the benchmark gains that workload first, in a change of
its own.
"""

import argparse
import ast
import json
import os
import platform
import statistics
import sys
import tempfile

from bench_pairs import METRICS, SIDES, WORKLOADS, alternating, claim, l4, l4_run, run_probe

# Run in a checkout: ``info`` holds each workload's case count and the sha256
# of its reports, ``cases`` a function per workload that runs its cycle.
PROBE = r"""
import hashlib, json, os, sys, tempfile
import run
from interlab.extreal import to_json
from workloads import WORKLOADS, write_scenarios

tmp = tempfile.TemporaryDirectory()
info, cases = {}, {}
for name, workload in WORKLOADS.items():
    os.environ["INTERLAB_BACKING"] = workload.backing
    items = workload.plan(int(sys.argv[1]), False)
    workdir = os.path.join(tmp.name, name)
    os.mkdir(workdir)
    if workload.cli:
        write_scenarios(items, workdir)
    built = workload.build(items, run.import_interlab(workload.cli), workdir)
    digest = hashlib.sha256()
    for case in built:
        result = case.run()
        error = case.check(result)
        if error is not None:
            sys.exit(f"{name} {case.label}: {error}")
        if workload.cli:  # each CLI case writes its report to this file
            with open(os.path.join(workdir, "report.json"), "rb") as fh:
                digest.update(fh.read())
        else:
            digest.update(json.dumps(to_json(result)).encode())
    info[name] = {"cases": len(built), "sha256": digest.hexdigest()}

    def cycle(built=built, backing=workload.backing):
        os.environ["INTERLAB_BACKING"] = backing
        for case in built:
            case.run()
    cases[name] = cycle
"""

# Run once per driver run in each checkout: imports every module of
# src/interlab and perfbench/ and each module the probe imports, then
# compiles the standard-library sources among them into the bytecode
# prefix.  ``run_env`` writes no other bytecode, so a checkout's own sources
# stay uncompiled.
STDLIB_PROBE = r"""
import importlib, json, os, pkgutil, py_compile, sys, sysconfig
import interlab
names = [f"interlab.{m.name}" for m in pkgutil.iter_modules(interlab.__path__)]
for name in names + [m.name for m in pkgutil.iter_modules(["perfbench"])] + sys.argv[1:]:
    importlib.import_module(name)
paths = sysconfig.get_paths()
stdlib = tuple(os.path.join(paths[k], "") for k in ("stdlib", "platstdlib"))
site = tuple(os.path.join(paths[k], "") for k in ("purelib", "platlib"))
sources = sorted({m.__file__ for m in list(sys.modules.values())
                  if str(getattr(m, "__file__", "")).endswith(".py")
                  and m.__file__.startswith(stdlib) and not m.__file__.startswith(site)})
for source in sources:
    py_compile.compile(source, doraise=True)
print(json.dumps(len(sources)))
"""


def compile_stdlib(sides: dict) -> None:
    """The standard-library modules that the probe and ``perfbench/run.py``
    import, compiled into ``PYTHONPYCACHEPREFIX`` for each checkout."""
    names = {alias.name for node in ast.walk(ast.parse(PROBE))
             if isinstance(node, ast.Import) for alias in node.names}
    for checkout in dict.fromkeys(sides.values()):
        run_probe(checkout, STDLIB_PROBE, sorted(names))


def traced(sides: dict, seed: int, runs: int) -> dict:
    """``runs`` traced cycles per side on every workload at ``seed``, the
    sides alternating: each per-layer counter's runs and median per side."""
    out = {}
    for workload in WORKLOADS if runs else ():
        cycles = {side: [] for side in SIDES}
        for i in range(runs):
            for side in SIDES[::-1] if i % 2 else SIDES:
                cycles[side].append({name: m["value"] for name, m in l4_run(
                    sides[side], workload, seed, 1, trace=1)["metrics"].items()})
        out[workload] = {side: {name: {"runs": [round(c[name], 6) for c in cs],
                                       "median": round(statistics.median(c[name] for c in cs), 6)}
                                for name in cs[0]}
                         for side, cs in cycles.items()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10, help="0 skips L4; else at least 2")
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--traced-runs", type=int, default=5)
    args = parser.parse_args()
    if args.pairs == 1:
        parser.error("--pairs is 0 or at least 2")
    if args.claim and (args.claim[0] not in WORKLOADS or args.claim[1] not in METRICS):
        parser.error(f"--claim takes a workload of {WORKLOADS} and a metric of {METRICS}")
    if args.claim and not args.pairs:
        parser.error("--claim reads the L4 pairs; --pairs is 0")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    # Every process started below looks its bytecode up in this directory,
    # which holds the standard library's only (``run_env`` writes none), so
    # it reads no checkout's __pycache__ and compiles both sides alike.
    prefix = tempfile.TemporaryDirectory(prefix="bench-pycache-")
    os.environ["PYTHONPYCACHEPREFIX"] = prefix.name
    compile_stdlib(sides)
    result = {
        "command": " ".join(["python3", "tools/bench.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, CPython {platform.python_version()}",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "in_process": alternating(sides, PROBE, [args.seed], args.repeat),
        "l4": {workload: l4(sides, workload, args.seed, args.seconds, args.pairs)
               for workload in WORKLOADS if args.pairs},
        "traced": traced(sides, args.seed, args.traced_runs),
    }
    if args.claim:
        workload, metric = args.claim
        result["claim"] = claim(result["l4"][workload], workload, metric)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
