"""Before/after numbers for the one exact integer code of ``extreal``:
``BENCH_exact_codes.json``.

Compares two checkouts of the repository, each holding ``src/interlab``,
``perfbench/`` and ``tests/golden/scenarios``::

    python3 tools/bench_exact_codes.py --parent OLD --change NEW \\
        --seed 5813 --repeat 100 --pairs 5 --seconds 20 --out BENCH_exact_codes.json

L0-L3, in one process per checkout, rational backing unless named, the two
checkouts timed in alternation per repetition (``bench_pairs.alternating``),
best and median of ``--repeat`` timings:

* ``rw-4^7-<backing>-<finite|inf>``: ``verify_rw_interchange`` on the full
  4^7 product of weights 1/2 and integer values, finite or with one entry
  +inf, under rational and float backing;
* ``wide-families-directed-12``: ``verify_interchange`` on the directed
  12-member family of the full ``wide-families`` plan
  (``perfbench/workloads.py``), whose 4095 subsets the scan scores from the
  rank table on finite values;
* ``rank-code-inner-400``: ``interchange._rank_code`` on the members of the
  ``inner-400`` family of the full ``wide-atoms`` plan;
* ``check-lebesgue-inf``, ``check-outer-inf``, ``check-inner-inf-column``:
  ``verify_interchange`` on the golden families with infinite values on
  atoms of positive weight.

Each case's report (or, for the rank code, the sha256 of its output) must be
the same in both checkouts.

L4: ``--pairs`` alternating pairs of ``perfbench/run.py --workload W --seed S
--seconds T`` on every workload (``bench_pairs.l4``); 0 skips them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from bench_pairs import WORKLOADS, alternating, l4

# Run in each checkout, from its root, with src/ and perfbench/ on the path.
L3_PROBE = r"""
import hashlib, json, sys
from pathlib import Path
from types import SimpleNamespace
import interlab, workloads
from interlab import interchange
from interlab.decomposable import Integrand, SelectionSet, verify_rw_interchange
from interlab.extreal import to_json
from interlab.functionals import make_builtin
from interlab.measure import MeasureSpace
from interlab.scenario import build_family, build_space

seed = int(sys.argv[1])
info, cases = {}, {}

for backing in ("rational", "float"):
    for infinite in (False, True):
        space = MeasureSpace([f"a{i}" for i in range(7)], ["1/2"] * 7, backing=backing)
        table = [[(i + 3 * c) % 7 + 1 for c in range(4)] for i in range(7)]
        if infinite:
            table[2][1] = "+inf"
        args = (Integrand(space, [[c] for c in range(4)], table), SelectionSet.full_product(7, 4))
        label = f"rw-4^7-{backing}-{'inf' if infinite else 'finite'}"
        info[label] = to_json(verify_rw_interchange(*args))
        cases[label] = lambda args=args: verify_rw_interchange(*args)

il = SimpleNamespace(MeasureSpace=interlab.MeasureSpace, FnClass=interlab.FnClass,
                     Family=interlab.Family, Capacity=interlab.Capacity,
                     make_builtin=interlab.make_builtin, interchange=interchange)
wide = workloads.plan_wide_families(seed, False)
for item, case in zip(wide, workloads._build_api(wide, il)):
    if item["label"] == "directed-12":
        report = case.run()
        assert case.check(report) is None
        info["wide-families-directed-12"] = to_json(report)
        cases["wide-families-directed-12"] = case.run
        break

for item in workloads.plan_wide_atoms(seed, False):
    if item["label"] == "inner-400":
        space = build_space(item["scenario"]["space"], "rational")
        members = build_family(item["scenario"]["family"], space).members
        digest = hashlib.sha256(repr(interchange._rank_code(members)).encode()).hexdigest()
        info["rank-code-inner-400"] = {"members": len(members), "sha256": digest}
        cases["rank-code-inner-400"] = lambda members=members: interchange._rank_code(members)
        break

for name in ("check-lebesgue-inf", "check-outer-inf", "check-inner-inf-column"):
    sc = json.loads(Path("tests/golden/scenarios", name + ".json").read_text(encoding="utf-8"))
    space = build_space(sc["space"], "rational")
    args = (build_family(sc["family"], space), make_builtin(sc["functional"]["kind"]))
    info[name] = to_json(interchange.verify_interchange(*args))
    cases[name] = lambda args=args: interchange.verify_interchange(*args)
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=5813)
    parser.add_argument("--repeat", type=int, default=100)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", default="BENCH_exact_codes.json")
    args = parser.parse_args()

    l3 = alternating(args.parent, args.change, L3_PROBE, [args.seed], args.repeat)
    assert l3["info"]["parent"] == l3["info"]["change"], "the reports differ"
    cases = l3["cases"]
    result = {
        "command": " ".join(["python3", "tools/bench_exact_codes.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"CPython {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "l3_alternating": cases,
        # Best time with one +inf entry over best finite time, per backing and side.
        "rw_inf_over_finite": {
            f"{backing}/{side}": round(cases[f"rw-4^7-{backing}-inf"][f"{side}_ms"]
                                       / cases[f"rw-4^7-{backing}-finite"][f"{side}_ms"], 3)
            for backing in ("rational", "float") for side in ("parent", "change")},
        "l4": {workload: l4(args.parent, args.change, workload, args.seed, args.seconds,
                            args.pairs)
               for workload in (WORKLOADS if args.pairs else ())},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
