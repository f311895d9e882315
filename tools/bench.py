"""Before/after numbers for one named case of ``CASES``, parent checkout
against change, each holding ``src/interlab``, ``perfbench/`` and ``tests/``::

    python3 tools/bench.py --case level-scan --parent OLD --change NEW --out BENCH_level_scan.json

A case runs its probes in both checkouts and checks that both give the same
reports.  The JSON adds ``l4``, ``--pairs`` pairs on every workload (0 skips
them); ``traced``, ``--traced-runs`` traced cycles per side on the case's
workloads and seeds; and the ``claim`` on the case's workload.
"""

import argparse
import ast
import json
import os
import platform
import statistics
import sys
import tempfile
from typing import Callable, NamedTuple

from bench_pairs import SIDES, WORKLOADS, alternating, claim, l4, l4_run, run_probe


class Case(NamedTuple):
    """``run(sides, seed, repeat)`` returns the case's own sections, ``claim``
    is the workload the gain rule reads, ``traced`` the counters per workload."""
    run: Callable
    seed: int
    repeat: int
    claim: str
    traced: dict
    trace_seeds: tuple = ()  # traced besides --seed


CASES = {}


def case(name: str, **spec):
    def register(run):
        CASES[name] = Case(run, **spec)
        return run
    return register


# The probes that read a perfbench plan start with this; ``il`` is what
# perfbench/run.py builds its API cases from.
_API = r"""
import sys
from types import SimpleNamespace
import interlab, workloads
from interlab import interchange
il = SimpleNamespace(MeasureSpace=interlab.MeasureSpace, FnClass=interlab.FnClass,
                     Family=interlab.Family, Capacity=interlab.Capacity,
                     make_builtin=interlab.make_builtin, interchange=interchange)
"""

DENSE_PROBE = _API + r"""
import io, json, os, tempfile, time
from contextlib import redirect_stdout
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

# Each intake call's scalars, from the full plans.
SHARES_PROBE = _API + r"""
import json

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


@case("dense-families", seed=7717, repeat=30, claim="wide-atoms",
      traced={**{w: ("interchange.subsets_scanned",) for w in WORKLOADS},
              "wide-atoms": ("interchange.subsets_scanned", "scenario.parse_s",
                             "interchange.scan_s")})
def dense_families(sides, seed, repeat):
    """Dense families on hundreds of atoms: each distinct scalar string parsed
    once per intake call, no rank code for a scan that is given every
    subset's score, and integer rank keys under rational backing.

    Per checkout, best of ``repeat``: intake, rank code, scan and ``check``
    on dense ``wide-atoms`` families and 400-atom worst cases; and the share
    of each plan's scalar strings that repeat within an intake call.
    """
    rows = {side: run_probe(c, DENSE_PROBE, [seed, repeat], {"INTERLAB_BACKING": "rational"})
            for side, c in sides.items()}
    reports = {side: [row.pop("report", None) for row in r.values()] for side, r in rows.items()}
    assert reports["parent"] == reports["change"], "the reports differ"
    return {"in_process_rational": rows,
            "input_strings": run_probe(sides["change"], SHARES_PROBE, [seed])}


EXACT_CODES_PROBE = _API + r"""
import hashlib, json
from pathlib import Path
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


@case("exact-codes", seed=5813, repeat=100, claim="selections",
      traced={"wide-families": ("interchange.scan_s",), "selections": ("decomposable.enum_s",)})
def exact_codes(sides, seed, repeat):
    """One exact integer code in extreal for rank keys, rank tables,
    selection folds and running parts.

    Alternating: rw on 4^7 products, ``directed-12`` of ``wide-families``,
    the ``inner-400`` rank code and golden families with infinities.
    """
    ms = alternating(sides, EXACT_CODES_PROBE, [seed], repeat)["cases"]
    return {"l3_alternating": ms,
            # Best time with one +inf entry over best finite time, per backing and side.
            "rw_inf_over_finite": {
                f"{b}/{side}": round(ms[f"rw-4^7-{b}-inf"][f"{side}_ms"]
                                     / ms[f"rw-4^7-{b}-finite"][f"{side}_ms"], 3)
                for b in ("rational", "float") for side in SIDES}}


EXPLICIT_SETS_PROBE = _API + r"""
import random
from itertools import product
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


@case("explicit-sets", seed=5171, repeat=20, claim="selections",
      traced={"selections": ("decomposable.patch_check_s",)})
def explicit_sets(sides, seed, repeat):
    """The patch-closure check on integer codes.

    Alternating, per backing: ``is_decomposable`` on explicit sets, each
    time on a fresh ``SelectionSet``.
    """
    runs = {b: alternating(sides, EXPLICIT_SETS_PROBE, [seed, b], repeat,
                           env={"INTERLAB_BACKING": b}) for b in ("rational", "float")}
    return {"l3_alternating": {b: {"sets": r["info"], "cases": r["cases"]}
                               for b, r in runs.items()}}


LEVEL_SCAN_PROBE = _API + r"""
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


@case("level-scan", seed=8123, repeat=40, claim="wide-families",
      traced={"wide-families": ("interchange.subsets_scanned", "functionals.phi_evals",
                                "interchange.us_per_subset", "interchange.scan_s")},
      trace_seeds=(0, 1, 2))  # the seeds of the CI gate on subset counts
def level_scan(sides, seed, repeat):
    """The directedness scan on 9-12-member families: one AND per subset from
    the size below, and rank tables that answer pass/fail on integers.

    Alternating: every ``wide-families`` verdict and the ``small-families``
    verdicts by size.  ``recheck``: per covering case, the Phi calls beyond
    the members and inf X, and Phi on the witness.
    """
    run = alternating(sides, LEVEL_SCAN_PROBE, [seed], repeat)
    return {"l3_alternating_rational": run["cases"],
            "recheck": {side: run_probe(checkout, RECHECK_PROBE, [seed, repeat])
                        for side, checkout in sides.items()}}


SEQUENCE_STEPS_PROBE = r"""
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


@case("sequence-steps", seed=4157, repeat=5, claim="wide-atoms",
      traced={"wide-atoms": ("interchange.sequence_self_s", "functionals.phi_evals")},
      trace_seeds=(0,))
def sequence_steps(sides, seed, repeat):
    """Sequence prefixes followed by declared steps.

    Per checkout and backing: ``gallery example-2-6 --prefix N`` in process
    for N of 250, 1000 and 2000: best time, tracemalloc peak, report sha256.
    """
    runs = {side: run_probe(checkout, SEQUENCE_STEPS_PROBE, ["[250, 1000, 2000]", repeat])
            for side, checkout in sides.items()}
    digests = {side: [r["report_sha256"] for r in rows.values()] for side, rows in runs.items()}
    assert digests["parent"] == digests["change"], "the example-2-6 reports differ"
    return {"l3_in_process": runs}


SHAPIRO_FOLD_PROBE = _API + r"""
import inspect
from interlab import decomposable
from interlab.integrals import PART_SUMS
from interlab.scenario import read_shapiro

# The walk takes the Functional; the fold of 16c2c78 up to 577a49a takes
# the integral's part sum, and 387394f and earlier evaluate each selection.
def conclusion(sc):
    u_set, phi = sc.selection_set, sc.functional
    if not hasattr(decomposable, "_min_of_folds"):
        g_of = sc.integrand.g_of
        return min(phi(g_of(s)) for s in u_set.iter_selections())
    if "combine" in inspect.signature(decomposable._min_of_folds).parameters:
        phi = next(c for f, c in PART_SUMS.items() if f is phi.eval_fn)
    return decomposable._min_of_folds(sc.integrand, u_set, 10**6, phi)

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


@case("shapiro-fold", seed=2718, repeat=200, claim="selections",
      traced={"selections": ("decomposable.shapiro_s",)})
def shapiro_fold(sides, seed, repeat):
    """Shapiro's conclusion fold.

    Alternating, on the Shapiro scenarios of ``selections`` (float backing):
    the conclusion alone and a whole ``verify_shapiro``.
    """
    run = alternating(sides, SHAPIRO_FOLD_PROBE, [seed], repeat)
    return {"l3_alternating": {"scenarios": run["info"], "cases": run["cases"]}}


VACUOUS_SCAN_PROBE = _API + r"""
import io, json, os, tempfile
from contextlib import redirect_stdout
from interlab.cli import main
from interlab.extreal import NEG_INF
from interlab.fnlattice import pointwise_inf
from interlab.functionals import make_builtin
from interlab.scenario import build_family, build_space

# From the plans of seeds seed, seed + 1, ..., seed + 19: the first
# inner-400 and outer-300 family whose min Phi(X) is -inf, and the first
# whose min Phi(X) is finite, so that the rule is timed on both sides.
seed = int(sys.argv[1])
found = {}
for s in range(seed, seed + 20):
    for item in workloads.plan_wide_atoms(s, False):
        if item["label"] in ("outer-300", "inner-400"):
            sc = item["scenario"]
            space = build_space(sc["space"], "rational")
            family = build_family(sc["family"], space)
            phi = make_builtin(sc["functional"]["kind"])
            values = [phi(m) for m in family.members]
            side = "minus-inf" if min(values) == NEG_INF else "finite"
            found.setdefault(f"{item['label']}-{side}", (s, sc, family, phi, values))

tmp = tempfile.TemporaryDirectory()


def verdict(path):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check", path]) == 0
    return out.getvalue()


info, cases = {}, {}
for label, (s, sc, family, phi, values) in sorted(found.items()):
    path = os.path.join(tmp.name, label + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sc, fh)
    inf = phi(pointwise_inf(family.members))
    info[label] = {"seed": s, "members": len(family.members), "report": verdict(path)}
    cases[label + "/check"] = lambda path=path: verdict(path)
    cases[label + "/scan"] = lambda family=family, phi=phi, values=values, inf=inf: \
        interchange.is_phi_inf_directed(family, phi, phi_values=values, phi_inf=inf)
"""


@case("vacuous-scan", seed=6829, repeat=40, claim="wide-atoms",
      traced={"wide-atoms": ("interchange.subsets_scanned", "interchange.scan_s",
                             "functionals.phi_evals"),
              "small-families": ("interchange.subsets_scanned", "interchange.scan_s"),
              "wide-families": ("interchange.subsets_scanned",)},
      trace_seeds=(0, 1, 2))  # the seeds of the CI gate on subset counts
def vacuous_scan(sides, seed, repeat):
    """The directedness scan decides a family with min Phi(X) = -inf without
    scanning, and a sequence whose lhs stabilizes there builds no prefix family.

    Alternating: in-process ``check`` and the scan alone on dense
    ``wide-atoms`` families, ``inner-400`` and ``outer-300``, with
    min Phi(X) = -inf and, as a control, finite.  Both sides must print the
    same reports.
    """
    run = alternating(sides, VACUOUS_SCAN_PROBE, [seed], repeat)
    return {"l3_alternating_rational": {
        "families": {label: {k: v for k, v in row.items() if k != "report"}
                     for label, row in run["info"].items()},
        "cases": run["cases"]}}


PRODUCT_WALK_PROBE = _API + r"""
import io, json, os, tempfile
from contextlib import redirect_stdout
from interlab.cli import main
from interlab.decomposable import Integrand, SelectionSet, verify_rw_interchange
from interlab.measure import MeasureSpace

seed = int(sys.argv[1])
tmp = tempfile.TemporaryDirectory()


def verdict(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# Every product rw-check and Shapiro scenario of the selections plan, in
# process; the caller sets the backing the workload runs them under.
info, cases = {}, {}
for i, item in enumerate(workloads.plan_selections(seed, False)):
    if item["label"].startswith(("product", "shapiro")):
        label = f"{i:02d}-{item['label']}"
        path = os.path.join(tmp.name, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item["scenario"], fh)
        info[label] = verdict([item["command"], path])
        cases[label] = lambda argv=[item["command"], path]: verdict(argv)
# The worst case of the walk: a constant 4^9 table, where every one of the
# 262144 selections is a minimizer, under both backings.
for backing in ("float", "rational"):
    space = MeasureSpace([f"a{i}" for i in range(9)], ["1/2", 1, 2, "1/4"] * 2 + [1],
                         backing=backing)
    args = (Integrand(space, [[c] for c in range(4)], [[3] * 4] * 9),
            SelectionSet.full_product(9, 4))
    report = verify_rw_interchange(*args)
    info[f"all-ties-4^9-{backing}"] = {"lhs": repr(report.lhs),
                                       "minimizers": len(report.minimizers)}
    cases[f"all-ties-4^9-{backing}"] = lambda args=args: verify_rw_interchange(*args)
"""


@case("product-walk", seed=9157, repeat=20, claim="selections",
      traced={"selections": ("decomposable.enum_s", "decomposable.shapiro_s")})
def product_walk(sides, seed, repeat):
    """A product's minimizers by a pruned walk: only the selection prefixes
    whose least completion is the least fold.

    Alternating: in-process ``rw-check`` on the products and
    ``shapiro-check`` on the Shapiro scenarios of ``selections`` (float
    backing), whose reports must be the same on both sides, and
    ``verify_rw_interchange`` on a constant 4^9 table under both backings.
    """
    run = alternating(sides, PRODUCT_WALK_PROBE, [seed], repeat,
                      env={"INTERLAB_BACKING": "float"})
    return {"l3_alternating": {
        "all_ties": {label: row for label, row in run["info"].items()
                     if label.startswith("all-ties")},
        "cases": run["cases"]}}


CHOQUET_PROBE = _API + r"""
import hashlib, io, json, os, tempfile
from contextlib import redirect_stdout
from interlab.cli import main
from interlab.extreal import to_json
from interlab.measure import iter_atom_subsets

seed = int(sys.argv[1])
tmp = tempfile.TemporaryDirectory()


def verdict(path):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check", path]) == 0
    return out.getvalue()


def digest(value):
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


info, cases = {}, {}
# The table-Choquet verdicts of small-families, as the workload runs them,
# by member count.
small = [item for item in workloads.plan_small_families(seed, False)
         if item["kind"] == "choquet"]
small_cases = workloads._build_api(small, il)
for n in range(1, 6):
    group = [case for item, case in zip(small, small_cases) if len(item["family"]) == n]
    reports = [case.run() for case in group]
    assert all(case.check(r) is None for case, r in zip(group, reports))
    label = f"small-{n}-members-x{len(group)}"
    info[label] = digest([to_json(r) for r in reports])
    cases[label] = lambda group=group: [case.run() for case in group]
# The distortion pairs of wide-atoms, choquet-12 and choquet-13, in process.
for item in workloads.plan_wide_atoms(seed, False):
    if item["label"].startswith("choquet"):
        path = os.path.join(tmp.name, item["label"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item["scenario"], fh)
        info[item["label"]] = verdict(path)
        cases[item["label"]] = lambda path=path: verdict(path)
# Capacity construction alone, on the small-families tables.
tables = []
for item in small:
    space = il.MeasureSpace(item["atoms"], item["weights"])
    tables.append((space, {frozenset(item["atoms"][i] for i in idx): v
                           for idx, v in item["capacity"]}))
info["capacity-values"] = digest([[to_json(il.Capacity(space, table).of(s))
                                   for s in iter_atom_subsets(space)]
                                  for space, table in tables])
cases[f"capacity-x{len(tables)}"] = lambda: [il.Capacity(*args) for args in tables]
"""


@case("choquet-masks", seed=2417, repeat=40, claim="small-families",
      traced={"small-families": ("integrals.choquet_s", "integrals.capacity_build_s",
                                 "functionals.phi_s", "extreal.arith_ops",
                                 "measure.atom_subsets"),
              "wide-atoms": ("integrals.choquet_s",)})
def choquet_masks(sides, seed, repeat):
    """Choquet integrals on atom bitmasks: one pass to the level sets, one
    capacity read per level, the layer cake summed by ``weighted_parts``.

    Alternating, in process: the table-Choquet verdicts of
    ``small-families`` by member count, ``check`` on the ``choquet-12`` and
    ``choquet-13`` distortion pairs of ``wide-atoms``, and ``Capacity``
    construction alone on the ``small-families`` tables.  Both sides must
    give the same reports and capacity values.
    """
    run = alternating(sides, CHOQUET_PROBE, [seed], repeat)
    return {"l2_alternating_rational": run["cases"]}


@case("choquet-codes", seed=5087, repeat=40, claim="small-families",
      traced={"small-families": ("integrals.choquet_s", "integrals.capacity_build_s",
                                 "functionals.phi_s", "interchange.verify_self_s"),
              "wide-atoms": ("integrals.choquet_s",)})
def choquet_codes(sides, seed, repeat):
    """Table Choquet on integer codes and exact tolerance tests by type:
    level keys and table values as int numerators over their common
    denominators, one reduction per integral.

    The probe of ``choquet-masks``, alternating, in process: the
    table-Choquet verdicts of ``small-families`` by member count, ``check``
    on the ``choquet-12`` and ``choquet-13`` distortion pairs of
    ``wide-atoms``, and the 210 ``Capacity`` constructions of the plan.
    Both sides must give the same reports and capacity values.
    """
    run = alternating(sides, CHOQUET_PROBE, [seed], repeat)
    return {"l2_alternating_rational": run["cases"]}


def probe_sources() -> dict:
    """Each probe source of this module, by name."""
    return {name: value for name, value in globals().items() if name.endswith("_PROBE")}


# Run once per driver run in each checkout: imports every module of
# src/interlab and perfbench/ and each module a probe imports (an older
# checkout may lack some), then compiles the standard-library sources
# among them into the bytecode prefix.  ``run_env`` writes no other
# bytecode, so a checkout's own sources stay uncompiled.
STDLIB_PROBE = r"""
import importlib, json, os, pkgutil, py_compile, sys, sysconfig
import interlab
names = [f"interlab.{m.name}" for m in pkgutil.iter_modules(interlab.__path__)]
for name in names + [m.name for m in pkgutil.iter_modules(["perfbench"])] + sys.argv[1:]:
    try:
        importlib.import_module(name)
    except ImportError:
        pass
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
    """The standard-library modules that the probes and ``perfbench/run.py``
    import, compiled into ``PYTHONPYCACHEPREFIX`` for each checkout."""
    names = set()
    for source in probe_sources().values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    for checkout in dict.fromkeys(sides.values()):
        run_probe(checkout, STDLIB_PROBE, sorted(names))


def traced(sides: dict, case: Case, seed: int, runs: int) -> dict:
    """``runs`` traced cycles per side, alternating sides, on each workload
    ``case`` traces, at ``seed`` and its trace seeds: every run and the
    median of each counter it names, and each side's first cycle in full."""
    out = {}
    for workload, counters in case.traced.items() if runs else ():
        for s in dict.fromkeys((seed, *case.trace_seeds)):
            cycles = {side: [] for side in SIDES}
            for i in range(runs):
                for side in SIDES[::-1] if i % 2 else SIDES:
                    cycles[side].append({name: m["value"] for name, m in l4_run(
                        sides[side], workload, s, 1, trace=1)["metrics"].items()})
            out.setdefault(workload, {})[f"seed {s}"] = {
                "per_cycle": {side: cs[0] for side, cs in cycles.items()},
                "counters": {side: {name: {"runs": [round(c[name], 6) for c in cs],
                                           "median": round(statistics.median(
                                               c[name] for c in cs), 6)} for name in counters}
                             for side, cs in cycles.items()}}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--case", required=True, choices=CASES)
    parser.add_argument("--seed", type=int, help="default: the case's")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10, help="0 skips L4; else at least 2")
    parser.add_argument("--repeat", type=int, help="default: the case's")
    parser.add_argument("--traced-runs", type=int, default=5)
    parser.add_argument("--out", help="default: BENCH_<case>.json")
    args = parser.parse_args()
    if args.pairs == 1:
        parser.error("--pairs is 0 or at least 2")
    chosen = CASES[args.case]
    seed = chosen.seed if args.seed is None else args.seed
    sides = {"parent": args.parent, "change": args.change}
    # Every process started below looks its bytecode up in this directory,
    # which holds the standard library's only (``run_env`` writes none), so
    # it reads no checkout's __pycache__ and compiles both sides alike.
    prefix = tempfile.TemporaryDirectory(prefix="bench-pycache-")
    os.environ["PYTHONPYCACHEPREFIX"] = prefix.name
    compile_stdlib(sides)
    result = {
        "topic": " ".join(chosen.run.__doc__.split("\n\n")[0].split()),
        "command": " ".join(["python3", "tools/bench.py"] + sys.argv[1:]),
        "host": f"{os.cpu_count()}-core {platform.machine()}, CPython {platform.python_version()}",
        "seed": seed,
        "run_seconds": args.seconds,
        **chosen.run(sides, seed, args.repeat or chosen.repeat),
        "l4": {workload: l4(sides, workload, seed, args.seconds, args.pairs)
               for workload in WORKLOADS if args.pairs},
        "traced": traced(sides, chosen, seed, args.traced_runs),
    }
    if args.pairs:
        result["claim"] = claim(result["l4"][chosen.claim], chosen.claim)
    with open(args.out or f"BENCH_{args.case.replace('-', '_')}.json", "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
