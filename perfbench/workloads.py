"""The four benchmark workloads: plain inputs, interlab objects, known answers.

Each workload is a *cycle* of cases that the timed loop repeats, one verdict
at a time (closed loop, one client).  A cycle is built from the seed alone,
as plain ints, "p/q" / "+inf" / "-inf" strings and README-schema JSON, and
never through interlab; the expected answer of every case is fixed when the
inputs are drawn (by construction, by the paper, by theorem, or by the
plain-Fraction reference), so a change to the program cannot change its own
inputs or answers.

The cycle composition is fixed and only the values depend on the seed.  The
case sizes are chosen so that the median and the tail percentile of a run
fall inside a group of same-size cases, not on the gap between two groups,
which keeps both figures steady from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Callable, List, Optional

import reference as ref


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    # Returns None when the verdict is right, else what is wrong with it.
    check: Callable[[object], Optional[str]]
    # Subsets the directedness scan must visit, when the input fixes it.
    subsets: Optional[int] = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _atoms(n: int) -> List[str]:
    return [f"w{i}" for i in range(n)]


def _verdict_mismatch(rep: dict, expect: dict) -> Optional[str]:
    """Compare a report's JSON form with the expected lhs / rhs / verdict."""
    for side in ("lhs", "rhs"):
        if side in expect and ref.from_report(rep[side]) != ref.val(expect[side]):
            return f"{side} {rep[side]!r} != expected {expect[side]!r}"
    holds = expect["holds"]
    if rep["interchange_holds"] != ("holds" if holds else "fails"):
        return f"interchange_holds {rep['interchange_holds']!r}, expected holds={holds}"
    if rep["phi_inf_directed"] != ("yes" if holds else "no"):
        return f"phi_inf_directed {rep['phi_inf_directed']!r}, expected holds={holds}"
    if "witness" in expect and rep["witness"] != expect["witness"]:
        return f"witness {rep['witness']!r} != expected {expect['witness']!r}"
    if expect.get("sampled") and not any("sampled" in n for n in rep["notes"]):
        return "scan beyond the subset budget is not labelled sampled"
    return None


def _reference_phi(kind: str, capacity=None):
    if kind == "choquet":
        return lambda w, x: ref.choquet(w, x, capacity)
    return getattr(ref, kind)


def _expect_family(kind, weights, family, capacity=None) -> dict:
    phi = _reference_phi(kind, capacity)
    w = [ref.val(x) for x in weights]
    lhs, rhs = ref.interchange(lambda x: phi(w, x), [[ref.val(v) for v in m] for m in family])
    return {"lhs": ref.plain(lhs), "rhs": ref.plain(rhs), "holds": lhs == rhs}


# --------------------------------------------------------------------------
# API workloads: one verdict is one verify_interchange call on prebuilt
# objects.

def _build_api(items, il) -> List[Case]:
    cases = []
    for it in items:
        space = il.MeasureSpace(it["atoms"], it["weights"])
        family = il.Family([il.FnClass(space, v) for v in it["family"]])
        if it["kind"] == "choquet":
            table = {frozenset(it["atoms"][i] for i in idx): v for idx, v in it["capacity"]}
            phi = il.make_builtin("choquet", capacity=il.Capacity(space, table))
        else:
            phi = il.make_builtin(it["kind"])
        expect = it["expect"]
        cases.append(Case(
            it["label"],
            # Looked up at call time, so a traced run sees the wrapped verifier.
            lambda family=family, phi=phi: il.interchange.verify_interchange(family, phi),
            lambda report, expect=expect: _verdict_mismatch(report.to_json_dict(), expect),
            it.get("subsets"),
        ))
    return cases


SMALL_WEIGHTS = [0, "1/2", 1, 2]
SMALL_FINITE = [-2, -1, 0, "1/2", 1, 3]
SMALL_NONNEG = [0, "1/2", 1, 2, 3]
SMALL_INCREMENTS = ["0", "1/4", "1/2", "1"]
SMALL_KINDS = ("extended_lebesgue", "choquet", "ess_sup")


def _small_member(rng, kind, weights):
    if kind == "extended_lebesgue":
        # One infinity sign per member on positive-weight atoms keeps every
        # member, and every infimum of members, semi-integrable.
        sign = rng.choice(["+inf", "-inf"])
        out = []
        for w in weights:
            if w == 0 and rng.random() < 0.2:
                out.append(rng.choice(["+inf", "-inf"]))
            elif rng.random() < 0.15:
                out.append(sign)
            else:
                out.append(rng.choice(SMALL_FINITE))
        return out
    if kind == "choquet":
        return [
            -1 if w == 0 and rng.random() < 0.2
            else "+inf" if rng.random() < 0.08
            else rng.choice(SMALL_NONNEG)
            for w in weights
        ]
    return [rng.choice(SMALL_FINITE + ["+inf", "-inf"]) for _ in weights]


def _small_capacity(rng, n_atoms):
    """A random monotone table over index subsets, built size layer by layer."""
    table = {frozenset(): ref.val(0)}
    for k in range(1, n_atoms + 1):
        for idx in combinations(range(n_atoms), k):
            s = frozenset(idx)
            floor = max(table[s - {i}] for i in s)
            if floor == ref.INF or rng.random() < 0.03:
                table[s] = ref.INF
            else:
                table[s] = floor + ref.val(rng.choice(SMALL_INCREMENTS))
    return table


def plan_small_families(seed: int, quick: bool) -> list:
    """Every (functional, atoms, members) shape from 3 x 6 x 5, seven times
    over: the shapes are fixed and only the values depend on the seed."""
    rng = _rng("small-families", seed)
    shapes = [(kind, n_atoms, n) for n_atoms in range(1, 7) for n in range(1, 6)
              for kind in SMALL_KINDS]
    items = []
    for kind, n_atoms, n in shapes[:12] if quick else shapes * 7:
        weights = [rng.choice(SMALL_WEIGHTS) for _ in range(n_atoms)]
        family = [_small_member(rng, kind, weights) for _ in range(n)]
        item = {"label": kind, "kind": kind, "atoms": _atoms(n_atoms),
                "weights": weights, "family": family}
        cap = None
        if kind == "choquet":
            cap = _small_capacity(rng, n_atoms)
            item["capacity"] = [(sorted(s), ref.plain(v)) for s, v in cap.items()]
        item["expect"] = _expect_family(kind, weights, family, cap)
        items.append(item)
    return items


WIDE_WEIGHTS = ["1/2", 1, "3/2", 2]
WIDE_VALUES = [-2, -1, "-1/3", 0, "1/2", 1, "5/4", "3/2", 3]
WIDE_LOWS = [0, "-1/2", -1, -2]


def _directed_family(rng, n_atoms, n):
    """n - 1 random members plus their pointwise minimum, placed at random."""
    members = [[rng.choice(WIDE_VALUES) for _ in range(n_atoms)] for _ in range(n - 1)]
    low = [ref.plain(v) for v in ref.pointwise_min([[ref.val(x) for x in m] for m in members])]
    members.insert(rng.randrange(n), low)
    return members


def _covering_family(rng, n_atoms, n):
    """Member j is at most 0 on atom j mod n_atoms and 1 elsewhere.

    Under ess_sup every member scores 1 and the infimum of any set covering
    all atoms scores at most 0; no smaller set covers, so the smallest
    violating subset is the first n_atoms members and the scan visits every
    subset of fewer members before it.
    """
    members = []
    for j in range(n):
        row = [1] * n_atoms
        row[j % n_atoms] = rng.choice(WIDE_LOWS)
        members.append(row)
    return members


def plan_wide_families(seed: int, quick: bool) -> list:
    rng = _rng("wide-families", seed)
    if quick:
        specs = [("directed", 4, 3, "extended_lebesgue"), ("covering", 4, 3, "ess_sup"),
                 ("sampled", 13, 2, "outer")]
    else:
        # Sorted by cost: c9 c9 s13 s13 s14 s14, c10 c10 c10, d9 c11 d10 c12
        # d11 d12, so the median sits among the c10, whose cost hardly
        # depends on the seed, and the 90th percentile on d11.
        specs = [("directed", 12, 8, "extended_lebesgue"), ("sampled", 13, 8, "outer"),
                 ("covering", 9, 8, "ess_sup"), ("covering", 10, 8, "ess_sup"),
                 ("directed", 9, 8, "extended_lebesgue"), ("sampled", 14, 8, "inner"),
                 ("covering", 11, 8, "ess_sup"), ("covering", 10, 8, "ess_sup"),
                 ("directed", 10, 8, "outer"), ("sampled", 13, 8, "inner"),
                 ("covering", 12, 8, "ess_sup"), ("covering", 9, 8, "ess_sup"),
                 ("directed", 11, 8, "inner"), ("sampled", 14, 8, "outer"),
                 ("covering", 10, 8, "ess_sup")]
    items = []
    for shape, n, n_atoms, kind in specs:
        weights = [rng.choice(WIDE_WEIGHTS) for _ in range(n_atoms)]
        item = {"label": f"{shape}-{n}", "kind": kind, "atoms": _atoms(n_atoms),
                "weights": weights}
        if shape == "covering":
            item["family"] = _covering_family(rng, n_atoms, n)
            item["expect"] = dict(_expect_family(kind, weights, item["family"]),
                                  witness=list(range(n_atoms)))
            item["subsets"] = sum(comb(n, k) for k in range(1, n_atoms)) + 1
        else:
            item["family"] = _directed_family(rng, n_atoms, n)
            item["expect"] = dict(_expect_family(kind, weights, item["family"]), witness=None)
            if shape == "sampled":
                item["expect"]["sampled"] = True
            else:
                item["subsets"] = 2 ** n - 1
        items.append(item)
    return items


# --------------------------------------------------------------------------
# CLI workloads: one verdict is one in-process interlab.cli.main call that
# parses a scenario file written before timing, verifies, and renders the
# report to a file.

def _argv(it, workdir) -> List[str]:
    argv = [it["command"]]
    if "scenario" in it:
        argv.append(os.path.join(workdir, it["file"]))
    return argv + it.get("args", []) + ["--out", os.path.join(workdir, "report.json")]


def write_scenarios(items, workdir) -> None:
    for it in items:
        if "scenario" in it:
            with open(os.path.join(workdir, it["file"]), "w", encoding="utf-8") as fh:
                json.dump(it["scenario"], fh)


def _build_cli(items, il, workdir, backing) -> List[Case]:
    out = os.path.join(workdir, "report.json")
    cases = []
    for it in items:
        check = it["check"]

        def run(argv=_argv(it, workdir)):
            if os.path.exists(out):
                os.remove(out)
            return il.cli.main(argv)

        def verify(code, check=check, expect=it["expect"]):
            if code != 0:
                return f"exit code {code}"
            with open(out, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload["environment"]["backing"] != backing:
                return f"ran under {payload['environment']['backing']} backing"
            return check(payload["report"], expect)

        cases.append(Case(it["label"], run, verify))
    return cases


def _check_limit(rep, expect):
    if rep["interchange_holds"] != "holds-in-limit":
        return f"example-2-6 gave {rep['interchange_holds']!r}"
    if (rep["lhs"], rep["rhs"]) != ("-inf", "-inf"):
        return f"example-2-6 sides {rep['lhs']!r}, {rep['rhs']!r}"
    if rep["prefix"]["prefix_len"] != expect["prefix"]:
        return "example-2-6 prefix length differs"
    return None


def _check_choquet(rep, expect):
    lhs, rhs = ref.from_report(rep["lhs"]), ref.from_report(rep["rhs"])
    if expect["holds"]:
        ok = lhs == rhs and rep["interchange_holds"] == "holds" and rep["phi_inf_directed"] == "yes"
    else:
        ok = (rhs == 0 < lhs and rep["interchange_holds"] == "fails"
              and rep["phi_inf_directed"] == "no")
    return None if ok else f"choquet pair gave {rep['interchange_holds']!r} ({lhs}, {rhs})"


CHECKS = {
    "limit": _check_limit,
    "family": _verdict_mismatch,
    "choquet": _check_choquet,
}

ATOM_VALUES = [-2, -1, "-2/3", 0, "1/2", "3/4", 1, "5/3", 3]
ATOM_WEIGHTS = [0, "1/3", "1/2", 1, 2]


def _wide_atoms_family(rng, n_atoms, n, kind):
    weights = [rng.choice(ATOM_WEIGHTS) for _ in range(n_atoms)]
    members = []
    for _ in range(n):
        sign = rng.choice(["+inf", "-inf"])
        members.append([
            (sign if kind == "extended_lebesgue" else rng.choice(["+inf", "-inf"]))
            if rng.random() < 0.02 else rng.choice(ATOM_VALUES)
            for _ in range(n_atoms)
        ])
    if rng.random() < 0.5:
        # Half of the families contain their own infimum, so both verdicts occur.
        members[-1] = [ref.plain(v) for v in
                       ref.pointwise_min([[ref.val(x) for x in m] for m in members])]
    scenario = {"space": {"atoms": _atoms(n_atoms), "weights": weights},
                "family": members, "functional": {"kind": kind}}
    return scenario, _expect_family(kind, weights, members)


def _choquet_pair(rng, n_atoms, nested):
    """Two nonnegative functions under a distortion of the measure.

    Disjoint supports fail (the infimum is 0, each member integrates
    positively); a nested pair holds (the infimum is the smaller member).
    """
    weights = [rng.choice(["1/2", 1, 2]) for _ in range(n_atoms)]
    levels = ["1/2", 1, "3/2", 2, 3]
    first = [rng.choice(levels) for _ in range(n_atoms)]
    if nested:
        second = [ref.plain(ref.val(v) + ref.val(rng.choice([0, "1/2", 1]))) for v in first]
    else:
        split = set(rng.sample(range(n_atoms), n_atoms // 2))
        second = [0 if i in split else v for i, v in enumerate(first)]
        first = [v if i in split else 0 for i, v in enumerate(first)]
    gamma = rng.choice([0.5, 0.8, 1.25, 2])
    return {"space": {"atoms": _atoms(n_atoms), "weights": weights},
            "family": [first, second],
            "functional": {"kind": "choquet", "capacity": {
                "kind": "distortion", "of_measure": True, "gamma": gamma}}}


def plan_wide_atoms(seed: int, quick: bool) -> list:
    rng = _rng("wide-atoms", seed)
    if quick:
        specs = [("limit", "gallery", 60), ("family", 20, 3, "outer"),
                 ("choquet", 4, False), ("limit", "check", 60)]
    else:
        # Sorted by cost: extended_lebesgue-200 outer-300 choquet-12 inner-400,
        # three example-2-6-100, choquet-13, then prefixes 150, 200, 250: the
        # median sits among the example-2-6-100 and the 80th percentile on 150.
        specs = [("limit", "gallery", 100), ("family", 200, 2, "extended_lebesgue"),
                 ("choquet", 12, False), ("limit", "check", 150),
                 ("limit", "check", 100), ("family", 300, 3, "outer"),
                 ("choquet", 13, True), ("limit", "gallery", 200),
                 ("family", 400, 4, "inner"), ("limit", "gallery", 100),
                 ("limit", "check", 250)]
    items = []
    for i, spec in enumerate(specs):
        it = {"check": CHECKS[spec[0]], "file": f"wide-atoms-{i}.json"}
        if spec[0] == "limit":
            _, form, prefix = spec
            it.update(label=f"example-2-6-{prefix}", expect={"prefix": prefix})
            if form == "gallery":
                it.update(command="gallery", args=["example-2-6", "--prefix", str(prefix)])
            else:
                it.update(command="check", scenario={
                    "family": {"generator": "example-2-6", "prefix": prefix,
                               "divergence_threshold": 50},
                    "functional": {"kind": "extended_lebesgue"}})
        elif spec[0] == "family":
            _, n_atoms, n, kind = spec
            scenario, expect = _wide_atoms_family(rng, n_atoms, n, kind)
            it.update(label=f"{kind}-{n_atoms}", command="check", scenario=scenario,
                      expect=expect)
        else:
            _, n_atoms, nested = spec
            it.update(label=f"choquet-{n_atoms}", command="check",
                      scenario=_choquet_pair(rng, n_atoms, nested),
                      expect={"holds": nested})
        items.append(it)
    return items


def _check_rw(rep, expect):
    inter = rep["interchange"]
    if inter["decomposable"] != expect["decomposable"]:
        return f"decomposable {inter['decomposable']}, expected {expect['decomposable']}"
    if expect["decomposable"]:
        if not inter["equal"]:
            return "interchange not equal on a decomposable set"
        if not rep.get("argmin", {}).get("characterization_holds"):
            return "argmin characterization does not hold on a decomposable set"
    return None


def _check_shapiro(rep, expect):
    bad = [h["name"] for h in rep["hypotheses"] if not h["ok"]]
    if bad:
        return f"hypotheses failed: {bad}"
    if not rep["conclusion_holds"] or rep["conclusion_mode"] != "exact":
        return f"conclusion {rep['conclusion_holds']} ({rep['conclusion_mode']})"
    return None


# Dyadic values and weights: float sums of them are exact, so float-backed
# equality tests see the same ties as rational ones.  Rows draw distinct
# positive values and weights are positive, so every selection set has one
# minimizer, every atom costs the same arithmetic, and the cost of a verdict
# hardly depends on the seed.
DYADIC_VALUES = ["1/4", "1/2", "3/4", 1, "3/2", 2, "5/2", 3, 4]
DYADIC_WEIGHTS = ["1/4", "1/2", 1, 2]


def _integrand(rng, n_atoms, n_controls):
    return {"controls": [[c] for c in range(n_controls)],
            "table": [rng.sample(DYADIC_VALUES, n_controls) for _ in range(n_atoms)]}


def _rw_scenario(rng, n_atoms, n_controls, selection_set):
    return {"space": {"atoms": _atoms(n_atoms),
                      "weights": [rng.choice(DYADIC_WEIGHTS) for _ in range(n_atoms)]},
            "integrand": _integrand(rng, n_atoms, n_controls),
            "selection_set": selection_set}


def _shapiro_scenario(rng, n_atoms, n_controls):
    """Controls k = 0..K-1 add b_i / 2^k to a base value a_i on atom i, the
    last control adds nothing, so G(u_k) -> G-flat in every L^p and the
    infimum over the product is attained at G-flat."""
    weights = {2: ["1/2", "1/2"], 3: ["1/2", "1/4", "1/4"],
               4: ["1/4", "1/4", "1/4", "1/4"]}[n_atoms]
    table = []
    for _ in range(n_atoms):
        a, b = ref.val(rng.choice(DYADIC_VALUES)), ref.val(rng.choice([1, 2, 3]))
        row = [a + b / 2 ** k for k in range(n_controls - 1)] + [a]
        table.append([ref.plain(v) for v in row])
    return {"space": {"atoms": _atoms(n_atoms), "weights": weights},
            "integrand": {"controls": [[k] for k in range(n_controls)], "table": table},
            "functional": {"kind": "extended_lebesgue"}, "p": 2,
            "selection_prefix": [[k] * n_atoms for k in range(n_controls)],
            "selection_set": {"kind": "product",
                              "admissible": [list(range(n_controls))] * n_atoms}}


def plan_selections(seed: int, quick: bool) -> list:
    rng = _rng("selections", seed)
    if quick:
        specs = [("product", 3, 2), ("explicit", 3, 2, False), ("explicit", 3, 2, True),
                 ("shapiro", 2, 3)]
    else:
        # Sorted by cost: shapiro-9^3 explicit-242 shapiro-6^4 explicit-81 x3,
        # product-4^5 x3, product-5^5, product-4^6 x2, product-3^8,
        # explicit-243 x2: the median sits among the product-4^5 and the 90th
        # percentile among the product-3^8 and explicit-243.
        specs = [("explicit", 5, 3, False), ("product", 5, 4), ("shapiro", 3, 9),
                 ("product", 6, 4), ("explicit", 4, 3, False), ("product", 8, 3),
                 ("product", 5, 4), ("explicit", 5, 3, True), ("product", 5, 5),
                 ("explicit", 4, 3, False), ("shapiro", 4, 6), ("product", 5, 4),
                 ("explicit", 5, 3, False), ("product", 6, 4), ("explicit", 4, 3, False)]
    items = []
    for i, spec in enumerate(specs):
        it = {"file": f"selections-{i}.json"}
        if spec[0] == "product":
            _, n_atoms, k = spec
            it.update(label=f"product-{k}^{n_atoms}", command="rw-check", check=_check_rw,
                      expect={"decomposable": True},
                      scenario=_rw_scenario(rng, n_atoms, k, {"kind": "product"}))
        elif spec[0] == "explicit":
            _, n_atoms, k, holey = spec
            sels = [list(s) for s in product(range(k), repeat=n_atoms)]
            rng.shuffle(sels)
            if holey:
                sels.pop()
            it.update(label=f"explicit-{len(sels)}", command="rw-check", check=_check_rw,
                      expect={"decomposable": not holey},
                      scenario=_rw_scenario(rng, n_atoms, k,
                                            {"kind": "explicit", "selections": sels}))
        else:
            _, n_atoms, k = spec
            it.update(label=f"shapiro-{k}^{n_atoms}", command="shapiro-check",
                      check=_check_shapiro, expect={},
                      scenario=_shapiro_scenario(rng, n_atoms, k))
        items.append(it)
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int, bool], list]
    cli: bool
    backing: str
    # Tail percentile, fixed so that a faster program does not move to a
    # deeper one: at the benchmark's run length at least ten verdicts lie
    # beyond it, and it falls inside a group of same-size cases.
    tail_pct: float

    def build(self, items, il, workdir) -> List[Case]:
        if self.cli:
            return _build_cli(items, il, workdir, self.backing)
        return _build_api(items, il)


WORKLOADS = {w.name: w for w in (
    Workload("small-families", plan_small_families, False, "rational", 99.0),
    Workload("wide-families", plan_wide_families, False, "rational", 90.0),
    Workload("wide-atoms", plan_wide_atoms, True, "rational", 80.0),
    Workload("selections", plan_selections, True, "float", 90.0),
)}
