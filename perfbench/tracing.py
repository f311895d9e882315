"""Per-layer counts and spans for the traced run.

The tracer rebinds public names of interlab's modules to wrappers that count
calls or record spans.  Every interlab module that imported a name with
``from .x import name`` holds its own binding, so each binding to the same
object is replaced, and restored by ``uninstall``.  A name that no longer
exists is skipped, and every metric built from it is reported absent, so
refactors that remove or rename a function do not break the run.

Self time of a span is its duration minus the time covered by the spans it
directly encloses; inclusive time counts only the outermost span of a key,
so nested spans of one key are not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, qualified name, key, what the wrapper records)
#   "count": calls;  "iter": items the returned iterable yields;
#   "span": calls plus inclusive and self time.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("interlab.extreal", "ext", "extreal.scalars_built", "count"),
    ("interlab.extreal", "as_scalar", "extreal.scalars_built", "count"),
    ("interlab.extreal", "lower_add", "extreal.arith_ops", "count"),
    ("interlab.extreal", "upper_add", "extreal.arith_ops", "count"),
    ("interlab.extreal", "add", "extreal.arith_ops", "count"),
    ("interlab.extreal", "scalar_mul", "extreal.arith_ops", "count"),
    ("interlab.measure", "iter_atom_subsets", "measure.atom_subsets", "iter"),
    ("interlab.fnlattice", "pointwise_inf", "fnlattice.inf", "span"),
    ("interlab.fnlattice", "classify", "fnlattice.classify", "count"),
    ("interlab.integrals", "part_integrals", "integrals.part", "span"),
    ("interlab.integrals", "choquet", "integrals.choquet", "span"),
    ("interlab.integrals", "Capacity.__init__", "integrals.capacity_init", "count"),
    ("interlab.integrals", "Capacity.__init__", "integrals.capacity_build", "span"),
    ("interlab.integrals", "Capacity.distortion", "integrals.capacity_build", "span"),
    ("interlab.functionals", "Functional.__call__", "functionals.phi", "span"),
    ("interlab.interchange", "is_phi_inf_directed", "interchange.scan", "span"),
    ("interlab.interchange", "_nonempty_subsets", "interchange.subsets", "iter"),
    ("interlab.interchange", "_sampled_subsets", "interchange.subsets", "iter"),
    ("interlab.interchange", "verify_interchange", "interchange.verify", "span"),
    ("interlab.interchange", "verify_interchange_sequence", "interchange.sequence", "span"),
    ("interlab.decomposable", "Integrand.g_of", "decomposable.g_of", "count"),
    ("interlab.decomposable", "verify_rw_interchange", "decomposable.enum", "span"),
    ("interlab.decomposable", "verify_rw_argmin", "decomposable.enum", "span"),
    ("interlab.decomposable", "is_decomposable", "decomposable.patch_check", "span"),
    ("interlab.decomposable", "verify_shapiro", "decomposable.shapiro", "span"),
    ("interlab.scenario", "load_scenario", "scenario.parse", "span"),
    ("interlab.scenario", "build_space", "scenario.parse", "span"),
    ("interlab.scenario", "build_family", "scenario.parse", "span"),
    ("interlab.scenario", "build_functional", "scenario.parse", "span"),
    ("interlab.scenario", "build_sequence", "scenario.parse", "span"),
    ("interlab.scenario", "render_json", "scenario.render", "span"),
    ("interlab.scenario", "render_text", "scenario.render", "span"),
    ("interlab.cli", "main", "cli.main", "span"),
]

# Per-layer metrics: name -> (unit, better, what it is read from, what it
# should move on which workload).  Time readings are inclusive unless the
# name says self; "self" subtracts the enclosed spans.
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple, str]] = {
    "extreal.scalars_built": ("count", "lower", ("calls", "extreal.scalars_built"),
                              "verdict_ms_p50; heavy on wide-atoms, selections"),
    "extreal.arith_ops": ("count", "lower", ("calls", "extreal.arith_ops"),
                          "verdict_ms_p50; heavy on wide-atoms, selections"),
    "measure.atom_subsets": ("count", "lower", ("items", "measure.atom_subsets"),
                             "setup_s on small-families, verdict_ms_tail on wide-atoms"),
    "fnlattice.inf_calls": ("count", "lower", ("calls", "fnlattice.inf"),
                            "verdicts_per_s; heavy on wide-families, wide-atoms"),
    "fnlattice.inf_members": ("count", "lower", ("members", "fnlattice.inf"),
                              "verdicts_per_s; heavy on wide-families, wide-atoms"),
    "fnlattice.inf_s": ("s", "lower", ("incl", "fnlattice.inf"),
                        "verdicts_per_s; heavy on wide-families, wide-atoms"),
    "fnlattice.classify_calls": ("count", "lower", ("calls", "fnlattice.classify"),
                                 "verdicts_per_s; heavy on selections"),
    "integrals.part_calls": ("count", "lower", ("calls", "integrals.part"),
                             "verdict_ms_p50; heavy on wide-atoms, selections"),
    "integrals.part_atoms": ("count", "lower", ("atoms", "integrals.part"),
                             "verdict_ms_p50; heavy on wide-atoms, selections"),
    "integrals.part_s": ("s", "lower", ("incl", "integrals.part"),
                         "verdict_ms_p50; heavy on wide-atoms, selections"),
    "integrals.choquet_s": ("s", "lower", ("incl", "integrals.choquet"),
                            "verdict_ms_tail on wide-atoms"),
    "integrals.capacity_builds": ("count", "lower", ("calls", "integrals.capacity_init"),
                                  "setup_s on small-families, verdict_ms_tail on wide-atoms"),
    "integrals.capacity_build_s": ("s", "lower", ("incl", "integrals.capacity_build"),
                                   "setup_s on small-families, verdict_ms_tail on wide-atoms"),
    "functionals.phi_evals": ("count", "lower", ("calls", "functionals.phi"),
                              "verdict_ms_p50; heavy on small-families"),
    "functionals.phi_s": ("s", "lower", ("incl", "functionals.phi"),
                          "verdict_ms_p50; heavy on small-families"),
    "interchange.subsets_scanned": ("count", "lower", ("items", "interchange.subsets"),
                                    "verdicts_per_s, verdict_ms_tail on wide-families"),
    "interchange.scan_s": ("s", "lower", ("incl", "interchange.scan"),
                           "verdicts_per_s, verdict_ms_tail on wide-families"),
    "interchange.us_per_subset": ("us", "lower", ("per_subset",),
                                  "verdicts_per_s on wide-families"),
    "interchange.verify_self_s": ("s", "lower", ("self", "interchange.verify"),
                                  "verdicts_per_s on wide-families"),
    "interchange.sequence_self_s": ("s", "lower", ("self", "interchange.sequence"),
                                    "verdict_ms_tail on wide-atoms"),
    "decomposable.selections_enumerated": ("count", "lower", ("calls", "decomposable.g_of"),
                                           "verdict_ms_p50 on selections"),
    "decomposable.enum_s": ("s", "lower", ("self", "decomposable.enum"),
                            "verdict_ms_p50 on selections"),
    "decomposable.patch_check_s": ("s", "lower", ("incl", "decomposable.patch_check"),
                                   "verdict_ms_tail on selections"),
    "decomposable.shapiro_s": ("s", "lower", ("incl", "decomposable.shapiro"),
                               "verdict_ms_p50 on selections"),
    "scenario.parse_s": ("s", "lower", ("incl", "scenario.parse"),
                         "verdict_ms_p50 on wide-atoms"),
    "scenario.render_s": ("s", "lower", ("incl", "scenario.render"),
                          "verdict_ms_p50 on wide-atoms"),
    "scenario.report_bytes": ("bytes", "lower", ("bytes", "scenario.render"),
                              "verdict_ms_p50 on wide-atoms"),
    "cli.self_s": ("s", "lower", ("self", "cli.main"), "verdict_ms_p50 on wide-atoms"),
}


def _resolve(module: str, qualname: str):
    """(owner, attribute, raw attribute) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.members: Counter = Counter()
        self.atoms: Counter = Counter()
        self.bytes: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[list] = []  # [key, start, child time]
        self._active: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, key: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if measure is not None:
                args = measure(key, args)
            tracer.calls[key] += 1
            tracer._active[key] += 1
            frame = [key, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[key] -= 1
                duration = end - frame[1]
                tracer.self_time[key] += duration - frame[2]
                if tracer._active[key] == 0:
                    tracer.incl[key] += duration
                if tracer._stack:
                    tracer._stack[-1][2] += duration
            if key == "scenario.render" and isinstance(result, str):
                tracer.bytes[key] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _iter(self, key: str, fn: Callable) -> Callable:
        items = self.items

        def wrapper(*args, **kwargs):
            # Callers iterate the result once; counting what they draw counts
            # the work they did, including an early exit.
            for item in fn(*args, **kwargs):
                items[key] += 1
                yield item

        return wrapper

    def _measure_inf(self, key, args):
        family = args[0]
        if not hasattr(family, "__len__"):
            family = list(family)
            args = (family,) + tuple(args[1:])
        self.members[key] += len(family)
        return args

    def _measure_part(self, key, args):
        self.atoms[key] += len(getattr(args[0], "values", ()))
        return args

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        measures = {"fnlattice.inf": self._measure_inf, "integrals.part": self._measure_part}
        for module, qualname, key, what in TARGETS:
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            else:
                fn = raw
            if what == "span":
                wrapped = self._span(key, fn, measures.get(key))
            elif what == "iter":
                wrapped = self._iter(key, fn)
            else:
                wrapped = self._count(key, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._rebind(owner, attr, raw, wrapped)

    def _rebind(self, owner, attr, raw, wrapped) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "interlab" or name.startswith("interlab.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, binding, raw))
                    setattr(mod, binding, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- readings ---------------------------------------------------------

    def _missing_keys(self) -> set:
        return {key for module, qualname, key, _ in TARGETS
                if f"{module}.{qualname}" in self.missing}

    def subsets_scanned(self) -> Optional[int]:
        """Subsets drawn by the directedness scan so far; None when absent."""
        if "interchange.subsets" in self._missing_keys():
            return None
        return self.items["interchange.subsets"]

    def metrics(self, scale: float) -> Tuple[Dict[str, dict], List[str]]:
        """Per-layer metrics (times multiplied by ``scale``) and absent names."""
        missing_keys = self._missing_keys()
        sources = {
            "calls": self.calls, "items": self.items, "members": self.members,
            "atoms": self.atoms, "bytes": self.bytes,
            "incl": self.incl, "self": self.self_time,
        }
        out, absent = {}, []
        for name, (unit, _, source, _) in LAYER_METRICS.items():
            if source[0] == "per_subset":
                keys = ("interchange.scan", "interchange.subsets")
            else:
                keys = (source[1],)
            if any(k in missing_keys for k in keys):
                absent.append(name)
                continue
            if source[0] == "per_subset":
                n = self.items["interchange.subsets"]
                value = self.incl["interchange.scan"] * scale * 1e6 / n if n else 0.0
            else:
                value = sources[source[0]][source[1]]
                if source[0] in ("incl", "self"):
                    value *= scale
            out[name] = {"value": value, "unit": unit}
        return out, absent
