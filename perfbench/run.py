"""Benchmark for interlab: time to a verdict, end to end and per layer.

Run from the root of a checkout that holds ``src/interlab``::

    python3 perfbench/run.py --workload small-families --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-families --seed 1 --trace 1
    python3 perfbench/run.py --quick --seed 3      # smoke test of every workload

One run measures one workload in this single-threaded process: a closed loop
with one client that starts the next verdict when the previous one returns,
cycling through the workload's cases (``workloads.py``) in whole cycles until
``--seconds`` have passed.  Every verdict is checked against its known
answer; a verdict that raises, exits non-zero or disagrees counts as failed.

Times are scaled by a pure-Python reference loop that touches no interlab
object and runs with gc disabled.  It is timed between batches of verdicts in
the same process; each verdict time is multiplied by REF_NOMINAL_S over the
mean of the loop times around its batch, so a slow phase of a shared machine
slows both and cancels out.  Raw seconds and the loop's own times are
printed before the result line.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one traced pass over the cycle gives the per-layer metrics
(``tracing.py``), whose counts repeat exactly for a seed, followed by an
untraced pass that prices the tracing.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The reference loop's time on the machine the benchmark was calibrated on
# (2-core x86-64 container, CPython 3.11); scaled times read as times on it.
REF_NOMINAL_S = 0.002
REF_REPEATS = 3
REF_EVERY_S = 0.2
SETUP_PROBES = 7


def _reference_work() -> int:
    """Fixed pure-Python work: Fraction arithmetic, dict updates, tuple
    building with set lookups, a small sort."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 - 3, i % 5 + 1)
    table = {}
    for i in range(2000):
        table[i % 17] = table.get(i % 17, 0) + i
    seen = set()
    hits = 0
    for i in range(1500):
        key = (i % 3, i % 5, i % 7)
        hits += key in seen
        seen.add(key)
    words = sorted(str(i * 7919 % 1000) for i in range(750))
    return total.numerator + len(table) + hits + len(words[0])


def reference_time() -> float:
    """Median time of the reference work, with gc disabled."""
    gc.disable()
    try:
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_interlab(cli: bool) -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import interlab
    from interlab import interchange

    if Path(interlab.__file__).resolve().parent != SRC / "interlab":
        fail_setup(f"imported interlab from {interlab.__file__}, not from {SRC}")
    il = SimpleNamespace(
        MeasureSpace=interlab.MeasureSpace, FnClass=interlab.FnClass,
        Family=interlab.Family, Capacity=interlab.Capacity,
        make_builtin=interlab.make_builtin, interchange=interchange,
    )
    if cli:
        import interlab.cli

        il.cli = interlab.cli
    return il


# --------------------------------------------------------------------------
# set-up probes: a fresh interpreter imports interlab and builds the objects

def setup_probe(args, workload) -> None:
    """Import interlab and build the objects; report what the parent must
    not count (input generation and the reference loop) and the loop time."""
    t0 = time.perf_counter()
    refs = [reference_time()]
    items = workload.plan(args.seed, args.quick)
    excluded_s = time.perf_counter() - t0
    il = import_interlab(workload.cli)
    workload.build(items, il, str(ROOT))
    t1 = time.perf_counter()
    refs.append(reference_time())
    excluded_s += time.perf_counter() - t1
    print("PROBE " + json.dumps({"excluded_s": excluded_s, "ref_s": sum(refs) / 2}),
          flush=True)


def measure_setup(args, workload, log) -> list:
    """Scaled set-up seconds of SETUP_PROBES fresh interpreters.

    Each probe is scaled by the reference loop timed inside the probe itself,
    which sees the probe's own core and phase of the machine."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    scaled, raw = [], []
    for _ in range(1 if args.quick else SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t_ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("PROBE "):
            sys.stderr.write(err)
            fail_setup(f"set-up probe failed with exit code {proc.returncode}")
        probe = json.loads(line[6:])
        seconds = t_ready - t0 - probe["excluded_s"]
        raw.append(seconds)
        scaled.append(seconds * REF_NOMINAL_S / probe["ref_s"])
        log["ref_s"].append(probe["ref_s"])
    log["setup_raw_s"] = raw
    return scaled


# --------------------------------------------------------------------------
# verdict loops

class Loop:
    """Runs verdicts, checks each, and keeps raw times in reference batches."""

    def __init__(self, log):
        self.log = log
        # Compact arrays, so that the benchmark's own memory does not grow
        # with the number of verdicts and move peak_rss_mb.
        self.seconds = array.array("d")
        self.batches = array.array("l")
        self.labels = {}     # label -> raw seconds
        self.refs = [reference_time()]
        self.last_ref = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def verdict(self, case, tracer=None, timed=True) -> None:
        if timed and time.perf_counter() - self.last_ref >= REF_EVERY_S:
            self.refs.append(reference_time())
            self.last_ref = time.perf_counter()
        before = tracer.subsets_scanned() if tracer else None
        error = None
        t0 = time.perf_counter()
        try:
            result = case.run()
        except Exception as e:  # a verdict that raises is a failed verdict
            result, error = None, f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if error is None:
            try:
                error = case.check(result)
            except Exception as e:  # a malformed report is a wrong answer
                error = f"report unreadable: {type(e).__name__}: {e}"
        if error is None and before is not None and case.subsets is not None:
            scanned = tracer.subsets_scanned() - before
            if scanned != case.subsets:
                error = f"scanned {scanned} subsets, expected {case.subsets}"
        if error is not None:
            self.failures.append(f"{case.label}: {error}")
        if timed:
            self.seconds.append(seconds)
            self.batches.append(len(self.refs) - 1)
            self.labels.setdefault(case.label, array.array("d")).append(seconds)

    def close(self) -> None:
        self.refs.append(reference_time())
        self.log["ref_s"].extend(self.refs)

    def scaled(self) -> list:
        """Verdict seconds scaled by the reference times around their batch."""
        return [s * REF_NOMINAL_S * 2 / (self.refs[b] + self.refs[b + 1])
                for s, b in zip(self.seconds, self.batches)]


def timed_run(args, cases, log) -> Loop:
    warm = Loop(log)
    deadline = time.perf_counter() + min(2.0, args.seconds / 10)
    for case in cases:
        warm.verdict(case, timed=False)
        if time.perf_counter() >= deadline:
            break
    loop = Loop(log)
    loop.attempted, loop.failures = warm.attempted, warm.failures
    start = time.perf_counter()
    while True:
        for case in cases:
            loop.verdict(case)
        if time.perf_counter() - start >= args.seconds:
            break
    loop.close()
    log["cycles"] = len(loop.seconds) // len(cases)
    log["loop_wall_s"] = time.perf_counter() - start
    return loop


def end_to_end(args, workload, cases, log, setup_scaled):
    loop = timed_run(args, cases, log)
    # Read before the statistics below allocate lists sized by the verdict count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = loop.scaled()
    raw = loop.seconds
    ms = [s * 1e3 for s in scaled]
    tail = percentile(ms, workload.tail_pct)
    metrics = {
        "verdict_ms_p50": statistics.median(ms),
        "verdict_ms_tail": tail,
        "verdicts_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    log.update(
        tail_pct=workload.tail_pct,
        tail_samples_beyond=sum(1 for v in ms if v > tail),
        timed_verdicts=len(scaled),
        raw={"verdict_ms_p50": statistics.median(raw) * 1e3,
             "verdict_ms_tail": percentile(raw, workload.tail_pct) * 1e3,
             "verdicts_per_s": len(raw) / sum(raw),
             "setup_s": statistics.median(log["setup_raw_s"])},
        case_ms_p50={k: round(statistics.median(v) * 1e3, 3)
                     for k, v in loop.labels.items()},
    )
    return loop, metrics


def traced(workload, items, il, workdir, log):
    """One traced pass for the per-layer metrics, then one untraced pass."""
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_loop = Loop(log)
        for case in workload.build(items, il, workdir):
            traced_loop.verdict(case, tracer=tracer)
        traced_loop.close()
    finally:
        tracer.uninstall()
    untraced_loop = Loop(log)
    for case in workload.build(items, il, workdir):
        untraced_loop.verdict(case)
    untraced_loop.close()
    metrics, absent = tracer.metrics(REF_NOMINAL_S / statistics.median(traced_loop.refs))
    vps = [len(items) / sum(loop.scaled()) for loop in (traced_loop, untraced_loop)]
    metrics["tracing.verdicts_per_s_delta"] = {"value": vps[0] - vps[1], "unit": "1/s"}
    log.update(absent=absent, skipped_names=tracer.missing,
               traced_verdicts_per_s=vps[0], untraced_verdicts_per_s=vps[1],
               moves={k: v[3] for k, v in LAYER_METRICS.items()})
    loops = (traced_loop, untraced_loop)
    return (sum(loop.attempted for loop in loops),
            [f for loop in loops for f in loop.failures], metrics)


UNITS = {"verdict_ms_p50": "ms", "verdict_ms_tail": "ms", "verdicts_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}


def run_workload(args, workload) -> int:
    os.environ["INTERLAB_BACKING"] = workload.backing
    log = {"workload": workload.name, "seed": args.seed, "backing": workload.backing,
           "loop": "closed, 1 client", "ref_nominal_s": REF_NOMINAL_S, "ref_s": []}
    t0 = time.perf_counter()
    items = workload.plan(args.seed, args.quick)
    log["input_gen_s"] = time.perf_counter() - t0
    setup_scaled = [] if args.trace else measure_setup(args, workload, log)
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=str(ROOT))
    try:
        if workload.cli:
            from workloads import write_scenarios

            write_scenarios(items, workdir)
        t0 = time.perf_counter()
        il = import_interlab(workload.cli)
        if args.trace:
            attempted, failures, metrics = traced(workload, items, il, workdir, log)
        else:
            cases = workload.build(items, il, workdir)
            log["in_process_setup_raw_s"] = time.perf_counter() - t0
            loop, values = end_to_end(args, workload, cases, log, setup_scaled)
            attempted, failures = loop.attempted, loop.failures
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(failures)
    log["failed_share"] = failed / attempted
    log["failures"] = failures[:20]
    refs = log.pop("ref_s")
    log["ref_s"] = {"n": len(refs), "median": statistics.median(refs),
                    "min": min(refs), "max": max(refs)}
    print_human(args, workload, log, metrics, attempted, failed)
    log.pop("moves", None)
    print("raw: " + json.dumps(log, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_human(args, workload, log, metrics, attempted, failed) -> None:
    mode = "traced" if args.trace else "end to end"
    print(f"workload {workload.name} ({mode}), seed {args.seed}, "
          f"backing {workload.backing}, closed loop, 1 client")
    for name, m in metrics.items():
        extra = ""
        if name in log.get("raw", {}):
            extra = f"  (raw {log['raw'][name]:.6g})"
        if name == "verdict_ms_tail":
            extra += (f"  p{workload.tail_pct:g}, {log['tail_samples_beyond']} of "
                      f"{log['timed_verdicts']} verdicts beyond")
        if name in log.get("moves", {}):
            extra = f"  -> {log['moves'][name]}"
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}{extra}")
    for name in log.get("absent", []):
        print(f"  {name:38s} {'absent':>14s}")
    print(f"  {'failed_share':38s} {failed / attempted:14.6g} share  "
          f"({failed} of {attempted} verdicts)")
    ref = log["ref_s"]
    print(f"  reference loop: nominal {REF_NOMINAL_S * 1e3:.3f} ms, measured median "
          f"{ref['median'] * 1e3:.3f} ms (min {ref['min'] * 1e3:.3f}, "
          f"max {ref['max'] * 1e3:.3f}, n {ref['n']})")
    for failure in log["failures"]:
        print(f"  FAILED {failure}")


def quick_all(args) -> int:
    """Every workload at a tiny size, untraced and traced."""
    failed = attempted = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--quick",
                   "--workload", name, "--seed", str(args.seed), "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{name:16s} trace {trace}: failed_share "
                  f"{result['failed'] / result['attempted']:.3g} "
                  f"({result['failed']} of {result['attempted']})")
            if result["failed"]:
                print("\n".join(line for line in lines if "FAILED" in line))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs; without --workload, smoke-test every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "interlab" / "__init__.py").is_file():
        fail_setup(f"no interlab sources under {SRC}; run from a checkout of the repository")
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required unless --quick is given")
        return quick_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        os.environ["INTERLAB_BACKING"] = workload.backing
        setup_probe(args, workload)
        return 0
    return run_workload(args, workload)


if __name__ == "__main__":
    sys.exit(main())
