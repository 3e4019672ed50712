#!/usr/bin/env python3
"""The nanowords benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fingerprint-sweep --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the package is imported from ``src/``
next to this directory, and the run stops with exit code 2 and no result when
it is missing.  Set-up (import, input generation, warm-up) is repeated and its
median reported.  The measured phase makes as many whole passes over the op
list as fit in ``--seconds`` at the workload's nominal pass time (at least
one).  Times are best-of-passes: the fastest pass, and each op's fastest run.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics declared in BENCHMARK.json instead.

Stdout: one JSON line of run information (environment, calibration, digest,
size histogram, the full layer table when tracing), then the result object as
the last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
CALIBRATION_LOOP = 1_000_000


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list
    results: list


def fresh_program():
    """Import the package anew and return its layer modules as a namespace."""
    for name in [n for n in sys.modules if n == "nanowords" or n.startswith("nanowords.")]:
        del sys.modules[name]
    package = importlib.import_module("nanowords")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "nanowords":
        raise ImportError(f"nanowords imported from {package.__file__}, not from src/")
    return types.SimpleNamespace(**tracer.layer_modules())


def calibrate() -> float:
    """A fixed pure-Python loop; its time shows host-speed drift between runs."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(ops, tracer=None) -> Pass:
    latencies, results = [], []
    wall0, cpu0 = perf_counter(), process_time()
    for op in ops:
        if tracer is not None:
            tracer.new_op()
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            traceback.print_exc(file=sys.stderr)
            result = exc
        latencies.append(perf_counter() - t0)
        results.append(result)
    return Pass(perf_counter() - wall0, process_time() - cpu0, latencies, results)


def measure(ops, count: int) -> tuple[list[Pass], float]:
    """``count`` passes, and the peak RSS in MB after the first one.  Results of
    later passes are kept only as text."""
    passes = [run_pass(ops)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(count - 1):
        p = run_pass(ops)
        p.results = [_as_text(op, r) for op, r in zip(ops, p.results)]
        passes.append(p)
    return passes, peak_rss_mb


def check_passes(ops, passes) -> tuple[int, str]:
    """Failed op executions, and the digest of the first pass's result texts.

    The first pass is checked in full; a later pass must reproduce its text.
    """
    failed = 0
    texts = []
    for i, op in enumerate(ops):
        first = passes[0].results[i]
        text = None
        if not isinstance(first, Exception):
            try:
                if op.check(first):
                    text = op.text(first)
            except Exception:  # a check that raises is a failed check
                traceback.print_exc(file=sys.stderr)
        texts.append(text if text is not None else f"FAILED {op.label}")
        for p in passes:
            result = p.results[i]
            if text is None or (p is not passes[0] and _as_text(op, result) != text):
                failed += 1
    digest = hashlib.sha256("\n\x00".join(texts).encode()).hexdigest()
    return failed, digest


def _as_text(op, result):
    """A later pass's result as text; an exception from the op stays as it is."""
    return result if isinstance(result, (str, Exception)) else op.text(result)


def tail(per_op_ms: list[float]) -> tuple[float, str]:
    """The highest latency percentile with at least ten samples beyond it."""
    ordered = sorted(per_op_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"p100 (max; n={n} has no percentile with ten samples beyond it)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} (n={n})"


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nanowords").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
            "commit": commit, "src_sha256": src.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (run information, result object)."""
    build, warm_up, pass_s = workloads.WORKLOADS[name]
    workdir = str(ROOT / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous import's garbage is not this set-up's cost
            t0 = perf_counter()
            P = fresh_program()
            ops = build(P, seed, workdir, tiny)
            warm_up(P, workdir)
            setup_times.append(perf_counter() - t0)

        calibration = [calibrate()]
        gc.collect()
        if trace:
            passes = [run_pass(ops)]
            with tracer.Tracer() as tr:
                passes.append(run_pass(ops, tr))
        else:
            passes, peak_rss_mb = measure(ops, max(1, int(seconds // pass_s)))
        calibration.append(calibrate())
        failed, digest = check_passes(ops, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(ops) * len(passes)

    per_op_ms = [1000 * min(p.latencies[i] for p in passes) for i in range(len(ops))]
    tail_ms, tail_label = tail(per_op_ms)
    info = {"workload": name, **environment(seed), "passes": len(passes),
            "ops_per_pass": len(ops), "sizes": dict(sorted(Counter(op.size for op in ops).items())),
            "calibration_s": calibration, "setup_s_each": setup_times,
            "pass_wall_s": [p.wall for p in passes], "op_ms": per_op_ms,
            "fail_ratio": failed / attempted, "op_ms_tail_percentile": tail_label,
            "digest": digest}
    if trace:
        layers = tr.metrics()
        layers["trace.overhead_s"] = passes[1].wall - passes[0].wall
        info["layers"] = layers
        wanted = declared["per_layer"]
    else:
        best = min(passes, key=lambda p: p.wall)
        layers = {
            "setup_s": statistics.median(setup_times),
            "wall_s": best.wall,
            "cpu_s": best.cpu,
            "ops_per_s": len(ops) / best.wall,
            "op_ms_p50": statistics.median(per_op_ms),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in layers]
    if missing:
        info["missing_metrics"] = missing
    metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nanowords" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'nanowords'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
