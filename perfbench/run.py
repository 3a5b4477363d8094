#!/usr/bin/env python3
"""Benchmark of the ringspin command line, driven in process.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One client runs ops in a closed loop: an op is one pass over the workload's
CLI commands (see workloads.py), each a call to ringspin.cli.main(argv) in
this process with its output captured.  The package is imported from this
checkout's src/, never from an installed copy.

--trace 0  times ops with tracing off and reports the end-to-end metrics;
           paper-sweep and validate timings are scaled by a machine-speed
           probe (probe.py).
--trace 1  runs half the time untraced, then half with every ringspin
           function wrapped (tracer.py), and reports the per-layer metrics.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it holds the details (sample counts, percentiles,
inputs, provenance).  The full record, spans included, is written to
perfbench/out/.  An op fails when a command raises, exits nonzero or fails
its output check; every op, the cold first one included, counts as attempted.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from probe import REFERENCE_S, Probe
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("paper-sweep", "large-map", "validate")
MIN_OPS = 3          # timed ops per phase, however short the run
SETUP_REPEATS = 15   # fresh interpreters timed for setup_s
PROBE_SHARE = 0.05   # probe time after each op, as a share of that op's time
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBLEMS_KEPT = 20

# per-layer metrics reported as self seconds (and calls) per traced op
SELF_TIMED = (
    "metrics.error_map", "metrics.probability_map", "metrics.accuracy_threshold",
    "spectral.mode_eigenvalues", "spectral.pair_mode_weights", "spectral.amplitude",
    "spectral.evolve", "oracle.dense_eigen", "oracle.expm_propagate",
    "oracle.simpson_integral", "chain.build_matrix", "chain.dipolar_ratios",
    "fitting.fit_decay", "cli.main",
)
CALL_COUNTED = ("spectral.mode_eigenvalues", "spectral.pair_mode_weights", "spectral.amplitude")


def import_program():
    """ringspin.cli from this checkout's sources; exits when they are absent."""
    if not (SRC / "ringspin" / "cli.py").is_file():
        raise SystemExit(f"error: ringspin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringspin.cli

    if not Path(ringspin.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported ringspin from {ringspin.cli.__file__}, not {SRC}")
    return ringspin.cli


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import ringspin.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ringspin.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    # dlsym on numpy's linalg extension also searches the BLAS it links
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            break
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    return info


def provenance(seed: int) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringspin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it; the median when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    p = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), 50.0)
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


class Run:
    """One benchmark run: the op loop, its checks and its counters."""

    def __init__(self, cli, plan):
        self.cli = cli
        self.plan = plan
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes: list[int] = []

    def execute(self) -> tuple[float, dict[str, str], list[str]]:
        texts, problems = {}, []
        start = perf_counter()
        for cmd in self.plan.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(cmd.argv))
            texts[cmd.label] = out.getvalue()
            if code != 0:
                problems.append(f"{cmd.label} exited {code}: {err.getvalue().strip()[:200]}")
        elapsed = perf_counter() - start
        for cmd in self.plan.commands:
            if cmd.out is not None:
                texts[cmd.label] = cmd.out.read_text()
        return elapsed, texts, problems

    def op(self) -> float:
        """Run, time and check one op; returns its wall seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            elapsed, texts, problems = self.execute()
            self.output_bytes.append(sum(len(t) for t in texts.values()))
            if not problems:
                result = workloads.parse_outputs(self.plan, texts)
                problems = workloads.check_op(self.plan, result, self.first)
                if self.first is None:
                    self.first = result
        except Exception:  # an op that raises is a failed op, not a failed run
            elapsed = perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: PROBLEMS_KEPT - len(self.problems)])
        return elapsed

    def loop(self, seconds: float, started: float, after_op=None) -> list[float]:
        """Closed loop until `seconds` after `started`: stops when the median
        op so far would overrun, after at least MIN_OPS ops.  `after_op(s)`
        runs after each op, outside its timing, with the op's seconds."""
        samples = []
        while len(samples) < MIN_OPS or (
                perf_counter() - started + statistics.median(samples) <= seconds):
            samples.append(self.op())
            if after_op is not None:
                after_op(samples[-1])
        return samples

    def check_reference(self) -> None:
        if self.first is None:
            return
        problems = workloads.check_reference(self.plan, self.first)
        if problems:
            # every op matched the first op, so all of them share its defect
            self.failed = self.attempted
            self.problems.extend(problems[:PROBLEMS_KEPT])


def end_to_end(run: Run, seconds: float, details: dict) -> dict:
    """Op timings are scaled to the probe's reference speed (probe.py) when
    the plan asks for it; the wall-clock values go to the details."""
    setup = measure_setup()
    started = perf_counter()
    details["first_op_s"] = run.op()
    samples = [run.op()]
    # an op's memory peak repeats from op to op; read it before the probe,
    # whose buffers could otherwise raise the high-water mark
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.plan.speed_probe:
        probe, probes = Probe(), []

        def run_probes(op_s: float) -> None:
            spent = 0.0
            while spent == 0.0 or spent < PROBE_SHARE * op_s:
                probes.append(probe.run())
                spent += probes[-1]

        run_probes(samples[0])
        samples += run.loop(seconds, started, after_op=run_probes)
        speed = REFERENCE_S / statistics.median(probes)
        details.update(probe_s_samples=probes, probe_s_p50=statistics.median(probes))
    else:
        samples += run.loop(seconds, started)
        speed = 1.0
    p_tail, v_tail = tail(samples)
    details.update(
        op_count=len(samples), op_s_samples=samples, setup_s_samples=setup, speed_scale=speed,
        wall_op_s_p50=statistics.median(samples), wall_ops_per_s=len(samples) / sum(samples),
        op_s_tail={"percentile": p_tail, "value": v_tail, "count": len(samples)})
    return {
        "ops_per_s": {"value": len(samples) / sum(samples) / speed, "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(samples) * speed, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(run: Run, seconds: float, details: dict) -> tuple[dict, list]:
    started = perf_counter()
    first_op = run.op()
    untraced = run.loop(seconds / 2.0, started)
    tracer = Tracer(op_id=lambda: run.attempted)
    tracer.install()
    try:
        traced = run.loop(seconds / 2.0, perf_counter())
    finally:
        tracer.uninstall()
    own, calls = tracer.self_times()
    ops = len(traced)
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = {"value": own.get(name, 0.0) / ops, "unit": "s"}
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0) / ops, "unit": "count"}
    for layer in LAYERS:
        total = sum(t for name, t in own.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = {"value": total / ops, "unit": "s"}
    counts = tracer.counts
    metrics["metrics.clipped_errors"] = {
        "value": run.first.clipped_errors() if run.first else 0, "unit": "count"}
    metrics["fitting.iterations"] = {"value": counts["fitting.iterations"] / ops, "unit": "count"}
    metrics["fitting.converged_ratio"] = {
        "value": counts["fitting.converged"] / counts["fitting.fits"] if counts["fitting.fits"]
        else 0.0, "unit": "ratio"}
    metrics["cli.output_bytes"] = {
        "value": statistics.median(run.output_bytes) if run.output_bytes else 0, "unit": "B"}
    p_tail, v_tail = tail(untraced)
    metrics["loop.first_op_s"] = {"value": first_op, "unit": "s"}
    metrics["loop.op_s_tail"] = {"value": v_tail, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1.0, "unit": "ratio"}
    details.update(
        untraced_samples=untraced, traced_samples=traced,
        op_s_tail={"percentile": p_tail, "value": v_tail, "count": len(untraced)},
        self_s_per_op={name: t / ops for name, t in sorted(own.items())},
        calls_per_op={name: c / ops for name, c in sorted(calls.items())},
    )
    return metrics, tracer.spans


def run_workload(args) -> int:
    cli = import_program()
    work = OUT / f"{args.workload}-seed{args.seed}"
    plan = workloads.make_plan(args.workload, args.seed, work)
    run = Run(cli, plan)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commands": [c.argv for c in plan.commands],
        "params": plan.params, "provenance": provenance(args.seed),
    }
    spans = []
    if args.trace:
        metrics, spans = per_layer(run, args.seconds, details)
    else:
        metrics = end_to_end(run, args.seconds, details)
    run.check_reference()
    details["problems"] = run.problems
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"details": details, "result": result, "spans": spans,
              "span_fields": ["op", "name", "start", "end", "parent"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"details": {k: v for k, v in details.items()
                                  if not k.endswith("samples")}}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12s} {name:40s} {metric['value']:.6g} {metric['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{workload:12s} {'error_rate':40s} {rate:.6g} "
              f"({result['failed']}/{result['attempted']} ops)")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        if not (SRC / "ringspin").is_dir():
            raise SystemExit(f"error: ringspin sources not found under {SRC}")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
