#!/usr/bin/env python3
"""Benchmark of lfphillips: four closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src``.
Workloads:

* ``japan-cli``: one op is a fresh ``python -m lfphillips.cli`` (fit,
  scan-lag, scan-break, diagnose, forecast, plot) or
  ``scripts/reproduce_japan.py`` subprocess on ``data/japan``.
* ``scan-sweep``: one op is one exhaustive lag or break-year scan, on
  ``data/japan`` links and on seeded synthetic series at n=40 and n=160.
* ``long-series``: one op is one n=4000 fit (OLS, cumulative, or cumulative
  with a mid-window break and shared intercept) followed by an ADF test.
* ``scenario-sweep``: one op loads one seeded labor-force scenario and runs
  eq7-eq10, the three serializers and both SVG charts on it. It is left out
  of ``BENCHMARK.json``: its small, interpreter-bound operations run up to
  1.7x slower while the host is loaded, often for minutes, so its run-to-run
  spread exceeds the bounds there. Run it by name or with ``--workload all``.

With ``--trace 0`` the run reports end-to-end metrics: ``setup_s`` (the
median of nine set-up samples spread over the run, each a fresh-interpreter
import of numpy and the package plus loading the data, generating the seeded
inputs and computing the reference answers), ``ops_per_s``, ``op_ms.p90``
(the mean over one cycle's ops of each op's 90th-percentile latency),
``op_ms.best`` (the same mean of each op's fastest run: the uncontended cost)
and ``peak_rss_mb`` (of the CLI child processes for ``japan-cli``). Both
latency figures are taken per op and then averaged because a workload mixes
ops whose costs differ by 50x: a percentile of the pooled latencies falls in
the gap between two cost clusters, where a small shift of the host's speed
moves it by a quarter. The table also prints ``op_ms.p50`` and ``error_ratio``;
the latter is ``failed / attempted`` in the result line. With ``--trace 1``
the same operations run in alternating untraced and traced cycles, and the
run reports per-layer metrics (see ``layers.py``). Operations run in whole
cycles, at least two, after one untimed warm-up cycle; every output is checked
outside the timed region. The last line of standard output is the result as
JSON.

BLAS is pinned to one thread (also for the CLI children) so that runs on a
small shared machine stay comparable.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("japan-cli", "scan-sweep", "long-series", "scenario-sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
IMPORT_PROBES = 3
# what a workload process imports before its first operation
SETUP_IMPORTS = "numpy, lfphillips.cli, lfphillips.oracle"
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
         "op_ms.best": "ms", "peak_rss_mb": "MB", "error_ratio": "ratio"}
# Printed in the table but not in the result line: error_ratio is failed /
# attempted there, and on a host whose speed shifts in blocks of seconds the
# median of a tight latency mix jumps between the fast and slow speeds.
UNGATED = ("op_ms.p50", "error_ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description="lfphillips benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_cycle(ops, tracer=None):
    """Run each op once; returns (latencies in seconds, failed count).

    Only ``op.run`` is timed (and traced); its check follows outside the
    timed region.
    """
    latencies, failed = [], 0
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            error = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                op.check(output)
            except Exception as exc:  # CheckFailed, or a malformed output
                error = exc
        if error is not None:
            failed += 1
            print(f"FAILED {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
    return latencies, failed


def import_s(modules, env, repeats=IMPORT_PROBES):
    """Median wall time of ``import modules`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        runs.append(float(proc.stdout))
    return statistics.median(runs)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup_s, latencies, cycle_length, rss_from_children):
    """``latencies`` holds whole cycles of ``cycle_length`` ops, in op order."""
    who = resource.RUSAGE_CHILDREN if rss_from_children else resource.RUSAGE_SELF
    per_op = [latencies[i::cycle_length] for i in range(cycle_length)]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.p90": 1e3 * statistics.fmean(
            statistics.quantiles(s, n=10, method="inclusive")[-1] for s in per_op),
        "op_ms.best": 1e3 * statistics.fmean(min(s) for s in per_op),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def run_workload(args):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "lfphillips").is_dir() or not (ROOT / "data" / "japan").is_dir():
        print(f"error: {ROOT} holds no src/lfphillips or data/japan to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads
    from tracer import Tracer

    env = workloads.child_env()
    prepare = workloads.WORKLOADS[args.workload]
    work = ROOT / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        def setup(k):
            """One set-up sample: fresh-interpreter imports plus ``prepare``."""
            d = workdir / f"setup{k}"
            d.mkdir()
            t0 = time.perf_counter()
            prepared = prepare(args.seed, d)
            elapsed = time.perf_counter() - t0
            return import_s(SETUP_IMPORTS, env, repeats=1) + elapsed, prepared

        first, prepared = setup(0)
        setups = [first]
        traced = bool(args.trace)
        ops = prepared.traced_ops if traced else prepared.ops
        _, failed = run_cycle(ops)  # warm-up
        attempted = len(ops)
        latencies, plain = [], []
        tracer = Tracer()
        start = time.perf_counter()
        paused = 0.0  # time spent on set-up samples inside the timed run
        cycles = 0
        while cycles < 2 or time.perf_counter() - start - paused < args.seconds:
            cycles += 1
            if traced:
                # alternate plain and traced cycles so both see the same machine
                lat, f = run_cycle(ops)
                plain += lat
                failed += f
                with layers.installed(tracer):
                    lat, f = run_cycle(ops, tracer=tracer)
            else:
                lat, f = run_cycle(ops)
            latencies += lat
            failed += f
            # spread the set-up samples over the run: the host's speed shifts
            # in blocks of seconds, and samples taken back to back share one
            due = len(setups) * args.seconds / SETUP_SAMPLES
            if len(setups) < SETUP_SAMPLES and time.perf_counter() - start - paused >= due:
                t0 = time.perf_counter()
                setups.append(setup(len(setups))[0])
                paused += time.perf_counter() - t0
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup(len(setups))[0])
        setup_s = statistics.median(setups)
        attempted += len(latencies) + len(plain)
        if not traced:
            metrics = end_to_end(setup_s, latencies, len(ops), prepared.rss_from_children)
            metrics["error_ratio"] = failed / attempted
        else:
            metrics = layers.layer_metrics(tracer.spans, len(latencies))
            metrics["trace.overhead_ratio"] = sum(plain) / len(plain) / (
                sum(latencies) / len(latencies))
            metrics["import.lfphillips_cli.ms"] = 1e3 * import_s("lfphillips.cli", env)
            metrics["import.numpy.ms"] = 1e3 * import_s("numpy", env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run is still using it

    units = layers.UNITS if traced else UNITS
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name in units:
        print(f"{args.workload:15s} {name:34s} {metrics[name]:>14.6g} {units[name]}")
    reported = units if traced else {k: u for k, u in UNITS.items() if k not in UNGATED}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }))
    return 0


def run_all(args):
    """Every workload, each in its own process, as one table."""
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
