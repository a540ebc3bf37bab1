"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics instead.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the run record (machine, versions, executor, settings).
Everything the run writes goes under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from layers import install_engine_boundary, install_layers, layer_metrics, stage_metrics
from spans import Patcher, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"
#: Untraced runs repeat input generation this many times; setup_s takes the median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> tuple:
    """Keep every file the run writes inside the checkout.

    The native tape executor caches its compiled library under
    ``$XDG_CACHE_HOME/repro-netlist``; pointing that (and ``TMPDIR``) into
    the work directory keeps the build cache in the checkout.  Returns the
    per-run scratch directory and whether the build cache started cold.
    """
    cache_home = WORK_DIR / "cache"
    cache_home.mkdir(parents=True, exist_ok=True)
    scratch = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["XDG_CACHE_HOME"] = str(cache_home)
    os.environ["TMPDIR"] = str(scratch)
    cold = not glob.glob(str(cache_home / "repro-netlist" / "tape_exec_*"))
    return scratch, cold


def peak_rss_mb() -> dict:
    """Peak RSS (MB) of this process and of its largest finished child."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "largest_child": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def end_to_end(outcome, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": sum(peak_rss_mb().values()),
        "units_per_s": outcome.units / outcome.elapsed_s,
        "request_p50_s": statistics.median(outcome.latencies),
        "result_quality": outcome.quality,
    }


def traced(workload, make_inputs, seconds: float):
    """Per-layer metrics from three passes over the same requests.

    ``seconds`` is half the run's ``--seconds``, so the three passes
    together take about 1.25 times as long as an untraced run.

    1. ``engine_mode="serial"`` with every layer wrapped, for ``seconds``;
    2. ``engine_mode="serial"`` unwrapped, replaying a prefix of the traced
       requests worth about ``seconds / 2``: the untraced reference for the
       tracing overhead;
    3. default engine settings replaying every traced request, with only
       the engine's process-pool boundary wrapped (spans opened in pool
       children would never reach this process).

    Each pass gets freshly generated inputs and an empty compiled-program
    cache, so none of them runs warmer than a first pass in a new process.
    """
    from repro.circuits.compiled import clear_program_cache

    def run_pass(**kwargs):
        inputs = make_inputs()
        clear_program_cache()
        return workload.execute(inputs, seconds=seconds, **kwargs)

    tracer = Tracer()
    with Patcher() as patcher:
        caches = install_layers(tracer, patcher)
        serial = run_pass(engine_mode="serial")
    requests = serial.requests
    prefix, spent = 1, serial.latencies[0]
    while prefix < requests and spent + serial.latencies[prefix] <= seconds / 2:
        spent += serial.latencies[prefix]
        prefix += 1
    plain = run_pass(engine_mode="serial", requests=prefix)
    pool_tracer = Tracer()
    with Patcher() as patcher:
        install_engine_boundary(pool_tracer, patcher)
        default = run_pass(requests=requests)

    metrics = layer_metrics(tracer, caches)
    metrics.update(stage_metrics(serial.timings))
    metrics["engine.pool_fanouts"] = pool_tracer.counters.get("engine.pool_fanouts", 0)
    metrics["engine.pool_s"] = pool_tracer.counters.get("engine.pool_s", 0.0)
    metrics["trace.dark_s"] = serial.warmup_s + serial.elapsed_s - tracer.top_level_time()
    metrics["trace.overhead_s"] = spent - sum(plain.latencies)
    if serial.digest != default.digest:
        default.fail("serial pass results differ from the default-mode pass")
    for other in (plain, serial):
        default.problems.extend(other.problems)
        default.attempted += other.attempted
    return default, metrics, {
        "requests": requests,
        "serial_traced_s": serial.elapsed_s,
        "overhead_prefix_requests": prefix,
        "overhead_prefix_traced_s": spent,
        "overhead_prefix_untraced_s": sum(plain.latencies),
        "default_mode_s": default.elapsed_s,
        "spans": len(tracer.names),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch, native_cold = prepare_environment()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        started = time.perf_counter()
        import numpy
        import repro.api, repro.autoax, repro.service  # noqa: E401,F401
        import_s = time.perf_counter() - started
        from repro.circuits._native import native_available
        from repro.circuits.compiled import clear_program_cache

        started = time.perf_counter()
        native = native_available()
        native_s = time.perf_counter() - started

        import scenarios

        workloads = {
            "paper_flow": scenarios.PaperFlow,
            "service_mix": lambda: scenarios.ServiceMix(scratch),
        }
        workload = workloads[args.workload]()
        generation_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            started = time.perf_counter()
            inputs = workload.make_inputs(args.seed)
            generation_s.append(time.perf_counter() - started)
        setup_s = import_s + native_s + statistics.median(generation_s)

        trace_info = None
        if args.trace:
            spare = [inputs]
            outcome, metrics, trace_info = traced(
                workload,
                lambda: spare.pop() if spare else workload.make_inputs(args.seed),
                args.seconds / 2,
            )
        else:
            clear_program_cache()
            outcome = workload.execute(inputs, seconds=args.seconds)
        workload.check(inputs, outcome)
        if not args.trace:
            metrics = end_to_end(outcome, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_executor": native,
        "native_build_cache_cold": native_cold,
        "engine": {"engine_mode": "auto", "sim_backend": "auto", "max_workers": None},
        "setup": {"import_s": import_s, "native_load_s": native_s, "inputs_s": generation_s},
        "peak_rss_mb": peak_rss_mb(),
        "requests": outcome.requests,
        "request_latencies_s": outcome.latencies,
        "named_metrics": outcome.named,
        "digest": outcome.digest,
        "problems": outcome.problems[:20],
        "trace_passes": trace_info,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
