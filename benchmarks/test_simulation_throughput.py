"""Simulation throughput: bool reference vs compiled backend.

The workload is the paper's Monte-Carlo error-evaluation inner loop: one
vectorised simulation pass of an exact multiplier over a seeded operand
sample, at 8/12/16-bit operand widths.  Two timings are recorded per width
and backend:

* **kernel** -- the per-circuit marginal cost inside
  :class:`~repro.error.ErrorEvaluator`, which lays the operands out once
  per word layout (bit matrix or packed planes) and keeps the
  compiled-program cache warm across the loop.  That is ``simulate_bits``
  on the shared bit matrix for ``"bool"``, and the plane-level pass
  ``simulate_planes_compiled`` on the shared packed planes for
  ``"compiled"``.
* **end-to-end** -- ``simulate_words`` (word expansion + simulation +
  word collapse) under each backend key, nothing shared.

Both backends must be bit-identical.  In full mode the 16-bit floors are
enforced: compiled kernel >= 12x over bool, end to end >= 1.8x.  The
measured table is also written to ``BENCH_simulation.json`` at the repo
root (per-backend seconds, throughput and speedups) as the first artifact
of the ROADMAP's perf-trajectory item.  Set ``REPRO_BENCH_QUICK=1`` to
shrink the workload and drop the wall-clock floors (CI smoke / loaded
machines).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import (
    bits_to_words,
    compile_netlist,
    pack_bits,
    random_operands,
    simulate_bits,
    simulate_planes_compiled,
    simulate_words,
    unpack_bits,
)
from repro.circuits.simulate import expand_operand_bits
from repro.generators import array_multiplier

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
NUM_SAMPLES = 4096 if QUICK else 65536
WIDTHS = (8,) if QUICK else (8, 12, 16)

#: Enforced 16-bit floors in full mode (an idle machine measures the
#: compiled kernel at ~100x over bool and end to end at ~3x).
COMPILED_VS_BOOL_FLOOR = 12.0
END_TO_END_SPEEDUP_FLOOR = 1.8

BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_simulation.json"


def _best_of(callable_, repeats=2):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_simulation_throughput_across_backends(benchmark):
    rng = np.random.default_rng(97)
    rows = []

    def run_workload():
        for width in WIDTHS:
            multiplier = array_multiplier(width)
            operands = random_operands(multiplier, NUM_SAMPLES, rng)
            input_bits = expand_operand_bits(multiplier, operands)
            input_planes = pack_bits(input_bits.T)

            compile_start = time.perf_counter()
            compile_netlist(multiplier)  # warm the per-fingerprint cache
            compile_s = time.perf_counter() - compile_start

            bool_kernel_s, bool_bits = _best_of(lambda: simulate_bits(multiplier, input_bits))
            compiled_kernel_s, compiled_planes = _best_of(
                lambda: simulate_planes_compiled(multiplier, input_planes)
            )
            assert np.array_equal(unpack_bits(compiled_planes, NUM_SAMPLES).T, bool_bits)

            e2e_s, e2e_words = {}, {}
            for backend in ("bool", "compiled"):
                e2e_s[backend], e2e_words[backend] = _best_of(
                    lambda backend=backend: simulate_words(
                        multiplier, operands, backend=backend
                    )
                )
            assert np.array_equal(e2e_words["bool"], e2e_words["compiled"])
            assert np.array_equal(bits_to_words(bool_bits), e2e_words["bool"])

            kernel_s = {"bool": bool_kernel_s, "compiled": compiled_kernel_s}
            rows.append(
                {
                    "width": width,
                    "gates": multiplier.num_gates,
                    "patterns": NUM_SAMPLES,
                    "compile_s": compile_s,
                    "backends": {
                        backend: {
                            "kernel_s": kernel_s[backend],
                            "kernel_patterns_per_s": NUM_SAMPLES / max(kernel_s[backend], 1e-9),
                            "kernel_speedup_vs_bool": bool_kernel_s / max(kernel_s[backend], 1e-9),
                            "e2e_s": e2e_s[backend],
                            "e2e_speedup_vs_bool": e2e_s["bool"] / max(e2e_s[backend], 1e-9),
                        }
                        for backend in kernel_s
                    },
                }
            )
        return rows

    benchmark.pedantic(run_workload, rounds=1, iterations=1)

    print(f"\n=== Simulation throughput ({NUM_SAMPLES} MC patterns, kernel = per-circuit marginal) ===")
    print(
        f"{'width':>6} {'gates':>6} {'bool':>9} {'compiled':>9} "
        f"{'cc/bool':>8} {'e2e':>6} {'compile':>8}"
    )
    for row in rows:
        backends = row["backends"]
        print(
            f"{row['width']:>5}b {row['gates']:>6} "
            f"{backends['bool']['kernel_s'] * 1000:>7.1f}ms "
            f"{backends['compiled']['kernel_s'] * 1000:>7.2f}ms "
            f"{backends['compiled']['kernel_speedup_vs_bool']:>7.1f}x "
            f"{backends['compiled']['e2e_speedup_vs_bool']:>5.1f}x "
            f"{row['compile_s'] * 1000:>6.1f}ms"
        )

    BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "simulation_throughput",
                "workload": "monte_carlo_array_multiplier",
                "quick": QUICK,
                "num_samples": NUM_SAMPLES,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {BENCH_JSON_PATH}")

    if not QUICK:
        by_width = {row["width"]: row for row in rows}
        row16 = by_width[16]
        assert (
            row16["backends"]["compiled"]["kernel_speedup_vs_bool"] >= COMPILED_VS_BOOL_FLOOR
        ), row16
        assert (
            row16["backends"]["compiled"]["e2e_speedup_vs_bool"] >= END_TO_END_SPEEDUP_FLOOR
        ), row16


def test_streaming_evaluation_memory_and_equivalence():
    """Chunked Monte-Carlo evaluation bounds the bit-matrix footprint.

    A 16-bit multiplier over 65536 patterns needs a ~patterns x nodes
    boolean working set per simulation in one-shot mode; streaming in 4096
    pattern blocks caps it at 1/16th while reproducing the one-shot MED /
    WCE / error-rate exactly.
    """
    from repro.error import ErrorEvaluator
    from repro.generators import perturb_netlist, truncated_multiplier

    width = 8 if QUICK else 16
    num_samples = 2048 if QUICK else 65536
    chunk = 256 if QUICK else 4096
    reference = array_multiplier(width)
    circuits = [truncated_multiplier(width, width // 2), perturb_netlist(reference, seed=3)]

    one_shot = ErrorEvaluator(
        reference, max_exhaustive_inputs=10, num_samples=num_samples, sim_backend="compiled"
    )
    streaming = ErrorEvaluator(
        reference,
        max_exhaustive_inputs=10,
        num_samples=num_samples,
        sim_backend="compiled",
        chunk_patterns=chunk,
    )
    start = time.perf_counter()
    for circuit in circuits:
        full = one_shot.evaluate(circuit).metrics
        chunked = streaming.evaluate(circuit).metrics
        for field in ("med", "mae", "wce", "wce_relative", "error_probability", "mse"):
            assert getattr(chunked, field) == getattr(full, field), field
        assert chunked.mre == pytest.approx(full.mre, rel=1e-12)
    elapsed = time.perf_counter() - start

    one_shot_bytes = num_samples * reference.num_nodes
    streaming_bytes = chunk * reference.num_nodes
    print(
        f"\nstreaming evaluation ({width}-bit multiplier, {num_samples} patterns, "
        f"chunk={chunk}): working set {one_shot_bytes / 1e6:.0f} MB -> "
        f"{streaming_bytes / 1e6:.1f} MB, both passes in {elapsed * 1000:.0f} ms"
    )
