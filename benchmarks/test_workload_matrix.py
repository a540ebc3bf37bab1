"""Scenario-matrix gate: every workload x every strategy x both sim backends.

The scenario-diversity claim ("the flow is workload-agnostic") used to
rest on three convolution workloads through one strategy; this benchmark
turns it into an *enforced* matrix.  Every cell of

    registered workload  x  registered search strategy  x  {bool, compiled}

runs the AutoAx-FPGA flow twice (cold + warm repeat) through a fresh
:class:`repro.api.ExplorationSession` sharing one per-backend cache, and
the gate pins

* a non-empty exact Pareto front and a sane hypervolume comparison per
  cell;
* a 100 % warm-repeat hit rate per cell on the **exact-evaluation cache
  domain** (``axq:`` keys).  Only that domain is gated: the estimator
  cache domain (``axe:``) is *designed* to miss across runs, because
  estimators mint a fresh ``cache_token`` per ``fit()`` (estimates from a
  differently-trained surrogate must never be reused);
* zero cross-workload cache aliasing: every workload's engine cache
  namespace (``accelerator_token``) is distinct, and re-running workload
  A after workload B never creates new exact-domain misses for A;
* **coverage by construction**: the matrix iterates the pinned cell
  tables below, and :func:`test_matrix_covers_registries` fails the run
  if a registered workload or strategy is missing from them (register a
  new one -> add it to the matrix, or the gate goes red).

The measured cell table is written to ``BENCH_workload_matrix.json`` at
the repo root (uploaded as a CI artifact by the ``workload-matrix`` job).
Set ``REPRO_BENCH_QUICK=1`` (the CI jobs do) to shrink the study sizes.
No wall-clock floors are asserted: the gate pins structural and
cache-accounting properties only, so it is stable on loaded machines.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import ExplorationSession
from repro.autoax import SEARCH_STRATEGIES, AutoAxConfig, components_from_library
from repro.engine import EvalCache, accelerator_token
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import WORKLOADS, build_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_workload_matrix.json"

#: The pinned matrix axes.  These are deliberately literal tuples, not
#: ``WORKLOADS.keys()``: the coverage test compares them against the live
#: registries, so registering a new workload or strategy *without* adding
#: it here fails the gate instead of silently shrinking coverage.
MATRIX_WORKLOADS = ("dct", "fir", "fir_mixed", "gaussian", "mvm", "sharpen", "sobel")
MATRIX_STRATEGIES = ("hill_climb", "nsga2", "random_archive", "sh_ehvi")
MATRIX_BACKENDS = ("bool", "compiled")

STUDY = dict(
    parameters=("area",),
    num_training_samples=6 if QUICK else 10,
    num_random_baseline=4 if QUICK else 8,
    hill_climb_iterations=16 if QUICK else 40,
    image_size=12 if QUICK else 16,
    seed=11,
)


class DomainCountingCache(EvalCache):
    """EvalCache that additionally counts lookups/hits per key domain.

    Cache keys are ``"<domain>:<context>:<subject>"``; the warm-repeat
    gate must measure the exact-evaluation domain (``axq``) in isolation,
    because the estimator domain (``axe``) misses across runs by design
    (fresh per-fit ``cache_token``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.domain_lookups: dict = {}
        self.domain_hits: dict = {}

    def get(self, key: str):
        value = super().get(key)
        domain = key.split(":", 1)[0]
        self.domain_lookups[domain] = self.domain_lookups.get(domain, 0) + 1
        if value is not None:
            self.domain_hits[domain] = self.domain_hits.get(domain, 0) + 1
        return value

    def snapshot(self):
        return dict(self.domain_lookups), dict(self.domain_hits)


@pytest.fixture(scope="module")
def components():
    multipliers = components_from_library(
        build_multiplier_library(8, size=24 if QUICK else 40, seed=31), 6, max_error=0.1
    )
    adders = components_from_library(
        build_adder_library(16, size=18 if QUICK else 28, seed=37), 5, max_error=0.02
    )
    return multipliers, adders


def test_matrix_covers_registries():
    """Registering a workload or strategy without adding it to the matrix
    is a gate failure, not a silent coverage gap."""
    missing_workloads = set(WORKLOADS.keys()) - set(MATRIX_WORKLOADS)
    assert not missing_workloads, (
        f"workloads registered but missing from the scenario matrix: "
        f"{sorted(missing_workloads)}; add them to MATRIX_WORKLOADS in "
        f"{__file__}"
    )
    missing_strategies = set(SEARCH_STRATEGIES.keys()) - set(MATRIX_STRATEGIES)
    assert not missing_strategies, (
        f"search strategies registered but missing from the scenario matrix: "
        f"{sorted(missing_strategies)}; add them to MATRIX_STRATEGIES in "
        f"{__file__}"
    )
    # The matrix may not claim cells that do not exist either.
    assert set(MATRIX_WORKLOADS) == set(WORKLOADS.keys())
    assert set(MATRIX_STRATEGIES) == set(SEARCH_STRATEGIES.keys())


def test_unregistered_matrix_entry_fails_the_gate():
    """The coverage check actually trips: a workload registered behind the
    matrix's back turns the gate red."""

    class _Phantom:  # pragma: no cover - never instantiated
        pass

    WORKLOADS.register("phantom-matrix-probe")(_Phantom)
    try:
        with pytest.raises(AssertionError, match="phantom-matrix-probe"):
            test_matrix_covers_registries()
    finally:
        WORKLOADS.unregister("phantom-matrix-probe")
    # ... and the registry is clean again afterwards.
    test_matrix_covers_registries()


def test_workload_tokens_are_pairwise_distinct(components):
    """Zero cross-workload aliasing at the key level: every registered
    workload gets its own engine cache namespace."""
    tokens = {
        workload: accelerator_token(build_workload(workload, *components))
        for workload in MATRIX_WORKLOADS
    }
    assert len(set(tokens.values())) == len(MATRIX_WORKLOADS), tokens


def test_scenario_matrix_gate(components):
    cells = []
    for backend in MATRIX_BACKENDS:
        # One shared cache per backend: entries may flow between cells
        # (cache hits never change results -- pinned by the determinism
        # suite) but never between backends, so each backend column
        # genuinely executes its own simulation path.
        cache = DomainCountingCache()
        for workload in MATRIX_WORKLOADS:
            for strategy in MATRIX_STRATEGIES:
                config = AutoAxConfig(workload=workload, search_strategy=strategy, **STUDY)
                session = ExplorationSession(seed=11, cache=cache, sim_backend=backend)
                started = time.perf_counter()
                result = session.run_autoax(*components, config)
                cold_elapsed = time.perf_counter() - started
                mid_lookups, mid_hits = cache.snapshot()

                warm_result = session.run_autoax(*components, config)
                end_lookups, end_hits = cache.snapshot()

                front = result.scenarios["area"].front
                comparison = result.hypervolume_comparison("area")
                warm_axq_lookups = end_lookups.get("axq", 0) - mid_lookups.get("axq", 0)
                warm_axq_hits = end_hits.get("axq", 0) - mid_hits.get("axq", 0)

                label = f"{workload} x {strategy} x {backend}"
                assert len(front) >= 1, f"{label}: empty exact Pareto front"
                assert len(warm_result.scenarios["area"].front) == len(front), (
                    f"{label}: warm repeat changed the front"
                )
                assert comparison["autoax"] >= 0.0 and comparison["random"] >= 0.0
                assert warm_axq_lookups > 0, f"{label}: warm repeat did no exact lookups"
                assert warm_axq_hits == warm_axq_lookups, (
                    f"{label}: warm repeat missed the exact-evaluation cache "
                    f"({warm_axq_hits}/{warm_axq_lookups} hits)"
                )
                cells.append(
                    {
                        "workload": workload,
                        "strategy": strategy,
                        "backend": backend,
                        "front": len(front),
                        "hv_autoax": comparison["autoax"],
                        "hv_random": comparison["random"],
                        "warm_axq_lookups": warm_axq_lookups,
                        "warm_axq_hit_rate": warm_axq_hits / warm_axq_lookups,
                        "cold_s": round(cold_elapsed, 4),
                    }
                )

        # Zero cross-workload aliasing, observed at the cache-accounting
        # level: after the whole backend sweep, repeating any workload's
        # nsga2 study creates no new exact-domain misses (everything it
        # needs is namespaced under its own token and already cached).
        before_lookups, before_hits = cache.snapshot()
        for workload in MATRIX_WORKLOADS:
            session = ExplorationSession(seed=11, cache=cache, sim_backend=backend)
            session.run_autoax(
                *components,
                AutoAxConfig(workload=workload, search_strategy="nsga2", **STUDY),
            )
        after_lookups, after_hits = cache.snapshot()
        sweep_lookups = after_lookups.get("axq", 0) - before_lookups.get("axq", 0)
        sweep_hits = after_hits.get("axq", 0) - before_hits.get("axq", 0)
        assert sweep_lookups > 0
        assert sweep_hits == sweep_lookups, (
            f"{backend}: repeating every workload after the sweep missed the "
            f"exact cache ({sweep_hits}/{sweep_lookups}) -- cross-workload "
            "entries would have to be missing or aliased for that to happen"
        )

    assert len(cells) == (
        len(MATRIX_WORKLOADS) * len(MATRIX_STRATEGIES) * len(MATRIX_BACKENDS)
    )

    print("\n=== scenario matrix (workload x strategy x backend) ===")
    print(f"{'workload':<10} {'strategy':<15} {'backend':<9} {'front':>6} "
          f"{'warm axq':>9} {'hit rate':>9} {'cold s':>8}")
    for cell in cells:
        print(f"{cell['workload']:<10} {cell['strategy']:<15} {cell['backend']:<9} "
              f"{cell['front']:>6d} {cell['warm_axq_lookups']:>9d} "
              f"{cell['warm_axq_hit_rate']:>9.0%} {cell['cold_s']:>8.2f}")

    BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "workload_matrix",
                "quick": QUICK,
                "study": {k: (list(v) if isinstance(v, tuple) else v) for k, v in STUDY.items()},
                "workloads": list(MATRIX_WORKLOADS),
                "strategies": list(MATRIX_STRATEGIES),
                "backends": list(MATRIX_BACKENDS),
                "cells": cells,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {BENCH_JSON_PATH}")


def test_repeat_workload_run_is_served_from_cache(components):
    """The historical single-cell sanity check: re-running one workload in
    the same session serves every exact configuration evaluation from the
    cache, while a *different* workload still misses (no aliasing)."""
    session = ExplorationSession(seed=11)
    config = AutoAxConfig(workload="sobel", search_strategy="nsga2", **STUDY)
    session.run_autoax(*components, config)
    cold = session.stats()
    session.run_autoax(*components, config)
    warm = session.stats()
    repeat_lookups = warm.lookups - cold.lookups
    repeat_hits = warm.hits - cold.hits
    assert repeat_lookups > 0
    assert repeat_hits / repeat_lookups == pytest.approx(1.0)
    print(f"\nsobel repeat run: {repeat_lookups} lookups, 100% served from cache")

    session.run_autoax(
        *components, AutoAxConfig(workload="sharpen", search_strategy="nsga2", **STUDY)
    )
    cross = session.stats()
    assert cross.misses > warm.misses, "a different workload must not alias the cache"
    print(f"sharpen after sobel: {cross.misses - warm.misses} fresh evaluations "
          "(no cross-workload aliasing)")
