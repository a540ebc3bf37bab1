"""Which ``repro`` calls the traced pass wraps, and the per-layer numbers.

The layer names follow the package layout of ``src/repro``.  Each wrapped
callable becomes a span (``<layer>.<name>``); the per-layer metrics report
the spans' summed self time (``.s``) and call count (``.calls``).
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List

from spans import Patcher, Tracer

#: Pipeline stages whose ``PipelineRun.timings()`` are reported as
#: ``api.stage.<stage>.s`` (ApproxFPGAs stages, then AutoAx stages).
API_STAGES = (
    "evaluate-library",
    "synthesize-training-subset",
    "fit-and-select",
    "resynthesize-candidates",
    "evaluate-coverage",
    "collect-samples",
    "fit-estimators",
    "scenario-area",
    "random-baseline",
)

#: Evaluation-cache key domains (``"<domain>:<context>:<subject>"``).
CACHE_DOMAINS = ("err", "asic", "fpga", "axq", "axe")

#: Module-level functions traced as spans: span name -> (module, function).
FUNCTION_SPANS = {
    "circuits.expand_operand_bits": ("repro.circuits.simulate", "expand_operand_bits"),
    "circuits.pack_bits": ("repro.circuits.bitplane", "pack_bits"),
    "circuits.simulate_planes_compiled": ("repro.circuits.compiled", "simulate_planes_compiled"),
    "circuits.unpack_bits": ("repro.circuits.bitplane", "unpack_bits"),
    "circuits.bits_to_words": ("repro.circuits.simulate", "bits_to_words"),
    "circuits.compile_netlist": ("repro.circuits.compiled", "compile_netlist"),
    "features.feature_matrix": ("repro.features.extract", "feature_matrix"),
    "generators.build_library": ("repro.generators", "build_library"),
}


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def install_engine_boundary(tracer: Tracer, patcher: Patcher) -> None:
    """Time the engine's process-pool blocks as seen from the parent.

    Only this boundary is wrapped in the default-mode pass: spans opened in
    pool children would never reach the parent's recorder.
    """
    from repro.engine import evaluator

    class TimedPool(evaluator.ProcessPoolExecutor):
        def __enter__(self):
            self._bench_started = time.perf_counter()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.count("engine.pool_fanouts")
                tracer.count("engine.pool_s", time.perf_counter() - self._bench_started)

    patcher.set(evaluator, "ProcessPoolExecutor", TimedPool)


def install_layers(tracer: Tracer, patcher: Patcher) -> list:
    """Wrap every traced layer; returns the list that collects new caches."""
    from repro import generators, ml
    from repro.asic import AsicSynthesizer
    from repro.autoax import SEARCH_STRATEGIES
    from repro.autoax.estimators import HwCostEstimator, QorEstimator
    from repro.circuits import Netlist
    from repro.engine import BatchEvaluator, EvalCache
    from repro.fpga import FpgaSynthesizer
    from repro.io.persistence import ShardedJsonStore
    from repro.service.jobs import JobRegistry
    from repro.workloads.base import ApproxAccelerator
    from repro.workloads.components import ApproxComponent

    def method(cls, attr, name):
        patcher.method(cls, attr, lambda func: tracer.wrap(name, func))

    for attr in ("evaluate_errors", "evaluate_asic", "evaluate_fpga", "evaluate_configurations"):
        method(BatchEvaluator, attr, f"engine.{attr}")

    for span, (module, name) in FUNCTION_SPANS.items():
        original = getattr(importlib.import_module(module), name)
        patcher.function(original, tracer.wrap(span, original))
    # build_library dispatches to these two, which jobs also call directly.
    for name in ("build_adder_library", "build_multiplier_library"):
        original = getattr(generators, name)
        patcher.function(original, tracer.wrap("generators.build_library", original))

    method(Netlist, "transitive_fanin", "circuits.transitive_fanin")

    evaluate_words = tracer.wrap("circuits.evaluate_words", vars(Netlist)["evaluate_words"])

    def counted_evaluate_words(self, operands):
        first = next(iter(operands.values()), ())
        tracer.count("circuits.patterns", len(first))
        return evaluate_words(self, operands)

    patcher.set(Netlist, "evaluate_words", counted_evaluate_words)

    method(AsicSynthesizer, "synthesize", "asic.synthesize")
    method(FpgaSynthesizer, "synthesize", "fpga.synthesize")

    for cls in _subclasses(ml.Regressor):
        method(cls, "fit", "ml.fit")
        method(cls, "predict", "ml.predict")

    method(QorEstimator, "fit", "autoax.QorEstimator.fit")
    method(HwCostEstimator, "fit", "autoax.HwCostEstimator.fit")
    for cls in (QorEstimator, HwCostEstimator):
        for attr in ("estimate", "estimate_batch", "estimate_batch_with_std"):
            method(cls, attr, "autoax.estimators.predict")

    for key, strategy in SEARCH_STRATEGIES.items():
        wrapped = tracer.wrap("search.strategy", strategy)
        patcher.function(strategy, wrapped)
        SEARCH_STRATEGIES.register(key, wrapped, overwrite=True)
        patcher.on_exit(lambda key=key, strategy=strategy: SEARCH_STRATEGIES.register(
            key, strategy, overwrite=True
        ))

    for cls in _subclasses(ApproxAccelerator):
        method(cls, "evaluate_prepared", "workloads.evaluate_prepared")
    method(ApproxComponent, "compute", "workloads.component_compute")

    method(ShardedJsonStore, "get", "io.store.get")
    method(ShardedJsonStore, "put", "io.store.put")

    method(JobRegistry, "claim", "service.claim")
    method(JobRegistry, "update", "service.update")
    method(JobRegistry, "heartbeat", "service.heartbeat")
    method(JobRegistry, "store_result", "service.store_result")

    caches: list = []
    original_init = vars(EvalCache)["__init__"]
    original_get = vars(EvalCache)["get"]

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.append(self)

    def get(self, key):
        value = original_get(self, key)
        domain = key.split(":", 1)[0]
        tracer.count(f"engine.cache.{domain}.lookups")
        if value is not None:
            tracer.count(f"engine.cache.{domain}.hits")
        return value

    patcher.set(EvalCache, "__init__", init)
    patcher.set(EvalCache, "get", get)
    return caches


def layer_metrics(tracer: Tracer, caches: list) -> Dict[str, float]:
    """Per-layer numbers of a fully traced pass (names as in BENCHMARK.json)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    metrics: Dict[str, float] = {}

    def span(name, with_calls=False):
        metrics[f"{name}.s"] = self_s.get(name, 0.0)
        if with_calls:
            metrics[f"{name}.calls"] = calls.get(name, 0)

    for attr in ("evaluate_errors", "evaluate_asic", "evaluate_fpga"):
        span(f"engine.{attr}")
    span("engine.evaluate_configurations", with_calls=True)
    for domain in CACHE_DOMAINS:
        lookups = counters.get(f"engine.cache.{domain}.lookups", 0)
        hits = counters.get(f"engine.cache.{domain}.hits", 0)
        metrics[f"engine.cache.{domain}.lookups"] = lookups
        metrics[f"engine.cache.{domain}.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["engine.cache.disk_hits"] = sum(cache.stats().disk_hits for cache in caches)
    for name in ("expand_operand_bits", "pack_bits", "simulate_planes_compiled", "unpack_bits",
                 "bits_to_words"):
        span(f"circuits.{name}")
    span("circuits.evaluate_words", with_calls=True)
    word_calls = calls.get("circuits.evaluate_words", 0)
    metrics["circuits.patterns_per_call"] = (
        counters.get("circuits.patterns", 0) / word_calls if word_calls else 0.0
    )
    span("circuits.transitive_fanin", with_calls=True)
    span("circuits.compile_netlist", with_calls=True)
    span("features.feature_matrix")
    span("asic.synthesize", with_calls=True)
    span("fpga.synthesize", with_calls=True)
    span("ml.fit", with_calls=True)
    span("ml.predict")
    span("autoax.QorEstimator.fit")
    span("autoax.HwCostEstimator.fit")
    span("autoax.estimators.predict")
    span("search.strategy")
    span("workloads.evaluate_prepared", with_calls=True)
    span("workloads.component_compute", with_calls=True)
    span("generators.build_library", with_calls=True)
    span("io.store.get", with_calls=True)
    span("io.store.put", with_calls=True)
    span("service.claim")
    span("service.update", with_calls=True)
    span("service.heartbeat", with_calls=True)
    span("service.store_result")
    return metrics


def stage_metrics(timings) -> Dict[str, float]:
    """``api.stage.<stage>.s``: summed ``PipelineRun.timings()`` dicts."""
    totals = dict.fromkeys(API_STAGES, 0.0)
    for run in timings:
        for stage, elapsed in run.items():
            if stage in totals:
                totals[stage] += elapsed
    return {f"api.stage.{stage}.s": value for stage, value in totals.items()}
