"""Batched, cached evaluation of whole circuit libraries.

:class:`BatchEvaluator` is the single entry point through which the
methodology, the exploration accounting and the AutoAx search evaluate
circuits.  It combines three mechanisms:

* **Batching** -- all circuits of a call share one
  :class:`~repro.error.ErrorEvaluator`: the reference outputs are simulated
  once, the operands are laid out once per input-word layout, and each
  circuit costs one :meth:`~repro.error.ErrorEvaluator.evaluate` call --
  the same call the process-pool workers make.  The simulation backend
  (``bool`` reference or ``compiled``) is selected by the ``sim_backend``
  knob and never changes results or cache keys.
* **Caching** -- every result is stored in an :class:`~repro.engine.cache.EvalCache`
  under a key derived from the circuit's structural fingerprint and the full
  evaluation context, so repeated evaluations (flow stages, coverage passes,
  later sessions via the disk backend) are served without re-simulation.
* **Fan-out** -- large miss sets can be dispatched to a
  :class:`~concurrent.futures.ProcessPoolExecutor`; results are reassembled
  in input order, so serial and parallel modes are bit-identical.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..asic import AsicReport, AsicSynthesizer
from ..circuits import Netlist, validate_sim_backend
from ..error import ErrorEvaluator, ErrorReport
from ..error.metrics import ErrorMetrics
from ..fpga import FpgaReport, FpgaSynthesizer
from .cache import EvalCache
from .keys import accelerator_context, blake_token, cache_key, configuration_token

__all__ = ["BatchEvaluator", "LibraryEvaluation"]


# --------------------------------------------------------------------- #
# Report <-> JSON-able payload conversion (the cache stores payloads so a
# disk backend can serialise them)
# --------------------------------------------------------------------- #
def _error_report_to_payload(report: ErrorReport) -> dict:
    return {
        "circuit_name": report.circuit_name,
        "metrics": report.metrics.as_dict(),
        "num_patterns": report.num_patterns,
        "method": report.method,
    }


def _payload_to_error_report(payload: dict, circuit_name: str) -> ErrorReport:
    return ErrorReport(
        circuit_name=circuit_name,
        metrics=ErrorMetrics(**payload["metrics"]),
        num_patterns=int(payload["num_patterns"]),
        method=str(payload["method"]),
    )


def _asic_report_to_payload(report: AsicReport) -> dict:
    return asdict(report)


def _payload_to_asic_report(payload: dict, circuit_name: str) -> AsicReport:
    fields = dict(payload)
    fields["circuit_name"] = circuit_name
    return AsicReport(**fields)


def _fpga_report_to_payload(report: FpgaReport) -> dict:
    return asdict(report)


def _payload_to_fpga_report(payload: dict, circuit_name: str) -> FpgaReport:
    fields = dict(payload)
    fields["circuit_name"] = circuit_name
    return FpgaReport(**fields)


# --------------------------------------------------------------------- #
# Process-pool workers.  Module-level so they pickle; each worker process
# memoises its heavyweight state (rebuilt evaluator / synthesizer) per
# context token, so a chunked map pays the setup cost once per process.
# --------------------------------------------------------------------- #
_WORKER_STATE: Dict[str, object] = {}


def _worker_errors(
    task: Tuple[str, Netlist, int, int, int, str, Optional[int], Optional[int], List[Netlist]]
) -> List[dict]:
    (
        context,
        reference,
        max_exhaustive_inputs,
        num_samples,
        seed,
        backend,
        chunk,
        fidelity,
        circuits,
    ) = task
    evaluator = _WORKER_STATE.get(context)
    if evaluator is None:
        evaluator = ErrorEvaluator(
            reference,
            max_exhaustive_inputs=max_exhaustive_inputs,
            num_samples=num_samples,
            seed=seed,
            sim_backend=backend,
            chunk_patterns=chunk,
            fidelity=fidelity,
        )
        _WORKER_STATE[context] = evaluator
    return [_error_report_to_payload(evaluator.evaluate(circuit)) for circuit in circuits]


def _worker_asic(task: Tuple[str, AsicSynthesizer, List[Netlist]]) -> List[dict]:
    context, synthesizer, circuits = task
    cached = _WORKER_STATE.setdefault(context, synthesizer)
    return [_asic_report_to_payload(cached.synthesize(circuit)) for circuit in circuits]


def _worker_fpga(task: Tuple[str, FpgaSynthesizer, List[Netlist]]) -> List[dict]:
    context, synthesizer, circuits = task
    cached = _WORKER_STATE.setdefault(context, synthesizer)
    return [_fpga_report_to_payload(cached.synthesize(circuit)) for circuit in circuits]


def _worker_configurations(task) -> List[dict]:
    """Exactly evaluate accelerator configurations against prepared images.

    The accelerator is duck-typed (``prepare_inputs``/``evaluate_prepared``);
    the prepared per-image planes and golden references are memoised per
    context so a chunked map pays the image preparation once per process.
    """
    context, accelerator, images, configurations = task
    prepared = _WORKER_STATE.get(context)
    if prepared is None:
        prepared = accelerator.prepare_inputs(images)
        _WORKER_STATE[context] = prepared
    payloads = []
    for configuration in configurations:
        quality, cost = accelerator.evaluate_prepared(prepared, configuration)
        payloads.append(
            {"quality": float(quality), "cost": {name: float(v) for name, v in cost.items()}}
        )
    return payloads


def _chunk(items: List, num_chunks: int) -> List[List]:
    num_chunks = max(1, min(num_chunks, len(items)))
    bounds = np.linspace(0, len(items), num_chunks + 1).round().astype(int)
    return [items[bounds[i]:bounds[i + 1]] for i in range(num_chunks) if bounds[i] < bounds[i + 1]]


@dataclass
class LibraryEvaluation:
    """Reports for every circuit of one library, in library order."""

    names: List[str]
    errors: List[ErrorReport]
    asic: List[AsicReport]
    fpga: Optional[List[FpgaReport]] = None


class BatchEvaluator:
    """Evaluates libraries of circuits with shared operands, caching and fan-out.

    Parameters
    ----------
    reference:
        Golden reference circuit for error evaluation.  Either this or
        ``error_evaluator`` must be provided before calling
        :meth:`evaluate_errors`.
    error_evaluator:
        A pre-built :class:`~repro.error.ErrorEvaluator` to share (the flow
        passes its own so engine results are bit-identical to the legacy
        serial path).
    asic_synthesizer / fpga_synthesizer:
        Cost-model substrates; built with defaults on first use when omitted.
    cache:
        Shared :class:`EvalCache`; a private in-memory cache is created when
        omitted.  Pass an explicit cache to share hits across flows.
    mode:
        ``"serial"``, ``"process"`` or ``"auto"``.  ``auto`` uses a process
        pool only when the miss set is at least ``parallel_threshold`` and
        more than one CPU is available; anything else runs serially.  Both
        modes produce bit-identical, input-ordered results.
    max_workers:
        Process-pool width (defaults to the CPU count).
    sim_backend:
        Simulation backend key for error evaluation (``"bool"``,
        ``"compiled"`` or ``"auto"``, see
        :data:`repro.circuits.SIM_BACKENDS`), forwarded to the constructed
        :class:`~repro.error.ErrorEvaluator`.  Backends are bit-identical
        by contract, so the key is deliberately *not* part of cache keys:
        results computed under one backend are served to every other.
        ``None`` inherits from ``error_evaluator`` when one is passed and
        falls back to ``"auto"``; a different key alongside an
        ``error_evaluator`` raises, since it could never reach that
        evaluator.
    fidelity:
        Explicit pattern-budget rung forwarded to the constructed
        :class:`~repro.error.ErrorEvaluator` (see its ``fidelity``
        parameter): the rung caps error evaluation at that many patterns
        for multi-fidelity search ladders.  The evaluator's method and
        pattern count are part of the ``err`` cache context, so reduced
        rungs are namespaced away from exact results automatically.
    """

    def __init__(
        self,
        reference: Optional[Netlist] = None,
        *,
        error_evaluator: Optional[ErrorEvaluator] = None,
        asic_synthesizer: Optional[AsicSynthesizer] = None,
        fpga_synthesizer: Optional[FpgaSynthesizer] = None,
        cache: Optional[EvalCache] = None,
        mode: str = "auto",
        max_workers: Optional[int] = None,
        parallel_threshold: int = 32,
        max_exhaustive_inputs: int = 18,
        num_samples: int = 8192,
        seed: int = 1234,
        sim_backend: Optional[str] = None,
        fidelity: Optional[int] = None,
    ):
        if mode not in ("auto", "serial", "process"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.mode = mode
        self.max_workers = max_workers
        self.parallel_threshold = parallel_threshold
        self.cache = cache if cache is not None else EvalCache()

        if error_evaluator is not None:
            if sim_backend not in (None, error_evaluator.sim_backend):
                raise ValueError(
                    f"conflicting sim_backend {sim_backend!r}: the provided "
                    f"error_evaluator simulates with {error_evaluator.sim_backend!r}; "
                    "pass one or the other"
                )
            sim_backend = error_evaluator.sim_backend
        elif sim_backend is None:
            sim_backend = "auto"
        validate_sim_backend(sim_backend)  # fail fast on unknown keys
        self.sim_backend = sim_backend

        if error_evaluator is None and reference is not None:
            error_evaluator = ErrorEvaluator(
                reference,
                max_exhaustive_inputs=max_exhaustive_inputs,
                num_samples=num_samples,
                seed=seed,
                sim_backend=sim_backend,
                fidelity=fidelity,
            )
        self.error_evaluator = error_evaluator
        self.asic_synthesizer = asic_synthesizer
        self.fpga_synthesizer = fpga_synthesizer

        self._prepared_images: Dict[str, object] = {}
        self._error_context: Optional[str] = None
        self._asic_context: Optional[str] = None
        self._fpga_context: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Contexts (everything a cached result depends on besides the circuit)
    # ------------------------------------------------------------------ #
    def _require_error_evaluator(self) -> ErrorEvaluator:
        if self.error_evaluator is None:
            raise ValueError(
                "BatchEvaluator needs a reference circuit or an error_evaluator "
                "to evaluate error metrics"
            )
        return self.error_evaluator

    def _error_ctx(self) -> str:
        # The simulation backend is deliberately excluded: backends are
        # bit-identical by contract (enforced by the differential suite), so
        # results cached under one backend must be shared with every other.
        # Streaming (chunk_patterns) is included when active because the
        # accumulator's float metrics can differ from one-shot values in the
        # last ulp; the default one-shot token is unchanged.
        if self._error_context is None:
            evaluator = self._require_error_evaluator()
            parts = [
                evaluator.reference.fingerprint(),
                evaluator.method,
                evaluator.num_patterns,
                evaluator.max_exhaustive_inputs,
                evaluator.num_samples,
                evaluator.seed,
                evaluator.max_output,
            ]
            if evaluator.streaming:
                parts.append(f"chunk={evaluator.chunk_patterns}")
            self._error_context = blake_token(*parts)
        return self._error_context

    def _asic_ctx(self) -> str:
        if self._asic_context is None:
            if self.asic_synthesizer is None:
                self.asic_synthesizer = AsicSynthesizer()
            synth = self.asic_synthesizer
            self._asic_context = blake_token(
                synth.cell_library,
                synth.clock_period_ns,
                synth.activity_samples,
                synth.activity_seed,
            )
        return self._asic_context

    def _fpga_ctx(self) -> str:
        if self._fpga_context is None:
            if self.fpga_synthesizer is None:
                self.fpga_synthesizer = FpgaSynthesizer()
            synth = self.fpga_synthesizer
            self._fpga_context = blake_token(
                synth.device,
                synth.clock_period_ns,
                synth.activity_samples,
                synth.activity_seed,
            )
        return self._fpga_context

    # ------------------------------------------------------------------ #
    # Generic cached / fanned-out evaluation
    # ------------------------------------------------------------------ #
    def _resolve_workers(self, num_misses: int) -> int:
        if self.mode == "serial" or num_misses == 0:
            return 0
        cpus = os.cpu_count() or 1
        workers = self.max_workers or cpus
        if self.mode == "process":
            return max(1, workers)
        if num_misses >= self.parallel_threshold and cpus > 1 and workers > 1:
            return workers
        return 0

    def _evaluate(
        self,
        circuits: Sequence[Netlist],
        domain: str,
        context: str,
        compute: Callable[[Netlist], object],
        report_to_payload: Callable[[object], dict],
        payload_to_report: Callable[[dict, str], object],
        make_task: Callable[[str, List[Netlist]], tuple],
        worker: Callable[[tuple], List[dict]],
    ) -> List[object]:
        circuits = list(circuits)
        keys = [cache_key(domain, context, circuit.fingerprint()) for circuit in circuits]
        results: List[Optional[object]] = [None] * len(circuits)

        # Cache probe; structurally identical circuits in one call are
        # computed once and fanned back out to every requesting index.
        pending: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            if key in pending:
                pending[key].append(index)
                continue
            hit = self.cache.get(key)
            if hit is not None:
                results[index] = payload_to_report(hit, circuits[index].name)
            else:
                pending[key] = [index]

        miss_keys = list(pending)
        miss_circuits = [circuits[pending[key][0]] for key in miss_keys]
        workers = self._resolve_workers(len(miss_circuits))

        payloads: List[dict]
        if workers:
            chunks = _chunk(miss_circuits, workers)
            tasks = [make_task(context, chunk) for chunk in chunks]
            try:
                with ProcessPoolExecutor(max_workers=len(chunks)) as executor:
                    payloads = [
                        payload
                        for chunk_result in executor.map(worker, tasks)
                        for payload in chunk_result
                    ]
            except (OSError, BrokenExecutor):
                # Sandboxed / fork-restricted environments, or a worker dying
                # mid-run (OOM kill => BrokenProcessPool): degrade to serial.
                payloads = [report_to_payload(compute(circuit)) for circuit in miss_circuits]
        else:
            payloads = [report_to_payload(compute(circuit)) for circuit in miss_circuits]

        for key, payload in zip(miss_keys, payloads):
            self.cache.put(key, payload)
            for index in pending[key]:
                results[index] = payload_to_report(payload, circuits[index].name)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate_errors(self, circuits: Sequence[Netlist]) -> List[ErrorReport]:
        """Error reports for ``circuits``, bit-identical to the serial path."""
        evaluator = self._require_error_evaluator()
        return self._evaluate(
            circuits,
            domain="err",
            context=self._error_ctx(),
            compute=evaluator.evaluate,
            report_to_payload=_error_report_to_payload,
            payload_to_report=_payload_to_error_report,
            make_task=lambda ctx, chunk: (
                ctx,
                evaluator.reference,
                evaluator.max_exhaustive_inputs,
                evaluator.num_samples,
                evaluator.seed,
                evaluator.sim_backend,
                evaluator.chunk_patterns,
                evaluator.fidelity,
                chunk,
            ),
            worker=_worker_errors,
        )

    def evaluate_asic(self, circuits: Sequence[Netlist]) -> List[AsicReport]:
        """ASIC area / timing / power reports for ``circuits``."""
        context = self._asic_ctx()
        return self._evaluate(
            circuits,
            domain="asic",
            context=context,
            compute=self.asic_synthesizer.synthesize,
            report_to_payload=_asic_report_to_payload,
            payload_to_report=_payload_to_asic_report,
            make_task=lambda ctx, chunk: (ctx, self.asic_synthesizer, chunk),
            worker=_worker_asic,
        )

    def evaluate_fpga(self, circuits: Sequence[Netlist]) -> List[FpgaReport]:
        """FPGA reports (#LUTs, latency, power) for ``circuits``."""
        context = self._fpga_ctx()
        return self._evaluate(
            circuits,
            domain="fpga",
            context=context,
            compute=self.fpga_synthesizer.synthesize,
            report_to_payload=_fpga_report_to_payload,
            payload_to_report=_payload_to_fpga_report,
            make_task=lambda ctx, chunk: (ctx, self.fpga_synthesizer, chunk),
            worker=_worker_fpga,
        )

    def evaluate_configurations(
        self, accelerator, images, configurations, fidelity: Optional[int] = None
    ) -> List[dict]:
        """Exact ``{"quality", "cost"}`` payloads for accelerator configurations.

        The generation-batched counterpart of the per-configuration exact
        evaluation in :mod:`repro.autoax.search`: per-image work (shifted
        planes, golden reference outputs) is prepared once and shared by the
        whole batch, repeated configurations within one call are computed
        once, and large miss sets fan out over the process pool.  Results
        are cached under the same ``axq`` keys the serial path uses
        (:func:`repro.engine.keys.accelerator_context`, which namespaces by
        workload identity), so hits flow in both directions and values are
        bit-identical by construction.

        ``fidelity`` is the multi-fidelity ladder rung: a total-pixel
        budget applied by centre-cropping the input images
        (:func:`repro.workloads.fidelity_inputs`) before evaluation.  A
        budget at or above the full pixel count is an identity -- the call
        is *exactly* a full-fidelity evaluation, sharing its cache keys --
        while a reduced budget namespaces the ``axq`` context by both the
        cropped image set and the rung, so screens never alias exact
        results.

        The accelerator only needs ``multipliers``/``adders`` component
        lists plus ``prepare_inputs`` and ``evaluate_prepared`` -- the
        engine stays decoupled from the concrete workload classes in
        :mod:`repro.workloads`.
        """
        configurations = list(configurations)
        images = list(images)
        reduced = False
        if fidelity is not None:
            from ..workloads.inputs import fidelity_inputs

            images, reduced = fidelity_inputs(images, int(fidelity))
        context = accelerator_context(
            accelerator, images, fidelity=int(fidelity) if reduced else None
        )
        keys = [
            cache_key(
                "axq",
                context,
                configuration_token(config.multiplier_indices, config.adder_indices),
            )
            for config in configurations
        ]
        results: List[Optional[dict]] = [None] * len(configurations)

        pending: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            if key in pending:
                pending[key].append(index)
                continue
            hit = self.cache.get(key)
            if hit is not None:
                results[index] = hit
            else:
                pending[key] = [index]

        miss_keys = list(pending)
        if not miss_keys:
            # Fully cached batch (e.g. a warm disk-backed cache): skip the
            # image preparation entirely.
            return results  # type: ignore[return-value]
        miss_configs = [configurations[pending[key][0]] for key in miss_keys]
        workers = self._resolve_workers(len(miss_configs))

        def compute_serial() -> List[dict]:
            prepared = self._prepared_images.get(context)
            if prepared is None:
                prepared = accelerator.prepare_inputs(images)
                # Keep the memo tiny: prepared planes are per-image arrays
                # and sessions rarely juggle more than a few image sets.
                if len(self._prepared_images) >= 4:
                    self._prepared_images.clear()
                self._prepared_images[context] = prepared
            payloads = []
            for config in miss_configs:
                quality, cost = accelerator.evaluate_prepared(prepared, config)
                payloads.append(
                    {
                        "quality": float(quality),
                        "cost": {name: float(v) for name, v in cost.items()},
                    }
                )
            return payloads

        if workers:
            chunks = _chunk(miss_configs, workers)
            tasks = [(context, accelerator, images, chunk) for chunk in chunks]
            try:
                with ProcessPoolExecutor(max_workers=len(chunks)) as executor:
                    payloads = [
                        payload
                        for chunk_result in executor.map(_worker_configurations, tasks)
                        for payload in chunk_result
                    ]
            except (OSError, BrokenExecutor, pickle.PicklingError, TypeError):
                # Sandboxed environments, dead workers, or unpicklable
                # accelerators: degrade to the serial batched path.
                payloads = compute_serial()
        else:
            payloads = compute_serial()

        for key, payload in zip(miss_keys, payloads):
            self.cache.put(key, payload)
            for index in pending[key]:
                results[index] = payload
        return results  # type: ignore[return-value]

    def evaluate_library(self, library, include_fpga: bool = False) -> LibraryEvaluation:
        """Errors + ASIC (and optionally FPGA) reports for a whole library."""
        circuits = list(library)
        return LibraryEvaluation(
            names=[circuit.name for circuit in circuits],
            errors=self.evaluate_errors(circuits),
            asic=self.evaluate_asic(circuits),
            fpga=self.evaluate_fpga(circuits) if include_fpga else None,
        )

    def stats(self):
        """Shortcut to the underlying cache statistics."""
        return self.cache.stats()


# --------------------------------------------------------------------- #
# Public aliases: the stage pipelines (repro.api) checkpoint their
# artifacts with the same payload encoding the cache uses on disk.
# --------------------------------------------------------------------- #
error_report_to_payload = _error_report_to_payload
error_report_from_payload = _payload_to_error_report
asic_report_to_payload = _asic_report_to_payload
asic_report_from_payload = _payload_to_asic_report
fpga_report_to_payload = _fpga_report_to_payload
fpga_report_from_payload = _payload_to_fpga_report

__all__ += [
    "error_report_to_payload",
    "error_report_from_payload",
    "asic_report_to_payload",
    "asic_report_from_payload",
    "fpga_report_to_payload",
    "fpga_report_from_payload",
]
