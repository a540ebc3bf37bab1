"""Error evaluation engines.

Small circuits (up to ~20 input bits) are evaluated exhaustively, exactly as
the paper does for 8-bit operands.  Larger circuits (12x12 and 16x16
multipliers would need 2^24 and 2^32 patterns) are evaluated with a seeded
Monte-Carlo sample, which is the standard practice when exhaustive
enumeration is infeasible.

Simulation runs on a pluggable backend (see
:data:`repro.circuits.SIM_BACKENDS`): the default ``"auto"`` selection uses
the compiled backend on large pattern counts and the boolean reference
backend on small ones; both are bit-identical, so the choice only affects
speed.  :meth:`ErrorEvaluator.evaluate` is the single place a circuit's
error is simulated: the batch engine calls it in serial mode and in every
process-pool worker.  For wide operands, ``chunk_patterns`` streams the
evaluation over fixed-size pattern blocks through an
:class:`~repro.error.metrics.ErrorAccumulator`, keeping peak memory flat
regardless of the pattern count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..circuits import Netlist
from ..circuits.bitplane import pack_bits, unpack_bits
from ..circuits.compiled import simulate_bits_compiled, simulate_planes_compiled
from ..circuits.simulate import (
    bits_to_words,
    exhaustive_operands,
    expand_operand_bits,
    random_operands,
    resolve_sim_backend,
    simulate_words,
    validate_sim_backend,
)
from .metrics import ErrorAccumulator, ErrorMetrics, compute_error_metrics


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics plus provenance of how they were measured."""

    circuit_name: str
    metrics: ErrorMetrics
    num_patterns: int
    method: str
    """Either ``"exhaustive"`` or ``"monte_carlo"``."""

    @property
    def med(self) -> float:
        return self.metrics.med


class ErrorEvaluator:
    """Evaluates approximate circuits against a golden reference.

    Parameters
    ----------
    reference:
        The exact circuit defining correct behaviour.  Its input words must
        match (names and widths) those of every evaluated circuit.
    max_exhaustive_inputs:
        Exhaustive enumeration is used when the total input width does not
        exceed this limit; otherwise Monte-Carlo sampling is used.
    num_samples:
        Sample count for Monte-Carlo evaluation.
    seed:
        Seed for the Monte-Carlo operand generator (the same operands are
        reused for every circuit so results are comparable).
    sim_backend:
        Simulation backend key (``"bool"``, ``"compiled"``), a simulation
        callable, or ``"auto"`` (the default: pick by pattern count).
        Backends are bit-identical; this knob only affects speed.  One-shot
        evaluation expands the shared operands once per input-word layout
        and keeps only what the backend consumes: packed bit planes for
        ``"compiled"``, the boolean input-bit matrix otherwise.
    chunk_patterns:
        When set, simulation and metric computation stream over pattern
        blocks of at most this size (via :class:`ErrorAccumulator`), so
        peak memory is bounded by the block size instead of the full
        pattern count.  ``None`` (the default) evaluates in one shot.
    fidelity:
        Explicit pattern-budget rung for multi-fidelity search ladders.
        ``None`` (the default) keeps the standard behaviour above.  A
        positive integer caps the evaluation at that many patterns: if the
        budget covers the full exhaustive sweep (``2^num_inputs <=
        fidelity`` within ``max_exhaustive_inputs``) the rung *is* exact
        evaluation; otherwise the circuit is evaluated on a seeded
        Monte-Carlo sample of exactly ``fidelity`` patterns, even when it
        is small enough for exhaustive enumeration.  The method/pattern
        count are part of the engine's cache context, so a low-fidelity
        screen can never alias an exact result.
    """

    def __init__(
        self,
        reference: Netlist,
        max_exhaustive_inputs: int = 18,
        num_samples: int = 8192,
        seed: int = 1234,
        sim_backend: str = "auto",
        chunk_patterns: Optional[int] = None,
        fidelity: Optional[int] = None,
    ):
        if chunk_patterns is not None and chunk_patterns <= 0:
            raise ValueError("chunk_patterns must be positive (or None for one-shot)")
        if fidelity is not None and int(fidelity) < 1:
            raise ValueError("fidelity must be a positive pattern budget (or None)")
        validate_sim_backend(sim_backend)  # fail fast on unknown keys
        self.reference = reference
        self.max_exhaustive_inputs = max_exhaustive_inputs
        self.num_samples = num_samples
        self.seed = seed
        self.sim_backend = sim_backend
        self.chunk_patterns = chunk_patterns
        self.fidelity = None if fidelity is None else int(fidelity)

        exhaustive_ok = reference.num_inputs <= max_exhaustive_inputs
        if self.fidelity is not None:
            budget_covers_exact = (
                exhaustive_ok
                and reference.num_inputs < 63
                and (1 << reference.num_inputs) <= self.fidelity
            )
            if budget_covers_exact:
                self._operands = exhaustive_operands(reference)
                self._method = "exhaustive"
            else:
                rng = np.random.default_rng(seed)
                self._operands = random_operands(reference, self.fidelity, rng)
                self._method = "monte_carlo"
        elif exhaustive_ok:
            self._operands = exhaustive_operands(reference)
            self._method = "exhaustive"
        else:
            rng = np.random.default_rng(seed)
            self._operands = random_operands(reference, num_samples, rng)
            self._method = "monte_carlo"
        self._num_patterns = int(len(next(iter(self._operands.values()))))
        self._max_output = (1 << reference.num_outputs) - 1
        self._layout_inputs: Dict[Tuple, np.ndarray] = {}
        self._exact_outputs = self._simulate(reference)

    # ------------------------------------------------------------------ #
    @property
    def streaming(self) -> bool:
        """Whether evaluation actually streams over pattern blocks.

        A ``chunk_patterns`` at or above the pattern count degenerates to
        the one-shot path (and produces literally the same computation), so
        it does not count as streaming -- the engine keys its cache off this
        property.
        """
        return self.chunk_patterns is not None and self.chunk_patterns < self._num_patterns

    def _blocks(self) -> Iterator[Tuple[int, int]]:
        """(start, stop) pattern ranges of at most ``chunk_patterns`` each."""
        step = self.chunk_patterns or self._num_patterns
        for start in range(0, self._num_patterns, step):
            yield start, min(start + step, self._num_patterns)

    def _block(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        return {name: values[start:stop] for name, values in self._operands.items()}

    def _inputs_for(self, circuit: Netlist, packed: bool) -> np.ndarray:
        """Shared operands laid out for ``circuit``'s input words, built once per layout."""
        layout = tuple(sorted((name, tuple(bits)) for name, bits in circuit.input_words.items()))
        inputs = self._layout_inputs.get(layout)
        if inputs is None:
            inputs = expand_operand_bits(circuit, self._operands)
            if packed:
                inputs = pack_bits(inputs.T)
            self._layout_inputs[layout] = inputs
        return inputs

    def _simulate_one_shot(self, circuit: Netlist) -> np.ndarray:
        """Output word on all shared operands in one pass."""
        simulate = resolve_sim_backend(self.sim_backend, patterns=self._num_patterns)
        if simulate is simulate_bits_compiled:
            output_planes = simulate_planes_compiled(circuit, self._inputs_for(circuit, packed=True))
            output_bits = unpack_bits(output_planes, self._num_patterns).T
        else:
            output_bits = simulate(circuit, self._inputs_for(circuit, packed=False))
        return bits_to_words(output_bits)

    def _simulate(self, circuit: Netlist) -> np.ndarray:
        """Output word on the shared operands, chunked when configured."""
        if not self.streaming:
            return self._simulate_one_shot(circuit)
        return np.concatenate(
            [
                simulate_words(circuit, self._block(start, stop), backend=self.sim_backend)
                for start, stop in self._blocks()
            ]
        )

    @property
    def method(self) -> str:
        return self._method

    @property
    def num_patterns(self) -> int:
        return int(len(self._exact_outputs))

    @property
    def operands(self):
        """The shared operand vectors every circuit is evaluated on."""
        return self._operands

    @property
    def exact_outputs(self) -> np.ndarray:
        """Reference output word for the shared operands."""
        return self._exact_outputs

    @property
    def max_output(self) -> int:
        """Maximum representable output value (normalises MED / relative WCE)."""
        return self._max_output

    def _check_interface(self, circuit: Netlist) -> None:
        if set(circuit.input_words) != set(self.reference.input_words):
            raise ValueError(
                f"circuit {circuit.name!r} input words {sorted(circuit.input_words)} do not "
                f"match the reference {sorted(self.reference.input_words)}"
            )
        for name, bits in circuit.input_words.items():
            if len(bits) != len(self.reference.input_words[name]):
                raise ValueError(
                    f"circuit {circuit.name!r} word {name!r} is {len(bits)} bits wide, "
                    f"reference expects {len(self.reference.input_words[name])}"
                )

    def evaluate(self, circuit: Netlist) -> ErrorReport:
        """Error metrics of ``circuit`` against the reference."""
        self._check_interface(circuit)
        if not self.streaming:
            metrics = compute_error_metrics(
                self._exact_outputs, self._simulate_one_shot(circuit), self._max_output
            )
        else:
            accumulator = ErrorAccumulator(self._max_output)
            for start, stop in self._blocks():
                approx_block = simulate_words(
                    circuit, self._block(start, stop), backend=self.sim_backend
                )
                accumulator.update(self._exact_outputs[start:stop], approx_block)
            metrics = accumulator.result()
        return ErrorReport(
            circuit_name=circuit.name,
            metrics=metrics,
            num_patterns=self.num_patterns,
            method=self._method,
        )


def evaluate_error(
    circuit: Netlist,
    reference: Netlist,
    max_exhaustive_inputs: int = 18,
    num_samples: int = 8192,
    seed: int = 1234,
    sim_backend: str = "auto",
    chunk_patterns: Optional[int] = None,
    fidelity: Optional[int] = None,
) -> ErrorReport:
    """One-shot convenience wrapper around :class:`ErrorEvaluator`."""
    evaluator = ErrorEvaluator(
        reference,
        max_exhaustive_inputs=max_exhaustive_inputs,
        num_samples=num_samples,
        seed=seed,
        sim_backend=sim_backend,
        chunk_patterns=chunk_patterns,
        fidelity=fidelity,
    )
    return evaluator.evaluate(circuit)
