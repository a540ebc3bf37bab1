"""Vectorised behavioural simulation of gate-level netlists.

All simulation is bit-parallel over the gate list: a single pass evaluates
the circuit for an arbitrary number of input patterns.  This is the
"behavioural model" counterpart of the C models that ship with EvoApproxLib
in the original paper.

Two interchangeable backends implement the pass, registered in the
:data:`SIM_BACKENDS` registry:

* ``"bool"`` -- :func:`simulate_bits`, one NumPy ``bool`` byte per pattern
  per net: the reference oracle (and the default).
* ``"compiled"`` -- :func:`~repro.circuits.compiled.simulate_bits_compiled`,
  lowers the netlist once into a levelized op tape (constant folding,
  dead-node elimination, per-fingerprint program cache) executed over
  packed bit planes by a native C or a NumPy executor; the production
  choice when the same circuit is simulated on many patterns, i.e. the
  Monte-Carlo inner loop.

Backends are *bit-identical by contract*: the differential suite
(``pytest -m sim_backends``) asserts it, and downstream caches rely on it.
Callers pick one by key, or pass ``"auto"`` to let the workload size decide
(:func:`resolve_sim_backend`); use :func:`validate_sim_backend` to fail
fast on unknown keys without selecting a callable.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..registry import Registry
from .compiled import simulate_bits_compiled
from .gates import evaluate_gate
from .netlist import Netlist


def simulate_bits(netlist: Netlist, input_bits: np.ndarray) -> np.ndarray:
    """Simulate ``netlist`` on a (patterns, num_inputs) boolean matrix.

    Returns a (patterns, num_outputs) boolean matrix with the output word,
    column ``j`` being output bit ``j`` (LSB first).
    """
    input_bits = np.asarray(input_bits, dtype=bool)
    if input_bits.ndim != 2 or input_bits.shape[1] != netlist.num_inputs:
        raise ValueError(
            f"expected input matrix of shape (patterns, {netlist.num_inputs}), "
            f"got {input_bits.shape}"
        )
    patterns = input_bits.shape[0]
    values = [input_bits[:, i] for i in range(netlist.num_inputs)]
    zeros = np.zeros(patterns, dtype=bool)
    for gate in netlist.gates:
        a = values[gate.a] if gate.a >= 0 else zeros
        b = values[gate.b] if gate.b >= 0 else zeros
        values.append(evaluate_gate(gate.gate_type, a, b))
    outputs = np.empty((patterns, netlist.num_outputs), dtype=bool)
    for j, bit in enumerate(netlist.output_bits):
        outputs[:, j] = values[bit]
    return outputs


# --------------------------------------------------------------------- #
# Backend registry and selection
# --------------------------------------------------------------------- #
#: Registry of simulation backends: key -> ``(netlist, input_bits) -> output
#: bits``.  All registered backends must be bit-identical; alternative
#: implementations plug in by registering a key here.
SIM_BACKENDS = Registry(
    "simulation backend",
    {
        "bool": simulate_bits,
        "compiled": simulate_bits_compiled,
    },
)

#: Default backend when none is requested (the legacy implementation).
DEFAULT_SIM_BACKEND = "bool"

#: ``"auto"`` picks ``"compiled"`` from this many patterns upward, where the
#: compile-once cost amortises within a single simulation even for
#: cache-cold circuits; below it the ``"bool"`` backend wins.
AUTO_COMPILED_MIN_PATTERNS = 4096

SimBackend = Union[None, str, Callable[[Netlist, np.ndarray], np.ndarray]]


def resolve_sim_backend(
    backend: SimBackend = None, *, patterns: Optional[int] = None
) -> Callable[[Netlist, np.ndarray], np.ndarray]:
    """Resolve a backend selector to a simulation callable.

    ``backend`` may be ``None`` (the ``"bool"`` default), a
    :data:`SIM_BACKENDS` key, ``"auto"``, or a ready simulation callable,
    which is returned unchanged.  ``"auto"`` picks by workload size:
    ``"bool"`` below :data:`AUTO_COMPILED_MIN_PATTERNS` patterns and
    ``"compiled"`` from there.  Requesting ``"auto"``
    without a pattern count raises: it used to resolve silently to the
    slowest backend, which punished exactly the callers who wanted speed.
    Unknown keys raise :class:`~repro.registry.RegistryError` listing the
    available backends; use :func:`validate_sim_backend` to check a key
    without selecting.
    """
    if backend is None:
        backend = DEFAULT_SIM_BACKEND
    if callable(backend):
        return backend
    if backend == "auto":
        if patterns is None:
            raise ValueError(
                "resolve_sim_backend('auto') needs patterns= to pick a backend; "
                "pass the pattern count, or use validate_sim_backend() if you "
                "only want to fail fast on unknown backend keys"
            )
        backend = "compiled" if patterns >= AUTO_COMPILED_MIN_PATTERNS else DEFAULT_SIM_BACKEND
    return SIM_BACKENDS.get(backend)


def validate_sim_backend(backend: SimBackend) -> SimBackend:
    """Fail fast on unknown backend keys without selecting a callable.

    Constructors that hold a backend *selector* (possibly ``"auto"``) for
    later per-workload resolution call this instead of
    :func:`resolve_sim_backend` so that validation and selection stay
    distinct: ``"auto"`` is accepted as-is, unknown keys raise
    :class:`~repro.registry.RegistryError` immediately.  Returns the
    selector unchanged.
    """
    if backend is not None and not callable(backend) and backend != "auto":
        SIM_BACKENDS.get(backend)
    return backend


def words_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Expand unsigned integers into a (n, width) boolean matrix, LSB first.

    Operands must have an integer (or boolean) dtype: floating-point values
    used to slip through and truncate silently, so they are rejected, as are
    values outside the unsigned ``width``-bit range (checked in the original
    dtype, before any conversion could wrap around).
    """
    values = np.asarray(values)
    if values.dtype != np.bool_ and (
        values.dtype == object or not np.issubdtype(values.dtype, np.integer)
    ):
        raise TypeError(
            f"operand values must be integers, got dtype {values.dtype} "
            "(floating-point operands would be truncated silently)"
        )
    if values.size and (int(values.min()) < 0 or int(values.max()) >= (1 << width)):
        raise ValueError(f"operand values out of range for a {width}-bit unsigned word")
    values = values.astype(np.int64, copy=False)
    shifts = np.arange(width, dtype=np.int64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(bool)


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Collapse a (n, width) boolean matrix (LSB first) into unsigned integers.

    Accumulation happens in ``uint64``: the former ``int64`` weights went
    negative at bit 63 (``np.int64(1) << 63``), silently corrupting every
    output word of width >= 64.  Words up to 63 bits return ``int64``
    (unchanged dtype for existing callers), 64-bit words return ``uint64``,
    and wider words fall back to arbitrary-precision Python ints in an
    ``object`` array.
    """
    bits = np.asarray(bits, dtype=bool)
    width = bits.shape[1]
    if width > 64:
        weights = np.array([1 << i for i in range(width)], dtype=object)
        return bits.astype(object) @ weights
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    words = bits.astype(np.uint64) @ weights
    return words if width == 64 else words.astype(np.int64)


def expand_operand_bits(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Expand word-level operand vectors into the netlist's input-bit matrix.

    Returns the (patterns, num_inputs) boolean matrix every simulation
    backend consumes, with each word's bits scattered to its primary-input
    node ids.  This is the single implementation of the word-to-bit layout;
    the error evaluator, switching-activity estimation and the benchmarks
    reuse it so they measure exactly what production simulates.
    """
    missing = set(netlist.input_words) - set(operands)
    if missing:
        raise ValueError(f"missing operand values for input words: {sorted(missing)}")
    extras = set(operands) - set(netlist.input_words)
    if extras:
        raise ValueError(
            f"unknown operand names: {sorted(extras)}; "
            f"the netlist's input words are {sorted(netlist.input_words)}"
        )
    lengths = {len(np.asarray(operands[name])) for name in netlist.input_words}
    if len(lengths) != 1:
        raise ValueError("all operand arrays must have the same length")
    patterns = lengths.pop()

    input_bits = np.zeros((patterns, netlist.num_inputs), dtype=bool)
    for name, bit_ids in netlist.input_words.items():
        word_bits = words_to_bits(np.asarray(operands[name]), len(bit_ids))
        for position, node_id in enumerate(bit_ids):
            input_bits[:, node_id] = word_bits[:, position]
    return input_bits


def simulate_words(
    netlist: Netlist,
    operands: Mapping[str, Sequence[int]],
    backend: SimBackend = None,
) -> np.ndarray:
    """Simulate the netlist on integer operand vectors.

    ``operands`` must provide a value array for every input word of the
    netlist; all arrays must have the same length.  ``backend`` selects the
    simulation backend (see :func:`resolve_sim_backend`); all backends are
    bit-identical, so this only affects speed.
    """
    input_bits = expand_operand_bits(netlist, operands)
    simulate = resolve_sim_backend(backend, patterns=input_bits.shape[0])
    output_bits = simulate(netlist, input_bits)
    return bits_to_words(output_bits)


def exhaustive_operands(netlist: Netlist) -> Mapping[str, np.ndarray]:
    """All input-word combinations of the netlist, in row-major operand order."""
    names = list(netlist.input_words)
    widths = [len(netlist.input_words[name]) for name in names]
    grids = np.meshgrid(*[np.arange(1 << w, dtype=np.int64) for w in widths], indexing="ij")
    return {name: grid.reshape(-1) for name, grid in zip(names, grids)}


def exhaustive_simulate(netlist: Netlist, backend: SimBackend = None) -> np.ndarray:
    """Output word for every input combination.

    The number of patterns is ``2 ** num_inputs``; callers are expected to use
    this only for circuits with at most ~20 input bits (for wider circuits,
    use sampled simulation, or stream fixed-size pattern blocks through an
    :class:`~repro.error.metrics.ErrorAccumulator`).
    """
    if netlist.num_inputs > 24:
        raise ValueError(
            f"exhaustive simulation of {netlist.num_inputs} input bits is "
            "infeasible; use sampled simulation instead"
        )
    return simulate_words(netlist, exhaustive_operands(netlist), backend=backend)


def random_operands(
    netlist: Netlist, num_samples: int, rng: np.random.Generator
) -> Mapping[str, np.ndarray]:
    """Uniformly random operand vectors for sampled (Monte-Carlo) evaluation."""
    operands = {}
    for name, bit_ids in netlist.input_words.items():
        operands[name] = rng.integers(0, 1 << len(bit_ids), size=num_samples, dtype=np.int64)
    return operands
