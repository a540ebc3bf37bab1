"""Gate-level netlist intermediate representation.

A :class:`Netlist` is an immutable-ish DAG of primitive gates together with a
word-level interface (named input words and a single output word, all LSB
first).  Node identifiers are dense integers: ids ``0 .. num_inputs-1`` are
primary inputs, id ``num_inputs + i`` is the output of the ``i``-th gate.
Gates are stored in topological order (a gate may only reference nodes with a
smaller id), which makes simulation, mapping and cost analysis simple linear
passes.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .gates import GATE_ARITY, GateType

#: Version tag mixed into every structural fingerprint so cached evaluation
#: results are invalidated if the hashing scheme ever changes.
_FINGERPRINT_VERSION = b"nl-fp-v1"


@dataclass(frozen=True)
class Gate:
    """A single primitive gate instance.

    ``a`` and ``b`` are node ids of the operands; unused operands are ``-1``
    (unary gates use only ``a``, constant gates use neither).
    """

    gate_type: GateType
    a: int = -1
    b: int = -1

    @property
    def arity(self) -> int:
        return GATE_ARITY[self.gate_type]

    def operands(self) -> Tuple[int, ...]:
        """Node ids actually read by this gate."""
        if self.arity == 0:
            return ()
        if self.arity == 1:
            return (self.a,)
        return (self.a, self.b)


class NetlistError(ValueError):
    """Raised when a netlist is structurally invalid."""


@dataclass
class Netlist:
    """A combinational gate-level circuit with a word-level interface.

    Attributes
    ----------
    name:
        Human readable identifier, unique within a circuit library.
    kind:
        Functional class of the circuit, e.g. ``"adder"`` or ``"multiplier"``.
    input_words:
        Mapping from word name to the tuple of primary-input node ids that
        form the word, least-significant bit first.
    output_bits:
        Node ids forming the output word, least-significant bit first.  Any
        node id (input or gate output) may appear here, including repeats.
    gates:
        Gates in topological order.
    meta:
        Free-form metadata (generator family, seed, bit-width, ...).

    A netlist is immutable once analysed.  The first call of
    :meth:`fingerprint`, :attr:`num_inputs` or the default-root
    :meth:`transitive_fanin` caches its result on the instance (the mask
    read-only), and nothing ever invalidates those caches.  Every
    transformation returns a fresh netlist; a fresh copy may be edited in
    place only before its first analysis.
    """

    name: str
    kind: str
    input_words: Dict[str, Tuple[int, ...]]
    output_bits: Tuple[int, ...]
    gates: List[Gate]
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @functools.cached_property
    def num_inputs(self) -> int:
        """Number of primary-input bits."""
        return sum(len(bits) for bits in self.input_words.values())

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nodes(self) -> int:
        """Total node count (primary inputs + gate outputs)."""
        return self.num_inputs + self.num_gates

    @property
    def num_outputs(self) -> int:
        return len(self.output_bits)

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(self.input_words.keys())

    def gate_node_id(self, gate_index: int) -> int:
        """Node id of the output of gate ``gate_index``."""
        return self.num_inputs + gate_index

    def gate_of_node(self, node_id: int) -> Gate:
        """Gate driving ``node_id``; raises for primary inputs."""
        if node_id < self.num_inputs:
            raise NetlistError(f"node {node_id} is a primary input, not a gate")
        return self.gates[node_id - self.num_inputs]

    def is_input_node(self, node_id: int) -> bool:
        return 0 <= node_id < self.num_inputs

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants, raising :class:`NetlistError` if broken."""
        seen_inputs: set = set()
        for word, bits in self.input_words.items():
            for bit in bits:
                if not (0 <= bit < self.num_inputs):
                    raise NetlistError(
                        f"input word {word!r} references node {bit} outside the "
                        f"primary-input range [0, {self.num_inputs})"
                    )
                if bit in seen_inputs:
                    raise NetlistError(f"input node {bit} assigned to two word bits")
                seen_inputs.add(bit)
        if len(seen_inputs) != self.num_inputs:
            raise NetlistError("some primary inputs are not part of any input word")

        for index, gate in enumerate(self.gates):
            node_id = self.gate_node_id(index)
            for operand in gate.operands():
                if not (0 <= operand < node_id):
                    raise NetlistError(
                        f"gate {index} ({gate.gate_type.name}) references node "
                        f"{operand}, which is not defined before node {node_id}; "
                        "gates must be in topological order"
                    )

        for bit in self.output_bits:
            if not (0 <= bit < self.num_nodes):
                raise NetlistError(f"output references undefined node {bit}")

    # ------------------------------------------------------------------ #
    # Graph queries
    # ------------------------------------------------------------------ #
    def fanout_counts(self) -> np.ndarray:
        """Number of gate/output references to each node."""
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for gate in self.gates:
            for operand in gate.operands():
                counts[operand] += 1
        for bit in self.output_bits:
            counts[bit] += 1
        return counts

    def node_depths(self) -> np.ndarray:
        """Logic depth of each node (primary inputs and constants are depth 0)."""
        depths = np.zeros(self.num_nodes, dtype=np.int64)
        for index, gate in enumerate(self.gates):
            node_id = self.gate_node_id(index)
            operands = gate.operands()
            if operands:
                depths[node_id] = 1 + max(int(depths[o]) for o in operands)
        return depths

    def depth(self) -> int:
        """Logic depth of the deepest output (0 for a wire-only circuit)."""
        if not self.output_bits:
            return 0
        depths = self.node_depths()
        return int(max(depths[bit] for bit in self.output_bits))

    def transitive_fanin(self, roots: Optional[Iterable[int]] = None) -> np.ndarray:
        """Boolean mask of nodes in the transitive fan-in of ``roots``.

        Defaults to the output bits, i.e. the *live* part of the circuit;
        that mask is cached on the instance and read-only.  Explicit
        ``roots`` get a fresh array on every call.
        """
        if roots is None:
            cached = self.__dict__.get("_live_mask")
            if cached is not None:
                return cached
        mask = np.zeros(self.num_nodes, dtype=bool)
        stack = [int(r) for r in (self.output_bits if roots is None else roots)]
        while stack:
            node = stack.pop()
            if mask[node]:
                continue
            mask[node] = True
            if node >= self.num_inputs:
                stack.extend(self.gates[node - self.num_inputs].operands())
        if roots is None:
            mask.flags.writeable = False
            self.__dict__["_live_mask"] = mask
        return mask

    def live_gate_count(self) -> int:
        """Number of gates reachable from the outputs (dead logic excluded)."""
        mask = self.transitive_fanin()
        return int(mask[self.num_inputs:].sum())

    # ------------------------------------------------------------------ #
    # Structural identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the circuit *structure*.

        Two netlists share a fingerprint exactly when they have the same
        input-word layout, the same output-bit wiring and the same gate list
        (types and operand ids).  ``name``, ``kind`` and ``meta`` are
        deliberately excluded: they do not affect the computed function or
        any cost model, so structurally identical circuits can share cached
        evaluation results regardless of how they were generated or named.

        The digest is cached on the instance; netlists are treated as
        immutable once built (all transformations return copies), so the
        cache is never invalidated.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.blake2b(_FINGERPRINT_VERSION, digest_size=20)
        for word in sorted(self.input_words):
            bits = self.input_words[word]
            digest.update(b"w")
            digest.update(word.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(np.asarray(bits, dtype=np.int64).tobytes())
        digest.update(b"o")
        digest.update(np.asarray(self.output_bits, dtype=np.int64).tobytes())
        digest.update(b"g")
        if self.gates:
            table = np.array(
                [(int(g.gate_type.value), g.a, g.b) for g in self.gates],
                dtype=np.int64,
            )
            digest.update(table.tobytes())
        value = digest.hexdigest()
        self.__dict__["_fingerprint"] = value
        return value

    def __getstate__(self) -> Dict[str, object]:
        # NumPy unpickles arrays writeable, so the cached live mask stays
        # behind (pool dispatch); the receiving side recomputes it read-only.
        state = dict(self.__dict__)
        state.pop("_live_mask", None)
        return state

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None, meta: Optional[Mapping[str, object]] = None) -> "Netlist":
        """Deep-enough copy; gate tuples are immutable so the list is recreated."""
        new_meta = dict(self.meta)
        if meta:
            new_meta.update(meta)
        return Netlist(
            name=name if name is not None else self.name,
            kind=self.kind,
            input_words={k: tuple(v) for k, v in self.input_words.items()},
            output_bits=tuple(self.output_bits),
            gates=list(self.gates),
            meta=new_meta,
        )

    def pruned(self) -> "Netlist":
        """Return an equivalent netlist with dead gates removed.

        Gate ids are compacted; primary inputs are always retained so the
        word-level interface is unchanged.
        """
        mask = self.transitive_fanin()
        remap: Dict[int, int] = {i: i for i in range(self.num_inputs)}
        new_gates: List[Gate] = []
        for index, gate in enumerate(self.gates):
            node_id = self.gate_node_id(index)
            if not mask[node_id]:
                continue
            operands = tuple(remap[o] for o in gate.operands())
            if gate.arity == 0:
                new_gate = Gate(gate.gate_type)
            elif gate.arity == 1:
                new_gate = Gate(gate.gate_type, operands[0])
            else:
                new_gate = Gate(gate.gate_type, operands[0], operands[1])
            remap[node_id] = self.num_inputs + len(new_gates)
            new_gates.append(new_gate)
        return Netlist(
            name=self.name,
            kind=self.kind,
            input_words={k: tuple(v) for k, v in self.input_words.items()},
            output_bits=tuple(remap[b] for b in self.output_bits),
            gates=new_gates,
            meta=dict(self.meta),
        )

    # ------------------------------------------------------------------ #
    # Evaluation (thin wrappers around repro.circuits.simulate)
    # ------------------------------------------------------------------ #
    def evaluate_bits(self, input_bits: np.ndarray) -> np.ndarray:
        """Evaluate on a (patterns, num_inputs) boolean matrix.

        Returns a (patterns, num_outputs) boolean matrix.
        """
        from .simulate import simulate_bits

        return simulate_bits(self, input_bits)

    def evaluate_words(self, operands: Mapping[str, Sequence[int]]) -> np.ndarray:
        """Evaluate the circuit on integer operand vectors.

        ``operands`` maps each input word name to an array of unsigned
        integers.  Returns the output word as an unsigned integer array.
        """
        from .simulate import simulate_words

        return simulate_words(self, operands)

    def exhaustive_outputs(self) -> np.ndarray:
        """Output word for every input combination (use only for small circuits)."""
        from .simulate import exhaustive_simulate

        return exhaustive_simulate(self)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def word_width(self, name: str) -> int:
        return len(self.input_words[name])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        words = ", ".join(f"{k}[{len(v)}]" for k, v in self.input_words.items())
        return (
            f"Netlist(name={self.name!r}, kind={self.kind!r}, inputs=({words}), "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )
