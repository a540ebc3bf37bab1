"""Primitive gate types used by the gate-level circuit IR.

Every circuit in this project -- exact or approximate, adder or multiplier --
is represented as a directed acyclic graph of two-input (or one-input)
primitive gates.  The gate alphabet deliberately matches what a typical ASIC
standard-cell library and an FPGA LUT mapper both understand, so the same
netlist can be costed by both synthesis substrates.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict

import numpy as np


class GateType(enum.IntEnum):
    """Primitive gate operations.

    ``CONST0``/``CONST1`` take no inputs, ``BUF``/``NOT`` take one input and
    all remaining gates take two inputs.
    """

    CONST0 = 0
    CONST1 = 1
    BUF = 2
    NOT = 3
    AND = 4
    OR = 5
    XOR = 6
    NAND = 7
    NOR = 8
    XNOR = 9
    ANDNOT = 10  # a AND (NOT b)
    ORNOT = 11   # a OR (NOT b)


#: Number of inputs consumed by each gate type.
GATE_ARITY: Dict[GateType, int] = {
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.AND: 2,
    GateType.OR: 2,
    GateType.XOR: 2,
    GateType.NAND: 2,
    GateType.NOR: 2,
    GateType.XNOR: 2,
    GateType.ANDNOT: 2,
    GateType.ORNOT: 2,
}

#: Gate types with exactly two inputs.
TWO_INPUT_GATES = tuple(g for g, arity in GATE_ARITY.items() if arity == 2)

#: Gate types with exactly one input.
ONE_INPUT_GATES = (GateType.BUF, GateType.NOT)

#: Gate types with no inputs.
CONSTANT_GATES = (GateType.CONST0, GateType.CONST1)


def _const0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.zeros_like(a, dtype=bool)


def _const1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.ones_like(a, dtype=bool)


#: Vectorised boolean semantics of every gate type.  Unary gates ignore ``b``
#: and constant gates ignore both operands (they receive a reference array so
#: the result has the right shape).
GATE_FUNCTIONS: Dict[GateType, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    GateType.CONST0: _const0,
    GateType.CONST1: _const1,
    GateType.BUF: lambda a, b: a.copy(),
    GateType.NOT: lambda a, b: np.logical_not(a),
    GateType.AND: np.logical_and,
    GateType.OR: np.logical_or,
    GateType.XOR: np.logical_xor,
    GateType.NAND: lambda a, b: np.logical_not(np.logical_and(a, b)),
    GateType.NOR: lambda a, b: np.logical_not(np.logical_or(a, b)),
    GateType.XNOR: lambda a, b: np.logical_not(np.logical_xor(a, b)),
    GateType.ANDNOT: lambda a, b: np.logical_and(a, np.logical_not(b)),
    GateType.ORNOT: lambda a, b: np.logical_or(a, np.logical_not(b)),
}


def evaluate_gate(gate_type: GateType, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate a single gate on vectorised boolean operands.

    Parameters
    ----------
    gate_type:
        The primitive operation.
    a, b:
        Boolean operand arrays of identical shape.  For unary and constant
        gates ``b`` (and ``a`` for constants) is only used to size the result.
    """
    return GATE_FUNCTIONS[gate_type](a, b)


#: All-ones ``uint64`` lane of the packed bit-plane layout (see
#: :mod:`repro.circuits.bitplane`); the compiled backend preloads its
#: constant-1 slot and output-inversion masks with it.
PLANE_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def gate_truth_table(gate_type: GateType) -> np.ndarray:
    """Return the 4-entry truth table of a two-input gate.

    The entries are ordered by (a, b) = (0,0), (0,1), (1,0), (1,1).  Unary and
    constant gates are broadcast over the unused operand so the table is
    always 4 entries long; this is convenient for LUT mapping.
    """
    a = np.array([False, False, True, True])
    b = np.array([False, True, False, True])
    return evaluate_gate(gate_type, a, b)


#: Gate types whose output is independent of its inputs for at least one
#: operand value; used by the perturbation engine to reason about
#: controllability.
SYMMETRIC_GATES = (
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.NAND,
    GateType.NOR,
    GateType.XNOR,
)


def is_symmetric(gate_type: GateType) -> bool:
    """Whether swapping the two operands leaves the gate function unchanged."""
    return gate_type in SYMMETRIC_GATES
