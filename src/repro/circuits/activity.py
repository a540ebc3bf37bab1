"""Switching-activity estimation.

Both synthesis substrates (ASIC and FPGA) use dynamic-power models of the
form ``energy = activity * capacitance * V^2``.  The per-node switching
activity is estimated by simulating the circuit on uniformly random operands
and converting signal probabilities to toggle rates under the usual temporal
independence assumption: ``alpha = 2 * p * (1 - p)``.
"""

from __future__ import annotations

import numpy as np

from .netlist import Netlist
from .simulate import expand_operand_bits, random_operands


def node_signal_probabilities(
    netlist: Netlist, num_samples: int = 256, seed: int = 99
) -> np.ndarray:
    """Probability of each node being logic-1 under uniform random inputs."""
    rng = np.random.default_rng(seed)
    if netlist.input_words:
        input_bits = expand_operand_bits(netlist, random_operands(netlist, num_samples, rng))
    else:  # constant-only netlist: no operand fixes the pattern count
        input_bits = np.zeros((num_samples, 0), dtype=bool)

    values = [input_bits[:, i] for i in range(netlist.num_inputs)]
    zeros = np.zeros(num_samples, dtype=bool)
    from .gates import evaluate_gate

    for gate in netlist.gates:
        a = values[gate.a] if gate.a >= 0 else zeros
        b = values[gate.b] if gate.b >= 0 else zeros
        values.append(evaluate_gate(gate.gate_type, a, b))
    return np.array([v.mean() for v in values], dtype=np.float64)


def node_switching_activities(
    netlist: Netlist, num_samples: int = 256, seed: int = 99
) -> np.ndarray:
    """Toggle rate of each node: ``2 * p * (1 - p)`` with p the signal probability."""
    probabilities = node_signal_probabilities(netlist, num_samples=num_samples, seed=seed)
    return 2.0 * probabilities * (1.0 - probabilities)
