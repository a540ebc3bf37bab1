"""Tests for Verilog export, structural metrics and activity estimation."""

import numpy as np
import pytest

from repro.circuits import Gate, GateType, Netlist, structural_metrics, to_verilog
from repro.circuits.activity import node_signal_probabilities, node_switching_activities
from repro.circuits.gates import evaluate_gate
from repro.circuits.simulate import expand_operand_bits, random_operands
from repro.generators import perturb_netlist, truncated_adder


def test_verilog_contains_module_and_ports(multiplier4):
    text = to_verilog(multiplier4)
    assert text.startswith("module ")
    assert "input  [3:0] a;" in text
    assert "input  [3:0] b;" in text
    assert f"output [{multiplier4.num_outputs - 1}:0] out;" in text
    assert text.strip().endswith("endmodule")


def test_verilog_has_one_assign_per_gate_and_output(adder8):
    text = to_verilog(adder8)
    assert text.count("assign") == adder8.num_gates + adder8.num_outputs


def test_verilog_sanitizes_module_name(adder8):
    text = to_verilog(adder8, module_name="8weird name!")
    assert "module m_8weird_name_" in text


def test_structural_metrics_consistency(multiplier8):
    metrics = structural_metrics(multiplier8)
    assert metrics.num_inputs == 16
    assert metrics.num_outputs == 16
    assert metrics.live_gates <= metrics.num_gates
    assert metrics.depth > 0
    assert metrics.max_fanout >= 1
    counts = metrics.gate_counts
    assert sum(counts.values()) == metrics.live_gates
    assert counts[GateType.AND.name] >= 64  # at least the partial products


def test_structural_metrics_flags_constant_outputs():
    trunc = truncated_adder(8, cut=3)
    metrics = structural_metrics(trunc)
    assert metrics.constant_outputs >= 3


def test_metrics_as_dict_has_gate_count_keys(adder8):
    flat = structural_metrics(adder8).as_dict()
    assert "count_xor" in flat
    assert flat["num_inputs"] == 16


def test_signal_probabilities_in_unit_interval(multiplier4):
    probabilities = node_signal_probabilities(multiplier4, num_samples=128, seed=1)
    assert probabilities.shape == (multiplier4.num_nodes,)
    assert np.all(probabilities >= 0.0)
    assert np.all(probabilities <= 1.0)


def test_switching_activity_bounded_by_half(multiplier4):
    activities = node_switching_activities(multiplier4, num_samples=128, seed=1)
    assert np.all(activities >= 0.0)
    assert np.all(activities <= 0.5 + 1e-12)


def test_input_signal_probability_near_half(adder8):
    probabilities = node_signal_probabilities(adder8, num_samples=2048, seed=7)
    inputs = probabilities[: adder8.num_inputs]
    assert np.all(np.abs(inputs - 0.5) < 0.1)


def test_activity_deterministic_for_fixed_seed(multiplier4):
    first = node_switching_activities(multiplier4, num_samples=64, seed=11)
    second = node_switching_activities(multiplier4, num_samples=64, seed=11)
    assert np.array_equal(first, second)


def _per_node_mean_oracle(netlist, num_samples, seed):
    """Signal probabilities as one ``mean()`` per node value vector."""
    rng = np.random.default_rng(seed)
    if netlist.input_words:
        bits = expand_operand_bits(netlist, random_operands(netlist, num_samples, rng))
    else:
        bits = np.zeros((num_samples, 0), dtype=bool)
    values = [bits[:, i] for i in range(netlist.num_inputs)]
    zeros = np.zeros(num_samples, dtype=bool)
    for gate in netlist.gates:
        a = values[gate.a] if gate.a >= 0 else zeros
        b = values[gate.b] if gate.b >= 0 else zeros
        values.append(evaluate_gate(gate.gate_type, a, b))
    return np.array([v.mean() for v in values], dtype=np.float64)


_CONSTANT_ONLY = Netlist(
    name="constants",
    kind="constant",
    input_words={},
    output_bits=(0, 1, 2),
    gates=[Gate(GateType.CONST1), Gate(GateType.CONST0), Gate(GateType.NOT, 0)],
)


@pytest.mark.parametrize("num_samples", [1, 13, 100, 256, 1001])
def test_signal_probabilities_equal_per_node_mean(multiplier4, adder8, num_samples):
    netlists = [
        multiplier4,
        adder8,
        perturb_netlist(multiplier4, seed=5),
        truncated_adder(8, 3),
        _CONSTANT_ONLY,
    ]
    for netlist in netlists:
        for seed in (0, 99):
            got = node_signal_probabilities(netlist, num_samples=num_samples, seed=seed)
            expected = _per_node_mean_oracle(netlist, num_samples, seed)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes(), netlist.name

