"""Unit tests for the Netlist IR and the NetlistBuilder."""

import pickle

import numpy as np
import pytest

from repro.circuits import Gate, GateType, Netlist, NetlistBuilder, NetlistError
from repro.generators import PerturbationConfig, array_multiplier, perturb_netlist


def build_tiny_xor():
    builder = NetlistBuilder("tiny_xor", kind="adder")
    a = builder.add_input_word("a", 1)
    b = builder.add_input_word("b", 1)
    s = builder.xor(a[0], b[0])
    c = builder.and_(a[0], b[0])
    return builder.finish([s, c])


def test_builder_produces_valid_netlist():
    netlist = build_tiny_xor()
    netlist.validate()
    assert netlist.num_inputs == 2
    assert netlist.num_outputs == 2
    assert netlist.num_gates == 2


def test_builder_rejects_inputs_after_gates():
    builder = NetlistBuilder("bad", kind="adder")
    builder.add_input_word("a", 1)
    builder.const0()
    with pytest.raises(ValueError):
        builder.add_input_word("b", 1)


def test_builder_rejects_duplicate_word():
    builder = NetlistBuilder("bad", kind="adder")
    builder.add_input_word("a", 2)
    with pytest.raises(ValueError):
        builder.add_input_word("a", 2)


def test_builder_rejects_forward_reference():
    builder = NetlistBuilder("bad", kind="adder")
    a = builder.add_input_word("a", 1)
    with pytest.raises(ValueError):
        builder.add_gate(GateType.AND, a[0], 99)


def test_validate_detects_nontopological_gates():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(1,),
        gates=[Gate(GateType.AND, 0, 2), Gate(GateType.BUF, 0)],
    )
    with pytest.raises(NetlistError):
        netlist.validate()


def test_validate_detects_bad_output_reference():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(5,),
        gates=[],
    )
    with pytest.raises(NetlistError):
        netlist.validate()


def test_validate_detects_unassigned_inputs():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(0,),
        gates=[Gate(GateType.BUF, 1)],
    )
    # input node 1 exists implicitly (num_inputs counts word bits only), so the
    # gate references an out-of-range node.
    with pytest.raises(NetlistError):
        netlist.validate()


def test_depth_and_fanout():
    netlist = build_tiny_xor()
    assert netlist.depth() == 1
    fanouts = netlist.fanout_counts()
    # Each input feeds the XOR and the AND.
    assert fanouts[0] == 2
    assert fanouts[1] == 2


def test_const_cache_shared(adder8):
    builder = NetlistBuilder("consts", kind="adder")
    builder.add_input_word("a", 1)
    builder.add_input_word("b", 1)
    first = builder.const0()
    second = builder.const0()
    assert first == second


def test_half_and_full_adder_truth():
    builder = NetlistBuilder("fa", kind="adder")
    a = builder.add_input_word("a", 1)
    b = builder.add_input_word("b", 1)
    c = builder.add_input_word("c", 1)
    total, carry = builder.full_adder(a[0], b[0], c[0])
    netlist = builder.finish([total, carry])
    outputs = netlist.exhaustive_outputs()
    grid = np.array(np.meshgrid(np.arange(2), np.arange(2), np.arange(2), indexing="ij"))
    expected = grid.reshape(3, -1).sum(axis=0)
    assert np.array_equal(outputs, expected)


def test_mux_selects_correct_input():
    builder = NetlistBuilder("mux", kind="adder")
    s = builder.add_input_word("s", 1)
    x = builder.add_input_word("x", 1)
    y = builder.add_input_word("y", 1)
    out = builder.mux(s[0], x[0], y[0])
    netlist = builder.finish([out])
    values = netlist.evaluate_words({"s": [0, 0, 1, 1], "x": [0, 1, 0, 1], "y": [1, 0, 1, 0]})
    assert values.tolist() == [0, 1, 1, 0]


def test_pruned_removes_dead_logic_preserving_function(adder8):
    builder = NetlistBuilder("dead", kind="adder")
    a = builder.add_input_word("a", 2)
    b = builder.add_input_word("b", 2)
    live = builder.xor(a[0], b[0])
    builder.and_(a[1], b[1])  # dead gate
    netlist = builder.finish([live])
    pruned = netlist.pruned()
    assert pruned.num_gates < netlist.num_gates
    operands = {"a": np.arange(4), "b": np.arange(4)[::-1]}
    assert np.array_equal(netlist.evaluate_words(operands), pruned.evaluate_words(operands))


def test_copy_preserves_function_and_applies_metadata(multiplier4):
    duplicate = multiplier4.copy(name="other", meta={"tag": 1})
    assert duplicate.name == "other"
    assert duplicate.meta["tag"] == 1
    operands = {"a": np.arange(16), "b": np.arange(16)}
    assert np.array_equal(multiplier4.evaluate_words(operands), duplicate.evaluate_words(operands))


def test_gate_of_node_and_is_input(multiplier4):
    assert multiplier4.is_input_node(0)
    with pytest.raises(NetlistError):
        multiplier4.gate_of_node(0)
    gate = multiplier4.gate_of_node(multiplier4.num_inputs)
    assert isinstance(gate, Gate)


def test_live_gate_count_not_larger_than_total(multiplier8):
    assert 0 < multiplier8.live_gate_count() <= multiplier8.num_gates


# --------------------------------------------------------------------- #
# Structural analyses and the cached live mask
# --------------------------------------------------------------------- #
def reference_analyses(netlist, roots=None):
    """Uncached reference: (num_inputs, fan-in mask, fanout counts, depths)."""
    num_inputs = sum(len(bits) for bits in netlist.input_words.values())
    num_nodes = num_inputs + len(netlist.gates)
    mask = np.zeros(num_nodes, dtype=bool)
    stack = list(netlist.output_bits if roots is None else roots)
    while stack:
        node = stack.pop()
        if not mask[node]:
            mask[node] = True
            if node >= num_inputs:
                stack.extend(netlist.gates[node - num_inputs].operands())
    fanouts = np.zeros(num_nodes, dtype=np.int64)
    depths = np.zeros(num_nodes, dtype=np.int64)
    for index, gate in enumerate(netlist.gates):
        for operand in gate.operands():
            fanouts[operand] += 1
        if gate.operands():
            depths[num_inputs + index] = 1 + max(depths[o] for o in gate.operands())
    for bit in netlist.output_bits:
        fanouts[bit] += 1
    return num_inputs, mask, fanouts, depths


def assert_analyses_match_reference(netlist):
    num_inputs, mask, fanouts, depths = reference_analyses(netlist)
    assert netlist.num_inputs == num_inputs
    assert np.array_equal(netlist.transitive_fanin(), mask)
    assert np.array_equal(netlist.fanout_counts(), fanouts)
    assert np.array_equal(netlist.node_depths(), depths)


@pytest.fixture
def perturbed_multipliers():
    base = array_multiplier(4)
    config = PerturbationConfig(num_mutations=6, locality=16)
    return [perturb_netlist(base, seed=seed, config=config) for seed in range(6)]


def test_analyses_match_reference(perturbed_multipliers):
    for netlist in [build_tiny_xor(), array_multiplier(4)] + perturbed_multipliers:
        assert_analyses_match_reference(netlist)


def test_live_mask_cached_read_only():
    netlist = array_multiplier(4)
    first = netlist.transitive_fanin()
    assert netlist.transitive_fanin() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = first[1]


def test_explicit_roots_are_correct_and_not_cached(perturbed_multipliers):
    for netlist in perturbed_multipliers:
        live = netlist.transitive_fanin()
        roots = [netlist.output_bits[0], netlist.num_inputs + netlist.num_gates // 2]
        first = netlist.transitive_fanin(roots=roots)
        second = netlist.transitive_fanin(roots=roots)
        assert np.array_equal(first, reference_analyses(netlist, roots)[1])
        assert first is not second and np.array_equal(first, second)
        assert first.flags.writeable
        first[:] = False  # a caller's own array; the cached mask is untouched
        assert netlist.transitive_fanin() is live
        assert np.array_equal(live, reference_analyses(netlist)[1])
        rooted_at_outputs = netlist.transitive_fanin(roots=netlist.output_bits)
        assert rooted_at_outputs is not live and np.array_equal(rooted_at_outputs, live)


def test_copies_and_pruned_netlists_analyse_afresh(multiplier4):
    assert_analyses_match_reference(multiplier4)
    duplicate = multiplier4.copy(name="duplicate")
    assert duplicate.transitive_fanin() is not multiplier4.transitive_fanin()
    assert_analyses_match_reference(duplicate)

    # Edited before its first analysis, as a fresh copy may be: the caches
    # see the edit (here, the MSB output rewired to a primary input).
    mutated = multiplier4.copy()
    mutated.output_bits = mutated.output_bits[:-1] + (0,)
    mutated.gates[0] = Gate(GateType.CONST1)
    assert_analyses_match_reference(mutated)
    assert not np.array_equal(mutated.transitive_fanin(), multiplier4.transitive_fanin())

    builder = NetlistBuilder("dead", kind="adder")
    a = builder.add_input_word("a", 2)
    b = builder.add_input_word("b", 2)
    live = builder.xor(a[0], b[0])
    builder.and_(a[1], b[1])  # dead gate
    netlist = builder.finish([live])
    netlist.transitive_fanin()
    pruned = netlist.pruned()
    assert_analyses_match_reference(pruned)
    assert pruned.transitive_fanin()[pruned.num_inputs:].all()


def test_pickle_round_trip_gives_equal_analyses(perturbed_multipliers):
    for netlist in perturbed_multipliers:
        live = netlist.transitive_fanin()
        restored = pickle.loads(pickle.dumps(netlist))
        assert restored == netlist
        assert restored.fingerprint() == netlist.fingerprint()
        assert restored.num_inputs == netlist.num_inputs
        value = restored.transitive_fanin()
        assert np.array_equal(value, live)
        assert not value.flags.writeable
