"""Differential tests of the simulation backends (``-m sim_backends``).

The ``"bool"`` reference and the ``"compiled"`` backend must be
*bit-identical* on every netlist and every pattern count -- caches and flows
rely on it (backend keys are deliberately absent from engine cache keys).
This suite checks the contract several ways:

* unit parity of every gate type's compiled lowering against its boolean
  truth table;
* a seeded differential sweep over hundreds of randomly perturbed netlists
  and pattern counts (including non-multiples of 64 and floating
  ``gate.a/b == -1`` operands);
* hypothesis-driven random netlist/pattern generation on top;
* degenerate-netlist edge cases (wire-only, constant-only, repeated output
  bits, width-1 words) that every backend -- and both executors of the
  compiled backend (native and NumPy fallback) -- must agree on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    AUTO_COMPILED_MIN_PATTERNS,
    PLANE_WIDTH,
    SIM_BACKENDS,
    Gate,
    GateType,
    Netlist,
    compile_netlist,
    exhaustive_operands,
    num_planes,
    pack_bits,
    resolve_sim_backend,
    simulate_bits,
    simulate_bits_compiled,
    simulate_planes_compiled,
    simulate_words,
    unpack_bits,
    validate_sim_backend,
)
from repro.circuits import compiled as compiled_module
from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator
from repro.generators import array_multiplier, perturb_netlist, ripple_carry_adder
from repro.generators.perturbation import PerturbationConfig
from repro.registry import RegistryError

pytestmark = pytest.mark.sim_backends


def random_input_bits(netlist: Netlist, patterns: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((patterns, netlist.num_inputs)) < 0.5


def assert_backends_agree(netlist: Netlist, input_bits: np.ndarray) -> None:
    reference = simulate_bits(netlist, input_bits)
    outputs = simulate_bits_compiled(netlist, input_bits)
    assert outputs.dtype == reference.dtype
    assert outputs.shape == reference.shape
    assert np.array_equal(reference, outputs)


# --------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_builtin_keys(self):
        assert list(SIM_BACKENDS) == ["bool", "compiled"]
        assert SIM_BACKENDS.get("bool") is simulate_bits
        assert SIM_BACKENDS.get("compiled") is simulate_bits_compiled

    def test_unknown_key_lists_available(self):
        with pytest.raises(RegistryError, match="compiled"):
            resolve_sim_backend("cuda")

    def test_default_is_bool(self):
        assert resolve_sim_backend() is simulate_bits
        assert resolve_sim_backend(None, patterns=10**9) is simulate_bits

    def test_auto_selects_by_pattern_count(self):
        assert resolve_sim_backend("auto", patterns=0) is simulate_bits
        assert (
            resolve_sim_backend("auto", patterns=AUTO_COMPILED_MIN_PATTERNS - 1)
            is simulate_bits
        )
        assert (
            resolve_sim_backend("auto", patterns=AUTO_COMPILED_MIN_PATTERNS)
            is simulate_bits_compiled
        )

    def test_auto_without_patterns_raises(self):
        """``"auto"`` used to fall back silently to the slowest backend."""
        with pytest.raises(ValueError, match="patterns"):
            resolve_sim_backend("auto")
        with pytest.raises(ValueError, match="patterns"):
            resolve_sim_backend("auto", patterns=None)

    def test_validate_accepts_selectors_without_selecting(self):
        assert validate_sim_backend("auto") == "auto"
        assert validate_sim_backend(None) is None
        for key in SIM_BACKENDS:
            assert validate_sim_backend(key) == key
        with pytest.raises(RegistryError):
            validate_sim_backend("cuda")

    def test_callable_passes_through(self):
        def custom(netlist, bits):  # pragma: no cover - identity placeholder
            return simulate_bits(netlist, bits)

        assert resolve_sim_backend(custom) is custom
        assert validate_sim_backend(custom) is custom

    def test_unknown_backend_fails_fast_in_evaluator(self, multiplier4):
        with pytest.raises(RegistryError):
            ErrorEvaluator(multiplier4, sim_backend="nope")
        with pytest.raises(RegistryError):
            BatchEvaluator(multiplier4, sim_backend="nope")

    def test_auto_evaluators_construct_without_pattern_count(self, multiplier4):
        """Validation stays distinct from selection: ``"auto"`` holds until
        the evaluator knows its pattern count."""
        assert ErrorEvaluator(multiplier4, sim_backend="auto").sim_backend == "auto"
        assert BatchEvaluator(multiplier4, sim_backend="auto").sim_backend == "auto"


# --------------------------------------------------------------------- #
# pack / unpack
# --------------------------------------------------------------------- #
class TestPacking:
    @settings(max_examples=60)
    @given(
        patterns=st.integers(min_value=0, max_value=300),
        rows=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip(self, patterns, rows, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((rows, patterns)) < 0.5
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (rows, num_planes(patterns))
        assert np.array_equal(unpack_bits(packed, patterns), bits)

    def test_one_dimensional_roundtrip(self):
        bits = np.array([True, False, True] * 43)  # 129 = 2*64 + 1 patterns
        packed = pack_bits(bits)
        assert packed.shape == (num_planes(129),)
        assert np.array_equal(unpack_bits(packed, 129), bits)

    def test_num_planes(self):
        assert [num_planes(p) for p in (0, 1, 63, 64, 65, 128)] == [0, 1, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            num_planes(-1)

    def test_unpack_rejects_overlong_pattern_count(self):
        packed = pack_bits(np.ones(64, dtype=bool))
        with pytest.raises(ValueError):
            unpack_bits(packed, 65)


# --------------------------------------------------------------------- #
# Per-gate lowering parity
# --------------------------------------------------------------------- #
def single_gate_netlist(gate_type: GateType) -> Netlist:
    return Netlist(
        name=f"single_{gate_type.name.lower()}",
        kind="test",
        input_words={"a": (0,), "b": (1,)},
        output_bits=(2,),
        gates=[
            Gate(gate_type)
            if gate_type in (GateType.CONST0, GateType.CONST1)
            else (Gate(gate_type, 0) if gate_type in (GateType.BUF, GateType.NOT)
                  else Gate(gate_type, 0, 1))
        ],
    )


@pytest.mark.parametrize("gate_type", list(GateType))
def test_single_gate_lowering_matches_bool_gate(gate_type, rng):
    """A one-gate netlist per gate type: the compiled lowering of each gate
    agrees with the boolean truth-table source in ``gates.py``."""
    netlist = single_gate_netlist(gate_type)
    for patterns in (1, 65, 200):
        assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))


@pytest.mark.parametrize("gate_type", list(GateType))
def test_single_gate_numpy_executor_matches_bool_gate(gate_type, rng, monkeypatch):
    """Pin the NumPy executor's per-opcode kernels gate by gate, even when
    the native tape interpreter is available and would otherwise run."""
    monkeypatch.setattr(compiled_module, "run_tape_native", lambda *args: False)
    netlist = single_gate_netlist(gate_type)
    for patterns in (1, 65, 200):
        assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))


# --------------------------------------------------------------------- #
# Differential sweep: perturbed netlists x pattern counts
# --------------------------------------------------------------------- #
def test_differential_seeded_sweep():
    """>= 200 random netlist/pattern cases, bit-identical across backends."""
    rng = np.random.default_rng(0xB17)
    bases = [
        ripple_carry_adder(3),
        ripple_carry_adder(5),
        array_multiplier(3),
        array_multiplier(4),
    ]
    pattern_counts = [1, 63, 64, 65, PLANE_WIDTH * 2, 197]
    cases = 0
    for base in bases:
        for seed in range(9):
            config = PerturbationConfig(num_mutations=1 + seed, locality=16)
            netlist = perturb_netlist(base, seed=seed, config=config)
            for patterns in pattern_counts:
                assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))
                cases += 1
    assert cases >= 200


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=4),
    kind=st.sampled_from(["adder", "multiplier"]),
    mutations=st.integers(min_value=0, max_value=10),
    perturb_seed=st.integers(min_value=0, max_value=2**31 - 1),
    patterns=st.integers(min_value=1, max_value=180),
    pattern_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_differential_hypothesis(width, kind, mutations, perturb_seed, patterns, pattern_seed):
    base = ripple_carry_adder(width) if kind == "adder" else array_multiplier(width)
    if mutations:
        config = PerturbationConfig(num_mutations=mutations, locality=24)
        netlist = perturb_netlist(base, seed=perturb_seed, config=config)
    else:
        netlist = base
    rng = np.random.default_rng(pattern_seed)
    assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))


def test_floating_operands_read_as_zero():
    """Gates with ``a``/``b`` == -1 see constant-0 inputs in both backends."""
    netlist = Netlist(
        name="floating",
        kind="test",
        input_words={"a": (0, 1)},
        # node ids: inputs 0-1, gates 2-6
        output_bits=(2, 3, 4, 5, 6),
        gates=[
            Gate(GateType.NOT, 0),         # regular unary (b floats by design)
            Gate(GateType.CONST1),         # both operands float
            Gate(GateType.AND, 0, -1),     # binary gate with floating b
            Gate(GateType.ORNOT, -1, 1),   # binary gate with floating a
            Gate(GateType.BUF, -1),        # unary gate with floating a
        ],
    )
    rng = np.random.default_rng(7)
    for patterns in (1, 64, 65, 130):
        bits = random_input_bits(netlist, patterns, rng)
        assert_backends_agree(netlist, bits)
        outputs = simulate_bits_compiled(netlist, bits)
        assert not outputs[:, 2].any()                                       # a AND 0 == 0
        assert np.array_equal(outputs[:, 3], np.logical_not(bits[:, 1]))     # 0 OR NOT b
        assert not outputs[:, 4].any()                                       # BUF of floating == 0


# --------------------------------------------------------------------- #
# Word-level and evaluator-level equivalence
# --------------------------------------------------------------------- #
def test_simulate_words_backends_agree(multiplier4, rng):
    operands = {
        "a": rng.integers(0, 16, size=321),
        "b": rng.integers(0, 16, size=321),
    }
    reference = simulate_words(multiplier4, operands, backend="bool")
    assert np.array_equal(simulate_words(multiplier4, operands, backend="compiled"), reference)
    assert np.array_equal(simulate_words(multiplier4, operands, backend="auto"), reference)
    assert np.array_equal(simulate_words(multiplier4, operands), reference)


def test_error_evaluator_backends_bit_identical(multiplier4):
    circuit = perturb_netlist(multiplier4, seed=11)
    reports = {
        backend: ErrorEvaluator(multiplier4, sim_backend=backend).evaluate(circuit)
        for backend in ("bool", "compiled", "auto")
    }
    assert reports["bool"].metrics == reports["compiled"].metrics
    assert reports["bool"].metrics == reports["auto"].metrics


def test_error_evaluator_monte_carlo_backends_bit_identical():
    reference = ripple_carry_adder(16)
    circuit = perturb_netlist(reference, seed=5)
    bool_report = ErrorEvaluator(
        reference, max_exhaustive_inputs=10, num_samples=2048, sim_backend="bool"
    ).evaluate(circuit)
    compiled_report = ErrorEvaluator(
        reference, max_exhaustive_inputs=10, num_samples=2048, sim_backend="compiled"
    ).evaluate(circuit)
    assert bool_report.method == "monte_carlo"
    assert bool_report.metrics == compiled_report.metrics


def test_streaming_evaluator_matches_one_shot(multiplier4):
    circuit = perturb_netlist(multiplier4, seed=13)
    one_shot = ErrorEvaluator(multiplier4, sim_backend="bool").evaluate(circuit)
    for chunk in (1, 37, 64, 100, 256, 10**6):
        chunked = ErrorEvaluator(
            multiplier4, sim_backend="compiled", chunk_patterns=chunk
        ).evaluate(circuit)
        exact_fields = ("med", "mae", "wce", "wce_relative", "error_probability", "mse")
        for field in exact_fields:
            assert getattr(chunked.metrics, field) == getattr(one_shot.metrics, field), field
        assert chunked.metrics.mre == pytest.approx(one_shot.metrics.mre, rel=1e-12)


def test_streaming_evaluator_rejects_bad_chunk(multiplier4):
    with pytest.raises(ValueError):
        ErrorEvaluator(multiplier4, chunk_patterns=0)


# --------------------------------------------------------------------- #
# Engine integration: backend changes neither results nor cache keys
# --------------------------------------------------------------------- #
def test_engine_results_and_cache_shared_across_backends(multiplier4):
    circuits = [perturb_netlist(multiplier4, seed=s) for s in range(6)]
    cache = EvalCache()
    bool_engine = BatchEvaluator(multiplier4, cache=cache, mode="serial", sim_backend="bool")
    bool_reports = bool_engine.evaluate_errors(circuits)

    compiled_engine = BatchEvaluator(
        multiplier4, cache=cache, mode="serial", sim_backend="compiled"
    )
    before = cache.stats()
    compiled_reports = compiled_engine.evaluate_errors(circuits)
    after = cache.stats()

    # Identical cache keys: the compiled engine is served entirely from the
    # bool engine's entries without re-simulating anything.
    assert after.hits - before.hits == len(circuits)
    assert after.misses == before.misses
    for bool_report, compiled_report in zip(bool_reports, compiled_reports):
        assert bool_report.metrics == compiled_report.metrics

    # And an uncached compiled engine recomputes the exact same metrics
    # through the plane-level fast path.
    fresh = BatchEvaluator(
        multiplier4, cache=EvalCache(), mode="serial", sim_backend="compiled"
    ).evaluate_errors(circuits)
    for bool_report, fresh_report in zip(bool_reports, fresh):
        assert bool_report.metrics == fresh_report.metrics


def test_engine_inherits_backend_from_evaluator(multiplier4):
    evaluator = ErrorEvaluator(multiplier4, sim_backend="compiled")
    engine = BatchEvaluator(error_evaluator=evaluator)
    assert engine.sim_backend == "compiled"
    assert BatchEvaluator(error_evaluator=evaluator, sim_backend="compiled").sim_backend == (
        "compiled"
    )
    with pytest.raises(ValueError, match="conflicting sim_backend"):
        BatchEvaluator(error_evaluator=evaluator, sim_backend="bool")


def test_degenerate_chunk_shares_cache_with_one_shot(multiplier4):
    """chunk_patterns >= num_patterns is one-shot: same results, same cache keys."""
    circuit = perturb_netlist(multiplier4, seed=17)
    cache = EvalCache()
    one_shot = BatchEvaluator(multiplier4, cache=cache, mode="serial")
    [report] = one_shot.evaluate_errors([circuit])

    big_chunk = ErrorEvaluator(multiplier4, chunk_patterns=10**9)
    assert not big_chunk.streaming
    degenerate = BatchEvaluator(error_evaluator=big_chunk, cache=cache, mode="serial")
    before = cache.stats()
    [served] = degenerate.evaluate_errors([circuit])
    after = cache.stats()
    assert after.hits - before.hits == 1
    assert after.misses == before.misses
    assert served.metrics == report.metrics

    # A genuinely streaming evaluator keys its own cache namespace.
    streaming = ErrorEvaluator(multiplier4, chunk_patterns=64)
    assert streaming.streaming
    streaming_engine = BatchEvaluator(error_evaluator=streaming, cache=cache, mode="serial")
    before = cache.stats()
    [streamed] = streaming_engine.evaluate_errors([circuit])
    after = cache.stats()
    assert after.misses == before.misses + 1
    assert streamed.metrics.med == report.metrics.med


# --------------------------------------------------------------------- #
# Degenerate-netlist edge cases, differential across all backends
# --------------------------------------------------------------------- #
class TestDegenerateNetlists:
    """Every backend must agree on the shapes simulation rarely sees."""

    def test_wire_only_netlist(self, rng):
        """Zero gates: outputs wired straight to (repeated) input bits."""
        netlist = Netlist(
            name="wires",
            kind="test",
            input_words={"a": (0, 1), "b": (2,)},
            output_bits=(1, 0, 2, 1),  # permuted and repeated input nodes
            gates=[],
        )
        for patterns in (1, 64, 65, 200):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_bits_compiled(netlist, bits)
            assert np.array_equal(outputs, bits[:, [1, 0, 2, 1]])

    def test_constant_only_gates(self, rng):
        netlist = Netlist(
            name="consts",
            kind="test",
            input_words={"a": (0,)},
            output_bits=(1, 2, 1),  # repeated constant outputs too
            gates=[Gate(GateType.CONST0), Gate(GateType.CONST1)],
        )
        for patterns in (1, 63, 130):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_bits_compiled(netlist, bits)
            assert not outputs[:, 0].any()
            assert outputs[:, 1].all()
            assert not outputs[:, 2].any()

    def test_repeated_gate_output_bits(self, rng):
        netlist = Netlist(
            name="repeated",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            output_bits=(2, 2, 3, 2),
            gates=[Gate(GateType.XOR, 0, 1), Gate(GateType.NAND, 0, 1)],
        )
        for patterns in (1, 65, 200):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_bits_compiled(netlist, bits)
            assert np.array_equal(outputs[:, 0], outputs[:, 1])
            assert np.array_equal(outputs[:, 0], outputs[:, 3])

    def test_width_one_words(self, rng):
        netlist = Netlist(
            name="bit_and",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            output_bits=(2,),
            gates=[Gate(GateType.AND, 0, 1)],
        )
        for patterns in (1, 64, 129):
            assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))
        words = simulate_words(netlist, {"a": [0, 1, 0, 1], "b": [0, 0, 1, 1]})
        assert words.tolist() == [0, 0, 0, 1]

    def test_exhaustive_operands_single_input_word(self):
        netlist = Netlist(
            name="parity3",
            kind="test",
            input_words={"a": (0, 1, 2)},
            output_bits=(4,),
            gates=[Gate(GateType.XOR, 0, 1), Gate(GateType.XOR, 3, 2)],
        )
        operands = exhaustive_operands(netlist)
        assert list(operands) == ["a"]
        assert np.array_equal(operands["a"], np.arange(8))
        expected = [bin(value).count("1") % 2 for value in range(8)]
        for backend in SIM_BACKENDS:
            words = simulate_words(netlist, operands, backend=backend)
            assert words.tolist() == expected


# --------------------------------------------------------------------- #
# Compiled-program unit tests (lowering, caching, pickling, fallback)
# --------------------------------------------------------------------- #
class TestCompiledProgram:
    def test_dead_node_elimination_and_folding(self):
        netlist = Netlist(
            name="foldable",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            # node ids: inputs 0-1; gates 2-7
            output_bits=(7,),
            gates=[
                Gate(GateType.AND, 0, 1),      # 2: dead (not in any output cone)
                Gate(GateType.CONST1),         # 3: folds to the constant slot
                Gate(GateType.AND, 0, 3),      # 4: AND with 1 -> alias of input 0
                Gate(GateType.NOT, 4),         # 5: free polarity flip
                Gate(GateType.XOR, 5, 5),      # 6: same-operand XOR -> constant 0
                Gate(GateType.OR, 6, 1),       # 7: OR with 0 -> alias of input 1
            ],
        )
        program = compile_netlist(netlist, use_cache=False)
        assert program.source_gates == 6
        assert program.live_gates == 5  # gate 2 eliminated
        assert program.num_ops == 0  # everything folded or aliased
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
        assert np.array_equal(program.simulate_bits(bits), bits[:, [1]])

    def test_inverting_gates_become_polarity_flags(self, multiplier4):
        """NAND/NOR/XNOR/NOT lower to non-inverting tape opcodes."""
        perturbed = perturb_netlist(multiplier4, seed=3)
        for netlist in (multiplier4, perturbed):
            program = compile_netlist(netlist, use_cache=False)
            assert program.num_ops <= program.live_gates
            assert program.tape.shape == (program.num_ops, 4)
            opcodes = set(program.tape[:, 0].tolist())
            assert opcodes <= {
                compiled_module.OP_AND,
                compiled_module.OP_OR,
                compiled_module.OP_XOR,
                compiled_module.OP_ANDNOT,
                compiled_module.OP_ORNOT,
            }

    def test_program_cache_identity_and_eviction(self, multiplier4):
        compiled_module.clear_program_cache()
        first = compile_netlist(multiplier4)
        assert compile_netlist(multiplier4) is first
        # A structurally identical rebuild shares the fingerprint entry; a
        # perturbed variant gets its own.
        assert compile_netlist(array_multiplier(4)) is first
        assert compile_netlist(perturb_netlist(multiplier4, seed=9)) is not first
        assert compile_netlist(multiplier4) is first
        assert compile_netlist(multiplier4, use_cache=False) is not first
        compiled_module.clear_program_cache()
        assert compile_netlist(multiplier4) is not first

    def test_program_pickles_cleanly(self, multiplier4, rng):
        """Process pools may ship programs; results must survive the trip."""
        program = compile_netlist(multiplier4, use_cache=False)
        restored = pickle.loads(pickle.dumps(program))
        bits = random_input_bits(multiplier4, 197, rng)
        assert np.array_equal(restored.simulate_bits(bits), simulate_bits(multiplier4, bits))
        assert restored.fingerprint == program.fingerprint

    def test_numpy_fallback_matches_native(self, multiplier4, rng, monkeypatch):
        """The pure-NumPy executor is pinned against the bool backend even
        when the native tape interpreter is available and in use."""
        monkeypatch.setattr(compiled_module, "run_tape_native", lambda *args: False)
        for seed in range(4):
            netlist = perturb_netlist(multiplier4, seed=seed)
            for patterns in (1, 64, 197):
                bits = random_input_bits(netlist, patterns, rng)
                assert np.array_equal(
                    simulate_bits_compiled(netlist, bits), simulate_bits(netlist, bits)
                )

    @pytest.mark.parametrize("value, enabled", [("", True), ("0", True), ("1", False)])
    def test_no_native_flag_parses_like_bench_flags(self, value, enabled, monkeypatch):
        """``REPRO_NO_NATIVE`` reads ``""`` and ``"0"`` as off, like
        ``REPRO_BENCH_QUICK``; only other values disable the native executor."""
        from repro.circuits import _native

        builds = []
        monkeypatch.setenv(_native.DISABLE_ENV, value)
        monkeypatch.setattr(_native, "_load_attempted", False)
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_build_library", lambda: builds.append(value))
        assert _native._load() is None  # the stub build yields no library
        assert bool(builds) == enabled

    def test_planes_entry_point_matches_bool(self, multiplier4, rng):
        bits = random_input_bits(multiplier4, 320, rng)
        got = simulate_planes_compiled(multiplier4, pack_bits(bits.T))
        assert got.dtype == np.uint64
        assert np.array_equal(unpack_bits(got, 320).T, simulate_bits(multiplier4, bits))

    def test_shape_validation(self, multiplier4):
        with pytest.raises(ValueError):
            simulate_planes_compiled(multiplier4, np.zeros((3, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            simulate_bits_compiled(multiplier4, np.zeros((4, 3), dtype=bool))
