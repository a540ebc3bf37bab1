"""The model-zoo fits and the stage-7 resynthesis on the engine's fan-out.

``BatchEvaluator.fit_models`` fits the ApproxFPGAs model zoo on the same
process pool the evaluations use; every model seeds its own generator, so
process and order must not change a single estimate.  Stage 7 resynthesizes
the candidates of every FPGA parameter in one engine call.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import ExplorationSession
from repro.core import ApproxFpgasConfig
from repro.core.stages import (
    ApproxFpgasState,
    EvaluateLibraryStage,
    FitAndSelectStage,
    ResynthesizeCandidatesStage,
    SynthesizeTrainingSubsetStage,
)
from repro.engine import BatchEvaluator, fpga_report_to_payload
from repro.engine import evaluator as evaluator_module
from repro.fpga import estimate_synthesis_time
from repro.ml import MODELS, build_model
from repro.ml.linear import LinearRegression


def _flow_view(result) -> dict:
    """Everything a flow result exposes except the fits' wall-clock times."""
    return {
        "evaluations": [
            (e.model_id, e.parameter, e.fidelity, e.pearson, e.r2)
            for e in result.model_evaluations
        ],
        "estimated": {name: dict(record.estimated) for name, record in result.records.items()},
        "outcomes": {
            parameter: (
                outcome.top_models,
                outcome.candidate_names,
                outcome.final_front_names,
                outcome.true_front_names,
                outcome.coverage,
            )
            for parameter, outcome in result.parameter_outcomes.items()
        },
    }


def _run_flow(library, engine_mode: str, **config):
    session = ExplorationSession(seed=7, engine_mode=engine_mode, max_workers=2)
    return session.run_approxfpgas(
        library, ApproxFpgasConfig(seed=7, evaluate_coverage=True, **config)
    )


class InProcessPool:
    """Stand-in for ``ProcessPoolExecutor`` that counts the pools it starts."""

    started = 0

    def __init__(self, max_workers=None):
        type(self).started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.fixture
def counting_pool(monkeypatch):
    InProcessPool.started = 0
    monkeypatch.setattr(evaluator_module, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


class LockedLinearRegression(LinearRegression):
    """A linear model that holds a lock, so it cannot be pickled."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()


@pytest.fixture
def unpicklable_model():
    MODELS.register("test-locked", lambda names, seed: LockedLinearRegression())
    try:
        yield "test-locked"
    finally:
        MODELS.unregister("test-locked")


def _fits(model_ids, feature_names):
    rng = np.random.default_rng(3)
    y_train = rng.normal(size=12)
    return [
        (build_model(model_id, feature_names, random_state=5), y_train) for model_id in model_ids
    ]


@pytest.fixture(scope="module")
def fit_inputs():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 6))
    names = ["asic_power_mw", "asic_latency_ns", "asic_area_um2", "f3", "f4", "f5"]
    return X[:12], X[12:18], X, names


def _assert_same_fits(left, right):
    assert len(left) == len(right)
    for (val_a, lib_a, _), (val_b, lib_b, _) in zip(left, right):
        np.testing.assert_array_equal(val_a, val_b)
        np.testing.assert_array_equal(lib_a, lib_b)


class TestFitModels:
    def test_process_flow_matches_serial_with_the_full_zoo(self, small_multiplier_library):
        serial = _run_flow(small_multiplier_library, "serial")
        parallel = _run_flow(small_multiplier_library, "process")
        assert len(serial.model_evaluations) == 3 * len(MODELS)
        assert _flow_view(parallel) == _flow_view(serial)

    def test_process_fits_match_serial_fits(self, fit_inputs):
        X_train, X_val, X_all, names = fit_inputs
        ids = ["ML4", "ML5", "ML12", "ML17"]
        serial = BatchEvaluator(mode="serial").fit_models(
            _fits(ids, names), X_train, X_val, X_all
        )
        parallel = BatchEvaluator(mode="process", max_workers=2).fit_models(
            _fits(ids, names), X_train, X_val, X_all
        )
        _assert_same_fits(parallel, serial)
        assert all(elapsed > 0 for _, _, elapsed in parallel)

    def test_six_fits_in_auto_mode_start_no_pool(self, fit_inputs, counting_pool, monkeypatch):
        X_train, X_val, X_all, names = fit_inputs
        monkeypatch.setattr(evaluator_module.os, "cpu_count", lambda: 2)
        engine = BatchEvaluator(mode="auto")
        fits = _fits(["ML2", "ML4"] * 3, names)
        engine.fit_models(fits, X_train, X_val, X_all)
        assert counting_pool.started == 0
        # The threshold, not the method, is what keeps them serial.
        fits = _fits(["ML2", "ML4"] * (engine.parallel_threshold // 2), names)
        engine.fit_models(fits, X_train, X_val, X_all)
        assert counting_pool.started == 1

    def test_one_fit_per_task(self, fit_inputs, counting_pool, monkeypatch):
        X_train, X_val, X_all, names = fit_inputs
        tasks = []
        worker = evaluator_module._worker_fit
        monkeypatch.setattr(
            evaluator_module, "_worker_fit", lambda task: tasks.append(task) or worker(task)
        )
        fits = _fits(["ML2", "ML4", "ML6"], names)
        BatchEvaluator(mode="process", max_workers=2).fit_models(fits, X_train, X_val, X_all)
        assert [task[-2] for task in tasks] == [model for model, _ in fits]

    def test_unpicklable_model_falls_back_to_serial(self, fit_inputs, unpicklable_model):
        X_train, X_val, X_all, names = fit_inputs
        ids = ["ML2", unpicklable_model, "ML4"]
        serial = BatchEvaluator(mode="serial").fit_models(
            _fits(ids, names), X_train, X_val, X_all
        )
        fits = _fits(ids, names)
        parallel = BatchEvaluator(mode="process", max_workers=2).fit_models(
            fits, X_train, X_val, X_all
        )
        _assert_same_fits(parallel, serial)
        # Fitted here: the pool never ran them.
        assert all(model._fitted for model, _ in fits)

    def test_unpicklable_model_in_a_process_flow(self, small_adder_library, unpicklable_model):
        ids = ["ML2", "ML4", unpicklable_model]
        serial = _run_flow(small_adder_library, "serial", model_ids=ids)
        parallel = _run_flow(small_adder_library, "process", model_ids=ids)
        assert _flow_view(parallel) == _flow_view(serial)


class TestResynthesizeCandidates:
    def test_one_call_matches_the_per_parameter_loop(self, small_multiplier_library):
        config = ApproxFpgasConfig(seed=3, model_ids=["ML2", "ML4", "ML6"], top_k_models=2)
        state = ApproxFpgasState.create(small_multiplier_library, config)
        state.engine.mode = "serial"
        for stage in (EvaluateLibraryStage(), SynthesizeTrainingSubsetStage(), FitAndSelectStage()):
            stage.absorb(state, stage.compute(state))

        # The loop this stage replaced: one engine call per FPGA parameter.
        engine = BatchEvaluator(fpga_synthesizer=state.fpga_synthesizer, mode="serial")
        device = state.fpga_synthesizer.device
        expected_reports, expected_time = {}, 0.0
        for parameter in config.fpga_parameters:
            pending = [
                state.library.get(name)
                for name in state.candidate_union[parameter]
                if state.records[name].fpga is None and name not in expected_reports
            ]
            for circuit, report in zip(pending, engine.evaluate_fpga(pending)):
                expected_reports[circuit.name] = fpga_report_to_payload(report)
                expected_time += estimate_synthesis_time(circuit, device)

        calls = []
        evaluate_fpga = state.engine.evaluate_fpga
        state.engine.evaluate_fpga = lambda circuits: calls.append(circuits) or evaluate_fpga(
            circuits
        )
        payload = ResynthesizeCandidatesStage().compute(state)

        assert len(calls) == 1
        assert expected_reports, "the fixture must leave candidates to resynthesize"
        assert list(payload["fpga"]) == list(expected_reports)
        assert payload["fpga"] == expected_reports
        assert payload["resynthesis_time_s"] == expected_time
