"""Back-compat guarantees of the legacy wrappers over the staged pipelines.

* Seeded equivalence: `ApproxFpgasFlow` / `run_approxfpgas` / `AutoAxFpgaFlow`
  and the new `ExplorationSession` pipeline path produce identical results.
* Simulation-backend equivalence: the same seeded runs are bit-identical
  under the `"bool"` and `"compiled"` simulation backends.
* The legacy entry points emit no deprecation warnings -- CI runs this file
  with ``-W error::DeprecationWarning`` to keep it that way.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig, AutoAxFlow, AutoAxFpgaFlow, components_from_library
from repro.core import ApproxFpgasConfig, ApproxFpgasFlow, run_approxfpgas
from repro.io import result_to_dict

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

DETERMINISTIC_COST_FIELDS = (
    "num_circuits",
    "exhaustive_time_s",
    "training_time_s",
    "resynthesis_time_s",
)


def canonical_result(result) -> str:
    """JSON dump of an ApproxFPGAs result without the wall-clock fields."""
    payload = result_to_dict(result)
    payload["exploration_cost"] = {
        key: payload["exploration_cost"][key] for key in DETERMINISTIC_COST_FIELDS
    }
    for evaluation in payload["model_evaluations"]:
        evaluation.pop("train_time_s", None)
    return json.dumps(payload, sort_keys=True)


def autoax_signature(result):
    """Deterministic signature of an AutoAx result (configs, quality, cost)."""

    def entries(items):
        return [
            (
                entry.config.multiplier_indices,
                entry.config.adder_indices,
                entry.quality,
                tuple(sorted(entry.cost.items())),
            )
            for entry in items
        ]

    return {
        "scenarios": {
            parameter: (entries(scenario.candidates), entries(scenario.front))
            for parameter, scenario in result.scenarios.items()
        },
        "baseline": entries(result.baseline),
        "design_space_size": result.design_space_size,
        "training_size": result.training_size,
    }


@pytest.fixture(scope="module")
def config():
    return ApproxFpgasConfig(
        training_fraction=0.25,
        min_training_circuits=12,
        num_pseudo_fronts=2,
        top_k_models=2,
        model_ids=["ML2", "ML14", "ML18"],
        seed=21,
        evaluate_coverage=True,
    )


@pytest.fixture(scope="module")
def autoax_parts():
    from repro.generators import build_adder_library, build_multiplier_library

    multiplier_library = build_multiplier_library(8, size=20, seed=31)
    adder_library = build_adder_library(16, size=16, seed=37)
    multipliers = components_from_library(multiplier_library, 4, max_error=0.1)
    adders = components_from_library(adder_library, 4, max_error=0.05)
    autoax_config = AutoAxConfig(
        num_training_samples=10,
        num_random_baseline=8,
        hill_climb_iterations=25,
        image_size=24,
        seed=17,
    )
    return multipliers, adders, autoax_config


class TestApproxFpgasEquivalence:
    def test_wrapper_matches_session_pipeline(self, small_multiplier_library, config):
        legacy = ApproxFpgasFlow(small_multiplier_library, config=config).run()
        session = ExplorationSession(seed=config.seed)
        staged = session.run_approxfpgas(small_multiplier_library, config)
        assert canonical_result(legacy) == canonical_result(staged)

    def test_run_approxfpgas_kwargs_wrapper(self, small_multiplier_library, config):
        legacy = run_approxfpgas(
            small_multiplier_library,
            training_fraction=0.25,
            min_training_circuits=12,
            num_pseudo_fronts=2,
            top_k_models=2,
            model_ids=["ML2", "ML14", "ML18"],
            seed=21,
        )
        staged = ExplorationSession(seed=21).run_approxfpgas(small_multiplier_library, config)
        assert canonical_result(legacy) == canonical_result(staged)

    def test_subclass_overrides_still_drive_run(self, small_multiplier_library, config):
        """The advertised ablation hooks (overriding the public helpers)
        must keep taking effect inside run(), as in the monolithic flow."""
        forced = sorted(small_multiplier_library.names())[:12]

        class FixedSubsetFlow(ApproxFpgasFlow):
            def select_training_subset(self):
                return list(forced)

        result = FixedSubsetFlow(small_multiplier_library, config=config).run()
        assert sorted(result.training_names + result.validation_names) == sorted(forced)

    def test_wrapper_helpers_still_public(self, small_multiplier_library, config):
        flow = ApproxFpgasFlow(small_multiplier_library, config=config)
        subset = flow.select_training_subset()
        assert len(subset) == 15  # max(12, round(0.25 * 60))
        records, features, feature_names = flow.build_records()
        assert set(records) == set(small_multiplier_library.names())
        assert features.shape == (len(small_multiplier_library), len(feature_names))


class TestAutoAxEquivalence:
    def test_wrapper_matches_session_pipeline(self, autoax_parts):
        multipliers, adders, autoax_config = autoax_parts
        legacy = AutoAxFpgaFlow(multipliers, adders, config=autoax_config).run()
        session = ExplorationSession(seed=autoax_config.seed)
        staged = session.run_autoax(multipliers, adders, autoax_config)
        assert autoax_signature(legacy) == autoax_signature(staged)

    def test_autoax_flow_alias(self):
        assert AutoAxFlow is AutoAxFpgaFlow


class TestSimBackendEquivalence:
    """Whole-flow results do not depend on the simulation backend."""

    @pytest.mark.sim_backends
    def test_approxfpgas_bit_identical_across_backends(self, small_multiplier_library, config):
        results = {}
        for backend in ("bool", "compiled"):
            session = ExplorationSession(seed=config.seed, sim_backend=backend)
            results[backend] = session.run_approxfpgas(small_multiplier_library, config)
        assert canonical_result(results["bool"]) == canonical_result(results["compiled"])

    @pytest.mark.sim_backends
    def test_autoax_bit_identical_across_backends(self, autoax_parts):
        from repro.engine import BatchEvaluator
        from repro.generators import build_adder_library, build_multiplier_library

        multiplier_library = build_multiplier_library(8, size=20, seed=31)
        adder_library = build_adder_library(16, size=16, seed=37)
        _, _, autoax_config = autoax_parts

        signatures = {}
        for backend in ("bool", "compiled"):
            multipliers = components_from_library(
                multiplier_library,
                4,
                max_error=0.1,
                engine=BatchEvaluator(multiplier_library.reference(), sim_backend=backend),
            )
            adders = components_from_library(
                adder_library,
                4,
                max_error=0.05,
                engine=BatchEvaluator(adder_library.reference(), sim_backend=backend),
            )
            session = ExplorationSession(seed=autoax_config.seed, sim_backend=backend)
            signatures[backend] = autoax_signature(
                session.run_autoax(multipliers, adders, autoax_config)
            )
        assert signatures["bool"] == signatures["compiled"]


class TestNoDeprecationWarnings:
    def test_legacy_surface_is_warning_free(self, small_multiplier_library, config):
        """Importing and driving the legacy API emits no deprecation warnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            flow = ApproxFpgasFlow(small_multiplier_library, config=config)
            flow.select_training_subset()
            result = flow.run()
            result.summary()
            assert result.exploration_cost.resynthesis_time_s >= 0.0
