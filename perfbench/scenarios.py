"""The benchmark's two workloads, driven through the public ``repro`` API.

Each workload is a closed loop with one caller: a request starts only after
the previous one returned.  ``make_inputs(seed)`` derives every input from
the workload seed; ``execute`` runs requests for about ``seconds`` (see
:func:`_done`), or exactly ``requests`` of them to replay the same work in
another pass, and returns an :class:`Outcome`; ``check`` checks the outputs
that ``execute`` did not check itself.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.api import ExplorationSession
from repro.autoax import SEARCH_STRATEGIES
from repro.circuits.compiled import clear_program_cache
from repro.core import ApproxFpgasConfig
from repro.core.pareto import hypervolume_2d
from repro.error import ErrorEvaluator
from repro.generators import build_adder_library, build_multiplier_library
from repro.service import JobClient, JobRegistry, Worker
from repro.workloads import WORKLOADS


def _mean(values: List[float]) -> float:
    """Mean of ``values``; 0.0 when every request failed."""
    return float(np.mean(values)) if values else 0.0


def digest(payload: object) -> str:
    return hashlib.blake2b(
        json.dumps(payload, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


@dataclass
class Outcome:
    """What one pass of a workload did."""

    units: int = 0
    """Work units completed: circuits or jobs."""
    elapsed_s: float = 0.0
    """Host seconds of the timed requests."""
    warmup_s: float = 0.0
    """Host seconds of untimed requests run before them."""
    latencies: List[float] = field(default_factory=list)
    """Host seconds of each request, in order."""
    quality: float = 0.0
    """Deterministic result quality (see each workload's docstring)."""
    digest: str = ""
    """Digest of the deterministic results of the pass."""
    named: Dict[str, float] = field(default_factory=dict)
    """The workload's own metrics, under their own names."""
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    timings: List[Dict[str, float]] = field(default_factory=list)
    """``PipelineRun.timings()`` of every run of the pass.  Only the timings
    are kept: a run holds its pipeline's whole final state, so keeping runs
    would make peak memory grow with the number of requests a run fits."""
    detail: dict = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


def _done(started: float, done: int, seconds: float, requests: Optional[int], step: int) -> bool:
    """Stop rule: a fixed request count, else the ``step``s that best fill ``seconds``.

    A run makes at least one ``step`` of requests and stops only after a
    whole ``step``: once another step would end further past ``seconds``
    than stopping now falls short of it.
    """
    if requests is not None:
        return done >= requests
    if done < step or done % step:
        return False
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / (done // step) / 2 >= seconds


# --------------------------------------------------------------------- #
# paper_flow
# --------------------------------------------------------------------- #
class PaperFlow:
    """``run_approxfpgas`` over the six Fig. 3 libraries, full model zoo.

    One request is one library's flow; a round is all six libraries on a
    fresh session (cold in-memory cache, no disk store) and an empty
    compiled-program cache, so every round of a run does the same work.
    Quality is the mean Fig. 8 coverage of the true FPGA front over
    libraries x FPGA parameters.
    """

    #: (kind, bit width, size): the six libraries of ``benchmarks/conftest.py``.
    LIBRARIES = (
        ("multiplier", 8, 280),
        ("multiplier", 12, 90),
        ("multiplier", 16, 80),
        ("adder", 8, 150),
        ("adder", 12, 110),
        ("adder", 16, 110),
    )
    SAMPLES_PER_LIBRARY = 2

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        seeds = [int(value) for value in rng.integers(1, 2**31 - 1, size=len(self.LIBRARIES) + 1)]
        libraries = [
            (build_multiplier_library if kind == "multiplier" else build_adder_library)(
                width, size=size, seed=library_seed
            )
            for (kind, width, size), library_seed in zip(self.LIBRARIES, seeds)
        ]
        return {"seed": seed, "libraries": libraries, "flow_seed": seeds[-1]}

    def execute(self, inputs, *, seconds, requests=None, engine_mode="auto") -> Outcome:
        libraries = inputs["libraries"]
        config = ApproxFpgasConfig(seed=inputs["flow_seed"], evaluate_coverage=True)
        outcome = Outcome()
        first: Dict[int, object] = {}  # library index -> result of its first flow
        started = time.perf_counter()
        while not _done(started, outcome.requests, seconds, requests, len(libraries)):
            index = outcome.requests % len(libraries)
            if index == 0:
                clear_program_cache()
                session = ExplorationSession(seed=inputs["flow_seed"], engine_mode=engine_mode)
            library = libraries[index]
            outcome.attempted += 1
            begun = time.perf_counter()
            try:
                result = session.run_approxfpgas(library, config, run_id=library.name)
            except Exception as exc:  # noqa: BLE001 - a failed request counts, the run goes on
                outcome.latencies.append(time.perf_counter() - begun)
                outcome.fail(f"{library.name}: {type(exc).__name__}: {exc}")
                continue
            outcome.latencies.append(time.perf_counter() - begun)
            outcome.units += len(library)
            outcome.timings.append(session.runs[library.name].timings())
            if index not in first:
                first[index] = result
            elif self._fronts(result) != self._fronts(first[index]):
                outcome.fail(f"{library.name}: fronts/coverage differ from its first flow")
        outcome.elapsed_s = time.perf_counter() - started

        results = [first[index] for index in sorted(first)]
        costs = [result.exploration_cost for result in results]
        outcome.quality = _mean([
            parameter.coverage for result in results for parameter in result.parameter_outcomes.values()
        ])
        outcome.digest = digest([[result.library_name, self._fronts(result)] for result in results])
        outcome.named = {
            "flow_circuits_per_s": outcome.units / outcome.elapsed_s,
            "pareto_coverage": outcome.quality,
            "modeled_speedup": sum(cost.exhaustive_time_s for cost in costs)
            / max(sum(cost.approxfpgas_time_s for cost in costs), 1e-9),
        }
        outcome.detail = {"results": first}
        return outcome

    @staticmethod
    def _fronts(result) -> dict:
        return {
            parameter: [outcome.final_front_names, outcome.true_front_names, outcome.coverage]
            for parameter, outcome in result.parameter_outcomes.items()
        }

    def check(self, inputs, outcome: Outcome) -> None:
        """Engine error reports equal the ``bool`` reference simulator's."""
        rng = np.random.default_rng([inputs["seed"], 2])
        for index, result in sorted(outcome.detail["results"].items()):
            library = inputs["libraries"][index]
            reference = ErrorEvaluator(library.reference(), sim_backend="bool")
            circuits = list(library)
            for index in rng.choice(len(circuits), self.SAMPLES_PER_LIBRARY, replace=False):
                circuit = circuits[int(index)]
                outcome.attempted += 1
                if result.records[circuit.name].error != reference.evaluate(circuit):
                    outcome.fail(f"{library.name}/{circuit.name}: error report != bool reference")


# --------------------------------------------------------------------- #
# service_mix
# --------------------------------------------------------------------- #
#: Small AutoAx jobs: sized so a warm repeat takes a few tenths of a second.
AUTOAX_JOB = dict(
    parameters=["area"],
    num_training_samples=8,
    num_random_baseline=8,
    hill_climb_iterations=20,
    image_size=12,
    multiplier_bits=8,
    multiplier_library_size=24,
    num_multipliers=4,
    adder_bits=16,
    adder_library_size=16,
    num_adders=3,
)


def _payload_quality(payload: dict) -> float:
    """Coverage of an ApproxFPGAs job; hypervolume ratio of an AutoAx job."""
    if payload["flow"] == "approxfpgas":
        return float(np.mean([entry["coverage"] for entry in payload["parameters"].values()]))
    scenario = payload["scenarios"]["area"]
    autoax = np.array([[e["cost"]["area"], 1.0 - e["quality"]] for e in scenario["candidates"]])
    random = np.array([[e["cost"]["area"], 1.0 - e["quality"]] for e in payload["baseline"]])
    reference = np.vstack([autoax, random]).max(axis=0) * 1.05 + 1e-9
    return hypervolume_2d(autoax, reference) / hypervolume_2d(random, reference)


class ServiceMix:
    """Three tenants' jobs through three in-process workers on one registry.

    The distinct specs are one small AutoAx study per accelerator workload
    (search strategies assigned in turn) plus two small ApproxFPGAs
    explorations.  The queue opens with an untimed cold round, every spec
    once in a fixed order (first-seen: evaluations, checkpoints and records
    get written).  The timed part repeats the specs in warm rounds, each
    round every spec once (served from the shared sharded store, often by
    another worker than the one that wrote them).  Timing the cold round
    too would make a run's rate depend on how many warm rounds fit beside
    it.  Each job starts with an empty in-memory cache, so its repeats read
    the store.  The workload seed draws the order inside each warm round
    and each job's tenant, and with them which worker serves which repeat;
    the specs themselves are fixed, so every seed holds the same work.
    Jobs are claimed round-robin.  A run holds whole rounds: jobs of
    different specs take different times, so a partial round would move
    the latency median with where the time ran out.  Quality is the mean
    over the specs of each job's result quality.
    """

    TENANTS = ("alice", "bob", "carol")
    ROUNDS = 400

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self._roots = 0

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 5])
        strategies = sorted(SEARCH_STRATEGIES.keys())
        specs = [
            ("autoax", dict(
                AUTOAX_JOB, workload=workload, search_strategy=strategies[index % len(strategies)]
            ))
            for index, workload in enumerate(sorted(WORKLOADS.keys()))
        ]
        specs += [
            ("approxfpgas", dict(kind=kind, bitwidth=width, library_size=40))
            for kind, width in (("multiplier", 4), ("adder", 8))
        ]
        # The cold first round runs in spec order: where in it the engine first
        # forks its process pool sets the peak memory, which should not hinge
        # on the seed.
        queue = list(range(len(specs))) + [
            int(i) for _ in range(self.ROUNDS) for i in rng.permutation(len(specs))
        ]
        tenants = [int(i) for i in rng.integers(len(self.TENANTS), size=len(queue))]
        return {"seed": seed, "specs": specs, "queue": queue, "tenants": tenants}

    def execute(self, inputs, *, seconds, requests=None, engine_mode="auto") -> Outcome:
        specs, queue = inputs["specs"], inputs["queue"]
        self._roots += 1
        root = self.work_dir / f"service-{self._roots}"
        shutil.rmtree(root, ignore_errors=True)
        registry = JobRegistry(root)
        workers = [Worker(registry, engine_mode=engine_mode) for _ in range(3)]
        clients = [JobClient(registry, tenant=tenant) for tenant in self.TENANTS]
        outcome = Outcome()
        first_job: Dict[int, tuple] = {}  # spec index -> (job id, digest) of its first job
        warm: list = []  # cache traffic of each repeated spec's job

        def run_job(position: int) -> float:
            spec_index = queue[position]
            flow, params = specs[spec_index]
            worker = workers[position % len(workers)]
            before = worker.session.stats()
            begun = time.perf_counter()
            job_id = clients[inputs["tenants"][position]].submit(flow, params)
            record = worker.run_once()
            latency = time.perf_counter() - begun
            # The next job on this worker starts as on a fresh worker process:
            # with an empty memory layer, so what earlier jobs evaluated is
            # read back from the store, and without earlier jobs' runs, whose
            # states would make peak memory grow with the jobs a run fits.
            worker.session.cache.clear()
            outcome.timings.extend(run.timings() for run in worker.session.runs.values())
            worker.session.runs.clear()
            if spec_index in first_job:
                warm.append(worker.session.stats().since(before))
            outcome.attempted += 1
            if record is None or record.job_id != job_id or record.state != "done":
                outcome.fail(f"job {job_id}: {record and record.state} ({record and record.error})")
                return latency
            outcome.units += 1
            if spec_index not in first_job:
                first_job[spec_index] = (job_id, record.digest)
            elif record.digest != first_job[spec_index][1]:
                outcome.fail(f"job {job_id}: digest differs from the spec's first execution")
            return latency

        try:
            # Untimed warm-up: the cold first round writes every spec's
            # evaluations, checkpoints and records and forks the engine's pool.
            begun = time.perf_counter()
            cold = [run_job(position) for position in range(len(specs))]
            outcome.warmup_s = time.perf_counter() - begun
            outcome.units = 0
            started = time.perf_counter()
            while not _done(started, outcome.requests, seconds, requests, len(specs)):
                outcome.latencies.append(run_job(len(specs) + outcome.requests))
            outcome.elapsed_s = time.perf_counter() - started
            corrupt = sum(worker.session.stats().corrupt for worker in workers)
            if corrupt:
                outcome.fail(f"{corrupt} corrupt store entries")
            outcome.quality = _mean([
                _payload_quality(clients[0].result(first_job[i][0])) for i in sorted(first_job)
            ])
        finally:
            shutil.rmtree(root, ignore_errors=True)
        outcome.digest = digest([first_job[i][1] for i in sorted(first_job)])
        warm_lookups = sum(stats.lookups for stats in warm)
        outcome.named = {
            "jobs_per_s": outcome.units / outcome.elapsed_s,
            "job_p50_s": float(np.percentile(outcome.latencies, 50)),
            "cold_round_s": outcome.warmup_s,
            "cold_job_p50_s": float(np.percentile(cold, 50)),
            "warm_lookups": warm_lookups,
            "warm_disk_hit_share": sum(stats.disk_hits for stats in warm) / max(warm_lookups, 1),
            "warm_hit_rate": sum(stats.hits for stats in warm) / max(warm_lookups, 1),
        }
        # The highest usual percentile with at least ten jobs beyond it.
        for q in (99, 95, 90, 80, 75):
            if outcome.requests * (100 - q) / 100 >= 10:
                outcome.named[f"job_p{q}_s"] = float(np.percentile(outcome.latencies, q))
                break
        return outcome

    def check(self, inputs, outcome: Outcome) -> None:
        """Digest and corruption checks run inside :meth:`execute`."""
