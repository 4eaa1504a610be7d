"""The three benchmark workloads.

Each workload is a fixed *round* of uniform jobs.  A run repeats whole
rounds; every job in a workload has the same make-up, so job latency
has one mode.  Everything runs in this one process on the ``serial``
backend, against a fresh :class:`ResultStore` under the work directory.

* ``fig2_sweep`` — one ``run_experiment`` job per point of a pipeline
  timing sweep, each running ``@figure2`` on the five paper machines.
  Prepared kernels and generated region code are reused after the
  first job, so the engine tiers, golden checks and store writes
  dominate.
* ``synth_cold`` — each job is a plan of never-seen synthesized kernels
  (one fresh seed per job), so every cell pays the whole cold path.
* ``served_resubmit`` — a closed loop of one client against the
  in-process ``repro serve`` stack; each job is 36 store hits plus 3
  cold synth cells.
"""

from __future__ import annotations

import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cpu.pipeline import PipelineConfig
from repro.eval.figures import figure2_spec
from repro.eval.machines import (
    ALL_MACHINES,
    FIGURE2_MACHINES,
    machine_by_name,
)
from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    RunConfig,
    SerialBackend,
)
from repro.experiments import runner as experiments
from repro.workloads.suite import registry

import checks

SERIAL = RunConfig(backend="serial")

#: Branch/jump penalty x load-use stall; (1, 1) is the default pipeline.
SWEEP_BRANCH = (0, 1, 2, 3)
SWEEP_LOAD_USE = (0, 1, 2, 3, 4)

SYNTH_FAMILIES = ("baseline", "branchy", "deep_nest", "rearm_storm")
SYNTH_MACHINES = ("XRdefault", "XRhrdwil", "uZOLC", "ZOLClite")
SERVED_FAMILY = "baseline"


def sweep_pipeline(branch: int, load_use: int) -> PipelineConfig:
    return replace(PipelineConfig(), branch_penalty=branch,
                   jump_register_penalty=branch, load_use_stall=load_use)


@dataclass
class JobResult:
    """What one job returned, for the metrics and the output checks."""

    records: list[dict]
    #: Identity of the job's input (sweep point, synth seed, ...).
    tag: dict = field(default_factory=dict)
    #: Per-source cell event counts (served jobs only).
    events: dict = field(default_factory=dict)
    state: str = "done"
    simulated: int = 0
    #: Cells the job planned (its share of ``attempted``).
    planned: int = 0


class Workload:
    """A round structure plus set-up and tear-down."""

    name = ""
    #: Jobs per round.
    round_jobs = 20
    #: Timed rounds a run always makes (>= 100 jobs); the latency
    #: percentiles are medians over them.
    min_rounds = 5
    #: Untimed rounds before the timed ones of an untraced run.
    warmup_rounds = 0
    #: Rounds of each pass of a traced run.
    trace_rounds = 1
    #: Cells each job plans.
    cells_per_job = 0

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.generation = 0

    def store(self, name: str) -> ResultStore:
        """An empty store of the current generation."""
        return ResultStore(self.workdir / f"gen{self.generation}" / name)

    def drop_store(self, name: str) -> None:
        """Remove a store no job reads again.  Files removed a round
        after they were written cost next to nothing to delete; a run's
        worth removed at the end, once written back to disk, took 18 s
        and more."""
        shutil.rmtree(self.workdir / f"gen{self.generation}" / name,
                      ignore_errors=True)

    def reset(self) -> None:
        """Make the next pass as cold as the first: fresh, empty stores
        and no prepared kernels (with their generated code) kept from
        earlier jobs of this process."""
        from repro.experiments import backends

        self.generation += 1
        backends._PREPARE_CACHE.clear()

    def setup(self) -> None:
        """Work done before the first timed job (part of ``setup_s``)."""
        self.prepare_round(0)

    def prepare_round(self, index: int) -> None:
        """Untimed per-round preparation (stores, synth generation)."""

    def job_inputs(self, index: int) -> list:
        """One synth seed per job, never repeated within a run."""
        base = self.seed * 1_000_000 + index * self.round_jobs
        return [base + position for position in range(self.round_jobs)]

    def span(self, name: str):
        """A tracer span, or nothing when the run is untraced."""
        return nullcontext() if self.tracer is None \
            else self.tracer.span(name)

    def run_job(self, index: int, job) -> JobResult:
        raise NotImplementedError

    def finish(self) -> list[JobResult]:
        """Untimed jobs run after the timed rounds."""
        return []

    def figure2_records(self) -> list[dict]:
        """Default-pipeline Figure 2 records this run produced."""
        raise NotImplementedError

    def pipeline_of(self, job: JobResult) -> PipelineConfig | None:
        """The pipeline a job's cells ran at (``None``: the default)."""
        return None

    def own_checks(self, jobs: list[JobResult],
                   direct_fig2: dict) -> list[str]:
        """Checks only this workload has (see :mod:`checks`)."""
        return []

    def retained_jobs(self) -> int:
        """Jobs the service still holds (0 without a service)."""
        return 0

    def close(self) -> None:
        pass


class Fig2Sweep(Workload):
    name = "fig2_sweep"
    round_jobs = len(SWEEP_BRANCH) * len(SWEEP_LOAD_USE)
    min_rounds = 5
    #: The first round prepares every kernel and generates region code
    #: for each sweep point; the timed rounds measure warm execution.
    warmup_rounds = 1
    cells_per_job = 12 * len(ALL_MACHINES)

    def __init__(self, seed: int, workdir: Path, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.default_records: list[dict] = []

    def prepare_round(self, index: int) -> None:
        if index:
            self.drop_store(f"round{index - 1}")

    def job_inputs(self, index: int) -> list:
        points = [(b, s) for b in SWEEP_BRANCH for s in SWEEP_LOAD_USE]
        random.Random(f"fig2_sweep/{self.seed}/{index}").shuffle(points)
        return points

    def run_job(self, index: int, job) -> JobResult:
        branch, load_use = job
        spec = ExperimentSpec(name=f"fig2-b{branch}-s{load_use}",
                              kernels=("@figure2",), machines=ALL_MACHINES,
                              pipeline=sweep_pipeline(branch, load_use))
        # Every round writes into its own empty store, so no job is
        # ever served from the cache.
        result = experiments.run_experiment(
            spec, SERIAL, store=self.store(f"round{index}"))
        if (branch, load_use) == (1, 1) and not self.default_records:
            self.default_records = [
                r for r in result.records
                if r["machine"] in {m.name for m in FIGURE2_MACHINES}]
        return JobResult(records=result.records,
                         tag={"branch": branch, "load_use": load_use},
                         simulated=result.simulated,
                         planned=self.cells_per_job)

    def figure2_records(self) -> list[dict]:
        return self.default_records

    def pipeline_of(self, job: JobResult) -> PipelineConfig:
        return sweep_pipeline(job.tag["branch"], job.tag["load_use"])

    def own_checks(self, jobs: list[JobResult],
                   direct_fig2: dict) -> list[str]:
        return checks.sweep_properties(
            [(job.tag["branch"], job.tag["load_use"], job.records)
             for job in jobs])


class SynthCold(Workload):
    name = "synth_cold"
    round_jobs = 20
    min_rounds = 5
    cells_per_job = len(SYNTH_FAMILIES) * len(SYNTH_MACHINES)

    def __init__(self, seed: int, workdir: Path, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.cells = self.store("round0")
        self.machines = tuple(machine_by_name(n) for n in SYNTH_MACHINES)
        self.extra_records: list[dict] = []

    def prepare_round(self, index: int) -> None:
        if index:
            self.drop_store(f"round{index - 1}")
            self.cells = self.store(f"round{index}")
        reg = registry()
        for synth_seed in self.job_inputs(index):
            for family in SYNTH_FAMILIES:
                reg.get(f"synth:{family}:{synth_seed}:0")

    def run_job(self, index: int, job) -> JobResult:
        spec = ExperimentSpec(
            name=f"synth-{job}",
            kernels=tuple(f"synth:{family}:{job}:1"
                          for family in SYNTH_FAMILIES),
            machines=self.machines)
        result = experiments.run_experiment(spec, SERIAL, store=self.cells)
        return JobResult(records=result.records, tag={"synth_seed": job},
                         simulated=result.simulated,
                         planned=self.cells_per_job)

    def finish(self) -> list[JobResult]:
        """One cold ``@figure2`` job on the Figure 2 machines."""
        result = experiments.run_experiment(figure2_spec(), SERIAL,
                                            store=self.cells)
        self.extra_records = result.records
        return [JobResult(records=result.records, tag={"figure2": True},
                          simulated=result.simulated,
                          planned=len(result.records))]

    def reset(self) -> None:
        super().reset()
        self.cells = self.store("round0")

    def figure2_records(self) -> list[dict]:
        return self.extra_records


class ServedResubmit(Workload):
    name = "served_resubmit"
    round_jobs = 50
    min_rounds = 8
    trace_rounds = 2
    cells_per_job = 12 * len(FIGURE2_MACHINES) + len(FIGURE2_MACHINES)

    def __init__(self, seed: int, workdir: Path, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.manager = None
        self.handle = None
        self.client = None
        self.warm: ResultStore | None = None
        self.figure2: list[dict] = []

    def setup(self) -> None:
        from repro.service import JobManager, ServiceClient, start_in_thread

        runner = experiments.run_experiment if self.tracer is None \
            else self._runner
        self.warm = self._warm_store()
        self.manager = JobManager(store=self._round_store(0),
                                  backend=SerialBackend(), runner=runner)
        self.handle = start_in_thread(self.manager)
        self.client = ServiceClient(self.handle.url)
        super().setup()

    def _warm_store(self) -> ResultStore:
        """A store holding every Figure 2 cell, so each is a hit."""
        store = self.store("warm")
        experiments.run_experiment(figure2_spec(), SERIAL, store=store)
        return store

    def _round_store(self, index: int) -> ResultStore:
        """A copy of the warm store for the jobs of one round."""
        store = self.store(f"round{index}")
        shutil.copytree(self.warm.root, store.root)
        return store

    def reset(self) -> None:
        super().reset()
        self.warm = self._warm_store()
        self.manager.store = self._round_store(0)

    def _runner(self, *args, **kwargs):
        with self.span("service.runner"):
            return experiments.run_experiment(*args, **kwargs)

    def prepare_round(self, index: int) -> None:
        if index:
            self.drop_store(f"round{index - 1}")
            self.manager.store = self._round_store(index)
        reg = registry()
        for synth_seed in self.job_inputs(index):
            reg.get(f"synth:{SERVED_FAMILY}:{synth_seed}:0")

    def plan_text(self, synth_seed: int) -> str:
        return ExperimentSpec(
            name=f"served-{synth_seed}",
            kernels=("@figure2", f"synth:{SERVED_FAMILY}:{synth_seed}:1"),
            machines=FIGURE2_MACHINES).to_json(indent=None)

    def run_job(self, index: int, job) -> JobResult:
        plan = self.plan_text(job)
        with self.span("service.submit"):
            job_id = self.client.submit(plan)["job"]
        counts: dict[str, int] = {}
        state = "running"
        with self.span("service.stream"):
            for event in self.client.events(job_id):
                kind = event.get("event")
                if kind == "cell":
                    counts[event["source"]] = counts.get(event["source"],
                                                         0) + 1
                elif kind in ("done", "failed"):
                    state = kind
        records: list[dict] = []
        if state == "done":
            with self.span("service.result"):
                records = self.client.result(job_id)["records"]
        if not self.figure2:
            self.figure2 = [r for r in records
                            if not r["kernel"].startswith("synth:")]
        return JobResult(records=records, tag={"synth_seed": job},
                         events=counts, state=state,
                         simulated=counts.get("simulated", 0),
                         planned=self.cells_per_job)

    def retained_jobs(self) -> int:
        return self.client.health()["jobs"]

    def figure2_records(self) -> list[dict]:
        return self.figure2

    def own_checks(self, jobs: list[JobResult],
                   direct_fig2: dict) -> list[str]:
        return checks.served_jobs(jobs, direct_fig2)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
        if self.manager is not None:
            self.manager.close()


WORKLOADS = {cls.name: cls for cls in (Fig2Sweep, SynthCold,
                                       ServedResubmit)}
