"""Layered cell benchmark: one workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2_sweep --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` makes a traced pass and an untraced reference pass of a
fixed number of rounds each, writes the spans to
``.perfbench/spans/<workload>-seed<seed>.json`` and reports the
per-layer metrics.  Either way the output checks run afterwards, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process
exits 1 when a check fails and 2 when the program cannot be imported.
See README.md beside this file.
"""

from __future__ import annotations

import time

#: Set-up time counts from here, before any other import.
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Extra interpreters started after the run, each timing one set-up;
#: ``setup_s`` is the median over them and this process.
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "cells_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "paper_err_pp": "pp",
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro resolved outside {src}: {repro.__file__}")


@dataclass
class Pass:
    """The jobs of one run of rounds, and the timings of its timed rounds."""

    jobs: list = field(default_factory=list)
    #: Job latencies in seconds, one list per timed round.
    round_latencies: list[list[float]] = field(default_factory=list)
    #: Cell records returned per wall second, one entry per timed round.
    round_rates: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_rates)

    @property
    def latencies(self) -> list[float]:
        return [t for latencies in self.round_latencies for t in latencies]

    @property
    def cells_per_s(self) -> float:
        """Median over rounds: a burst of host noise moves one round."""
        return statistics.median(self.round_rates)

    def job_percentile_ms(self, percent: int) -> float:
        """Each round's ``percent``-th percentile of job latency, median
        over rounds: a burst of host noise moves one round's tail, not
        the run's."""
        return 1000.0 * statistics.median(
            statistics.quantiles(latencies, n=100)[percent - 1]
            for latencies in self.round_latencies)


def run_rounds(workload, first: int, min_rounds: int, seconds: float,
               tracer=None, warmup: int = 0) -> Pass:
    """``warmup`` untimed rounds, then whole timed rounds until
    ``min_rounds`` ran and ``seconds`` elapsed.  The jobs of every round
    are kept for the checks."""
    from workloads import JobResult

    out = Pass()
    index = first
    while True:
        if index == first + warmup:
            start = time.perf_counter()
        if index != 0:
            workload.prepare_round(index)
        inputs = workload.job_inputs(index)
        cells = 0
        latencies: list[float] = []
        round_start = time.perf_counter()
        for position, job in enumerate(inputs):
            if tracer is not None:
                tracer.job = f"{index}/{position}"
            began = time.perf_counter()
            try:
                result = workload.run_job(index, job)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                print(f"job {index}/{position} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                result = JobResult(records=[], state="failed",
                                   planned=workload.cells_per_job)
            latencies.append(time.perf_counter() - began)
            if tracer is not None:
                tracer.job = None
            out.jobs.append(result)
            cells += len(result.records)
        rate = cells / (time.perf_counter() - round_start)
        index += 1
        if index <= first + warmup:
            continue
        out.round_latencies.append(latencies)
        out.round_rates.append(rate)
        if out.rounds == min_rounds:
            # A fixed amount of work, so a faster program that fits more
            # rounds into the run is not charged for their memory.
            out.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if out.rounds >= min_rounds \
                and time.perf_counter() - start >= seconds:
            return out


def probe_setup(workload_name: str, seed: int) -> float:
    """Time one set-up in this fresh interpreter, then tear it down."""
    from workloads import WORKLOADS

    workdir = _workdir(workload_name)
    workload = WORKLOADS[workload_name](seed, workdir)
    try:
        workload.setup()
        return time.perf_counter() - _START
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _workdir(workload_name: str) -> Path:
    return ROOT / ".perfbench" / "work" / f"{workload_name}-{os.getpid()}"


def _probe_setups(workload_name: str, seed: int) -> list[float]:
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload_name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def _checks(workload, passes: list[Pass], extras: list,
            seed: int) -> tuple[list, float]:
    """Run every output check; returns (problems, paper_err_pp)."""
    import checks

    jobs = [job for p in passes for job in p.jobs]
    records = [r for job in jobs + extras for r in job.records]
    problems = checks.golden(records) + checks.cycle_identity(records)

    fig2 = workload.figure2_records()
    problems += checks.figure2_order(fig2)
    paper_err = checks.paper_err_pp(fig2)
    direct = checks.direct_figure2()
    problems += checks.paper_err_matches(paper_err, direct)

    first_round = passes[0].jobs[:workload.round_jobs]
    problems += checks.step_sample(
        [(r, workload.pipeline_of(job))
         for job in first_round for r in job.records], seed)
    problems += workload.own_checks(jobs, direct)
    return problems, paper_err


def _layer_metrics(workload, tracer, traced: Pass,
                   reference: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass (spans of timed jobs)."""
    in_jobs = [span for span in tracer.spans if span.job is not None]

    def self_ms(name: str) -> float:
        return 1000.0 * sum(s.self_time for s in in_jobs if s.name == name)

    def total_ms(name: str) -> float:
        return 1000.0 * sum(s.duration for s in in_jobs if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in in_jobs if s.name == name
                   and (s.parent is None or s.parent.name != name))

    counts = tracer.counts
    simulated = sum(job.simulated for job in traced.jobs)
    records = [r for job in traced.jobs for r in job.records]
    out: dict[str, tuple[float, str]] = {
        "asm.self_ms": (self_ms("asm"), "ms"),
        "asm.calls": (calls("asm"), "count"),
        "transform.self_ms": (self_ms("transform"), "ms"),
        "transform.calls": (calls("transform"), "count"),
        "ir.build_ms": (self_ms("ir.build"), "ms"),
        "engine.predecode_ms": (self_ms("engine.predecode"), "ms"),
    }
    for tier in ("cold", "warm"):
        name = f"engine.{tier}_run"
        seconds = total_ms(name) / 1000.0
        steps = counts.get(name + ".steps", 0)
        out[f"engine.{tier}_run_ms"] = (self_ms(name), "ms")
        out[f"engine.{tier}_runs"] = (calls(name), "count")
        out[f"engine.{tier}_steps_per_s"] = (
            steps / seconds if seconds else 0.0, "1/s")
    for name in ("engine.step_fallbacks", "engine.chain_resident_steps",
                 "engine.trace_resident_steps"):
        out[name] = (counts.get(name, 0), "count")
    out.update({
        "check.ms": (self_ms("check"), "ms"),
        "store.save_ms": (self_ms("store.save"), "ms"),
        "store.saves": (calls("store.save"), "count"),
        "store.load_ms": (self_ms("store.load"), "ms"),
        "store.loads": (calls("store.load"), "count"),
        "store.hits": (counts.get("store.hits", 0), "count"),
        "experiments.plan_ms": (self_ms("experiments.plan"), "ms"),
        "experiments.prepares_per_cell": (
            counts.get("experiments.prepares", 0) / simulated
            if simulated else 0.0, "ratio"),
        "experiments.runner_self_ms": (self_ms("experiments.runner"),
                                       "ms"),
        "service.submit_ms": (total_ms("service.submit"), "ms"),
        "service.stream_ms": (total_ms("service.stream"), "ms"),
        "service.result_ms": (total_ms("service.result"), "ms"),
    })
    runner_ms = total_ms("service.runner")
    out["service.runner_ms"] = (runner_ms, "ms")
    out["service.overhead_ms"] = (
        1000.0 * sum(traced.latencies) - runner_ms if runner_ms else 0.0,
        "ms")
    out["service.retained_jobs"] = (workload.retained_jobs(), "count")
    out["synth.generate_ms"] = (
        1000.0 * sum(s.self_time for s in tracer.spans
                     if s.name == "synth.generate"), "ms")
    for column, name in (("cycles", "sim.cycles"),
                         ("instructions", "sim.instructions"),
                         ("stall_cycles", "sim.stall_cycles"),
                         ("flush_cycles", "sim.flush_cycles"),
                         ("zolc_task_switches", "sim.zolc_task_switches")):
        out[name] = (sum(r[column] for r in records),
                     "cycles" if column.endswith("cycles") else "count")
    out["trace.overhead_pct"] = (
        100.0 * (reference.cells_per_s / traced.cells_per_s - 1.0), "%")
    return out


def main(argv: list[str] | None = None, tamper=None) -> int:
    """Run one workload; ``tamper(workload, passes)`` may edit the
    results before the checks (the self-test's corruption hook)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="minimum rounds of the run (default: the "
                             "workload's own, at least 100 jobs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")
    if args.setup_probe:
        print(probe_setup(args.workload, args.seed))
        return 0

    # One CPU for the whole workload: the served stack's threads hand
    # off under the interpreter lock anyway, and a pinned process does
    # not migrate between CPUs in the middle of a job.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        import repro.service  # noqa: F401 - loaded so install() sees it
        import repro.synth.corpus  # noqa: F401

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True  # set-up too: it resolves synth members
    workdir = _workdir(args.workload)
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _START
        if tracer is None:
            rounds = args.rounds or workload.min_rounds
            passes = [run_rounds(workload, 0, rounds, args.seconds,
                                 warmup=workload.warmup_rounds)]
        else:
            # The same jobs twice from the same cold state: untraced
            # for reference, then traced.
            rounds = args.rounds or workload.trace_rounds
            tracer.enabled = False
            reference = run_rounds(workload, 0, rounds, 0.0)
            workload.reset()
            tracer.enabled = True
            traced = run_rounds(workload, 0, rounds, 0.0, tracer)
            tracer.enabled = False
            passes = [traced, reference]
            layers = _layer_metrics(workload, tracer, traced, reference)
            tracer.write(ROOT / ".perfbench" / "spans"
                         / f"{args.workload}-seed{args.seed}.json")
            tracer.uninstall()
        extras = workload.finish()
        if tamper is not None:
            tamper(workload, passes)
        problems, paper_err = _checks(workload, passes, extras, args.seed)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    every_job = [job for p in passes for job in p.jobs] + extras
    jobs = len(every_job)
    failed_jobs = sum(1 for job in every_job if job.state != "done")
    attempted = sum(job.planned for job in every_job)
    failed = sum(job.planned for job in every_job if job.state != "done")
    if tracer is None:
        measured = passes[0]
        setups = [setup_s] + _probe_setups(args.workload, args.seed)
        values = {
            "cells_per_s": measured.cells_per_s,
            "job_p50_ms": measured.job_percentile_ms(50),
            "job_p90_ms": measured.job_percentile_ms(90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured.peak_rss_mb,
            "paper_err_pp": paper_err,
        }
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in values.items()}
    else:
        metrics = layers
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: jobs attempted {jobs} "
          f"failed {failed_jobs}; cells attempted {attempted} "
          f"failed {failed}; rounds {[p.rounds for p in passes]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
