"""Output checks, run after the timed region.

Every check compares against a computation made apart from the fast
engine tiers (the stepped interpreter, direct ``run_kernel`` calls) or
against a property the timing model must have.  None compares against
a stored copy of earlier output.  Each check returns a list of
violation messages; an empty list means it passed.
"""

from __future__ import annotations

import random
from statistics import fmean

from repro.eval.figures import (
    PAPER_HRDWIL_AVG,
    PAPER_HRDWIL_MAX,
    PAPER_ZOLC_AVG,
    PAPER_ZOLC_MAX,
    PAPER_ZOLC_MIN,
    Figure2Data,
    Figure2Row,
)
from repro.eval.machines import FIGURE2_MACHINES, machine_by_name
from repro.eval.runner import run_kernel
from repro.experiments import RunConfig
from repro.experiments.result import MEASUREMENT_COLUMNS
from repro.workloads.suite import FIGURE2_BENCHMARKS, registry

#: Counters the stepped re-simulation must reproduce exactly.
STEP_COLUMNS = ("cycles", "instructions", "stall_cycles", "flush_cycles")

#: Cells re-simulated on the stepped interpreter per run.
STEP_SAMPLE = 8


def golden(records: list[dict]) -> list[str]:
    """Every cell passed its kernel's golden model."""
    return [f"{r['kernel']} on {r['machine']}: not verified"
            for r in records if r.get("verified") is not True]


def cycle_identity(records: list[dict]) -> list[str]:
    """``cycles == instructions + stall_cycles + flush_cycles``.

    Holds while multiply and task-switch costs are zero, which every
    pipeline the benchmark runs keeps.
    """
    return [f"{r['kernel']} on {r['machine']}: cycles {r['cycles']} != "
            f"{r['instructions']} + {r['stall_cycles']} + "
            f"{r['flush_cycles']}"
            for r in records
            if r["cycles"] != r["instructions"] + r["stall_cycles"]
            + r["flush_cycles"]]


def step_sample(cells: list[tuple], seed: int) -> list[str]:
    """Re-simulate a seeded sample on the stepped interpreter.

    ``cells`` holds ``(record, pipeline)`` pairs; the sample is drawn
    by ``seed`` so it is the same on every run with that seed.
    """
    picked = random.Random(f"step-sample/{seed}").sample(
        range(len(cells)), min(STEP_SAMPLE, len(cells)))
    problems = []
    for index in sorted(picked):
        record, pipeline = cells[index]
        kernel = registry().get(record["kernel"])
        stepped = run_kernel(kernel, machine_by_name(record["machine"]),
                             RunConfig(engine="step", pipeline=pipeline))
        reference = stepped.record()
        for column in STEP_COLUMNS:
            if record[column] != reference[column]:
                problems.append(
                    f"{record['kernel']} on {record['machine']}: {column} "
                    f"{record[column]} != stepped {reference[column]}")
    return problems


def sweep_properties(points: list[tuple[int, int, list[dict]]]
                     ) -> list[str]:
    """Instruction counts are pipeline-independent; cycles are monotone.

    ``points`` holds ``(branch_penalty, load_use_stall, records)`` per
    job.  Every job at one point must also agree exactly (rounds repeat
    the sweep).
    """
    problems: list[str] = []
    cells: dict[tuple, dict] = {}
    instructions: dict[tuple, int] = {}
    for branch, load_use, records in points:
        for r in records:
            cell = (r["kernel"], r["machine"])
            seen = instructions.setdefault(cell, r["instructions"])
            if seen != r["instructions"]:
                problems.append(f"{cell}: instructions {r['instructions']} "
                                f"at b={branch} s={load_use}, {seen} "
                                "elsewhere")
            key = (cell, branch, load_use)
            earlier = cells.setdefault(key, r)
            if earlier["cycles"] != r["cycles"]:
                problems.append(f"{key}: cycles differ between rounds")
    for (cell, branch, load_use), r in cells.items():
        for up in ((cell, branch + 1, load_use),
                   (cell, branch, load_use + 1)):
            higher = cells.get(up)
            if higher is not None and higher["cycles"] < r["cycles"]:
                problems.append(
                    f"{cell}: cycles fall from {r['cycles']} at "
                    f"b={branch} s={load_use} to {higher['cycles']} at "
                    f"b={up[1]} s={up[2]}")
    return problems


def _cycles(records: list[dict]) -> dict[tuple[str, str], int]:
    return {(r["kernel"], r["machine"]): r["cycles"] for r in records}


def figure2_order(records: list[dict]) -> list[str]:
    """XRhrdwil and ZOLClite beat XRdefault on all 12 kernels."""
    cycles = _cycles(records)
    problems = []
    for name in FIGURE2_BENCHMARKS:
        base = cycles.get((name, "XRdefault"))
        for machine in ("XRhrdwil", "ZOLClite"):
            other = cycles.get((name, machine))
            if base is None or other is None:
                problems.append(f"{name}: no {machine}/XRdefault record")
            elif other >= base:
                problems.append(f"{name}: {machine} {other} cycles, "
                                f"XRdefault {base}")
    return problems


def paper_err_pp(records: list[dict]) -> float:
    """Mean absolute gap to the paper's five Figure 2 summary figures."""
    cycles = _cycles(records)
    data = Figure2Data(rows=[
        Figure2Row(benchmark=name,
                   cycles_default=cycles[(name, "XRdefault")],
                   cycles_hrdwil=cycles[(name, "XRhrdwil")],
                   cycles_zolc=cycles[(name, "ZOLClite")])
        for name in FIGURE2_BENCHMARKS])
    hrdwil, zolc = data.hrdwil_summary, data.zolc_summary
    return fmean((abs(hrdwil.maximum - PAPER_HRDWIL_MAX),
                  abs(hrdwil.average - PAPER_HRDWIL_AVG),
                  abs(zolc.maximum - PAPER_ZOLC_MAX),
                  abs(zolc.average - PAPER_ZOLC_AVG),
                  abs(zolc.minimum - PAPER_ZOLC_MIN)))


def direct_records(kernel_names, machines) -> dict[tuple[str, str], dict]:
    """Each cell run straight through ``run_kernel``, keyed by identity."""
    reg = registry()
    out = {}
    for name in kernel_names:
        for machine in machines:
            out[(name, machine.name)] = run_kernel(
                reg.get(name), machine, RunConfig()).record()
    return out


def direct_figure2() -> dict[tuple[str, str], dict]:
    return direct_records(FIGURE2_BENCHMARKS, FIGURE2_MACHINES)


def paper_err_matches(value: float,
                      direct: dict[tuple[str, str], dict]) -> list[str]:
    expected = paper_err_pp(list(direct.values()))
    if value != expected:
        return [f"paper_err_pp {value} != {expected} from direct runs"]
    return []


def same_as_direct(records: list[dict],
                   direct: dict[tuple[str, str], dict]) -> list[str]:
    """Records equal the direct run of the same cell, column by column."""
    problems = []
    for r in records:
        reference = direct.get((r["kernel"], r["machine"]))
        if reference is None:
            problems.append(f"{r['kernel']} on {r['machine']}: no direct "
                            "run")
            continue
        for column in MEASUREMENT_COLUMNS:
            if r.get(column) != reference.get(column):
                problems.append(
                    f"{r['kernel']} on {r['machine']}: {column} "
                    f"{r.get(column)} != direct {reference.get(column)}")
    return problems


def served_jobs(jobs, direct_fig2: dict[tuple[str, str], dict]
                ) -> list[str]:
    """Each served job: 36 cached + 3 simulated, equal to direct runs.

    A job that ended ``failed`` is counted in the run's ``failed``
    operations, not here.
    """
    cached = len(FIGURE2_BENCHMARKS) * len(FIGURE2_MACHINES)
    simulated = len(FIGURE2_MACHINES)
    direct = dict(direct_fig2)
    problems = []
    for job in jobs:
        label = f"served job (synth seed {job.tag['synth_seed']})"
        if job.state != "done":
            continue
        if job.events != {"cached": cached, "simulated": simulated}:
            problems.append(f"{label}: events {job.events}, want "
                            f"{cached} cached + {simulated} simulated")
        missing = sorted({r["kernel"] for r in job.records
                          if (r["kernel"], r["machine"]) not in direct})
        direct.update(direct_records(missing, FIGURE2_MACHINES))
        problems += [f"{label}: {p}"
                     for p in same_as_direct(job.records, direct)]
        if len(job.records) != cached + simulated:
            problems.append(f"{label}: {len(job.records)} records")
    return problems
