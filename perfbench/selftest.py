"""Self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

It checks three things and exits non-zero on the first that fails:

1. every workload, run at a tiny size (one round) with and without
   tracing, prints a last line with exactly the schema and metric names
   ``BENCHMARK.json`` declares, all checks passing and nothing failed;
2. the output checks catch corruption: a record with ``cycles`` bumped
   by one, and a served record that differs from its direct run, each
   make the run fail;
3. in a directory holding only ``BENCHMARK.json`` and the benchmark's
   own files, the command exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seed", "3", "--seconds", "0", "--rounds", "1"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_schema(config: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in config["end_to_end"]},
                1: {m["name"]: m["unit"] for m in config["per_layer"]}}
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [*config["command"], "--workload", workload, *TINY,
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            assert done.returncode == 0, f"{label}: exit {done.returncode}"
            result = _last_json(done.stdout)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: keys {set(result)}"
            assert result["correct"] is True, label
            assert isinstance(result["attempted"], int) \
                and result["attempted"] >= 1, label
            assert result["failed"] == 0, label
            units = {name: metric["unit"]
                     for name, metric in result["metrics"].items()}
            assert units == expected[trace], f"{label}: metrics {units}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), \
                    f"{label}: {name}"
            print(f"ok   schema {label}: {result['attempted']} cells")


def _run_tampered(workload: str, tamper) -> dict:
    sys.path.insert(0, str(HERE))
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, *TINY], tamper=tamper)
    result = _last_json(out.getvalue())
    assert code == 1, f"{workload}: tampered run exited {code}"
    assert result["correct"] is False, f"{workload}: tampered run passed"
    return result


def check_corruption() -> None:
    def bump_cycles(workload, passes):
        passes[0].jobs[0].records[0]["cycles"] += 1

    def skew_served(workload, passes):
        # taken_branches is outside the cycle identity, so only the
        # comparison with the direct run can notice it.
        passes[0].jobs[-1].records[-1]["taken_branches"] += 1

    _run_tampered("fig2_sweep", bump_cycles)
    print("ok   corruption: cycles bumped by one fails the run")
    _run_tampered("served_resubmit", skew_served)
    print("ok   corruption: served record unlike its direct run fails")


def check_bare_directory(config: dict) -> None:
    work = ROOT / ".perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in config["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*config["command"], "--workload", config["workloads"][0]["name"],
             *TINY, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "bare directory: exit 0"
        assert '"correct"' not in done.stdout, "bare directory: printed"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok   bare directory: exit {done.returncode}, no result")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory(config)
    check_corruption()
    check_schema(config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
