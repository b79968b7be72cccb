"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Not named ``test_*.py``, so the library's suite does not collect it; it
starts benchmark runs and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The result (last stdout line) and the run record (last stderr line)."""
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, record


@pytest.fixture(scope="module")
def runs():
    args = ("--workload", "split", "--seed", "5", "--seconds", "1")
    return parse(bench_run(*args, "--trace", "0")), parse(bench_run(*args, "--trace", "1"))


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_untraced_run_reports_every_end_to_end_metric(runs, spec):
    (result, record), _ = runs
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert record["failed_ratio"] == 0.0


def test_traced_run_reports_every_per_layer_metric(runs, spec):
    _, (result, record) = runs
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["splitting.placed"]["value"] > 0


def test_each_pass_runs_in_a_fresh_interpreter(runs):
    for _, record in runs:
        assert record["passes"] >= 3
        assert len(set(record["pids"])) == record["passes"]


def test_two_runs_of_one_seed_give_the_same_digest(runs):
    (_, untraced), (_, traced) = runs
    assert untraced["digest"] is not None
    assert untraced["digest"] == traced["digest"]


def test_run_record_carries_host_speed_and_context(runs):
    (_, record), _ = runs
    assert record["host_ref_s"]["min"] > 0
    assert record["python"] and record["seed"] == 5 and record["src_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "lattice", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_unattributed_time_is_frame_self_time():
    tr = Tracer()
    tr.spans = [
        (0, None, "pass", 0.0, 10.0),
        (1, 0, "setup", 0.0, 2.0),
        (2, 1, "order.generate_posets", 0.5, 1.5),
        (3, 0, "unit", 2.0, 9.0),
        (4, 3, "brouwer.verify_brouwer", 2.0, 5.0),
        (5, 3, "brouwer.quotient", 5.0, 8.5),
    ]
    assert tr.layer_seconds() == {
        "order.generate_posets": 1.0,
        "brouwer.verify_brouwer": 3.0,
        "brouwer.quotient": 3.5,
    }
    assert tr.unattributed_seconds() == pytest.approx(10.0 - 1.0 - 3.0 - 3.5)
