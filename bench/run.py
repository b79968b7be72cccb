"""Run one workload of the ordsem benchmark and print its metrics.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from its
``src`` directory, never from an installed copy.  Passes run one at a
time, each in a fresh interpreter (``bench/worker.py``), until another
pass would not fit in ``--seconds`` (at least three, or four when
traced).  Every pass of one run gets the same seeded inputs, so every
pass must produce the same answer digest.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes.  With ``--trace 1`` traced and untraced passes alternate; the
metrics are the per-layer ones from the traced passes, plus the tracing
overhead (traced minus untraced ``job_s``).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
a run record with the context (host-speed reference, commit, Python,
seed, pass count) goes to stderr and to ``.bench_out/records.ndjson``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lattice", "theory", "transfer", "split")
MIN_PASSES = {0: 3, 1: 4}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {".s": "s", "_s": "s", "_ratio": "1"}


class PassError(Exception):
    """A worker crashed, timed out or printed no record."""


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a slow program."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return perf_counter() - start


def run_pass(workload: str, seed: int, traced: bool, time_left: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--trace-file", str(OUT / f"trace-{workload}-seed{seed}.ndjson"),
    ]
    # String hashing is seeded per process; fix it so set and dict orders,
    # and with them the work counts, repeat from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(perf_counter())],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=max(time_left, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass did not end within {time_left:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def typical_latencies(passes: list[dict], key: str) -> list[float]:
    """Each operation's median latency across passes, in milliseconds.

    Every pass of a run makes the same operations in the same order, so
    each operation has one latency per pass.  A burst of a shared host
    slows the operations it overlaps in one pass; the median across
    passes drops it.
    """
    return [statistics.median(ms) for ms in zip(*(p[key] for p in passes))]


def typical_job_s(passes: list[dict]) -> float:
    """The pass's wall time at the run's typical host speed."""
    ms = typical_latencies(passes, "unit_ms") + typical_latencies(passes, "other_ms")
    return sum(ms) / 1000.0


def tail_level(units: int) -> float:
    """The highest percentile with ten units beyond it, never below the median.

    A workload with fewer than 20 units per pass has no such tail; its
    tail then reads the median.
    """
    return max(0.5, 1.0 - 10.0 / units)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ordsem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    passes: list[dict] = []
    walls: list[float] = []
    host = [host_reference()]
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        began = perf_counter()
        passes.append(run_pass(workload, seed, traced, RUN_LIMIT_S - (began - start)))
        walls.append(perf_counter() - began)
        host.append(host_reference())
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES[trace] and elapsed + max(walls) > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    pids = [p["pid"] for p in passes]
    if len(digests) != 1:
        problems.append(f"passes of one seed gave {len(digests)} different answer digests")
    if len(set(pids)) != len(pids) or os.getpid() in pids:
        problems.append("a pass did not run in a fresh interpreter")

    units = typical_latencies(plain, "unit_ms")
    level = tail_level(len(units))
    job = typical_job_s(plain)
    if trace:
        metrics = {}
        for name in traced_passes[0]["layers"]:
            values = [p["layers"][name] for p in traced_passes]
            unit = layer_unit(name)
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if len(set(values)) != 1:
                    problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = {"value": value, "unit": unit}
        overhead = typical_job_s(traced_passes) - job
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "job_s": job,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "unit_p50_ms": percentile(units, 0.5),
            "unit_tail_ms": percentile(units, level),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes),
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "digest": digests.pop() if len(digests) == 1 else None,
        "failed_ratio": failed / attempted,
        "units_per_pass": len(units),
        "unit_tail_pct": 100.0 * level,
        "host_ref_s": {"median": statistics.median(host), "min": min(host), "max": max(host)},
        "pass_wall_s": walls,
        "pass_job_s": [p["job_s"] for p in passes],
        "pids": pids,
        "problems": problems[:20],
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    return result, record


def report(result: dict, record: dict) -> None:
    """Human-readable lines on stdout, the record on stderr and on disk."""
    name = record["workload"]
    for metric, m in result["metrics"].items():
        extra = ""
        if metric == "unit_tail_ms":
            extra = f"  (p{record['unit_tail_pct']:.2f} of {record['units_per_pass']} units)"
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name:9s} {metric:44s} {value} {m['unit']}{extra}")
    print(
        f"{name:9s} {'failed_ratio':44s} {record['failed_ratio']:.6g} 1"
        f"  ({result['failed']} of {result['attempted']} operations)"
    )
    for problem in record["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    line = json.dumps(record)
    print(line, file=sys.stderr)
    with open(OUT / "records.ndjson", "a", encoding="utf-8") as out:
        out.write(line + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordsem" / "__init__.py").is_file():
        print(f"no ordsem sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, record = measure(name, args.seed, args.seconds, args.trace)
        except PassError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 3
        report(result, record)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
