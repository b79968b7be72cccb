"""One measured pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload theory --seed 1 --trace 0 --spawned-at T

``run.py`` starts this script once per pass, so no pass can reuse the
caches an earlier pass filled (``ordsem.semantics`` memoises theories
for the life of the process, and a user pays the cold cost on every CLI
call).  ``--spawned-at`` is the parent's ``perf_counter`` reading just
before the spawn; on Linux that clock is system-wide, so ``setup_s``
covers interpreter start, imports, input generation and precomputation.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Layer calls whose total seconds are reported as "<name>.s".
LAYER_TIMES = (
    "order.generate_posets",
    "order.enumerate_upsets",
    "brouwer.upset_algebra",
    "brouwer.verify_brouwer",
    "brouwer.quotient",
    "brouwer.interval_algebra",
    "brouwer.hom_verify",
    "muchnik.iso_check",
    "formulas.parse",
    "semantics.theory_contains.algebra",
    "semantics.theory_contains.frame",
    "semantics.holds_in",
    "semantics.ipc_check_bounded",
    "semantics.forces",
    "morphism.search_pmorphism",
    "morphism.transfer_check",
    "morphism.verify_pmorphism",
    "splitting.build_pmorphism",
    "splitting.check_invariants",
    "splitting.pmorphism_of",
    "splitting.verify_splitting_class",
)

# Counters read from return values, reported under the same name.
COUNTERS = (
    "order.upsets_total",
    "brouwer.carrier_total",
    "brouwer.verify_brouwer.checked",
    "muchnik.iso_check.checked",
    "semantics.valuation_space",
    "semantics.ipc_check_bounded.countermodels",
    "morphism.transfer_check.checked",
    "splitting.skip_satisfied",
    "splitting.skip_maximal",
    "splitting.check_invariants.checked",
)


def import_ordsem():
    """Import the checkout's own ``ordsem`` and nothing installed elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import ordsem

    origin = Path(ordsem.__file__).resolve()
    if origin.parent != ROOT / "src" / "ordsem":
        raise SystemExit(f"ordsem was imported from {origin}, not from this checkout")


def layer_metrics(tr) -> dict[str, float]:
    seconds = tr.layer_seconds()
    calls: dict[str, int] = {}
    for span in tr.spans:
        calls[span[2]] = calls.get(span[2], 0) + 1
    counts = tr.counts
    out = {f"{name}.s": seconds.get(name, 0.0) for name in LAYER_TIMES}
    out.update({name: counts.get(name, 0) for name in COUNTERS})
    out["formulas.parse.calls"] = calls.get("formulas.parse", 0)
    out["semantics.theory_contains.calls"] = calls.get(
        "semantics.theory_contains.algebra", 0
    ) + calls.get("semantics.theory_contains.frame", 0)
    searched = calls.get("morphism.search_pmorphism", 0)
    out["morphism.search_pmorphism.calls"] = searched
    out["morphism.search_pmorphism.found_ratio"] = (
        counts.get("morphism.search_pmorphism.found", 0) / searched if searched else 0.0
    )
    placed = counts.get("splitting.place", 0)
    out["splitting.placed"] = placed
    out["splitting.closed_ratio"] = counts.get("splitting.closed", 0) / placed if placed else 0.0
    out["trace.unattributed_s"] = tr.unattributed_seconds()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-file", help="where a traced pass writes its spans as ndjson")
    args = parser.parse_args(argv)

    import_ordsem()
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Mismatch

    build_plan, unit_kind = WORKLOADS[args.workload]
    tr = Tracer() if args.trace else NullTracer()
    unit_ms: list[float] = []
    other_ms: list[float] = []
    answers: list = []
    failures: list[str] = []
    with tr.span("pass"):
        with tr.span("setup"):
            plan = build_plan(args.seed, tr)
        for key, answer, failure in plan.checks:
            answers.append([key, answer])
            if failure:
                failures.append(f"{key}: {failure}")
        start = perf_counter()
        for op in plan.ops:
            began = perf_counter()
            try:
                with tr.span("unit"):
                    answer = op.run(tr)
            except Mismatch as exc:
                answer = "mismatch"
                failures.append(f"{op.key}: {exc}")
            except Exception as exc:  # an unexpected exception fails the operation, not the run
                answer = f"error: {type(exc).__name__}"
                failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            (unit_ms if op.kind == unit_kind else other_ms).append(1000.0 * (perf_counter() - began))
            answers.append([op.key, answer])
        end = perf_counter()

    canonical = json.dumps([args.workload, args.seed, answers], sort_keys=True, separators=(",", ":"))
    record = {
        "pid": os.getpid(),
        "traced": bool(args.trace),
        "setup_s": start - args.spawned_at,
        "job_s": end - start,
        "unit_ms": unit_ms,
        "other_ms": other_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(plan.checks) + len(plan.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    if args.trace:
        record["layers"] = layer_metrics(tr)
        if args.trace_file:
            tr.write_ndjson(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
