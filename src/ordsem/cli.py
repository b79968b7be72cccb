"""Command-line surface.

Exit codes: 0 = success / property holds, 1 = checked and fails
(countermodel found, non-empty report, missing morphism), 2 = usage or
input error, 3 = internal error (an unexpected exception or a failed
internal check, `InvariantViolation`: a bug).  Output is deterministic for
fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import brouwer, documents, dot, morphism, muchnik, order, semantics, splitting
from .errors import (
    CapacityError, InputError, InvariantViolation, OrdsemError, Report, StagingError,
)
from .formulas import parse, pretty


def _emit(data: object, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(human)


def _report_exit(report: Report, as_json: bool, subject: str) -> int:
    _emit(
        {"subject": subject, "ok": report.ok, "checked": report.checked,
         "violations": list(report.violations)},
        as_json,
        f"{subject}: {report.summary()}",
    )
    return 0 if report.ok else 1


def cmd_upsets(args: argparse.Namespace) -> int:
    poset = documents.poset_from_json(documents.load(args.poset))
    upsets = order.enumerate_upsets(poset)
    data = {"count": len(upsets), "upsets": [list(u.members) for u in upsets]}
    labels = brouwer.upset_labels(poset, [u.mask for u in upsets])
    human = f"{len(upsets)} upsets:\n" + "\n".join("  " + label for label in labels)
    _emit(data, args.json, human)
    return 0


def _load_algebra(path: str, *, verify_dump: bool) -> brouwer.BrouwerAlgebra:
    """The upset algebra of a poset file, or an algebra dump.

    With ``verify_dump`` a dump is refused unless it verifies as a Brouwer
    algebra; an upset algebra is one by construction.
    """
    data = documents.load(path)
    if not (isinstance(data, dict) and "carrier" in data):
        return brouwer.upset_algebra(documents.poset_from_json(data))
    algebra = documents.algebra_from_json(data)
    if verify_dump:
        report = brouwer.verify_brouwer(algebra)
        if not report.ok:
            raise InputError(f"not a Brouwer algebra: {report.violations[0]}")
    return algebra


def cmd_algebra(args: argparse.Namespace) -> int:
    if args.action == "verify":
        report = brouwer.verify_brouwer(_load_algebra(args.input, verify_dump=False))
        return _report_exit(report, args.json, "algebra")
    quotient = brouwer.quotient(_load_algebra(args.input, verify_dump=True), args.element)
    print(json.dumps(documents.algebra_to_json(quotient), sort_keys=True))
    return 0


def cmd_muchnik(args: argparse.Namespace) -> int:
    poset = documents.poset_from_json(documents.load(args.poset))
    return _report_exit(muchnik.iso_check(poset), args.json, "muchnik-iso")


def cmd_check(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    if args.algebra is not None:
        if args.mode == "frame":
            raise InputError("--mode frame needs a poset input (--frame)")
        structure: semantics.Structure = _load_algebra(args.algebra, verify_dump=True)
    else:
        poset = documents.poset_from_json(documents.load(args.frame))
        structure = brouwer.upset_algebra(poset) if args.mode == "algebra" else poset
    holds = semantics.theory_contains(structure, formula)
    _emit(
        {"formula": pretty(formula), "holds": holds},
        args.json,
        f"{pretty(formula)}: {'holds' if holds else 'fails'}",
    )
    return 0 if holds else 1


def cmd_theory(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    if args.algebra is not None:
        holds = semantics.theory_contains(_load_algebra(args.algebra, verify_dump=True), formula)
        data = {"formula": pretty(formula), "mode": "algebra", "holds": holds}
        human = f"{pretty(formula)}: {'in' if holds else 'not in'} the algebra theory"
    else:
        poset = documents.poset_from_json(documents.load(args.frame))
        witness = semantics.frame_witness(poset, formula)
        holds = witness is None
        data = {"formula": pretty(formula), "mode": "frame", "holds": holds}
        human = f"{pretty(formula)}: {'in' if holds else 'not in'} the frame theory"
        if witness is not None:
            valuation, point = witness
            data["witness"] = {
                "valuation": documents.valuation_to_json(valuation),
                "point": point,
            }
            human += f" (refuted at {point!r} under {documents.valuation_to_json(valuation)})"
    _emit(data, args.json, human)
    return 0 if holds else 1


def cmd_ipc(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    result = semantics.ipc_check_bounded(formula, args.max_height)
    if isinstance(result, semantics.ValidUpToBound):
        _emit(
            {"result": "valid-up-to-bound", "formula": pretty(formula),
             "bound": result.bound},
            args.json,
            f"{pretty(formula)}: valid up to height {result.bound} (bounded check only)",
        )
        return 0
    print(json.dumps(documents.countermodel_to_json(result), sort_keys=True))
    return 1


def cmd_pmorphism(args: argparse.Namespace) -> int:
    if args.action == "verify":
        m = documents.pmorphism_from_json(documents.load(args.input))
        return _report_exit(morphism.verify_pmorphism(m), args.json, "p-morphism")
    source = documents.poset_from_json(documents.load(args.input))
    target = documents.poset_from_json(documents.load(args.target))
    found = morphism.search_pmorphism(source, target)
    if found is None:
        _emit({"found": False}, args.json, "no p-morphism exists")
        return 1
    print(json.dumps(documents.pmorphism_to_json(found), sort_keys=True))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    if args.action == "verify":
        model = splitting.SyntheticAntichainModel(seed=args.seed)
        report = splitting.verify_splitting_class(model, args.depth)
        return _report_exit(report, args.json, f"splitting-class depth={args.depth}")
    if args.height > semantics.MAX_TREE_HEIGHT:  # the packaged map's target, refused before the build
        raise CapacityError(f"tree height guard: {args.height} > {semantics.MAX_TREE_HEIGHT}")
    if args.trace is not None:  # an unwritable path fails before the build, not after it
        documents.write(args.trace, "")
    model = splitting.SyntheticAntichainModel(seed=args.seed)
    alpha = splitting.build_pmorphism(model, args.height, args.steps)
    if args.trace is not None:
        documents.write(args.trace, documents.trace_lines(alpha) + "\n")
    try:
        packaged = splitting.pmorphism_of(alpha)
    except StagingError as exc:
        _emit(
            {"result": "incomplete", "detail": str(exc), "partial": alpha.to_json()},
            args.json,
            f"incomplete: {exc}",
        )
        return 1
    print(
        json.dumps(
            {
                "pmorphism": documents.pmorphism_to_json(packaged),
                "partial": alpha.to_json(),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    data = documents.load(args.input)
    if args.kind == "frame":
        text = dot.frame_dot(documents.poset_from_json(data))
    elif args.kind == "pmorphism":
        text = dot.pmorphism_dot(documents.pmorphism_from_json(data))
    else:
        text = dot.countermodel_dot(*documents.countermodel_from_json(data))
    documents.write(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsem",
        description="Workbench for order-theoretic semantics of intuitionistic logic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upsets", help="enumerate all upsets of a poset")
    p.add_argument("poset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_upsets)

    p = sub.add_parser("algebra", help="verify or factor a Brouwer algebra")
    p.add_argument("action", choices=("verify", "quotient"))
    p.add_argument("input", help="poset JSON (upset algebra) or algebra dump")
    p.add_argument("-x", "--element", help="carrier element for quotient")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("muchnik", help="simulated Muchnik lattice checks")
    p.add_argument("action", choices=("iso-check",))
    p.add_argument("poset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_muchnik)

    p = sub.add_parser("check", help="does a formula hold in a structure")
    p.add_argument("formula")
    p.add_argument("--frame", help="poset JSON used as a Kripke frame")
    p.add_argument("--algebra", help="poset JSON or algebra dump")
    p.add_argument("--mode", choices=("frame", "algebra"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("theory", help="theory membership with refutation details")
    p.add_argument("formula")
    p.add_argument("--frame")
    p.add_argument("--algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser(
        "ipc",
        help="refute IPC on binary trees 2^{<k}; at its fixpoint the check has decided "
        "the finite binary trees' logic, which contains bb2 and is not IPC",
    )
    p.add_argument("formula")
    p.add_argument("--max-height", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ipc)

    p = sub.add_parser("pmorphism", help="verify or search for p-morphisms")
    p.add_argument("action", choices=("verify", "search"))
    p.add_argument("input", help="p-morphism JSON (verify) or source poset (search)")
    p.add_argument("target", nargs="?", help="target poset (search)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pmorphism)

    p = sub.add_parser("split", help="splitting-class verification and construction")
    p.add_argument("action", choices=("verify", "build"))
    p.add_argument("--depth", type=int, default=16, help="verify window size")
    p.add_argument("--height", type=int, default=2, help="target tree height")
    p.add_argument("--steps", type=int, default=32, help="requirement pairs to run")
    p.add_argument("--seed", type=int, default=0, help="enumeration shuffle seed")
    p.add_argument("--trace", help="write a stage-by-stage ndjson trace here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("export-dot", help="write a DOT graph")
    p.add_argument("kind", choices=("frame", "pmorphism", "countermodel"))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exception(exc)
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check" and args.frame is None and args.algebra is None:
            parser.error("check needs --frame or --algebra")
        if args.command == "theory" and args.frame is None and args.algebra is None:
            parser.error("theory needs --frame or --algebra")
        if args.command == "pmorphism" and args.action == "search" and args.target is None:
            parser.error("pmorphism search needs a target poset")
        if args.command == "algebra" and args.action == "quotient" and args.element is None:
            parser.error("algebra quotient needs -x ELEMENT")
        return args.func(args)
    except InvariantViolation as exc:  # an internal check failed: a bug, not bad input
        return _internal_error(exc)
    except OrdsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a failed check: never exit 1
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
