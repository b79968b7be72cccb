"""The four workloads: seeded inputs, calls into each layer, oracles.

A workload turns a seed into a ``Plan``: set-up checks made while the
inputs were built, and a list of operations.  An operation calls the
public functions of ``ordsem`` through the tracer, checks every answer
against an oracle the repository ships, and returns a canonical,
JSON-able answer for the run digest.  Only operations of the workload's
unit kind feed the unit latency metrics; the others still count towards
``job_s`` and towards attempted and failed operations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from ordsem import (
    Poset,
    StagingError,
    SyntheticAntichainModel,
    build_pmorphism,
    enumerate_upsets,
    forces,
    from_relation,
    generate_posets,
    interval_algebra,
    ipc_check_bounded,
    iso_check,
    parse,
    pmorphism_of,
    quotient,
    search_pmorphism,
    theory_contains,
    transfer_check,
    upset_algebra,
    verify_brouwer,
    verify_pmorphism,
    verify_splitting_class,
)
from ordsem.corpus import IPC_THEOREMS, MIXED_CORPUS, NON_THEOREMS
from ordsem.formulas import free_vars
from ordsem.semantics import binary_tree_frame, holds_in

LABELS = "abcdefg"

# Labeled posets on 1..4 elements, the counts the acceptance suite pins.
POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219}


class Mismatch(Exception):
    """An answer disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[object], object]


@dataclass
class Plan:
    checks: list = field(default_factory=list)  # (key, answer, failure message or None)
    ops: list[Op] = field(default_factory=list)


# -- input generation (the benchmark's own code, so the inputs stay fixed
# -- whatever the library does) ---------------------------------------------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transitive(cones: list[int]) -> bool:
    return all(not (cones[j] & ~cone) for cone in cones for j in _bits(cone))


def _is_join_semilattice(poset: Poset) -> bool:
    up = poset.up
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            common = up[i] & up[j]
            if not any(up[k] == common for k in _bits(common)):
                return False
    return True


def uniform_poset(rng: random.Random, n: int) -> Poset:
    """A labeled poset on n elements, uniform by rejection sampling."""
    while True:
        cones = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                state = rng.randrange(3)
                if state == 1:
                    cones[i] |= 1 << j
                elif state == 2:
                    cones[j] |= 1 << i
        if _transitive(cones):
            return Poset(tuple(LABELS[:n]), tuple(cones))


def random_frame(rng: random.Random, sizes: tuple[int, ...]) -> Poset:
    """Random edges along a shuffled linear order, closed; from near-chains
    to near-antichains as the drawn edge density falls."""
    n = rng.choice(sizes)
    labels = LABELS[:n]
    order = rng.sample(range(n), n)
    density = rng.uniform(0.05, 0.5)
    pairs = [
        (labels[order[i]], labels[order[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return from_relation(labels, pairs)


def _upset_count(up: tuple[int, ...]) -> int:
    return sum(
        all(not (up[i] & ~mask) for i in _bits(mask)) for mask in range(1 << len(up))
    )


def banded(rng: random.Random, draw: Callable[[random.Random], Poset], bands) -> list[Poset]:
    """Distinct posets from ``draw`` in fixed quotas by upset count.

    ``bands`` holds (low, high, count): ``count`` posets with a number of
    upsets in [low, high).  The cost of every layer grows with the upset
    count, so fixed quotas keep a pass's cost nearly the same for every
    seed while the posets themselves change.
    """
    out = []
    for low, high, count in bands:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < count:
            poset = draw(rng)
            if poset.up not in seen and low <= _upset_count(poset.up) < high:
                seen.add(poset.up)
                out.append(poset)
    return out


def five_element_posets(rng: random.Random, count: int) -> list[Poset]:
    """Uniform 5-element posets, in quotas near the uniform distribution's
    shares of upset counts (a third below 10, two in five 10-12, a sixth
    13-15, a tenth 16-31).  The antichain, the only one with 32, is left
    out so a caller can add it without repeating a poset."""
    quotas = [round(count * share) for share in (0.33, 0.4, 0.17)]
    bands = zip((6, 10, 13, 16), (10, 13, 16, 32), quotas + [count - sum(quotas)])
    return banded(rng, lambda r: uniform_poset(r, 5), bands)


def _all_posets(n: int) -> list[Poset]:
    return list(generate_posets(n))


def small_posets(plan: Plan, tr) -> list[Poset]:
    """Every labeled poset on at most 4 elements, counts checked."""
    out = []
    for n, expected in POSET_COUNTS.items():
        posets = tr.call("order.generate_posets", _all_posets, n)
        failure = None if len(posets) == expected else f"{len(posets)} posets on {n}, expected {expected}"
        plan.checks.append((f"generate_posets({n})", len(posets), failure))
        out.extend(posets)
    return out


# -- lattice: order, brouwer, muchnik ----------------------------------------

LATTICE_RANDOM_5 = 100


def _lattice_op(poset: Poset, key: str) -> Op:
    iso = poset.n <= 4 and _is_join_semilattice(poset)

    def run(tr):
        upsets = tr.call("order.enumerate_upsets", enumerate_upsets, poset)
        algebra = tr.call("brouwer.upset_algebra", upset_algebra, poset)
        expect(algebra.n == len(upsets), f"{algebra.n} carrier elements for {len(upsets)} upsets")
        report = tr.call("brouwer.verify_brouwer", verify_brouwer, algebra)
        expect(report.ok, f"verify_brouwer: {report.summary()}")
        interval_sizes = []
        hom_checked = 0
        for x in algebra.carrier:
            quot = tr.call("brouwer.quotient", quotient, algebra, x)
            interval, hom = tr.call("brouwer.interval_algebra", interval_algebra, algebra, x)
            expect(hom.target == quot, f"interval at {x} is not mapped onto the quotient")
            hom_report = tr.call("brouwer.hom_verify", hom.verify)
            expect(hom_report.ok, f"interval -> quotient at {x}: {hom_report.summary()}")
            interval_sizes.append(interval.n)
            hom_checked += hom_report.checked
        iso_checked = None
        if iso:
            iso_report = tr.call("muchnik.iso_check", iso_check, poset)
            expect(iso_report.ok, f"iso_check: {iso_report.summary()}")
            iso_checked = iso_report.checked
        if tr.enabled:
            tr.count("order.upsets_total", len(upsets))
            tr.count("brouwer.carrier_total", algebra.n)
            tr.count("brouwer.verify_brouwer.checked", report.checked)
            tr.count("muchnik.iso_check.checked", iso_checked or 0)
        return [len(upsets), report.checked, interval_sizes, hom_checked, iso_checked]

    return Op("poset", key, run)


def lattice(seed: int, tr) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    posets = small_posets(plan, tr) + five_element_posets(rng, LATTICE_RANDOM_5)
    # Two wide frames: a 6-antichain (64 upsets) and a 7-element frame with
    # one seeded relation (96 upsets).  Their sizes do not depend on the
    # seed, so neither does the cost of their O(n^3) verification.
    a, b = rng.sample(LABELS, 2)
    posets.append(from_relation(LABELS[:6], []))
    posets.append(from_relation(LABELS, [(a, b)]))
    plan.ops = [_lattice_op(p, f"poset{i}") for i, p in enumerate(posets)]
    return plan


# -- theory: formulas, semantics ----------------------------------------------

THEORY_SMALL_4 = 120
THEORY_RANDOM_5 = 40
HOLDS_ALGEBRAS = 40
HOLDS_VALUATIONS = 25
IPC_BOUND = 6
THREE_VARIABLE_THEOREMS = tuple(t for t in IPC_THEOREMS if len(free_vars(parse(t))) == 3)
# Refutable three-variable formulas (a three-leaf fork and a two-leaf fork).
HARD_REFUTED = (
    "(p -> q) | (q -> r) | (r -> p)",
    "((p -> q) -> r) -> ((p -> r) -> r)",
)
SUBSTITUTION_SHAPES = ("{x}", "~{x}", "{x} & {y}", "{x} | {y}", "{x} -> {y}")


def substitution_instance(rng: random.Random, text: str) -> str:
    """A seeded substitution instance; instances of theorems are theorems."""
    subs = {}
    for var in "pqr":
        shape = rng.choice(SUBSTITUTION_SHAPES)
        x, y = rng.sample("pqr", 2)
        subs[var] = "(" + shape.format(x=x, y=y) + ")"
    return re.sub(r"\b[pqr]\b", lambda m: subs[m.group(0)], text)


def _query_op(poset, algebra, text: str, key: str) -> Op:
    theorem = text in IPC_THEOREMS

    def run(tr):
        f = tr.call("formulas.parse", parse, text)
        on_frame = tr.call("semantics.theory_contains.frame", theory_contains, poset, f)
        on_algebra = tr.call("semantics.theory_contains.algebra", theory_contains, algebra, f)
        if tr.enabled:
            tr.count("semantics.valuation_space", 2 * algebra.n ** len(free_vars(f)))
        expect(on_frame == on_algebra, f"frame says {on_frame}, algebra says {on_algebra} on {text!r}")
        expect(on_frame or not theorem, f"IPC theorem {text!r} fails")
        return on_frame

    return Op("query", key, run)


def _holds_op(algebra, text: str, valuations: list, key: str) -> Op:
    def run(tr):
        f = tr.call("formulas.parse", parse, text)
        for valuation in valuations:
            held = tr.call("semantics.holds_in", holds_in, algebra, f, valuation)
            expect(held, f"IPC theorem {text!r} fails under {valuation}")
        return len(valuations)

    return Op("holds_in", key, run)


def _ipc_op(text: str, valid: bool, key: str) -> Op:
    def run(tr):
        f = tr.call("formulas.parse", parse, text)
        result = tr.call("semantics.ipc_check_bounded", ipc_check_bounded, f, IPC_BOUND)
        if valid:
            expect(not result.is_countermodel, f"theorem {text!r} got a countermodel")
            expect(result.bound == IPC_BOUND, f"bound {result.bound} for {text!r}")
            return "valid"
        expect(result.is_countermodel, f"non-theorem {text!r} was not refuted")
        forced = tr.call(
            "semantics.forces", forces, result.frame, result.point, result.valuation, result.formula
        )
        expect(not forced, f"countermodel for {text!r} forces it at {result.point!r}")
        if tr.enabled:
            tr.count("semantics.ipc_check_bounded.countermodels")
        valuation = {name: list(upset.members) for name, upset in result.valuation.items()}
        return [result.height, result.point, valuation]

    return Op("ipc", key, run)


def theory(seed: int, tr) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    small = small_posets(plan, tr)
    # Every poset on at most 3 elements and a seeded sample of those on 4
    # keep a pass short enough for several passes per run.
    posets = [p for p in small if p.n <= 3]
    posets += rng.sample([p for p in small if p.n == 4], THEORY_SMALL_4)
    posets += five_element_posets(rng, THEORY_RANDOM_5)
    # The 5-antichain has the most upsets of any 5-element poset; its 50
    # queries are the slowest units, so they set the tail for every seed.
    posets.append(from_relation(LABELS[:5], []))
    algebras = [tr.call("brouwer.upset_algebra", upset_algebra, p) for p in posets]
    for i, (poset, algebra) in enumerate(zip(posets, algebras)):
        for j, text in enumerate(MIXED_CORPUS):
            plan.ops.append(_query_op(poset, algebra, text, f"poset{i}/f{j}"))
    for i in rng.sample(range(len(algebras)), HOLDS_ALGEBRAS):
        algebra = algebras[i]
        for j, text in enumerate(THREE_VARIABLE_THEOREMS):
            valuations = [
                {v: algebra.carrier[rng.randrange(algebra.n)] for v in "pqr"}
                for _ in range(HOLDS_VALUATIONS)
            ]
            plan.ops.append(_holds_op(algebra, text, valuations, f"algebra{i}/t{j}"))
    hard_valid = [substitution_instance(rng, t) for t in rng.sample(THREE_VARIABLE_THEOREMS, 4)]
    for j, text in enumerate(IPC_THEOREMS + tuple(hard_valid)):
        plan.ops.append(_ipc_op(text, True, f"valid{j}"))
    for j, text in enumerate(NON_THEOREMS + HARD_REFUTED):
        plan.ops.append(_ipc_op(text, False, f"refuted{j}"))
    return plan


# -- transfer: morphism search, verification and theory transfer ----------------

# (sizes, bands): quotas of pool sources by upset count.  Cost varies
# more between 7-element sources than between 6-element ones, so the
# costlier bands draw on 6 elements only.
TRANSFER_POOL_SEED = 0
TRANSFER_BANDS = (
    ((6, 7), ((1, 16, 8), (16, 24, 6))),
    ((6,), ((24, 32, 4), (32, 40, 2), (40, 48, 1), (48, 64, 1))),
)
# Fixed larger 7-element sources (80 and 72 upsets, 6400 and 5184
# valuations per two-variable sweep).  Each maps onto some targets, so its
# theory is computed once and then re-queried from the cache; fixed
# element order keeps their search cost the same for every seed.
TRANSFER_WIDE = (
    [("a", "b"), ("a", "c")],
    [("a", "b"), ("c", "d")],
)


def transfer_targets() -> list[Poset]:
    return [
        from_relation("rlk", [("r", "l"), ("r", "k")]),  # fork
        binary_tree_frame(3),
        from_relation("ab", [("a", "b")]),
        from_relation("abc", [("a", "b"), ("b", "c")]),
        from_relation("blrt", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),  # diamond
    ]


def _pair_op(source: Poset, target: Poset, corpus, key: str) -> Op:
    def run(tr):
        found = tr.call("morphism.search_pmorphism", search_pmorphism, source, target)
        if found is None:
            return None
        report = tr.call("morphism.verify_pmorphism", verify_pmorphism, found)
        expect(report.ok, f"found map fails verification: {report.summary()}")
        transfer = tr.call("morphism.transfer_check", transfer_check, source, target, corpus)
        expect(transfer.ok, f"theory transfer: {transfer.summary()}")
        if tr.enabled:
            tr.count("morphism.search_pmorphism.found")
            tr.count("morphism.transfer_check.checked", transfer.checked)
        return [list(found.mapping), transfer.checked]

    return Op("pair", key, run)


def transfer_pool() -> list[Poset]:
    """The random sources, the same for every seed.

    Whether a map onto a target exists depends on the shape, and what a
    search costs on the element order; a found pair costs ten to a
    hundred times an exhausted one, so the median pair sits between the
    two.  A pool redrawn per seed moved it by 40% between seeds, and a
    seeded element order still by 30%.
    """
    rng = random.Random(TRANSFER_POOL_SEED)
    return [
        frame
        for sizes, bands in TRANSFER_BANDS
        for frame in banded(rng, lambda r, sizes=sizes: random_frame(r, sizes), bands)
    ]


def transfer(seed: int, tr) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    corpus = [tr.call("formulas.parse", parse, text) for text in MIXED_CORPUS]
    targets = transfer_targets()
    # The seed names each pool frame's elements and orders the sources,
    # which leaves the work the same.
    sources = [Poset(tuple(rng.sample(f.elements, f.n)), f.up) for f in transfer_pool()]
    rng.shuffle(sources)
    sources += [from_relation(LABELS, relation) for relation in TRANSFER_WIDE]
    for i, source in enumerate(sources):
        for j, target in enumerate(targets):
            plan.ops.append(_pair_op(source, target, corpus, f"source{i}/target{j}"))
    return plan


# -- split: the staged construction onto 2^{<n} ---------------------------------

# (height, steps, builds).  Most model seeds finish the tree within these
# step budgets; the rest end unfinished, which ``pmorphism_of`` reports as
# a StagingError and the digest records.
SPLIT_BUILDS = ((5, 100, 6), (6, 200, 1))
SPLIT_CLASS_DEPTH = 16


def _build_op(height: int, steps: int, model_seed: int, key: str) -> Op:
    def run(tr):
        model = SyntheticAntichainModel(seed=model_seed)
        alpha = tr.call("splitting.build_pmorphism", build_pmorphism, model, height, steps)
        invariants = tr.call("splitting.check_invariants", alpha.check_invariants)
        expect(invariants.ok, f"invariants: {invariants.summary()}")
        if tr.enabled:
            for entry in alpha.trace:
                tr.count("splitting." + entry["action"].replace("-", "_"))
            tr.count("splitting.check_invariants.checked", invariants.checked)
        try:
            packaged = tr.call("splitting.pmorphism_of", pmorphism_of, alpha)
        except StagingError:
            return [height, model_seed, len(alpha.pairs), "unfinished", invariants.checked]
        report = tr.call("morphism.verify_pmorphism", verify_pmorphism, packaged)
        expect(report.ok, f"packaged map: {report.summary()}")
        expect(packaged.target.n == 2**height - 1, f"target has {packaged.target.n} nodes")
        if tr.enabled:
            tr.count("splitting.closed", packaged.source.n)
        return [height, model_seed, len(alpha.pairs), packaged.source.n, invariants.checked]

    return Op("build", key, run)


def _class_op(model_seed: int) -> Op:
    def run(tr):
        model = SyntheticAntichainModel(seed=model_seed)
        report = tr.call(
            "splitting.verify_splitting_class", verify_splitting_class, model, SPLIT_CLASS_DEPTH
        )
        expect(report.ok, f"splitting class: {report.summary()}")
        return report.checked

    return Op("splitting_class", f"class/{model_seed}", run)


def split(seed: int, tr) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for height, steps, builds in SPLIT_BUILDS:
        for _ in range(builds):
            model_seed = rng.randrange(1, 2**31)
            plan.ops.append(_build_op(height, steps, model_seed, f"h{height}/{model_seed}"))
    plan.ops.append(_class_op(rng.randrange(1, 2**31)))
    return plan


# name -> (plan builder, unit kind)
WORKLOADS = {
    "lattice": (lattice, "poset"),
    "theory": (theory, "query"),
    "transfer": (transfer, "pair"),
    "split": (split, "build"),
}
