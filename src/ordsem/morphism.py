"""p-morphisms between finite Kripke frames: verify, search, transfer.

A surjective monotone map with the back condition transfers frame
validity from its source to its target, so a found morphism turns one
frame's theory into an upper bound for the other's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .errors import CapacityError, InputError, PreconditionError, Report
from .formulas import Formula, pretty
from .order import Poset, bits, poset_from_json, poset_to_json
from .semantics import theory_contains

MAX_SEARCH_SOURCE = 12


@dataclass(frozen=True)
class PMorphism:
    """Total map between frames, stored as source-index -> target-index."""

    source: Poset
    target: Poset
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.n:
            raise InputError("map is not total on the source frame")
        if any(not 0 <= v < self.target.n for v in self.mapping):
            raise InputError("map hits unknown target elements")

    def apply(self, label: str) -> str:
        return self.target.elements[self.mapping[self.source.index_of(label)]]


def pmorphism_from_labels(
    source: Poset, target: Poset, mapping: Mapping[str, str]
) -> PMorphism:
    missing = set(source.elements) - set(mapping)
    if missing:
        raise InputError(f"map is not total; missing {sorted(missing)}")
    return PMorphism(
        source,
        target,
        tuple(target.index_of(mapping[e]) for e in source.elements),
    )


def verify_pmorphism(m: PMorphism) -> Report:
    """Surjectivity, monotonicity and the back condition, with witnesses."""
    src, tgt, f = m.source, m.target, m.mapping
    violations: list[str] = []
    checked = 0

    hit = set(f)
    checked += 1
    for j in range(tgt.n):
        if j not in hit:
            violations.append(f"not surjective: {tgt.elements[j]!r} has no preimage")

    for x in range(src.n):
        for y in bits(src.up[x]):
            checked += 1
            if not (tgt.up[f[x]] >> f[y]) & 1:
                violations.append(
                    f"not monotone on ({src.elements[x]!r}, {src.elements[y]!r})"
                )

    for x in range(src.n):
        for z in bits(tgt.up[f[x]]):
            checked += 1
            if not any(f[w] == z for w in bits(src.up[x])):
                violations.append(
                    f"back condition fails at {src.elements[x]!r} towards "
                    f"{tgt.elements[z]!r}"
                )

    return Report(checked=checked, violations=tuple(violations))


def search_pmorphism(source: Poset, target: Poset) -> PMorphism | None:
    """Lexicographically first p-morphism under canonical element order.

    Backtracks over assignments source element by source element, target
    candidates ascending; prunes on monotonicity against the settled
    prefix and on surjectivity reachability, and checks the back
    condition on completion.
    """
    if source.n > MAX_SEARCH_SOURCE:
        raise CapacityError(
            f"search guard: {source.n} source elements > {MAX_SEARCH_SOURCE}"
        )
    n, tn = source.n, target.n
    assignment: list[int] = []

    def consistent(i: int, v: int) -> bool:
        for j, w in enumerate(assignment):
            if (source.up[j] >> i) & 1 and not (target.up[w] >> v) & 1:
                return False
            if (source.up[i] >> j) & 1 and not (target.up[v] >> w) & 1:
                return False
        return True

    def extend(i: int) -> PMorphism | None:
        if i == n:
            candidate = PMorphism(source, target, tuple(assignment))
            return candidate if verify_pmorphism(candidate).ok else None
        remaining = n - i
        missing = tn - len(set(assignment))
        if missing > remaining:
            return None
        for v in range(tn):
            if consistent(i, v):
                assignment.append(v)
                found = extend(i + 1)
                if found is not None:
                    return found
                assignment.pop()
        return None

    return extend(0)


def transfer_check(source: Poset, target: Poset, corpus: Iterable[Formula]) -> Report:
    """Every corpus formula valid on the source must be valid on the target."""
    if search_pmorphism(source, target) is None:
        raise PreconditionError("no p-morphism from source onto target exists")
    violations: list[str] = []
    checked = 0
    for f in corpus:
        if theory_contains(source, f):
            checked += 1
            if not theory_contains(target, f):
                violations.append(f"{pretty(f)!r} is valid on the source only")
    return Report(checked=checked, violations=tuple(violations))


def brute_force_exists(source: Poset, target: Poset) -> bool:
    """Oracle: scan all |target|^|source| maps for a valid p-morphism."""
    for mapping in product(range(target.n), repeat=source.n):
        if verify_pmorphism(PMorphism(source, target, mapping)).ok:
            return True
    return False


def pmorphism_to_json(m: PMorphism) -> dict:
    return {
        "source": poset_to_json(m.source),
        "target": poset_to_json(m.target),
        "map": [
            [m.source.elements[i], m.target.elements[v]]
            for i, v in enumerate(m.mapping)
        ],
    }


def pmorphism_from_json(data: object) -> PMorphism:
    if isinstance(data, dict) and "pmorphism" in data:
        data = data["pmorphism"]
    if not isinstance(data, dict) or not {"source", "target", "map"} <= set(data):
        raise InputError('p-morphism JSON needs "source", "target" and "map" keys')
    source = poset_from_json(data["source"])
    target = poset_from_json(data["target"])
    pairs = data["map"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p)
        for p in pairs
    ):
        raise InputError('"map" must be a list of [source, target] pairs of element labels')
    return pmorphism_from_labels(source, target, {a: b for a, b in pairs})


def pmorphism_dumps(m: PMorphism) -> str:
    return json.dumps(pmorphism_to_json(m), sort_keys=True)
