"""p-morphisms between finite Kripke frames: verify, search, transfer.

A surjective monotone map with the back condition transfers frame
validity from its source to its target, so a found morphism turns one
frame's theory into an upper bound for the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapacityError, InputError, InvariantViolation, PreconditionError, Report
from .formulas import Formula, pretty
from .order import Poset, bits
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


def pmorphism_from_labels(
    source: Poset, target: Poset, mapping: Mapping[str, str]
) -> PMorphism:
    missing = set(source.elements) - set(mapping)
    if missing:
        raise InputError(f"map is not total; missing {sorted(missing)}")
    unknown = set(mapping) - set(source.elements)
    if unknown:
        raise InputError(f"map names unknown source elements {sorted(unknown)}")
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
    candidates ascending.  An element's candidates are one mask: the
    targets above the images of the placed elements below it and below
    the images of the placed elements above it, so every partial map is
    monotone.  The back condition at x is checked as soon as the last
    element of x's up-cone is placed: the cone's image must be the whole
    up-cone of x's image.  A branch is cut when more targets are still
    unhit than source elements are still unplaced.  Every cut drops only
    maps that fail, so the first complete map is the first p-morphism;
    it is verified once before it is returned.
    """
    if source.n > MAX_SEARCH_SOURCE:
        raise CapacityError(
            f"search guard: {source.n} source elements > {MAX_SEARCH_SOURCE}"
        )
    n, full = source.n, target.full_mask
    t_up, t_down = target.up, target.down
    # the placed elements below and above i, and the x whose up-cone ends at i
    below = [list(bits(source.down[i] & ((1 << i) - 1))) for i in range(n)]
    above = [list(bits(source.up[i] & ((1 << i) - 1))) for i in range(n)]
    closes: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for x, cone in enumerate(source.up):
        closes[cone.bit_length() - 1].append((x, list(bits(cone))))
    f = [0] * n

    def image(cone: list[int]) -> int:
        out = 0
        for w in cone:
            out |= 1 << f[w]
        return out

    def extend(i: int, hit: int) -> bool:
        if (full & ~hit).bit_count() > n - i:
            return False
        if i == n:
            return True
        candidates = full
        for j in below[i]:
            candidates &= t_up[f[j]]
        for j in above[i]:
            candidates &= t_down[f[j]]
        for v in bits(candidates):
            f[i] = v
            if all(image(cone) == t_up[f[x]] for x, cone in closes[i]) and extend(
                i + 1, hit | 1 << v
            ):
                return True
        return False

    if not extend(0, 0):
        return None
    found = PMorphism(source, target, tuple(f))
    report = verify_pmorphism(found)
    if not report.ok:
        raise InvariantViolation(f"search returned a map that fails: {report.violations[0]}")
    return found


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
