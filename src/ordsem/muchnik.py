"""Finite simulation of the Muchnik lattice over a degree poset.

Each poset element stands for a function at its Turing degree; a mass
problem is a subset of them.  A <=_w B holds when every member of B lies
above some member of A.  Over a join-semilattice the set of degrees is
the upset algebra of the poset, with the upward closure C(A) as the
canonical representative of A's degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .brouwer import impl_mask, upset_algebra, upset_mask_label
from .errors import CapacityError, InputError, Report, StructureError
from .order import Poset, bits, closure_mask, is_join_semilattice, join_index

MAX_ISO_ELEMENTS = 5


@dataclass(frozen=True)
class MassProblem:
    """Subset of the degree poset; empty is allowed (the top degree)."""

    poset: Poset
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.poset.full_mask:
            raise InputError("mass problem mentions unknown elements")

    @property
    def members(self) -> tuple[str, ...]:
        return self.poset.labels_of(self.mask)


def mass_problem(poset: Poset, members: Iterable[str]) -> MassProblem:
    return MassProblem(poset, poset.mask_of(members))


def _same_poset(a: MassProblem, b: MassProblem) -> Poset:
    if a.poset != b.poset:
        raise InputError("mass problems live over different posets")
    return a.poset


def muchnik_leq(a: MassProblem, b: MassProblem) -> bool:
    """A <=_w B: every g in B computes some f in A."""
    poset = _same_poset(a, b)
    return all(poset.down[g] & a.mask for g in bits(b.mask))


def muchnik_equiv(a: MassProblem, b: MassProblem) -> bool:
    return muchnik_leq(a, b) and muchnik_leq(b, a)


def canonical_degree(a: MassProblem) -> MassProblem:
    """C(A), the upward closure; the degree's canonical representative."""
    return MassProblem(a.poset, closure_mask(a.poset, a.mask))


class MuchnikOps(NamedTuple):
    join: MassProblem
    meet: MassProblem
    impl: MassProblem


def muchnik_ops(a: MassProblem, b: MassProblem) -> MuchnikOps:
    """The three lattice operations; needs all pairwise joins in the poset."""
    poset = _same_poset(a, b)

    def joined(i: int, j: int) -> int:
        k = join_index(poset, i, j)
        if k is None:
            raise StructureError(
                f"no join for ({poset.elements[i]!r}, {poset.elements[j]!r})"
            )
        return k

    jmask = 0
    for f in bits(a.mask):
        for g in bits(b.mask):
            jmask |= 1 << joined(f, g)
    imask = 0
    for g in range(poset.n):
        if all(poset.down[joined(f, g)] & b.mask for f in bits(a.mask)):
            imask |= 1 << g
    return MuchnikOps(
        join=MassProblem(poset, jmask),
        meet=MassProblem(poset, a.mask | b.mask),
        impl=MassProblem(poset, imask),
    )


def iso_check(poset: Poset) -> Report:
    """Exhaustively verify the correspondence with the upset algebra.

    Over all 2^|X| mass problems: A is equivalent to C(A); degrees biject
    with upsets; order and the three operations transfer to the upset
    algebra's tables.
    """
    if poset.n > MAX_ISO_ELEMENTS:
        raise CapacityError(
            f"iso check guard: {poset.n} elements > {MAX_ISO_ELEMENTS}"
        )
    if not is_join_semilattice(poset):
        raise StructureError("degree poset is missing joins (not a join-semilattice)")

    algebra = upset_algebra(poset)
    # Carrier order of upset_algebra is the canonical mask order, so the
    # algebra index of an upset mask can be recovered positionally.
    from .order import upset_masks

    masks = upset_masks(poset)
    pos = {m: i for i, m in enumerate(masks)}

    violations: list[str] = []
    checked = 0
    problems = [MassProblem(poset, m) for m in range(poset.full_mask + 1)]

    for a in problems:
        checked += 2
        c = canonical_degree(a)
        if not (muchnik_leq(a, c) and muchnik_leq(c, a)):
            violations.append(f"A != C(A) for A={a.members}")
        if c.mask not in pos:
            violations.append(f"C(A) is not an upset for A={a.members}")

    for a in problems:
        for b in problems:
            checked += 5
            ca, cb = canonical_degree(a).mask, canonical_degree(b).mask
            if muchnik_equiv(a, b) != (ca == cb):
                violations.append(
                    f"degree bijection fails on A={a.members}, B={b.members}"
                )
            if muchnik_leq(a, b) != (cb & ~ca == 0):
                violations.append(
                    f"order transfer fails on A={a.members}, B={b.members}"
                )
            ops = muchnik_ops(a, b)
            if canonical_degree(ops.join).mask != ca & cb:
                violations.append(
                    f"(+) transfer fails on A={a.members}, B={b.members}"
                )
            if canonical_degree(ops.meet).mask != ca | cb:
                violations.append(
                    f"(x) transfer fails on A={a.members}, B={b.members}"
                )
            if canonical_degree(ops.impl).mask != impl_mask(poset, ca, cb):
                violations.append(
                    f"-> transfer fails on A={a.members}, B={b.members}"
                )

    # The table route must agree with the mask route.
    for a in problems:
        for b in problems:
            checked += 1
            ia = pos[canonical_degree(a).mask]
            ib = pos[canonical_degree(b).mask]
            ops = muchnik_ops(a, b)
            if (
                pos[canonical_degree(ops.join).mask] != algebra.join[ia][ib]
                or pos[canonical_degree(ops.meet).mask] != algebra.meet[ia][ib]
                or pos[canonical_degree(ops.impl).mask] != algebra.impl[ia][ib]
            ):
                violations.append(
                    f"algebra table transfer fails on A={a.members}, B={b.members}"
                )

    return Report(checked=checked, violations=tuple(violations))


def mass_problem_to_json(a: MassProblem) -> dict:
    from .order import poset_to_json

    return {"poset": poset_to_json(a.poset), "members": list(a.members)}


def mass_problem_from_json(data: object) -> MassProblem:
    from .order import poset_from_json

    if not isinstance(data, dict) or "poset" not in data or "members" not in data:
        raise InputError('mass problem JSON needs "poset" and "members" keys')
    poset = poset_from_json(data["poset"])
    return mass_problem(poset, data["members"])
