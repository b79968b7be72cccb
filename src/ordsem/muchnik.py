"""Finite simulation of the Muchnik lattice over a degree poset.

Each poset element stands for a function at its Turing degree; a mass
problem is a subset of them.  A <=_w B holds when every member of B lies
above some member of A.  Over a join-semilattice the set of degrees is
the upset algebra of the poset, with the upward closure C(A) as the
canonical representative of A's degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .brouwer import impl_mask, upset_algebra
from .errors import CapacityError, InputError, Report, StructureError
from .order import (
    Poset,
    bits,
    closure_mask,
    join_index,
    upset_masks,
)

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


class _Degrees:
    """The degree operations of one poset, on masks.

    Every public operation goes through here.  Reducibility is read off the
    down-cones: g computes some f in A iff ``down[g] & A``, which is never
    derived from ``closure_mask``, so ``iso_check`` compares two routes.
    """

    def __init__(self, poset: Poset) -> None:
        self.poset = poset
        self.down = poset.down

    @cached_property
    def joins(self) -> tuple[tuple[int | None, ...], ...]:
        """Join indices, n x n, None where a join is missing."""
        n = self.poset.n
        return tuple(
            tuple(join_index(self.poset, i, j) for j in range(n)) for i in range(n)
        )

    def reach(self, a: int) -> int:
        """The degrees g that compute some f in A."""
        out = 0
        for g, cone in enumerate(self.down):
            if cone & a:
                out |= 1 << g
        return out

    def leq(self, a: int, b: int) -> bool:
        return not b & ~self.reach(a)

    def ops(self, a: int, b: int) -> tuple[int, int, int]:
        """(+), (x) and -> of A and B.

        A missing join raises only when it is read, in the order
        f in A, g in B for (+), then g ascending, f in A for ->.
        """
        joins, down = self.joins, self.down
        members = tuple(bits(a))
        jmask = 0
        for f in members:
            row = joins[f]
            for g in bits(b):
                k = row[g]
                if k is None:
                    raise self._missing(f, g)
                jmask |= 1 << k
        imask = 0
        for g in range(self.poset.n):
            for f in members:
                k = joins[f][g]
                if k is None:
                    raise self._missing(f, g)
                if not down[k] & b:
                    break
            else:
                imask |= 1 << g
        return jmask, a | b, imask

    def _missing(self, f: int, g: int) -> StructureError:
        elements = self.poset.elements
        return StructureError(f"no join for ({elements[f]!r}, {elements[g]!r})")


def muchnik_leq(a: MassProblem, b: MassProblem) -> bool:
    """A <=_w B: every g in B computes some f in A."""
    return _Degrees(_same_poset(a, b)).leq(a.mask, b.mask)


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
    join, meet, impl = _Degrees(poset).ops(a.mask, b.mask)
    return MuchnikOps(
        join=MassProblem(poset, join),
        meet=MassProblem(poset, meet),
        impl=MassProblem(poset, impl),
    )


def iso_check(poset: Poset) -> Report:
    """Exhaustively verify the correspondence with the upset algebra.

    Over all 2^|X| mass problems: A is equivalent to C(A); degrees biject
    with upsets; order and the three operations transfer to the upset
    algebra's tables.  Once per poset it computes the join indices (a
    missing one refuses the poset), C(A) and the reach of every A (the
    degrees computing some member of A); order is read through the
    down-cones, independently of the closure it is checked against.  One
    pass over the pairs computes each pair's operations once and checks
    them against the upset masks and against the algebra's tables; table
    violations are listed after the others.
    """
    if poset.n > MAX_ISO_ELEMENTS:
        raise CapacityError(
            f"iso check guard: {poset.n} elements > {MAX_ISO_ELEMENTS}"
        )
    degrees = _Degrees(poset)
    if any(None in row for row in degrees.joins):
        raise StructureError("degree poset is missing joins (not a join-semilattice)")

    algebra = upset_algebra(poset)
    # Carrier order of upset_algebra is the canonical mask order, so the
    # algebra index of an upset mask can be recovered positionally.
    masks = upset_masks(poset)
    pos = {m: i for i, m in enumerate(masks)}
    problems = range(poset.full_mask + 1)
    closure = [closure_mask(poset, a) for a in problems]
    reach = [degrees.reach(a) for a in problems]

    def on(a: int, b: int) -> str:
        return f"A={poset.labels_of(a)}, B={poset.labels_of(b)}"

    violations: list[str] = []
    table_violations: list[str] = []
    checked = 0

    for a in problems:
        checked += 2
        c = closure[a]
        if c & ~reach[a] or a & ~reach[c]:
            violations.append(f"A != C(A) for A={poset.labels_of(a)}")
        if c not in pos:
            violations.append(f"C(A) is not an upset for A={poset.labels_of(a)}")

    for a in problems:
        ca, ra = closure[a], reach[a]
        for b in problems:
            checked += 6
            cb = closure[b]
            a_leq_b = not b & ~ra
            if (a_leq_b and not a & ~reach[b]) != (ca == cb):
                violations.append(f"degree bijection fails on {on(a, b)}")
            if a_leq_b != (cb & ~ca == 0):
                violations.append(f"order transfer fails on {on(a, b)}")
            jmask, mmask, imask = degrees.ops(a, b)
            cj, cm, ci = closure[jmask], closure[mmask], closure[imask]
            if cj != ca & cb:
                violations.append(f"(+) transfer fails on {on(a, b)}")
            if cm != ca | cb:
                violations.append(f"(x) transfer fails on {on(a, b)}")
            if ci != impl_mask(poset, ca, cb):
                violations.append(f"-> transfer fails on {on(a, b)}")
            # The table route must agree with the mask route.
            ia, ib = pos[ca], pos[cb]
            if (
                pos[cj] != algebra.join[ia][ib]
                or pos[cm] != algebra.meet[ia][ib]
                or pos[ci] != algebra.impl[ia][ib]
            ):
                table_violations.append(f"algebra table transfer fails on {on(a, b)}")

    return Report(checked=checked, violations=tuple(violations + table_violations))
