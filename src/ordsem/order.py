"""Finite posets, upsets and small-poset enumeration.

Elements are opaque string labels.  The order relation is stored fully
closed (reflexive-transitive), so ``leq`` is a table lookup.  Subsets are
bit-sets: bit ``i`` of a mask stands for ``elements[i]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator

from .errors import CapacityError, InputError

MAX_UPSET_ELEMENTS = 20
MAX_GENERATE = 5


@dataclass(frozen=True)
class Poset:
    """Finite partial order.  ``up[i]`` is the mask of all j with i <= j."""

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InputError("duplicate element labels")
        if len(self.up) != n:
            raise InputError("up-cone table does not match element count")
        full = (1 << n) - 1
        for i, cone in enumerate(self.up):
            if cone & ~full:
                raise InputError(f"up-cone of {self.elements[i]!r} mentions unknown elements")
            if not (cone >> i) & 1:
                raise InputError(f"order not reflexive at {self.elements[i]!r}")
        for i, cone in enumerate(self.up):  # both clauses need i <= j
            for j in bits(cone):
                if i != j and (self.up[j] >> i) & 1:
                    raise InputError(
                        f"order not antisymmetric on ({self.elements[i]!r}, {self.elements[j]!r})"
                    )
                if self.up[j] & ~cone:
                    raise InputError(
                        f"order not transitive at ({self.elements[i]!r}, {self.elements[j]!r})"
                    )

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        """``down[i]`` is the mask of all j with j <= i (transpose of up)."""
        cones = [0] * self.n
        for i, cone in enumerate(self.up):
            for j in bits(cone):
                cones[j] |= 1 << i
        return tuple(cones)

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown element {label!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return (self.up[self.index_of(a)] >> self.index_of(b)) & 1 == 1

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(mask))

    def cover_pairs(self) -> list[tuple[str, str]]:
        """Edges of the Hasse diagram (transitive reduction), a < b pairs."""
        return [(self.elements[x], self.elements[y]) for x, y in sorted(upper_covers(self))]


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def upper_covers(poset: Poset) -> list[tuple[int, int]]:
    """The pairs (x, y) with y an upper cover of x, each point's after those
    of the points above it: a strict successor has the smaller up-cone."""
    up = poset.up
    out = []
    for x in sorted(range(poset.n), key=lambda x: up[x].bit_count()):
        least = rest = up[x] & ~(1 << x)
        while rest:  # drop what lies above each candidate left, lowest first
            low = rest & -rest
            least &= ~up[low.bit_length() - 1] | low
            rest = least & -(low << 1)
        while least:
            low = least & -least
            out.append((x, low.bit_length() - 1))
            least ^= low
    return out


@dataclass(frozen=True)
class Upset:
    """Upward-closed subset of a poset, held as a bit-set."""

    poset: Poset
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.poset.full_mask:
            raise InputError("upset mentions unknown elements")
        if not _is_upset_mask(self.poset, self.mask):
            members = self.poset.labels_of(self.mask)
            raise InputError(f"{members} is not upward closed")

    @property
    def members(self) -> tuple[str, ...]:
        return self.poset.labels_of(self.mask)

    def __contains__(self, label: str) -> bool:
        return (self.mask >> self.poset.index_of(label)) & 1 == 1


def _is_upset_mask(poset: Poset, mask: int) -> bool:
    for i in bits(mask):
        if poset.up[i] & ~mask:
            return False
    return True


def is_upset(poset: Poset, subset: Iterable[str]) -> bool:
    """True iff the subset is upward closed in the poset."""
    return _is_upset_mask(poset, poset.mask_of(subset))


def upward_closure(poset: Poset, subset: Iterable[str]) -> Upset:
    """Least upset containing the subset (union of the members' up-cones)."""
    mask = 0
    for label in subset:
        mask |= poset.up[poset.index_of(label)]
    return Upset(poset, mask)


def closure_mask(poset: Poset, mask: int) -> int:
    out = 0
    for i in bits(mask):
        out |= poset.up[i]
    return out


def upset_masks(poset: Poset) -> tuple[int, ...]:
    """All upward-closed subsets as masks, ascending; includes 0 and X.

    Elements are decided maximal-first, so only genuine upsets are built;
    the poset must stay within the enumeration guard.
    """
    if poset.n > MAX_UPSET_ELEMENTS:
        raise CapacityError(
            f"upset enumeration guard: {poset.n} elements > {MAX_UPSET_ELEMENTS}"
        )
    # Sorting by up-cone size puts every element after all of its strict
    # successors, so inclusion of i only needs already-decided elements.
    order = sorted(range(poset.n), key=lambda i: (bin(poset.up[i]).count("1"), i))
    found: list[int] = []

    def extend(pos: int, current: int) -> None:
        if pos == len(order):
            found.append(current)
            return
        i = order[pos]
        extend(pos + 1, current)
        if not (poset.up[i] & ~(current | (1 << i))):
            extend(pos + 1, current | (1 << i))

    extend(0, 0)
    return tuple(sorted(found))


def enumerate_upsets(poset: Poset) -> list[Upset]:
    """Every upset of the poset exactly once, in canonical (mask) order."""
    return [Upset(poset, mask) for mask in upset_masks(poset)]


def join(poset: Poset, a: str, b: str) -> str | None:
    """Least upper bound of {a, b}, or None when it does not exist."""
    i = join_index(poset, poset.index_of(a), poset.index_of(b))
    return None if i is None else poset.elements[i]


def join_index(poset: Poset, i: int, j: int) -> int | None:
    ub = poset.up[i] & poset.up[j]
    for k in bits(ub):
        if poset.up[k] == ub:
            return k
    return None


def is_join_semilattice(poset: Poset) -> bool:
    """True iff every pair of elements has a least upper bound."""
    return all(
        join_index(poset, i, j) is not None
        for i in range(poset.n)
        for j in range(i + 1, poset.n)
    )


def from_relation(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from a generating relation; closes and validates."""
    elems = tuple(elements)
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise InputError("duplicate element labels")
    cones = [1 << i for i in range(len(elems))]
    for a, b in pairs:
        if a not in index or b not in index:
            raise InputError(f"relation pair ({a!r}, {b!r}) mentions unknown elements")
        cones[index[a]] |= 1 << index[b]
    for k in range(len(elems)):  # Warshall: round k adds the paths through k
        for i in range(len(elems)):
            if cones[i] >> k & 1:
                cones[i] |= cones[k]
    return Poset(elems, tuple(cones))


def generate_posets(n: int) -> Iterator[Poset]:
    """All labeled posets on n elements, each exactly once.

    Every unordered pair independently gets one of three states (unrelated,
    i < j, j < i); assignments failing transitivity are dropped, so the
    stream is duplicate-free.
    """
    pairs = _pair_list(n)
    for choice in product((0, 1, 2), repeat=len(pairs)):
        poset = _poset_of_choice(n, pairs, choice)
        if poset is not None:
            yield poset


def random_posets(n: int, count: int, seed: int) -> list[Poset]:
    """Seeded sample of labeled posets on n elements (rejection sampling)."""
    pairs = _pair_list(n)
    rng = random.Random(seed)
    out: list[Poset] = []
    while len(out) < count:
        poset = _poset_of_choice(n, pairs, [rng.randrange(3) for _ in pairs])
        if poset is not None:
            out.append(poset)
    return out


def _pair_list(n: int) -> list[tuple[int, int]]:
    if not 1 <= n <= MAX_GENERATE:
        raise CapacityError(f"poset generation guard: n={n} outside 1..{MAX_GENERATE}")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _poset_of_choice(n: int, pairs: list[tuple[int, int]], choice: Iterable[int]) -> Poset | None:
    """The poset on labels a, b, ... whose pair (i, j) is unrelated (0),
    i < j (1) or j < i (2), or None when that relation is not transitive."""
    cones = [1 << i for i in range(n)]
    for (i, j), c in zip(pairs, choice):
        if c == 1:
            cones[i] |= 1 << j
        elif c == 2:
            cones[j] |= 1 << i
    for cone in cones:
        for j in bits(cone):
            if cones[j] & ~cone:
                return None
    return Poset(tuple(chr(ord("a") + i) for i in range(n)), tuple(cones))
