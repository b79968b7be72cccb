"""Brouwer algebras: upset algebras, verification, quotients, intervals.

A Brouwer algebra is a bounded distributive lattice with an implication
where a -> b is the least c with b <= a (+) c.  It is the order-dual of a
Heyting algebra; logical conjunction lands on the lattice join (+) and
disjunction on the meet (x), with 0 the designated "true" value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError, Report
from .order import Poset, bits, upset_masks

MAX_CARRIER = 1 << 10  # keeps the three n*n tables within ~2^20 entries


@dataclass(frozen=True)
class BrouwerAlgebra:
    """Table-based algebra; ``up[i]`` masks the carrier elements >= i."""

    carrier: tuple[str, ...]
    up: tuple[int, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    impl: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    def __post_init__(self) -> None:
        n = len(self.carrier)
        if n == 0:
            raise InputError("empty carrier")
        if n > MAX_CARRIER:
            raise InputError(f"carrier guard: {n} > {MAX_CARRIER}")
        if len(set(self.carrier)) != n:
            raise InputError("duplicate carrier labels")
        # Validates the order axioms.  Set like a field, not through __dict__
        # as cached_property does, which would slow every later field read.
        object.__setattr__(self, "_order", Poset(self.carrier, self.up))
        for name, table in (("join", self.join), ("meet", self.meet), ("impl", self.impl)):
            if len(table) != n or any(len(row) != n for row in table):
                raise InputError(f"{name} table is not total on carrier^2")
            if any(not 0 <= v < n for row in table for v in row):
                raise InputError(f"{name} table holds an out-of-range index")
        if not (0 <= self.bottom < n and 0 <= self.top < n):
            raise InputError("bottom/top out of range")
        for a in range(n):
            for b in range(n):
                if ((self.up[a] >> b) & 1 == 1) != (self.join[a][b] == b):
                    raise InputError(
                        f"stored order disagrees with join table at "
                        f"({self.carrier[a]!r}, {self.carrier[b]!r})"
                    )

    @property
    def n(self) -> int:
        return len(self.carrier)

    @property
    def order(self) -> Poset:
        """The carrier order, built and validated once at construction."""
        return self._order

    @property
    def index(self) -> dict[str, int]:
        return self._order.index

    @property
    def down(self) -> tuple[int, ...]:
        return self._order.down

    def index_of(self, label: str) -> int:
        try:
            return self._order.index[label]
        except KeyError:
            raise InputError(f"unknown carrier element {label!r}") from None

    def leq(self, a: int, b: int) -> bool:
        return (self.up[a] >> b) & 1 == 1


def upset_mask_label(poset: Poset, mask: int) -> str:
    return "{" + ",".join(poset.labels_of(mask)) + "}"


def impl_mask(poset: Poset, a: int, b: int) -> int:
    """The upset {x | every y >= x in a is also in b}."""
    out = 0
    for x in range(poset.n):
        if not (poset.up[x] & a & ~b):
            out |= 1 << x
    return out


def upset_algebra(poset: Poset) -> BrouwerAlgebra:
    """Algebra of all upsets under reverse inclusion.

    0 is the whole space and 1 the empty set; (+) is intersection, (x) is
    union.  Carrier order follows the canonical mask order of
    ``upset_masks``, so the empty upset is always index 0.
    """
    masks = upset_masks(poset)
    if len(masks) > MAX_CARRIER:
        raise InputError(f"carrier guard: {len(masks)} upsets > {MAX_CARRIER}")
    pos = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    up = [0] * n
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mj & ~mi == 0:  # mi >= mj as sets, i.e. i <= j in the algebra
                up[i] |= 1 << j
    join = tuple(tuple(pos[mi & mj] for mj in masks) for mi in masks)
    meet = tuple(tuple(pos[mi | mj] for mj in masks) for mi in masks)
    impl = tuple(tuple(pos[impl_mask(poset, mi, mj)] for mj in masks) for mi in masks)
    return BrouwerAlgebra(
        carrier=tuple(upset_mask_label(poset, m) for m in masks),
        up=tuple(up),
        join=join,
        meet=meet,
        impl=impl,
        bottom=pos[poset.full_mask],
        top=pos[0],
    )


def verify_brouwer(algebra: BrouwerAlgebra) -> Report:
    """Check bounds, lub/glb tables, distributivity and residuation.

    Every violated instance is listed; an empty report certifies a Brouwer
    algebra.  The stored order itself is validated at construction time.
    """
    n = algebra.n
    up, down = algebra.up, algebra.down
    join, meet, impl = algebra.join, algebra.meet, algebra.impl
    car = algebra.carrier
    violations: list[str] = []
    checked = 0

    for x in range(n):
        checked += 2
        if not algebra.leq(algebra.bottom, x):
            violations.append(f"bounds: 0 !<= {car[x]!r}")
        if not algebra.leq(x, algebra.top):
            violations.append(f"bounds: {car[x]!r} !<= 1")

    for a in range(n):
        for b in range(n):
            checked += 2
            ub = up[a] & up[b]
            j = join[a][b]
            if up[j] != ub:
                violations.append(f"join: {car[a]!r} (+) {car[b]!r} = {car[j]!r} is not the lub")
            lb = down[a] & down[b]
            m = meet[a][b]
            if down[m] != lb:
                violations.append(f"meet: {car[a]!r} (x) {car[b]!r} = {car[m]!r} is not the glb")

    for a in range(n):
        for b in range(n):
            for c in range(n):
                checked += 2
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    violations.append(
                        f"distributivity: (x) over (+) fails at "
                        f"({car[a]!r}, {car[b]!r}, {car[c]!r})"
                    )
                if join[a][meet[b][c]] != meet[join[a][b]][join[a][c]]:
                    violations.append(
                        f"distributivity: (+) over (x) fails at "
                        f"({car[a]!r}, {car[b]!r}, {car[c]!r})"
                    )

    # Residuation: b <= a (+) c  iff  a -> b <= c, for all a, b, c.
    for a in range(n):
        for b in range(n):
            checked += 1
            sat = 0
            for c in range(n):
                if algebra.leq(b, join[a][c]):
                    sat |= 1 << c
            e = impl[a][b]
            if not (sat >> e) & 1 or sat & ~up[e]:
                violations.append(
                    f"residuation: {car[a]!r} -> {car[b]!r} = {car[e]!r} is not the "
                    f"least c with {car[b]!r} <= {car[a]!r} (+) c"
                )

    return Report(checked=checked, violations=tuple(violations))


def _restrict(algebra: BrouwerAlgebra, xi: int, reps: list[int], labels: list[str]) -> BrouwerAlgebra:
    """[0, x] tabled on the ascending ``reps``: order, (+) and (x) restricted,
    y ->' z = (y -> z) (x) x, bottom the class of 0 and top x."""
    pos = {r: i for i, r in enumerate(reps)}
    span = sum(1 << r for r in reps)
    up = tuple(sum(1 << pos[s] for s in bits(algebra.up[r] & span)) for r in reps)
    join = tuple(tuple(pos[algebra.join[r][s]] for s in reps) for r in reps)
    meet = tuple(tuple(pos[algebra.meet[r][s]] for s in reps) for r in reps)
    impl = tuple(
        tuple(pos[algebra.meet[algebra.impl[r][s]][xi]] for s in reps) for r in reps
    )
    return BrouwerAlgebra(
        carrier=tuple(labels),
        up=up,
        join=join,
        meet=meet,
        impl=impl,
        bottom=pos[algebra.meet[algebra.bottom][xi]],
        top=pos[xi],
    )


def quotient(algebra: BrouwerAlgebra, x: str) -> BrouwerAlgebra:
    """Factor by the principal filter of x: y ~ z iff y (x) x = z (x) x.

    Classes are represented canonically by y (x) x and labelled ``[...]``,
    so the carrier is the interval [0, x]: ``interval_algebra`` shares the
    builder and differs only in taking its members from the down-cone of
    x.  The induced implication is [(y (x) x) -> (z (x) x)].  The class map
    y |-> [y (x) x] preserves 0, 1, (+) and (x) but not ->: of the 1788
    (upset algebra, x) pairs over posets on at most 4 elements, it fails
    -> on 1078.  Hence the implication is computed on representatives
    rather than read off the class of y -> z.
    """
    xi = algebra.index_of(x)
    reps = sorted({algebra.meet[y][xi] for y in range(algebra.n)})
    return _restrict(algebra, xi, reps, [f"[{algebra.carrier[r]}]" for r in reps])


@dataclass(frozen=True)
class AlgebraHomomorphism:
    """Carrier-to-carrier map between algebras, by index."""

    source: BrouwerAlgebra
    target: BrouwerAlgebra
    mapping: tuple[int, ...]
    is_isomorphism: bool = False

    def verify(self) -> Report:
        src, tgt, f = self.source, self.target, self.mapping
        violations: list[str] = []
        checked = 0
        if len(f) != src.n or any(not 0 <= v < tgt.n for v in f):
            raise InputError("mapping is not total into the target carrier")
        if f[src.bottom] != tgt.bottom:
            violations.append("0 is not preserved")
        if f[src.top] != tgt.top:
            violations.append("1 is not preserved")
        for a in range(src.n):
            for b in range(src.n):
                checked += 3
                if f[src.join[a][b]] != tgt.join[f[a]][f[b]]:
                    violations.append(f"(+) not preserved at ({a}, {b})")
                if f[src.meet[a][b]] != tgt.meet[f[a]][f[b]]:
                    violations.append(f"(x) not preserved at ({a}, {b})")
                if f[src.impl[a][b]] != tgt.impl[f[a]][f[b]]:
                    violations.append(f"-> not preserved at ({a}, {b})")
        if self.is_isomorphism:
            checked += 1
            if len(set(f)) != tgt.n:
                violations.append("flagged isomorphism is not a bijection")
        return Report(checked=checked, violations=tuple(violations))


def interval_algebra(algebra: BrouwerAlgebra, x: str) -> tuple[BrouwerAlgebra, AlgebraHomomorphism]:
    """The algebra on [0, x] with y ->' z = (y -> z) (x) x, plus the
    isomorphism u |-> [u] onto quotient(algebra, x), found by label lookup.

    Same builder as ``quotient``; the members are the down-cone of x and
    keep their carrier labels.
    """
    xi = algebra.index_of(x)
    members = list(bits(algebra.down[xi]))
    interval = _restrict(algebra, xi, members, [algebra.carrier[r] for r in members])
    quot = quotient(algebra, x)
    mapping = tuple(quot.index_of(f"[{algebra.carrier[r]}]") for r in members)
    return interval, AlgebraHomomorphism(interval, quot, mapping, is_isomorphism=True)


def algebra_to_json(algebra: BrouwerAlgebra) -> dict:
    return {
        "carrier": list(algebra.carrier),
        "join": [list(row) for row in algebra.join],
        "meet": [list(row) for row in algebra.meet],
        "impl": [list(row) for row in algebra.impl],
    }


def _index_table(data: dict, name: str) -> tuple[tuple[int, ...], ...]:
    rows = data[name]
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
        for row in rows
    ):
        raise InputError(f'"{name}" must be a list of rows of integer indices')
    return tuple(tuple(row) for row in rows)


def algebra_from_json(data: object) -> BrouwerAlgebra:
    """Rebuild from a dump; the order is derived from the join table."""
    if not isinstance(data, dict):
        raise InputError("algebra JSON must be an object")
    missing = [key for key in ("carrier", "join", "meet", "impl") if key not in data]
    if missing:
        raise InputError(f"algebra JSON is missing {', '.join(missing)}")
    carrier = data["carrier"]
    if not isinstance(carrier, list) or not all(isinstance(e, str) for e in carrier):
        raise InputError('"carrier" must be a list of strings')
    join, meet, impl = (_index_table(data, name) for name in ("join", "meet", "impl"))
    n = len(carrier)
    if len(join) != n or any(len(row) != n for row in join):
        raise InputError("join table is not total on carrier^2")
    up = [0] * n
    for a in range(n):
        for b in range(n):
            if not 0 <= join[a][b] < n:
                raise InputError("join table holds an out-of-range index")
            if join[a][b] == b:
                up[a] |= 1 << b
    bottom = top = None
    full = (1 << n) - 1
    for i in range(n):
        if up[i] == full:
            bottom = i
        if up[i] == 1 << i and all((up[j] >> i) & 1 for j in range(n)):
            top = i
    if bottom is None or top is None:
        raise InputError("join table does not define a bounded order")
    return BrouwerAlgebra(tuple(carrier), tuple(up), join, meet, impl, bottom, top)


def algebra_dumps(algebra: BrouwerAlgebra) -> str:
    return json.dumps(algebra_to_json(algebra), sort_keys=True)
