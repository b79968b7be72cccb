"""Brouwer algebras: upset algebras, verification, quotients, intervals.

A Brouwer algebra is a bounded distributive lattice with an implication
where a -> b is the least c with b <= a (+) c.  It is the order-dual of a
Heyting algebra; logical conjunction lands on the lattice join (+) and
disjunction on the meet (x), with 0 the designated "true" value.
Tables are validated once, where they enter from outside, by the public
constructor; the library's own builders gather theirs and call
``_assemble``, whose skipped checks hold by construction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable

from .errors import InputError, Report
from .order import Poset, bits, upper_covers, upset_masks

MAX_CARRIER = 1 << 10  # keeps the three n*n tables within ~2^20 entries
_QUOTED = frozenset(',{}"\\')  # an upset label quotes a member holding one


@dataclass(frozen=True)
class BrouwerAlgebra:
    """A carrier and its (+), (x) and -> tables, by carrier index.

    The order, 0 and 1 are read off the join table once, at construction:
    a <= b iff a (+) b = b, so ``up[a]`` masks the b with join[a][b] == b;
    0 is the element below all others and 1 the element above them.
    Construction checks the guard, labels, tables, bounds and order
    axioms; the Brouwer axioms are ``verify_brouwer``'s.
    """

    carrier: tuple[str, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    impl: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.carrier)
        if n > MAX_CARRIER:
            raise InputError(f"carrier guard: {n} > {MAX_CARRIER}")
        if len(set(self.carrier)) != n:
            raise InputError("duplicate carrier labels")
        for name, table in (("join", self.join), ("meet", self.meet), ("impl", self.impl)):
            if len(table) != n or any(len(row) != n for row in table):
                raise InputError(f"{name} table is not total on carrier^2")
            if any(not 0 <= v < n for row in table for v in row):
                raise InputError(f"{name} table holds an out-of-range index")
        _settle(self, _up_cones(self.join))
        self._order.__post_init__()  # the order axioms, after the bounds as before

    @property
    def up(self) -> tuple[int, ...]:
        """``up[i]`` masks the carrier elements >= i."""
        return self._order.up

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
        return (self._order.up[a] >> b) & 1 == 1


def _up_cones(join: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The up-cones read off a join table: b >= a iff join[a][b] == b."""
    return tuple(sum(1 << b for b, j in enumerate(row) if j == b) for row in join)


def _settle(algebra: BrouwerAlgebra, up: tuple[int, ...]) -> None:
    """Check the bounds of ``up``; set the order (unchecked), 0 and 1 like fields,
    not through __dict__ as cached_property does, slowing later field reads."""
    full = (1 << len(up)) - 1
    above_all = reduce(and_, up, full)  # the elements whose down-cone is full
    if full not in up or not above_all:
        raise InputError("join table does not define a bounded order")
    order = object.__new__(Poset)
    object.__setattr__(order, "elements", algebra.carrier)
    object.__setattr__(order, "up", up)
    object.__setattr__(algebra, "_order", order)
    object.__setattr__(algebra, "bottom", up.index(full))
    object.__setattr__(algebra, "top", above_all.bit_length() - 1)


def _assemble(carrier, join, meet, impl, up) -> BrouwerAlgebra:
    """An algebra from tables the library gathered itself, checking only
    what can fail, with the constructor's messages: distinct labels (a
    relabelling takes them from its caller) and the bounds (a non-Brouwer
    algebra's restriction can lack them).  Every cell was read through a
    position map onto the carrier, so the tables are total and in range,
    and ``up`` is a partial order: mask inclusion, a validated order
    restricted to the representatives, or a validated order kept."""
    if len(set(carrier)) != len(carrier):
        raise InputError("duplicate carrier labels")
    out = object.__new__(BrouwerAlgebra)
    for name, value in (("carrier", carrier), ("join", join), ("meet", meet), ("impl", impl)):
        object.__setattr__(out, name, value)
    _settle(out, up)
    return out


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
    ``upset_masks``, so the empty upset is always index 0.  Upsets are
    labelled by ``upset_labels``.
    """
    masks = upset_masks(poset)
    if len(masks) > MAX_CARRIER:
        raise InputError(f"carrier guard: {len(masks)} upsets > {MAX_CARRIER}")
    pos = {m: i for i, m in enumerate(masks)}
    join = tuple(tuple([pos[mi & mj] for mj in masks]) for mi in masks)
    meet = tuple(tuple([pos[mi | mj] for mj in masks]) for mi in masks)
    implied: dict[int, int] = {}  # a & ~b -> index of a -> b, which reads only a & ~b
    impl = []
    for mi in masks:
        rest = [mi & ~mj for mj in masks]
        implied.update((d, pos[impl_mask(poset, d, 0)]) for d in set(rest).difference(implied))
        impl.append(tuple([implied[d] for d in rest]))
    return _assemble(upset_labels(poset, masks), join, meet, tuple(impl), _up_cones(join))


def upset_labels(poset: Poset, masks: Iterable[int]) -> tuple[str, ...]:
    """Each upset's label ``{a,b}``: its members in element order, a member
    written as a JSON string when its label holds one of ``,{}"\\``, so
    distinct upsets have distinct labels."""
    members = [json.dumps(e) if not _QUOTED.isdisjoint(e) else e for e in poset.elements]
    return tuple("{" + ",".join([members[i] for i in bits(m)]) + "}" for m in masks)


def _dual(algebra: BrouwerAlgebra) -> tuple[Poset, tuple[int, ...]]:
    """The dual frame M of the algebra's order, and each element's upset.

    M is the elements with exactly one upper cover, in carrier order and
    ordered as in the algebra; a stands for {m in M : a <= m}, so 0 for M
    and 1 for the empty upset.  The order is a distributive lattice, or
    else ``InputError``, exactly when a |-> upset is an order-reversing
    bijection onto Up(M): the n upsets are distinct, and closed under
    union with each principal upset, which builds every upset from the
    empty one, and that union is the upset of an element below.  An
    8-element order that is no lattice passes all but the last check.
    """
    up = algebra.up
    covers = upper_covers(algebra.order)
    points = sorted(m for m, count in Counter(x for x, _ in covers).items() if count == 1)
    values = [0] * algebra.n
    for i, m in enumerate(points):
        values[m] = 1 << i
    for a, c in covers:  # a's upset holds its covers' upsets
        values[a] |= values[c]
    cones = tuple(values[m] for m in points)
    element = {v: a for a, v in enumerate(values)}
    if len(element) != algebra.n or not all(
        v | c in element and up[element[v | c]] >> a & 1 for v, a in element.items() for c in cones
    ):
        raise InputError("the order of the join table is not a distributive lattice")
    return Poset(tuple(algebra.carrier[m] for m in points), cones), tuple(values)


def _distributive(algebra: BrouwerAlgebra) -> bool:
    """Whether ``_dual`` accepts the order: then it is a distributive lattice."""
    try:
        return bool(_dual(algebra))
    except InputError:
        return False


def _unadjoint_rows(algebra: BrouwerAlgebra) -> list[int]:
    """The rows a on which a -> . is not left adjoint to a (+) . : the unit
    b <= a (+) (a -> b), the counit a -> (a (+) b) <= b, or monotonicity of
    a -> . along every cover y < x fails.  With (+) the lub, the adjunction
    on row a is residuation on row a, and on every row it makes a (+) .
    preserve (x), so the lattice distributive, whose covers are hypercube
    edges, at most n log2 n / 2: a Brouwer algebra passes in O(n^2 log n)."""
    up, join, impl = algebra.up, algebra.join, algebra.impl
    edges = upper_covers(algebra.order)
    return [
        a for a, (ja, ia) in enumerate(zip(join, impl))
        if not (
            all(up[b] >> ja[c] & 1 for b, c in enumerate(ia))
            and all(up[ia[c]] >> b & 1 for b, c in enumerate(ja))
            and all(up[ia[y]] >> ia[x] & 1 for y, x in edges)
        )
    ]


def verify_brouwer(algebra: BrouwerAlgebra) -> Report:
    """Check lub/glb tables, distributivity and residuation.

    Every violated instance is listed; an empty report certifies a Brouwer
    algebra.  The order, 0 and 1 are read off the join table and validated
    at construction time, so the bounds hold by then.  The lub/glb tables
    are checked pair by pair in O(n^2), then residuation row by row by the
    adjunction (``_unadjoint_rows``).  Only what fails is listed instance by
    instance: the O(n^3) distributivity clauses when lub/glb fail or
    ``_dual`` refuses the order, and the O(n^2) residuation clause on the
    rows whose adjunction fails, or on every row when lub/glb fail.
    ``checked`` counts the instances the clauses stand for, bounds
    included, 2n + 3n^2 + 2n^3, on every route.
    """
    n = algebra.n
    up, down = algebra.up, algebra.down
    join, meet, impl = algebra.join, algebra.meet, algebra.impl
    car = algebra.carrier
    violations: list[str] = []

    for a in range(n):
        for b in range(n):
            ub = up[a] & up[b]
            j = join[a][b]
            if up[j] != ub:
                violations.append(f"join: {car[a]!r} (+) {car[b]!r} = {car[j]!r} is not the lub")
            lb = down[a] & down[b]
            m = meet[a][b]
            if down[m] != lb:
                violations.append(f"meet: {car[a]!r} (x) {car[b]!r} = {car[m]!r} is not the glb")

    lattice = not violations
    rows = _unadjoint_rows(algebra) if lattice else range(n)
    if rows and not (lattice and _distributive(algebra)):
        for a in range(n):
            for b in range(n):
                for c in range(n):
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
    for a in rows:
        for b in range(n):
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

    return Report(checked=2 * n + 3 * n * n + 2 * n**3, violations=tuple(violations))


def _restrict(algebra: BrouwerAlgebra, xi: int, column: list[int], reps: list[int]) -> BrouwerAlgebra:
    """[0, x] on the ascending ``reps``, labelled ``[...]``: (+) and (x)
    restricted, y ->' z = (y -> z) (x) x read through the class ``column``
    y |-> y (x) x, and the order, 0 and 1 (x) read off the restricted join.
    A (+) or (x) cell of two representatives that is no representative,
    which a Brouwer algebra never has, raises ``InputError`` naming it."""
    pos = {r: i for i, r in enumerate(reps)}

    def gather(table, cell):  # cell[table[r][s]] over the representatives r, s
        return tuple(tuple([cell[row[s]] for s in reps]) for row in map(table.__getitem__, reps))

    try:
        join, meet = gather(algebra.join, pos), gather(algebra.meet, pos)
    except KeyError:
        raise InputError(_stray_cell(algebra, xi, reps)) from None
    impl = gather(algebra.impl, [pos[c] for c in column])
    labels = tuple(f"[{algebra.carrier[r]}]" for r in reps)
    return _assemble(labels, join, meet, impl, _up_cones(join))


def _stray_cell(algebra: BrouwerAlgebra, xi: int, reps: list[int]) -> str:
    """The first (+) or (x) cell of two representatives that lands outside
    them, for an error message; called once such a cell was met."""
    members = set(reps)
    name, r, s, value = next(
        (name, r, s, table[r][s])
        for name, table in (("(+)", algebra.join), ("(x)", algebra.meet))
        for r in reps
        for s in reps
        if table[r][s] not in members
    )
    label = algebra.carrier
    return (
        f"{label[r]} {name} {label[s]} = {label[value]} is not y (x) {label[xi]} "
        "for any y: not a Brouwer algebra"
    )


def _classes(algebra: BrouwerAlgebra, xi: int) -> tuple[list[int], list[int]]:
    """The class column y |-> y (x) x and its ascending values, the classes."""
    column = [row[xi] for row in algebra.meet]
    return column, sorted(set(column))


def quotient(algebra: BrouwerAlgebra, x: str) -> BrouwerAlgebra:
    """Factor by the principal filter of x: y ~ z iff y (x) x = z (x) x.

    Classes are represented canonically by y (x) x and labelled ``[...]``,
    so the carrier is the interval [0, x]; ``interval_algebra`` returns
    this same algebra under its members' plain labels.  The induced
    implication is [(y (x) x) -> (z (x) x)].  The class map
    y |-> [y (x) x] preserves 0, 1, (+) and (x) but not ->: of the 1788
    (upset algebra, x) pairs over posets on at most 4 elements, it fails
    -> on 1078.  Hence the implication is computed on representatives
    rather than read off the class of y -> z.

    The input is not verified: one whose (+) or (x) sends two classes
    outside the classes raises ``InputError``, but another non-Brouwer
    input may still give a non-Brouwer quotient.  ``ordsem algebra
    quotient`` verifies its input first.
    """
    xi = algebra.index_of(x)
    column, reps = _classes(algebra, xi)
    return _restrict(algebra, xi, column, reps)


def _relabel(algebra: BrouwerAlgebra, labels: tuple[str, ...]) -> BrouwerAlgebra:
    """``algebra`` under other carrier labels, sharing its table objects
    and order cones.  Theory tables (``_tables``) are not carried over; a
    structure's answers stay its own."""
    if len(labels) != algebra.n:
        raise InputError(f"{len(labels)} labels for {algebra.n} carrier elements")
    return _assemble(labels, algebra.join, algebra.meet, algebra.impl, algebra.up)


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
    isomorphism u |-> [u] onto quotient(algebra, x).

    When (x) is the glb, the classes y (x) x are exactly the down-cone of
    x, in the same ascending order, so the interval is the quotient with
    its brackets dropped: its tables are built once and the isomorphism
    is the identity on indices.  An algebra whose classes are not the
    down-cone of x is refused with ``InputError``.
    """
    xi = algebra.index_of(x)
    column, members = _classes(algebra, xi)
    if members != list(bits(algebra.down[xi])):
        raise InputError(f"the classes of {x!r} are not its down-cone: (x) is not the glb")
    quot = _restrict(algebra, xi, column, members)
    interval = _relabel(quot, tuple(algebra.carrier[r] for r in members))
    return interval, AlgebraHomomorphism(interval, quot, tuple(range(quot.n)), is_isomorphism=True)
