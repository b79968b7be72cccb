"""Splitting classes and the staged p-morphism onto finite binary trees.

The abstract interface captures a countable, downward-closed class inside
an ambient join-semilattice in which every class element can be split:
two extensions whose join leaves the class, avoiding joins into the class
with finitely many prescribed elements.  Such a class maps p-morphically
onto every finite binary tree; `build_pmorphism` runs that construction
one requirement at a time so each stage can be checked.

The concrete model works with finite antichains of finite sequences over
the naturals, ordered by prefix-domination (every member of the smaller
antichain is a prefix of some member of the larger).  The class is the
singleton antichains.  Splits diverge by fresh next-letters, which is why
unbounded branching is essential: with a binary alphabet the two cones
above f already cover everything, so any B containing both nearest
extensions of f would be impossible to avoid.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from collections import deque
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, InputError, InvariantViolation, Report, StagingError
from .morphism import PMorphism
from .order import Poset
from .semantics import binary_tree_frame

Seq = tuple[int, ...]
Antichain = frozenset[Seq]

_SHUFFLE_WINDOW = 5  # a seeded model's delivery window
MAX_BUILD_STEPS = 4096  # build_pmorphism's steps; 1,600 reach 2^{<8}
MAX_VERIFY_DEPTH = 64  # verify_splitting_class's window; its splits grow as depth**4


class SplittingStructure(ABC):
    """Oracle bundle for a splitting class inside an ambient order."""

    @abstractmethod
    def least(self) -> object:
        """The least class element (image of requirement R0)."""

    @abstractmethod
    def enumerate(self, i: int) -> object:
        """The i-th class element; lazy, injective across calls."""

    @abstractmethod
    def leq(self, a: object, b: object) -> bool:
        """The simulated reducibility order on the ambient."""

    @abstractmethod
    def join(self, a: object, b: object) -> object:
        """Least upper bound in the ambient order."""

    @abstractmethod
    def in_class(self, x: object) -> bool:
        """Membership of an ambient element in the class."""

    @abstractmethod
    def split(self, f: object, avoid: frozenset) -> tuple[object, object]:
        """Two class elements above f whose join leaves the class, with
        all joins against `avoid` leaving the class as well."""

    def joins_in_class(self, a: object, b: object) -> bool:
        """Whether join(a, b) lies in the class.

        Contract: equal to ``in_class(join(a, b))`` for all ambient a, b;
        override it only with a cheaper test of that same predicate.
        """
        return self.in_class(self.join(a, b))

    def describe(self, x: object) -> str:
        return repr(x)


def is_prefix(s: Seq, t: Seq) -> bool:
    return t[: len(s)] == s


def reduce_antichain(seqs: Iterable[Seq]) -> Antichain:
    """Drop members that are proper prefixes of other members."""
    pool = set(seqs)
    return frozenset(
        s for s in pool if not any(s != t and is_prefix(s, t) for t in pool)
    )


def seq_label(s: Seq) -> str:
    return "".join(str(d) if d <= 9 else f"({d})" for d in s)


def antichain_label(a: Antichain) -> str:
    return "{" + ",".join(seq_label(s) for s in sorted(a)) + "}"


def _element_json(structure: SplittingStructure, element: object) -> object:
    """Antichains as sequence lists; any other element by its description."""
    if isinstance(element, frozenset):
        return [list(s) for s in sorted(element)]
    return structure.describe(element)


def _spine() -> Iterable[Seq]:
    """Every finite sequence over the naturals, graded by weight then lex."""
    for w in itertools.count():
        block = [s for s in _sequences_of_weight(w)]
        for s in sorted(block):
            yield s


def _sequences_of_weight(w: int) -> Iterable[Seq]:
    if w == 0:
        yield ()
        return
    for first in range(w):
        for rest in _sequences_of_weight(w - 1 - first):
            yield (first,) + rest


class SyntheticAntichainModel(SplittingStructure):
    """Concrete splitting class over antichains of natural-number strings.

    Enumeration interleaves a canonical weight-graded spine with a
    discovery queue of split-produced elements; without the queue the
    fresh letters introduced by splits would sit arbitrarily deep in any
    fixed enumeration and finite runs could never progress past the root.
    A non-zero seed shuffles delivery inside a small sliding window.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._shuffle = _SHUFFLE_WINDOW if seed != 0 else 1
        self._spine = iter(_spine())
        self._queue: deque[Antichain] = deque()
        self._buffer: list[Antichain] = []
        self._delivered: list[Antichain] = []
        self._delivered_set: set[Antichain] = set()
        self._prefer_spine = True

    def least(self) -> Antichain:
        return frozenset({()})

    def in_class(self, x: object) -> bool:
        return isinstance(x, frozenset) and len(x) == 1

    def leq(self, a: Antichain, b: Antichain) -> bool:
        # the construction's hottest call: is_prefix written out for singletons,
        # which the unpack tells apart from every other antichain by raising
        try:
            (s,), (t,) = a, b
        except ValueError:
            return all(any(is_prefix(s, t) for t in b) for s in a)
        return t[: len(s)] == s

    def join(self, a: Antichain, b: Antichain) -> Antichain:
        return reduce_antichain(a | b)

    def joins_in_class(self, a: Antichain, b: Antichain) -> bool:
        # {s} and {t} join to a singleton exactly when one sequence extends the other
        try:
            (s,), (t,) = a, b
        except ValueError:
            return super().joins_in_class(a, b)
        return t[: len(s)] == s or s[: len(t)] == t

    def _extensions(self, f: Antichain, avoid: frozenset, count: int) -> list[Antichain]:
        """The first `count` one-letter extensions of f by a letter that no
        element of `avoid` continues f with, each queued for delivery."""
        if not self.in_class(f):
            raise InputError(f"split called on non-class element {antichain_label(f)}")
        (s,) = f
        n = len(s)
        excluded = set()
        for g in avoid:
            if not isinstance(g, frozenset) or len(g) != 1:  # in_class, inline
                raise InputError(f"avoid set holds non-class element {antichain_label(g)}")
            (t,) = g
            if s[: len(t)] == t:  # g <= f: t is a prefix of s
                raise InputError(
                    f"avoid set holds {antichain_label(g)} <= {antichain_label(f)}"
                )
            if len(t) > n and t[:n] == s:
                excluded.add(t[n])
        fresh = (m for m in itertools.count() if m not in excluded)
        out: list[Antichain] = [frozenset({s + (next(fresh),)}) for _ in range(count)]
        for h in out:
            self._discover(h)
        return out

    def cond_ii(self, f: Antichain, avoid: frozenset) -> Antichain:
        """One strict extension whose joins with `avoid` leave the class."""
        (h,) = self._extensions(f, avoid, 1)
        return h

    def split(self, f: Antichain, avoid: frozenset) -> tuple[Antichain, Antichain]:
        h0, h1 = self._extensions(f, avoid, 2)
        return h0, h1

    def _discover(self, h: Antichain) -> None:
        if h not in self._delivered_set and h not in self._queue:
            self._queue.append(h)

    def _pull(self) -> Antichain:
        """Next stream candidate; spine and discovery queue alternate."""
        while True:
            if self._prefer_spine or not self._queue:
                self._prefer_spine = False
                candidate: Antichain = frozenset({next(self._spine)})
            else:
                self._prefer_spine = True
                candidate = self._queue.popleft()
            if candidate not in self._delivered_set and candidate not in self._buffer:
                return candidate

    def enumerate(self, i: int) -> Antichain:
        while len(self._delivered) <= i:
            while len(self._buffer) < self._shuffle:
                self._buffer.append(self._pull())
            pick = self._rng.randrange(len(self._buffer)) if self._shuffle > 1 else 0
            element = self._buffer.pop(pick)
            self._delivered.append(element)
            self._delivered_set.add(element)
        return self._delivered[i]

    def describe(self, x: object) -> str:
        return antichain_label(x) if isinstance(x, frozenset) else repr(x)


def check_split_conditions(
    structure: SplittingStructure,
    f: object,
    avoid: frozenset,
    h0: object,
    h1: object,
) -> Report:
    """All defining clauses of a split, each violation naming its clause.

    The query must be one a split answers: f and every avoid element in
    the class, and no avoid element below f.
    """
    if not structure.in_class(f):
        raise InputError(f"f = {structure.describe(f)} is not in the class")
    for g in avoid:
        if not structure.in_class(g):
            raise InputError(f"avoid element {structure.describe(g)} is not in the class")
        if structure.leq(g, f):
            raise InputError(
                f"avoid element {structure.describe(g)} is below f = {structure.describe(f)}"
            )
    return _split_clauses(structure, f, avoid, h0, h1)


def _split_clauses(
    structure: SplittingStructure, f: object, avoid: frozenset, h0: object, h1: object
) -> Report:
    """The clauses of ``check_split_conditions`` without its precondition,
    for callers whose f and avoid elements are enumerated or placed class
    elements, the avoid set chosen by the same ``leq(g, f)`` answers."""
    violations: list[str] = []
    checked = 0
    for name, h in (("h0", h0), ("h1", h1)):
        checked += 2
        if not structure.in_class(h):
            violations.append(f"{name} = {structure.describe(h)} is not in the class")
        if not structure.leq(f, h):
            violations.append(f"{name} is not above f")
    checked += 1
    if structure.joins_in_class(h0, h1):
        violations.append("join(h0, h1) stays in the class")
    joins_in_class = structure.joins_in_class
    for g in avoid:
        into0, into1 = joins_in_class(g, h0), joins_in_class(g, h1)
        if into0 or into1:
            violations.extend(
                f"join({structure.describe(g)}, {name}) stays in the class"
                for name, into in (("h0", into0), ("h1", into1))
                if into
            )
    checked += 2 * len(avoid)
    return Report(checked=checked, violations=tuple(violations))


def verify_splitting_class(structure: SplittingStructure, depth: int) -> Report:
    """Sampled evidence that the structure satisfies the splitting law.

    Takes f over the first `depth` enumerated elements and every avoid
    set of size at most three from the window's non-below elements; each
    split is checked clause by clause, and the first half of the split is
    spot-checked as a strict extension (the one-sided formulation).
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    if depth > MAX_VERIFY_DEPTH:
        raise CapacityError(f"verify depth guard: {depth} > {MAX_VERIFY_DEPTH}")
    window = [structure.enumerate(i) for i in range(depth)]
    violations: list[str] = []
    checked = 0

    def label(f: object, avoid: frozenset) -> str:
        """The query's name in a violation; built only when one is found."""
        names = ", ".join(sorted(structure.describe(g) for g in avoid))
        return f"f={structure.describe(f)}, B={{{names}}}"

    for f in window:
        others = [g for g in window if not structure.leq(g, f)]
        for size in range(4):
            for combo in itertools.combinations(others, size):
                avoid = frozenset(combo)
                try:
                    h0, h1 = structure.split(f, avoid)
                except Exception as exc:  # a failing oracle is a finding, not a crash
                    checked += 1
                    violations.append(f"split failed on {label(f, avoid)}: {exc}")
                    continue
                sub = _split_clauses(structure, f, avoid, h0, h1)
                checked += sub.checked + 1
                violations.extend(f"{v} on {label(f, avoid)}" for v in sub.violations)
                if structure.leq(h0, f):
                    violations.append(
                        f"one-sided form: h0 is not strictly above f on {label(f, avoid)}"
                    )
    return Report(checked=checked, violations=tuple(violations))


def split_from_cond_ii(
    structure: SplittingStructure,
    cond_ii: Callable[[object, frozenset], object],
) -> Callable[[object, frozenset], tuple[object, object]]:
    """Upgrade a one-extension oracle to a full split oracle.

    The first half avoids the given set; the second call additionally
    avoids the first half, which is what makes their join leave the class.
    """

    def split(f: object, avoid: frozenset) -> tuple[object, object]:
        halves: tuple = ()
        for _ in range(2):
            avoiding = avoid | set(halves) if halves else avoid
            try:
                halves += (cond_ii(f, avoiding),)
            except Exception as exc:
                raise InvariantViolation(
                    f"one-extension oracle failed on f={structure.describe(f)}, "
                    f"B={sorted(structure.describe(g) for g in avoiding)}: {exc}"
                ) from exc
        return halves

    return split


def _order_broken(s: SplittingStructure, u: object, iu: str, v: object, iv: str) -> str:
    return (
        f"order homomorphism broken: {s.describe(u)} <= {s.describe(v)} "
        f"but {iu!r} is not a prefix of {iv!r}"
    )


class PartialHomomorphism:
    """Growing partial order-homomorphism into the binary tree 2^{<height}.

    Owns the construction's state: ``pairs`` (element -> image, read-only),
    its index ``groups`` (image -> elements), both in placement order, and
    the ``trace``.  ``place`` is the one way to add a pair, so the index
    cannot go stale; a map given at construction is indexed unchecked.
    Keeps the two construction invariants checkable at every stage: the
    map respects the order on its domain, and elements with incomparable
    images join outside the class.
    """

    def __init__(self, structure: SplittingStructure, height: int, pairs: Mapping | None = None):
        self.structure, self.height, self.trace = structure, height, []
        self._pairs = dict(pairs or {})
        self.pairs = MappingProxyType(self._pairs)
        self.groups: dict[str, list] = {}
        for element, image in self._pairs.items():
            self.groups.setdefault(image, []).append(element)

    def place(
        self, element: object, image: str, stage: str,
        outside: Container = frozenset(), siblings: tuple = (),
    ) -> None:
        """Check a new pair (``check_new_pair``, which reads ``outside`` and
        ``siblings``), then record it in ``pairs``, ``groups`` and the trace."""
        self.check_new_pair(element, image, outside, siblings)
        self._pairs[element] = image
        self.groups.setdefault(image, []).append(element)
        element_json = _element_json(self.structure, element)
        self.trace.append(
            {"stage": stage, "action": "place", "image": image, "element": element_json}
        )

    def _violations(
        self, ix: str, xs: Sequence, iy: str, ys: Sequence,
        outside: Container = frozenset(), siblings: tuple = (),
    ) -> Iterator[str]:
        """Both invariants on each x in xs (image ix) against each y in ys
        (image iy), lazily, as messages; for one pair, x <= y, then y <= x,
        then the join.  The images' relation is decided once; the oracle is
        asked only what it leaves open: nothing for equal images, the one
        `leq` that must fail when one image is a proper prefix of the other,
        and both `leq`s and `joins_in_class` when they are incomparable.
        The join is not asked for an x in ``outside`` or ``siblings``: the
        caller already has those answers, all False."""
        if ix == iy:
            return
        s = self.structure
        leq, joins_in_class = s.leq, s.joins_in_class
        if iy.startswith(ix):
            ix, xs, iy, ys = iy, ys, ix, xs
        if ix.startswith(iy):  # iy is a proper prefix of ix: only x <= y breaks the order
            for x in xs:
                for y in ys:
                    if leq(x, y):
                        yield _order_broken(s, x, ix, y, iy)
            return
        for x in xs:
            join_open = x not in outside and x not in siblings
            for y in ys:
                if leq(x, y):
                    yield _order_broken(s, x, ix, y, iy)
                if leq(y, x):
                    yield _order_broken(s, y, iy, x, ix)
                if join_open and joins_in_class(x, y):
                    yield (
                        f"incomparability invariant broken: images {ix!r} | {iy!r} but "
                        f"join({s.describe(x)}, {s.describe(y)}) stays in the class"
                    )

    def check_new_pair(
        self, element: object, image: str,
        outside: Container = frozenset(), siblings: tuple = (),
    ) -> None:
        """Both invariants against the placed pairs, before insertion, image
        group by image group; a failure raises the first pairwise violation,
        in placement order.

        ``outside`` and ``siblings`` hold placed elements whose join with
        ``element`` the caller has already seen leave the class; those
        `joins_in_class` questions are not asked again.  `build_pmorphism`
        passes each split half the avoid set its contract check asked
        about, and the second half also the first as a sibling.
        """
        if not any(
            any(self._violations(other_image, others, image, (element,), outside, siblings))
            for other_image, others in self.groups.items()
        ):
            return
        for other, other_image in self._pairs.items():
            for message in self._violations(
                other_image, (other,), image, (element,), outside, siblings
            ):
                raise InvariantViolation(message)

    def check_invariants(self) -> Report:
        """Full re-check of both invariants (non-incremental), group pair by
        group pair; only on a failure are the pairs listed one by one, in
        placement order."""
        groups = list(self.groups.items())
        violations: list[str] = []
        if any(
            any(self._violations(ix, xs, iy, ys))
            for i, (ix, xs) in enumerate(groups)
            for iy, ys in groups[i + 1 :]
        ):
            items = list(self._pairs.items())
            for i, (a, ia) in enumerate(items):
                for b, ib in items[i + 1 :]:
                    violations.extend(self._violations(ia, (a,), ib, (b,)))
        n = len(self._pairs)
        return Report(checked=n * (n - 1), violations=tuple(violations))

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "pairs": [
                {"element": _element_json(self.structure, e), "image": img}
                for e, img in self.pairs.items()
            ],
        }


def _check_build_arguments(height: int, steps: int) -> None:
    """Refuse a build's arguments before anything is asked or written."""
    if height < 1:
        raise InputError(f"target height must be >= 1, got {height}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if steps > MAX_BUILD_STEPS:
        raise CapacityError(f"build steps guard: {steps} > {MAX_BUILD_STEPS}")


def build_pmorphism(
    structure: SplittingStructure, height: int, steps: int
) -> PartialHomomorphism:
    """Run requirements R0 .. R(2*steps) of the tree construction.

    R0 sends the least class element to the empty string.  For each k,
    the odd requirement places the k-th enumerated element at the largest
    image among the placed elements below it (a set the invariants force
    to be a chain), and the even requirement splits it into preimages of
    its image's two children, skipped when the image is already maximal
    in 2^{<height}.  Every stage re-establishes both invariants or aborts.

    A step asks each `joins_in_class` question once: the split's contract
    check asks it of each half against every avoid element and of the two
    halves, all False or the build aborts, so placing the halves does not
    ask those again.  Every other answer is asked for, none is inferred.
    """
    _check_build_arguments(height, steps)
    alpha = PartialHomomorphism(structure, height)
    alpha.place(structure.least(), "", "R0")

    for k in range(steps):
        a = structure.enumerate(k)
        if a not in alpha.pairs:
            below = [
                image
                for image, group in alpha.groups.items()
                if any(structure.leq(element, a) for element in group)
            ]
            if not below:
                raise InvariantViolation(
                    f"R{2 * k + 1}: least element is not below {structure.describe(a)}"
                )
            chain = sorted(below, key=len)
            for shorter, longer in zip(chain, chain[1:]):
                if not longer.startswith(shorter):
                    raise InvariantViolation(
                        f"R{2 * k + 1}: images of elements below "
                        f"{structure.describe(a)} are not totally ordered"
                    )
            alpha.place(a, chain[-1], f"R{2 * k + 1}")
        image = alpha.pairs[a]

        if len(image) == height - 1:
            alpha.trace.append(
                {"stage": f"R{2 * k + 2}", "action": "skip-maximal", "image": image}
            )
            continue
        child0, child1 = image + "0", image + "1"
        if all(
            any(structure.leq(a, e) for e in alpha.groups.get(child, ()))
            for child in (child0, child1)
        ):
            alpha.trace.append(
                {"stage": f"R{2 * k + 2}", "action": "skip-satisfied", "image": image}
            )
            continue
        avoid = frozenset(
            element for element in alpha.pairs if not structure.leq(element, a)
        )
        try:
            h0, h1 = structure.split(a, avoid)
        except Exception as exc:
            raise InvariantViolation(f"split oracle failed at stage R{2 * k + 2}: {exc}") from exc
        oracle_report = _split_clauses(structure, a, avoid, h0, h1)
        if not oracle_report.ok:
            raise InvariantViolation(
                f"split oracle broke its contract at stage R{2 * k + 2}: "
                + "; ".join(oracle_report.violations)
            )
        for h, child, siblings in ((h0, child0, ()), (h1, child1, (h0,))):
            if h in alpha.pairs:
                raise InvariantViolation(
                    f"split oracle returned an already-placed element at stage R{2 * k + 2}"
                )
            alpha.place(h, child, f"R{2 * k + 2}", avoid, siblings)

    return alpha


def _closed_domain(alpha: PartialHomomorphism) -> list:
    """Elements whose full subtree of child requirements is finished.

    An element with a maximal image is closed; otherwise it needs closed
    elements above it mapped onto both children of its image.  Only the
    closed part can be packaged as a frame morphism: the back condition
    descends through finished children exactly as in the limit argument.
    """
    s, groups = alpha.structure, alpha.groups
    # A child's image is one letter longer, so visiting images longest first
    # settles every child before its parent: one pass reaches the fixpoint.
    closed: set = set()
    for image in sorted(groups, key=len, reverse=True):
        children = [[e for e in groups.get(image + letter, ()) if e in closed] for letter in "01"]
        for element in groups[image]:
            if len(image) == alpha.height - 1 or all(
                any(s.leq(element, e) for e in above) for above in children
            ):
                closed.add(element)
    return [e for e in alpha.pairs if e in closed]


def pmorphism_of(alpha: PartialHomomorphism) -> PMorphism:
    """Package the finished part of the construction for the frame verifier."""
    s = alpha.structure
    closed = _closed_domain(alpha)
    covered = {alpha.pairs[e] for e in closed}
    target = binary_tree_frame(alpha.height)
    missing = [node for node in target.elements if node not in covered]
    if missing:
        raise StagingError(
            "construction not finished: tree nodes without closed preimages: "
            + ", ".join(repr(n) for n in missing)
        )
    labels = tuple(s.describe(e) for e in closed)
    cones = []
    for a in closed:
        cone = 0
        for j, b in enumerate(closed):
            if s.leq(a, b):
                cone |= 1 << j
        cones.append(cone)
    source = Poset(labels, tuple(cones))
    mapping = tuple(target.index_of(alpha.pairs[e]) for e in closed)
    return PMorphism(source, target, mapping)
