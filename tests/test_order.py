"""Posets, upsets, joins and small-poset enumeration.

Expected values are frozen from independent oracles: subset brute force
for upsets and closures, a relation-matrix sweep for the poset counts.
"""

import random
from itertools import combinations, product

import pytest

from ordsem.documents import poset_from_json
from ordsem.errors import CapacityError, InputError
from ordsem.order import (
    Poset,
    Upset,
    enumerate_upsets,
    from_relation,
    generate_posets,
    is_join_semilattice,
    is_upset,
    join,
    random_posets,
    upset_masks,
    upward_closure,
)
from ordsem.semantics import binary_tree_frame


def brute_force_upsets(poset):
    """Independent oracle: filter all 2^n subsets by the closure property."""
    out = []
    for r in range(poset.n + 1):
        for combo in combinations(poset.elements, r):
            members = set(combo)
            if all(
                poset.elements[j] in members
                for e in combo
                for j in range(poset.n)
                if poset.leq(e, poset.elements[j])
            ):
                out.append(frozenset(members))
    return set(out)


def reachability_cones(n, pairs):
    """Independent oracle: each element's reflexive-transitive successors,
    by depth-first search over the generating pairs (index pairs)."""
    successors = [[b for a, b in pairs if a == x] for x in range(n)]
    cones = []
    for x in range(n):
        reached, stack = {x}, [x]
        while stack:
            for y in successors[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        cones.append(sum(1 << y for y in reached))
    return tuple(cones)


def poset_or_message(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


class TestPosetConstruction:
    def test_closure_is_computed(self, chain3):
        assert chain3.leq("a", "c")

    def test_closure_matches_reachability(self):
        # half the relations point upward only (posets), half anywhere (cycles)
        rng = random.Random(20)
        posets = 0
        for trial in range(20_000):
            n = rng.randint(0, 8)
            labels = [f"e{i}" for i in range(n)]
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            if trial % 2:
                pairs = [(min(a, b), max(a, b)) for a, b in pairs]
            expected = poset_or_message(lambda: Poset(tuple(labels), reachability_cones(n, pairs)))
            named = [(labels[a], labels[b]) for a, b in pairs]
            assert poset_or_message(lambda: from_relation(labels, named)) == expected, (n, pairs)
            posets += isinstance(expected, Poset)
        assert 10_000 <= posets < 20_000  # both outcomes are exercised

    def test_axioms_rejected_on_bad_input(self):
        with pytest.raises(InputError):
            from_relation(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(InputError):
            from_relation(["a", "a"], [])
        with pytest.raises(InputError):
            Poset(("a", "b"), (0b10, 0b10))  # a's cone is not reflexive
        # direct construction must reject a non-transitive table
        with pytest.raises(InputError):
            Poset(("a", "b", "c"), (0b011, 0b110, 0b100))

    def test_unknown_elements(self, chain2):
        with pytest.raises(InputError):
            chain2.index_of("z")
        with pytest.raises(InputError):
            from_relation(["a"], [("a", "z")])


def reference_axiom_error(elements, up):
    """The order-axiom checks as a double loop over all n^2 pairs, kept
    to pin which error Poset's up-cone loop raises: the message or None."""
    n = len(elements)
    full = (1 << n) - 1
    for i, cone in enumerate(up):
        if cone & ~full:
            return f"up-cone of {elements[i]!r} mentions unknown elements"
        if not (cone >> i) & 1:
            return f"order not reflexive at {elements[i]!r}"
    for i in range(n):
        for j in range(n):
            if i != j and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                return f"order not antisymmetric on ({elements[i]!r}, {elements[j]!r})"
            if (up[i] >> j) & 1 and up[j] & ~up[i]:
                return f"order not transitive at ({elements[i]!r}, {elements[j]!r})"
    return None


def axiom_error(elements, up):
    try:
        Poset(elements, up)
    except InputError as exc:
        return str(exc)
    return None


def seeded_tables(seed, count):
    """Up-tables on 4-6 elements: mostly reflexive, half of them closed
    transitively, so every clause both holds and fails among them."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        up = [rng.getrandbits(n) | (1 << i if rng.random() < 0.95 else 0) for i in range(n)]
        if rng.random() < 0.5:  # Warshall's closure
            for k, i in product(range(n), repeat=2):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        yield tuple(up)


class TestAxiomChecksDifferential:
    def test_every_table_on_three_elements_or_fewer(self):
        outcomes = set()
        for n in range(4):
            elements = tuple("abc"[:n])
            for up in product(range(1 << n), repeat=n):
                expected = reference_axiom_error(elements, up)
                assert axiom_error(elements, up) == expected, up
                outcomes.add(expected.split(" ")[2] if expected else None)
        assert outcomes == {None, "reflexive", "antisymmetric", "transitive"}

    def test_seeded_tables_on_four_to_six_elements(self):
        elements = tuple("abcdef")
        accepted = 0
        for up in seeded_tables(seed=13, count=20_000):
            expected = reference_axiom_error(elements[: len(up)], up)
            assert axiom_error(elements[: len(up)], up) == expected, up
            accepted += expected is None
        assert accepted > 0


class TestIsUpset:
    def test_chain_singleton_top(self, chain2):
        assert is_upset(chain2, {"b"})

    def test_chain_singleton_bottom(self, chain2):
        assert not is_upset(chain2, {"a"})

    def test_diamond_pair(self, diamond):
        assert is_upset(diamond, {"m1", "top"})
        assert not is_upset(diamond, {"m1", "m2"})

    def test_unknown_element(self, chain2):
        with pytest.raises(InputError):
            is_upset(chain2, {"z"})


class TestEnumerateUpsets:
    def test_single_point(self):
        poset = from_relation(["x"], [])
        members = [u.members for u in enumerate_upsets(poset)]
        assert members == [(), ("x",)]

    def test_chain(self, chain2):
        assert [set(u.members) for u in enumerate_upsets(chain2)] == [
            set(), {"b"}, {"a", "b"}
        ]

    def test_antichain(self, antichain2):
        assert len(enumerate_upsets(antichain2)) == 4

    def test_against_brute_force(self):
        # the order is pinned too: carrier and theory value indices read it
        def closed_masks(poset):
            return [
                mask
                for mask in range(1 << poset.n)
                if all(poset.up[i] & ~mask == 0 for i in range(poset.n) if mask >> i & 1)
            ]

        small = [poset for n in range(1, 5) for poset in generate_posets(n)]
        for poset in small:
            got = {frozenset(u.members) for u in enumerate_upsets(poset)}
            assert got == brute_force_upsets(poset)
        labels = [f"x{i}" for i in range(12)]
        chain = from_relation(labels, zip(labels, labels[1:]))
        antichain = from_relation(labels, [])
        tree = binary_tree_frame(4)
        for poset in [*small, *random_posets(5, 200, seed=5), tree, chain, antichain]:
            assert list(upset_masks(poset)) == closed_masks(poset)
        assert len(upset_masks(tree)) == 677

    def test_every_member_is_upset(self, diamond):
        for upset in enumerate_upsets(diamond):
            assert is_upset(diamond, upset.members)

    def test_guard(self):
        big = from_relation([f"x{i}" for i in range(21)], [])
        with pytest.raises(CapacityError):
            enumerate_upsets(big)


class TestUpwardClosure:
    def test_chain_bottom(self, chain2):
        assert set(upward_closure(chain2, {"a"}).members) == {"a", "b"}

    def test_idempotent(self, diamond):
        for upset in enumerate_upsets(diamond):
            again = upward_closure(diamond, upset.members)
            assert again.mask == upset.mask

    def test_empty(self, diamond):
        assert upward_closure(diamond, set()).members == ()

    def test_is_least_upset_containing(self):
        # closure(s) == intersection of all upsets including s, brute force
        for poset in generate_posets(3):
            masks = upset_masks(poset)
            for subset_mask in range(poset.full_mask + 1):
                subset = poset.labels_of(subset_mask)
                closure = upward_closure(poset, subset).mask
                meet = poset.full_mask
                for m in masks:
                    if subset_mask & ~m == 0:
                        meet &= m
                assert closure == meet


class TestJoin:
    def test_chain(self, chain2):
        assert join(chain2, "a", "b") == "b"

    def test_antichain_none(self, antichain2):
        assert join(antichain2, "a", "b") is None

    def test_diamond(self, diamond):
        assert join(diamond, "m1", "m2") == "top"

    def test_join_is_least_upper_bound(self):
        for poset in generate_posets(4):
            for a in poset.elements:
                for b in poset.elements:
                    c = join(poset, a, b)
                    uppers = [
                        u for u in poset.elements
                        if poset.leq(a, u) and poset.leq(b, u)
                    ]
                    least = [
                        u for u in uppers
                        if all(poset.leq(u, v) for v in uppers)
                    ]
                    if c is None:
                        assert not least
                    else:
                        assert least == [c]


class TestGeneratePosets:
    def test_counts(self):
        assert sum(1 for _ in generate_posets(1)) == 1
        assert sum(1 for _ in generate_posets(2)) == 3
        assert sum(1 for _ in generate_posets(3)) == 19
        assert sum(1 for _ in generate_posets(4)) == 219

    def test_count_matches_independent_enumeration(self):
        # different oracle: all 2^(n^2) boolean matrices filtered by axioms
        for n, expected in ((2, 3), (3, 19)):
            count = 0
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits_choice in product((0, 1), repeat=len(cells)):
                rel = {(i, i) for i in range(n)}
                rel |= {c for c, b in zip(cells, bits_choice) if b}
                if any((j, i) in rel for (i, j) in rel if i != j):
                    continue
                if any(
                    (i, k) not in rel
                    for (i, j) in rel
                    for (j2, k) in rel
                    if j == j2
                ):
                    continue
                count += 1
            assert count == expected

    def test_no_duplicates(self):
        seen = {tuple(p.up) for p in generate_posets(3)}
        assert len(seen) == 19

    def test_guard(self):
        with pytest.raises(CapacityError):
            next(generate_posets(6))
        with pytest.raises(CapacityError):
            next(generate_posets(0))


class TestRandomPosets:
    def test_deterministic_and_valid(self):
        first = random_posets(5, 20, seed=11)
        second = random_posets(5, 20, seed=11)
        assert [p.up for p in first] == [p.up for p in second]
        assert all(p.n == 5 for p in first)

    def test_join_semilattice_helper(self, chain3, fork):
        assert is_join_semilattice(chain3)
        assert not is_join_semilattice(fork)


class TestJson:
    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            poset_from_json({"elements": "nope"})
        with pytest.raises(InputError):
            poset_from_json([1, 2, 3])


class TestUpsetValue:
    def test_validates_closure(self, chain2):
        with pytest.raises(InputError):
            Upset(chain2, chain2.mask_of({"a"}))

    def test_contains(self, chain2):
        upset = Upset(chain2, chain2.mask_of({"b"}))
        assert "b" in upset and "a" not in upset
