"""p-morphism verification, exhaustive search and theory transfer."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsem.corpus import MIXED_CORPUS, parsed
from ordsem.documents import pmorphism_from_json, pmorphism_to_json
from ordsem.errors import CapacityError, InputError, PreconditionError
from ordsem.morphism import (
    PMorphism,
    pmorphism_from_labels,
    search_pmorphism,
    transfer_check,
    verify_pmorphism,
)
from ordsem.order import from_relation, generate_posets, random_posets
from ordsem.semantics import binary_tree_frame, theory_contains


def brute_force_exists(source, target):
    """Oracle: scan all |target|^|source| maps for a valid p-morphism."""
    for mapping in product(range(target.n), repeat=source.n):
        if verify_pmorphism(PMorphism(source, target, mapping)).ok:
            return True
    return False


def reference_search(source, target):
    """The search before candidate masks and early back-condition checks:
    monotonicity against the placed prefix, the surjectivity count, and
    full verification at every complete assignment."""
    n, tn = source.n, target.n
    assignment = []

    def consistent(i, v):
        for j, w in enumerate(assignment):
            if (source.up[j] >> i) & 1 and not (target.up[w] >> v) & 1:
                return False
            if (source.up[i] >> j) & 1 and not (target.up[v] >> w) & 1:
                return False
        return True

    def extend(i):
        if i == n:
            candidate = PMorphism(source, target, tuple(assignment))
            return candidate if verify_pmorphism(candidate).ok else None
        if tn - len(set(assignment)) > n - i:
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


def random_frame(rng, n):
    """A seeded poset on n elements: random edges, closed, labels shuffled."""
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(labels[i], labels[j]) for i, j in pairs if rng.random() < 0.3]
    return from_relation([f"x{i}" for i in range(n)], edges)


@st.composite
def posets(draw, max_size):
    """Hypothesis strategy: a poset on up to max_size elements, in any index order."""
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = [chr(ord("a") + k) for k in range(n)]
    return from_relation(labels, [(labels[order[i]], labels[order[j]]) for i, j in edges])


def mapping_of(found):
    return None if found is None else found.mapping


class TestVerify:
    def test_identity(self, diamond):
        m = pmorphism_from_labels(diamond, diamond, {e: e for e in diamond.elements})
        assert verify_pmorphism(m).ok

    def test_fork_collapse(self, fork, chain2):
        m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "b", "k": "b"})
        assert verify_pmorphism(m).ok

    def test_constant_not_surjective(self, fork, chain2):
        m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "a", "k": "a"})
        report = verify_pmorphism(m)
        assert any("surjective" in v for v in report.violations)

    def test_monotonicity_violation_named(self, chain2):
        m = pmorphism_from_labels(chain2, chain2, {"a": "b", "b": "a"})
        report = verify_pmorphism(m)
        assert any("monotone" in v and "'a'" in v for v in report.violations)

    def test_back_condition_violation(self, chain2, antichain2):
        # order-preserving onto map without the back condition
        chain3 = from_relation(["x", "y", "z"], [("x", "y"), ("y", "z")])
        m = pmorphism_from_labels(chain3, chain2, {"x": "a", "y": "b", "z": "b"})
        assert verify_pmorphism(m).ok
        m2 = pmorphism_from_labels(chain3, chain2, {"x": "a", "y": "a", "z": "b"})
        assert verify_pmorphism(m2).ok
        wide = from_relation(["x", "y"], [])
        m3 = pmorphism_from_labels(wide, chain2, {"x": "a", "y": "b"})
        report = verify_pmorphism(m3)
        assert any("back condition" in v for v in report.violations)

    def test_partial_map_rejected(self, fork, chain2):
        with pytest.raises(InputError):
            pmorphism_from_labels(fork, chain2, {"r": "a"})


class TestSearch:
    def test_identity_found(self, diamond):
        found = search_pmorphism(diamond, diamond)
        assert found is not None
        assert found.mapping == tuple(range(diamond.n))

    def test_fork_to_chain(self, fork, chain2):
        found = search_pmorphism(fork, chain2)
        assert found is not None
        assert [chain2.elements[v] for v in found.mapping] == ["a", "b", "b"]

    def test_chain_to_fork_none(self, chain3, fork):
        assert search_pmorphism(chain3, fork) is None
        assert not brute_force_exists(chain3, fork)

    def test_complete_against_brute_force(self):
        posets = list(generate_posets(3))
        sample = [(posets[i], posets[j]) for i in (0, 3, 7, 11, 18) for j in (0, 5, 9, 14)]
        for source, target in sample:
            assert (search_pmorphism(source, target) is not None) == brute_force_exists(
                source, target
            )

    def test_returns_lexicographically_first(self, fork):
        # brute force in the same canonical order must agree exactly
        found = search_pmorphism(fork, fork)
        first = next(
            (
                mapping
                for mapping in product(range(fork.n), repeat=fork.n)
                if verify_pmorphism(PMorphism(fork, fork, mapping)).ok
            ),
            None,
        )
        assert found.mapping == first

    def test_capacity_guard(self):
        big = from_relation([f"x{i}" for i in range(13)], [])
        with pytest.raises(CapacityError):
            search_pmorphism(big, big)


class TestSearchDifferential:
    """The pruned search returns exactly the map the leaf-checking one did."""

    def test_every_small_pair(self):
        # every poset on <= 4 elements onto every poset on <= 3: 5,566 pairs
        sources = [p for n in (1, 2, 3, 4) for p in generate_posets(n)]
        targets = [p for n in (1, 2, 3) for p in generate_posets(n)]
        found = 0
        for source in sources:
            for target in targets:
                expected = mapping_of(reference_search(source, target))
                assert mapping_of(search_pmorphism(source, target)) == expected
                found += expected is not None
        assert found > 500

    def test_seeded_larger_frames(self, fork, diamond):
        rng = random.Random(7)
        tree = binary_tree_frame(3)
        # the tree itself, its elements in shuffled index order, maps onto all three
        shuffled = from_relation(rng.sample(tree.elements, tree.n), tree.cover_pairs())
        sources = [random_frame(rng, n) for n in (6, 6, 6, 6, 7, 7, 7, 7)] + [shuffled]
        found = 0
        for source in sources:
            for target in (fork, tree, diamond):
                expected = mapping_of(reference_search(source, target))
                assert mapping_of(search_pmorphism(source, target)) == expected
                found += expected is not None
        assert found >= 10

    @settings(deadline=None, max_examples=150)
    @given(posets(5), posets(3))
    def test_against_brute_force(self, source, target):
        found = search_pmorphism(source, target)
        assert (found is not None) == brute_force_exists(source, target)
        if found is not None:
            assert verify_pmorphism(found).ok


class TestComposition:
    def test_composites_are_pmorphisms(self):
        posets = list(generate_posets(3))
        found = 0
        for source in posets:
            for middle in posets:
                f = search_pmorphism(source, middle)
                if f is None:
                    continue
                for target in posets[::4]:
                    g = search_pmorphism(middle, target)
                    if g is None:
                        continue
                    composite = PMorphism(
                        source, target, tuple(g.mapping[v] for v in f.mapping)
                    )
                    assert verify_pmorphism(composite).ok
                    found += 1
        assert found > 50


class TestTransfer:
    def test_fork_to_chain_empty_report(self, fork, chain2):
        corpus = parsed(MIXED_CORPUS)
        report = transfer_check(fork, chain2, corpus)
        assert report.ok
        assert report.checked > 0

    def test_self_transfer(self, diamond):
        assert transfer_check(diamond, diamond, parsed(MIXED_CORPUS)).ok

    def test_missing_morphism_is_precondition_error(self, chain3, fork):
        with pytest.raises(PreconditionError):
            transfer_check(chain3, fork, parsed(MIXED_CORPUS[:3]))

    def test_randomized_pairs(self):
        corpus = parsed(MIXED_CORPUS)
        posets = random_posets(3, 40, seed=23) + random_posets(4, 40, seed=29)
        pairs = 0
        for i in range(0, len(posets) - 1, 2):
            source, target = posets[i], posets[i + 1]
            if search_pmorphism(source, target) is None:
                continue
            pairs += 1
            assert transfer_check(source, target, corpus).ok
        assert pairs >= 5

    def test_validity_transfers(self, fork, chain2):
        # spot check the underlying claim on a known morphic pair
        for formula in parsed(MIXED_CORPUS):
            if theory_contains(fork, formula):
                assert theory_contains(chain2, formula)


class TestJson:
    def test_envelope_accepted(self, fork, chain2):
        m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "b", "k": "b"})
        data = {"pmorphism": pmorphism_to_json(m)}
        assert pmorphism_from_json(data).mapping == m.mapping

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            pmorphism_from_json({"source": {}})
