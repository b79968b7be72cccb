"""p-morphism verification, exhaustive search and theory transfer."""

import json
from itertools import product

import pytest

from ordsem.corpus import MIXED_CORPUS, parsed
from ordsem.errors import CapacityError, InputError, PreconditionError
from ordsem.morphism import (
    PMorphism,
    pmorphism_dumps,
    pmorphism_from_json,
    pmorphism_from_labels,
    search_pmorphism,
    transfer_check,
    verify_pmorphism,
)
from ordsem.order import from_relation, generate_posets, random_posets
from ordsem.semantics import theory_contains


def brute_force_exists(source, target):
    """Oracle: scan all |target|^|source| maps for a valid p-morphism."""
    for mapping in product(range(target.n), repeat=source.n):
        if verify_pmorphism(PMorphism(source, target, mapping)).ok:
            return True
    return False


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
        assert [found.apply(e) for e in fork.elements] == ["a", "b", "b"]

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
    def test_round_trip(self, fork, chain2):
        m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "b", "k": "b"})
        again = pmorphism_from_json(json.loads(pmorphism_dumps(m)))
        assert again.mapping == m.mapping
        assert again.source == m.source

    def test_envelope_accepted(self, fork, chain2):
        m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "b", "k": "b"})
        data = {"pmorphism": json.loads(pmorphism_dumps(m))}
        assert pmorphism_from_json(data).mapping == m.mapping

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            pmorphism_from_json({"source": {}})
