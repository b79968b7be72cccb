"""The splitting interface, the antichain model and the tree construction."""

import hashlib
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsem.documents import trace_lines
from ordsem.errors import CapacityError, InputError, InvariantViolation, Report, StagingError
from ordsem.morphism import verify_pmorphism
from ordsem.splitting import (
    MAX_BUILD_STEPS,
    MAX_VERIFY_DEPTH,
    PartialHomomorphism,
    SplittingStructure,
    SyntheticAntichainModel,
    _closed_domain,
    antichain_label,
    build_pmorphism,
    check_split_conditions,
    is_prefix,
    pmorphism_of,
    reduce_antichain,
    split_from_cond_ii,
    verify_splitting_class,
)


def ac(*seqs):
    return frozenset(tuple(s) for s in seqs)


def bounded_universe():
    """All reduced antichains over sequences with entries < 2, length <= 2."""
    seqs = [()]
    seqs += [(a,) for a in range(2)]
    seqs += [(a, b) for a in range(2) for b in range(2)]
    out = []
    for r in range(1, 4):
        for combo in combinations(seqs, r):
            if reduce_antichain(combo) == frozenset(combo):
                out.append(frozenset(combo))
    return out


class SortedTupleModel(SplittingStructure):
    """The antichain model with elements held as sorted tuples, not frozensets."""

    def __init__(self, seed=0):
        self.inner = SyntheticAntichainModel(seed=seed)

    @staticmethod
    def wrap(a):
        return tuple(sorted(a))

    def least(self):
        return self.wrap(self.inner.least())

    def enumerate(self, i):
        return self.wrap(self.inner.enumerate(i))

    def leq(self, a, b):
        return self.inner.leq(frozenset(a), frozenset(b))

    def join(self, a, b):
        return self.wrap(self.inner.join(frozenset(a), frozenset(b)))

    def in_class(self, x):
        return len(x) == 1

    def split(self, f, avoid):
        h0, h1 = self.inner.split(frozenset(f), frozenset(frozenset(g) for g in avoid))
        return self.wrap(h0), self.wrap(h1)

    def describe(self, x):
        return antichain_label(frozenset(x))


class TestAmbientOrder:
    def test_partial_order_axioms(self):
        model = SyntheticAntichainModel()
        universe = bounded_universe()
        for a in universe:
            assert model.leq(a, a)
        for a in universe:
            for b in universe:
                if model.leq(a, b) and model.leq(b, a):
                    assert a == b
                for c in universe:
                    if model.leq(a, b) and model.leq(b, c):
                        assert model.leq(a, c)

    def test_join_is_least_upper_bound(self):
        model = SyntheticAntichainModel()
        universe = bounded_universe()
        for a in universe:
            for b in universe:
                j = model.join(a, b)
                assert model.leq(a, j) and model.leq(b, j)
                for u in universe:
                    if model.leq(a, u) and model.leq(b, u):
                        assert model.leq(j, u)

    def test_class_downward_closed(self):
        model = SyntheticAntichainModel()
        universe = bounded_universe()
        for a in universe:
            for b in universe:
                if model.in_class(b) and model.leq(a, b):
                    assert model.in_class(a)

    def test_bottom(self):
        model = SyntheticAntichainModel()
        assert model.least() == ac(())
        for a in bounded_universe():
            assert model.leq(model.least(), a)

    def test_join_of_incomparable_singletons_leaves_class(self):
        model = SyntheticAntichainModel()
        joined = model.join(ac((0,)), ac((1,)))
        assert len(joined) == 2
        assert not model.in_class(joined)

    def test_reduce_drops_proper_prefixes(self):
        assert reduce_antichain([(0,), (0, 1)]) == ac((0, 1))
        assert is_prefix((), (0, 1))

    def test_fast_paths_match_definitions(self):
        def prefix(s, t):
            return len(s) <= len(t) and t[: len(s)] == s

        rng = random.Random(11)
        longer, tips = set(), []
        for _ in range(12):
            s = tuple(rng.randrange(3) for _ in range(7))
            longer.update(ac(s[:n]) for n in range(3, 8))
            tips.append(s)
        model = SyntheticAntichainModel()
        # the fast paths take a singleton pair by unpacking it; the empty
        # antichain and a singleton against a larger antichain, either way
        # round, must reach the generic definitions
        spread = [ac(s, t) for s, t in zip(tips, tips[1:]) if s != t]
        universe = [frozenset()] + bounded_universe() + sorted(longer, key=sorted) + spread
        assert {len(a) for a in universe} == {0, 1, 2, 3}
        for a in universe:
            for b in universe:
                for s in a:
                    for t in b:
                        assert is_prefix(s, t) == prefix(s, t)
                assert model.leq(a, b) == all(any(prefix(s, t) for t in b) for s in a)
                assert model.joins_in_class(a, b) == model.in_class(model.join(a, b))

    @pytest.mark.parametrize("height", [2, 3])
    def test_generic_hook_builds_the_same_trace(self, height):
        # SortedTupleModel keeps the default joins_in_class, built from join
        def labelled(entry):
            if "element" not in entry:
                return entry
            return dict(entry, element=antichain_label(frozenset(map(tuple, entry["element"]))))

        for seed in range(1, 6):
            fast = build_pmorphism(SyntheticAntichainModel(seed=seed), height, 48)
            generic = build_pmorphism(SortedTupleModel(seed=seed), height, 48)
            assert [labelled(entry) for entry in fast.trace] == generic.trace


class TestCheckSplitConditions:
    def test_documented_example(self):
        model = SyntheticAntichainModel()
        report = check_split_conditions(
            model, ac((0,)), frozenset({ac((1,))}), ac((0, 0)), ac((0, 1))
        )
        assert report.ok

    def test_empty_avoid_set(self):
        model = SyntheticAntichainModel()
        assert check_split_conditions(
            model, ac((0,)), frozenset(), ac((0, 3)), ac((0, 7))
        ).ok

    def test_degenerate_split_rejected(self):
        model = SyntheticAntichainModel()
        f = ac((0,))
        report = check_split_conditions(model, f, frozenset(), f, f)
        assert any("join(h0, h1)" in v for v in report.violations)

    def test_precondition_errors(self):
        model = SyntheticAntichainModel()
        with pytest.raises(InputError):
            check_split_conditions(
                model, ac((0,), (1,)), frozenset(), ac((0, 0)), ac((0, 1))
            )
        with pytest.raises(InputError):
            check_split_conditions(
                model, ac((0,)), frozenset({ac(())}), ac((0, 0)), ac((0, 1))
            )


class TestVerifySplittingClass:
    def test_depth_sixteen_passes(self):
        assert verify_splitting_class(SyntheticAntichainModel(), 16).ok

    def test_depth_one_passes(self):
        assert verify_splitting_class(SyntheticAntichainModel(), 1).ok

    def test_covering_avoid_sets_are_exercised(self):
        # the window contains both nearest extensions of the bottom, the
        # configuration impossible to split over a binary alphabet
        model = SyntheticAntichainModel()
        window = [model.enumerate(i) for i in range(8)]
        assert ac(()) in window and ac((0,)) in window and ac((1,)) in window
        h0, h1 = model.split(ac(()), frozenset({ac((0,)), ac((1,))}))
        assert check_split_conditions(
            model, ac(()), frozenset({ac((0,)), ac((1,))}), h0, h1
        ).ok

    def test_corrupted_oracle_flagged(self):
        class IgnoresAvoid(SyntheticAntichainModel):
            def split(self, f, avoid):
                (s,) = f
                return frozenset({s + (0,)}), frozenset({s + (1,)})

        report = verify_splitting_class(IgnoresAvoid(), 8)
        assert not report.ok
        assert any("stays in the class" in v for v in report.violations)


    def test_violation_labels_unchanged(self):
        # (checked, violations, first 16 hex digits of the sha256 of the
        # newline-joined violations) at depth 6, captured while every query's
        # label was still built before its split was checked
        class IgnoresAvoid(SyntheticAntichainModel):
            def split(self, f, avoid):
                (s,) = f
                return frozenset({s + (0,)}), frozenset({s + (1,)})

        class Refuses(SyntheticAntichainModel):
            def split(self, f, avoid):
                if len(avoid) == 2:
                    raise RuntimeError("no room")
                return super().split(f, avoid)

        class StaysPut(SyntheticAntichainModel):
            def split(self, f, avoid):
                h0, h1 = super().split(f, avoid)
                return (f, h1) if len(avoid) == 1 else (h0, h1)

        pins = [
            (IgnoresAvoid, 734, 80, "f50fafb3f7041786"),
            (Refuses, 473, 29, "e96f9dc50e3c608a"),
            (StaysPut, 734, 51, "64a1f5dffca2829e"),
        ]
        for model, checked, count, digest in pins:
            report = verify_splitting_class(model(), 6)
            blob = "\n".join(report.violations).encode()
            assert (report.checked, len(report.violations)) == (checked, count)
            assert hashlib.sha256(blob).hexdigest()[:16] == digest


class TestSplitFromCondII:
    def test_derived_oracle_passes_sampled_queries(self):
        model = SyntheticAntichainModel()
        oracle = split_from_cond_ii(model, model.cond_ii)
        window = [model.enumerate(i) for i in range(10)]
        queries = 0
        for f in window[:5]:
            others = [g for g in window if not model.leq(g, f)]
            for size in (0, 1, 2, 3):
                for combo in combinations(others[:7], size):
                    avoid = frozenset(combo)
                    h0, h1 = oracle(f, avoid)
                    assert check_split_conditions(model, f, avoid, h0, h1).ok
                    queries += 1
        assert queries >= 100

    def test_empty_avoid_unfolds_definition(self):
        model = SyntheticAntichainModel()
        seen = {}

        def spy(f, avoid):
            h = model.cond_ii(f, avoid)
            seen[len(seen)] = (avoid, h)
            return h

        oracle = split_from_cond_ii(model, spy)
        h0, h1 = oracle(ac(()), frozenset())
        assert seen[0][0] == frozenset()
        assert seen[1][0] == frozenset({h0})
        assert not model.in_class(model.join(h0, h1))

    def test_bottom_with_one_avoid_diverges(self):
        model = SyntheticAntichainModel()
        oracle = split_from_cond_ii(model, model.cond_ii)
        avoid = frozenset({ac((1,))})
        h0, h1 = oracle(ac(()), avoid)
        for h in (h0, h1):
            assert not model.in_class(model.join(ac((1,)), h))

    def test_oracle_failure_carries_query(self):
        def broken(f, avoid):
            raise RuntimeError("nope")

        model = SyntheticAntichainModel()
        oracle = split_from_cond_ii(model, broken)
        with pytest.raises(InvariantViolation, match="nope"):
            oracle(ac(()), frozenset())


class TestExtensionPins:
    """What the model's two oracles return, queue and raise, frozen from the
    code from before they shared one extension routine."""

    @pytest.mark.parametrize(
        "f, avoid, message",
        [
            (ac((0,), (1,)), frozenset(), "split called on non-class element {0,1}"),
            (ac((0,)), frozenset({ac((1,), (2,))}), "avoid set holds non-class element {1,2}"),
            (ac((0, 1)), frozenset({ac((0,))}), "avoid set holds {0} <= {01}"),
        ],
    )
    def test_bad_queries_raise_the_same_message(self, f, avoid, message):
        model = SyntheticAntichainModel()
        for oracle in (model.split, model.cond_ii):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                oracle(f, avoid)

    def test_fresh_letters_and_discovery_order(self):
        model = SyntheticAntichainModel()
        halves = model.split(ac((0,)), frozenset({ac((0, 0)), ac((0, 2)), ac((1,))}))
        assert halves == (ac((0, 1)), ac((0, 3)))
        assert model.cond_ii(ac((0,)), frozenset({ac((0, 0)), ac((0, 1))})) == ac((0, 2))
        assert list(model._queue) == [ac((0, 1)), ac((0, 3)), ac((0, 2))]

    def test_second_call_failure_names_the_grown_avoid_set(self):
        model = SyntheticAntichainModel()

        def second_fails(f, avoid):
            if avoid:
                raise RuntimeError("boom")
            return model.cond_ii(f, avoid)

        oracle = split_from_cond_ii(model, second_fails)
        message = "one-extension oracle failed on f={}, B=['{0}']: boom"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            oracle(ac(()), frozenset())


class TestEnumeration:
    def test_canonical_prefix(self):
        model = SyntheticAntichainModel()
        first = [model.enumerate(i) for i in range(4)]
        assert first[0] == ac(())
        assert ac((0,)) in first
        assert ac((1,)) in first
        assert len(set(first)) == 4  # injective

    def test_seeded_orders_differ_but_are_deterministic(self):
        plain = [SyntheticAntichainModel(seed=s) for s in (4, 4, 9)]
        a = [plain[0].enumerate(i) for i in range(12)]
        b = [plain[1].enumerate(i) for i in range(12)]
        c = [plain[2].enumerate(i) for i in range(12)]
        assert a == b
        assert a != c
        assert len(set(a)) == 12


class TestBuild:
    def test_height_one_single_pair(self):
        model = SyntheticAntichainModel()
        alpha = build_pmorphism(model, 1, 1)
        assert alpha.pairs == {model.least(): ""}
        assert verify_pmorphism(pmorphism_of(alpha)).ok

    def test_height_two_trace(self):
        model = SyntheticAntichainModel()
        alpha = build_pmorphism(model, 2, 4)
        assert alpha.pairs[model.least()] == ""
        images = sorted(set(alpha.pairs.values()))
        assert images == ["", "0", "1"]
        # two split-produced incomparable extensions carry "0" and "1"
        zero = [e for e, img in alpha.pairs.items() if img == "0"]
        one = [e for e, img in alpha.pairs.items() if img == "1"]
        assert zero and one
        assert not model.in_class(model.join(zero[0], one[0]))
        assert verify_pmorphism(pmorphism_of(alpha)).ok

    def test_invariants_hold_after_every_stage(self):
        for steps in range(1, 10):
            model = SyntheticAntichainModel(seed=13)
            alpha = build_pmorphism(model, 3, steps)
            assert alpha.check_invariants().ok

    def test_placement_images_totally_ordered(self):
        # the chain property the paper's placement step relies on; the
        # builder asserts it, so a finished run is evidence it held
        model = SyntheticAntichainModel(seed=3)
        alpha = build_pmorphism(model, 4, 48)
        for element in alpha.pairs:
            below = sorted(
                (img for other, img in alpha.pairs.items() if model.leq(other, element)),
                key=len,
            )
            for shorter, longer in zip(below, below[1:]):
                assert longer.startswith(shorter)

    def test_random_orders_height_three(self):
        for seed in range(1, 51):
            model = SyntheticAntichainModel(seed=seed)
            alpha = build_pmorphism(model, 3, 48)
            assert alpha.check_invariants().ok
            assert verify_pmorphism(pmorphism_of(alpha)).ok

    def test_avoid_questions_are_not_asked_again_after_the_split(self):
        # the avoid pass decides leq(g, a) for every placed g; neither the
        # model's split nor the clause check asks it again
        class Recording(SyntheticAntichainModel):
            def __init__(self):
                super().__init__(seed=3)
                self.log = []

            def leq(self, a, b):
                self.log.append((a, b))
                return super().leq(a, b)

            def split(self, f, avoid):
                self.log.append(("split", f, avoid))
                return super().split(f, avoid)

        model = Recording()
        build_pmorphism(model, 4, 64)
        splits = [i for i, entry in enumerate(model.log) if entry[0] == "split"]
        assert sum(len(model.log[i][2]) for i in splits) > 100
        for start, end in zip(splits, splits[1:] + [len(model.log)]):
            _, f, avoid = model.log[start]
            asked = set(model.log[start + 1 : end])
            assert not any((g, f) in asked for g in avoid)

    def test_each_join_question_once_per_step(self):
        # a step starts at each enumerate call; placing the split halves
        # reuses the contract check's join answers, and asks nothing new
        class Recording(SyntheticAntichainModel):
            def __init__(self):
                super().__init__(seed=7)
                self.steps = [[]]

            def enumerate(self, i):
                self.steps.append([])
                return super().enumerate(i)

            def leq(self, a, b):
                self.steps[-1].append(("leq", a, b))
                return super().leq(a, b)

            def joins_in_class(self, a, b):
                self.steps[-1].append(("join", frozenset((a, b))))
                return super().joins_in_class(a, b)

        model = Recording()
        alpha = build_pmorphism(model, 5, 100)
        assert len(model.steps) == 101
        for step in model.steps:
            joins = [question for question in step if question[0] == "join"]
            assert len(joins) == len(set(joins))
        # distinct questions per step, summed over the build, and the full
        # check's question count, both measured before the answers were reused
        assert sum(len(set(step)) for step in model.steps) == 54180
        model.steps = [[]]
        assert alpha.check_invariants().ok
        assert len(model.steps[0]) == 41196

    def test_size_guards_come_before_the_oracle(self):
        class Untouchable(SyntheticAntichainModel):
            def asked(self, *args):
                raise AssertionError("the oracle was asked")

            least = enumerate = leq = joins_in_class = split = asked

        with pytest.raises(CapacityError, match=r"^build steps guard: 4097 > 4096$"):
            build_pmorphism(Untouchable(), 2, MAX_BUILD_STEPS + 1)
        with pytest.raises(CapacityError, match=r"^verify depth guard: 65 > 64$"):
            verify_splitting_class(Untouchable(), MAX_VERIFY_DEPTH + 1)
        # the largest build allowed runs; at height 1 each step only places
        alpha = build_pmorphism(SyntheticAntichainModel(), 1, MAX_BUILD_STEPS)
        assert len(alpha.pairs) == MAX_BUILD_STEPS

    def test_trace_records_stages(self):
        model = SyntheticAntichainModel()
        alpha = build_pmorphism(model, 2, 3)
        stages = [entry["stage"] for entry in alpha.trace]
        assert stages[0] == "R0"
        assert any(s.startswith("R2") for s in stages)

    def test_bad_parameters(self):
        model = SyntheticAntichainModel()
        with pytest.raises(InputError):
            build_pmorphism(model, 0, 4)
        with pytest.raises(InputError):
            build_pmorphism(model, 2, 0)

    def test_broken_oracle_aborts_with_stage(self):
        class Degenerate(SyntheticAntichainModel):
            def split(self, f, avoid):
                return f, f

        with pytest.raises(InvariantViolation, match="R2"):
            build_pmorphism(Degenerate(), 2, 2)


# First 16 hex digits of sha256(trace_lines(alpha) + json.dumps(alpha.to_json()))
# for build_pmorphism(SyntheticAntichainModel(seed), height, 48), seeds 1..10,
# captured before the comparability hook and the image index existed.
BUILD_SHA256 = {
    1: (
        "f34441b23015c712", "ab1283e5fb4ecaa4", "77aa77c0248f03bc", "c9622c8ab76824a0",
        "21b649af4ef093de", "e1f8653f08034f02", "07d124a4b0ab9d0f", "be2ebdd3c7b0dbab",
        "0f601f2c05a07441", "78c7b58ff42ba0fa",
    ),
    2: (
        "0e66a1d6b5cb10b5", "5bfb0ef4923ef2a3", "6e21af9584c7b296", "e17d164740f87af3",
        "c4a37fb7285abf6f", "f5dbe125fd9f3c8a", "7daa3d14a8b1c175", "c0d7481fc17081ff",
        "06a6a668a73c7ef3", "783ff6e117c15216",
    ),
    3: (
        "9b3e391dc251e93e", "c9078bb09a6c11a1", "2360815a929d6156", "c5e0e077fc044ede",
        "6ac9c61f19806956", "41f308e145e68c21", "50e24933e13bcfd2", "de1a5299904ca442",
        "3e101ed1efa40e69", "b86d063f67372767",
    ),
    4: (
        "4be8e54126a16e17", "b73ebdd74159e725", "f840ae6827a72ec4", "2d22eb4aaac53824",
        "3c441982c3d0d9c1", "d05340fe964cdb82", "f730e850d66a8cf0", "9935c728fe52e508",
        "549ff67e8f013079", "4059b6b0b9e8d5fe",
    ),
    5: (
        "05950e8346c01d51", "44a4f4a1d63a5bff", "d50d65cc8d71d0df", "3ef177a354b1081a",
        "9bdaca2391eb0cee", "404e87f848b0d284", "86dbc1e3fcbf9ca1", "777d72eccdc021c8",
        "67b89d4af5ca534f", "3715a05f76dfa62e",
    ),
}


class TestBuildPins:
    @pytest.mark.parametrize("height", sorted(BUILD_SHA256))
    def test_trace_and_json_unchanged(self, height):
        digests = []
        for seed in range(1, 11):
            alpha = build_pmorphism(SyntheticAntichainModel(seed=seed), height, 48)
            blob = trace_lines(alpha) + json.dumps(alpha.to_json())
            digests.append(hashlib.sha256(blob.encode()).hexdigest()[:16])
        assert tuple(digests) == BUILD_SHA256[height]


def regroup(pairs):
    """Reference index: placed elements by image, both in insertion order."""
    groups = {}
    for element, image in pairs.items():
        groups.setdefault(image, []).append(element)
    return groups


class TestImageIndex:
    @pytest.mark.parametrize("height", [3, 4, 5, 6])
    def test_groups_regroup_the_pairs_after_builds(self, height):
        for seed in range(1, 6):
            alpha = build_pmorphism(SyntheticAntichainModel(seed=seed), height, 12 * height)
            assert list(alpha.groups.items()) == list(regroup(alpha.pairs).items())
            placed = [entry["element"] for entry in alpha.trace if entry["action"] == "place"]
            assert placed == [pair["element"] for pair in alpha.to_json()["pairs"]]

    def test_pairs_are_read_only(self):
        model = SyntheticAntichainModel()
        alpha = build_pmorphism(model, 3, 8)
        with pytest.raises(TypeError):
            alpha.pairs[ac((5,))] = "0"
        with pytest.raises(TypeError):
            del alpha.pairs[model.least()]

    def test_a_given_map_is_indexed_and_copied(self):
        model = SyntheticAntichainModel()
        pairs = {ac(()): "", ac((0,)): "0", ac((1,)): "1", ac((0, 0)): "0"}
        alpha = PartialHomomorphism(model, 3, pairs)
        assert alpha.groups == {"": [ac(())], "0": [ac((0,)), ac((0, 0))], "1": [ac((1,))]}
        assert alpha.trace == []
        pairs[ac((2,))] = "1"
        assert ac((2,)) not in alpha.pairs and alpha.groups["1"] == [ac((1,))]

    def test_a_refused_placement_changes_nothing(self):
        model = SyntheticAntichainModel()
        alpha = PartialHomomorphism(model, 3)
        alpha.place(ac(()), "", "R0")
        alpha.place(ac((0,)), "0", "R1")
        before = (dict(alpha.pairs), regroup(alpha.pairs), list(alpha.trace))
        with pytest.raises(InvariantViolation, match="order homomorphism broken"):
            alpha.place(ac((0, 0)), "1", "R2")
        assert (dict(alpha.pairs), alpha.groups, alpha.trace) == before


class JoinsStayInClass(SyntheticAntichainModel):
    """Antichains of up to two sequences form the class, so incomparable
    singletons join inside it; only the generic hook knows that."""

    def in_class(self, x):
        return isinstance(x, frozenset) and 1 <= len(x) <= 2

    joins_in_class = SplittingStructure.joins_in_class


CORRUPTIONS = [
    pytest.param(
        SyntheticAntichainModel(),
        {ac(()): "", ac((0,)): "0"},
        (ac((0, 0)), "1"),
        "order homomorphism broken: {0} <= {00} but '0' is not a prefix of '1'",
        id="placed-below-new",
    ),
    pytest.param(
        SyntheticAntichainModel(),
        {ac(()): "", ac((0, 0)): "0"},
        (ac((0,)), "1"),
        "order homomorphism broken: {0} <= {00} but '1' is not a prefix of '0'",
        id="new-below-placed",
    ),
    pytest.param(
        JoinsStayInClass(),
        {ac(()): "", ac((0,)): "0"},
        (ac((1,)), "1"),
        "incomparability invariant broken: images '0' | '1' but join({0}, {1}) stays in the class",
        id="incomparable-join-in-class",
    ),
]


class TestInvariantChecks:
    @pytest.mark.parametrize("model, placed, new, message", CORRUPTIONS)
    def test_incremental_and_full_checks_agree(self, model, placed, new, message):
        alpha = PartialHomomorphism(model, 3, dict(placed))
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            alpha.check_new_pair(*new)
        element, image = new
        report = PartialHomomorphism(model, 3, {**placed, element: image}).check_invariants()
        assert message in report.violations
        assert report.checked == 3 * 2


def reference_pair_violations(s, x, ix, y, iy):
    """Reference: both invariants on one pair, as checked before grouping."""
    out = []
    for u, iu, v, iv in ((x, ix, y, iy), (y, iy, x, ix)):
        if not iv.startswith(iu) and s.leq(u, v):
            out.append(
                f"order homomorphism broken: {s.describe(u)} <= {s.describe(v)} "
                f"but {iu!r} is not a prefix of {iv!r}"
            )
    if not ix.startswith(iy) and not iy.startswith(ix) and s.joins_in_class(x, y):
        out.append(
            f"incomparability invariant broken: images {ix!r} | {iy!r} but "
            f"join({s.describe(x)}, {s.describe(y)}) stays in the class"
        )
    return out


def reference_check_invariants(alpha):
    """Reference: every element pair in insertion order, 2 checks each."""
    items = list(alpha.pairs.items())
    violations = []
    checked = 0
    for i, (a, ia) in enumerate(items):
        for b, ib in items[i + 1 :]:
            checked += 2
            violations.extend(reference_pair_violations(alpha.structure, a, ia, b, ib))
    return Report(checked=checked, violations=tuple(violations))


def reference_new_pair_message(alpha, element, image):
    """Reference: the first violation check_new_pair raised, or None."""
    for other, other_image in alpha.pairs.items():
        violations = reference_pair_violations(
            alpha.structure, other, other_image, element, image
        )
        if violations:
            return violations[0]
    return None


def new_pair_message(alpha, element, image):
    try:
        alpha.check_new_pair(element, image)
    except InvariantViolation as exc:
        return str(exc)
    return None


def reassign_images(alpha, rng, count):
    """Move `count` placed elements to an ancestor, a descendant or an
    incomparable node of their image in 2^{<height}; returns the map
    rebuilt with the moved pairs, and the moved elements."""
    nodes = [""]
    for _ in range(alpha.height - 1):
        nodes += [n + letter for n in nodes if len(n) == len(nodes[-1]) for letter in "01"]
    pairs = dict(alpha.pairs)
    moved = rng.sample(list(pairs), count)
    for element in moved:
        image = pairs[element]
        kinds = {
            "ancestor": [n for n in nodes if image.startswith(n) and n != image],
            "descendant": [n for n in nodes if n.startswith(image) and n != image],
            "incomparable": [
                n for n in nodes if not n.startswith(image) and not image.startswith(n)
            ],
        }
        choices = kinds[rng.choice(sorted(k for k, v in kinds.items() if v))]
        pairs[element] = rng.choice(choices)
    return PartialHomomorphism(alpha.structure, alpha.height, pairs), moved


def assert_grouped_matches_pairwise(alpha, rng, probes):
    """Full and incremental checks against the pairwise references."""
    assert alpha.check_invariants() == reference_check_invariants(alpha)
    for element in probes:
        image = alpha.pairs[element]
        rest = PartialHomomorphism(
            alpha.structure,
            alpha.height,
            {e: img for e, img in alpha.pairs.items() if e != element},
        )
        assert new_pair_message(rest, element, image) == reference_new_pair_message(
            rest, element, image
        )
    # unplaced elements at random nodes, as the builder's placements would be
    nodes = sorted(set(alpha.pairs.values()))
    for k in range(len(alpha.pairs), len(alpha.pairs) + 5):
        element = alpha.structure.enumerate(k)
        if element not in alpha.pairs:
            image = rng.choice(nodes)
            assert new_pair_message(alpha, element, image) == reference_new_pair_message(
                alpha, element, image
            )


class TestGroupedChecks:
    @pytest.mark.parametrize("height", [3, 4, 5])
    def test_reassigned_images_match_pairwise_reference(self, height):
        for seed in range(1, 9):
            alpha = build_pmorphism(SyntheticAntichainModel(seed=seed), height, 16 * height)
            rng = random.Random(seed)
            alpha, moved = reassign_images(alpha, rng, rng.randint(1, 3))
            probes = moved + rng.sample(list(alpha.pairs), 3)
            assert_grouped_matches_pairwise(alpha, rng, probes)

    def test_uncorrupted_builds_match_pairwise_reference(self):
        for height in (3, 4, 5):
            alpha = build_pmorphism(SyntheticAntichainModel(seed=height), height, 16 * height)
            rng = random.Random(height)
            assert alpha.check_invariants().ok
            assert_grouped_matches_pairwise(alpha, rng, rng.sample(list(alpha.pairs), 5))

    def test_generic_joins_hook_matches_pairwise_reference(self):
        # incomparable singletons join inside this class, so the
        # incomparability invariant fails where the order one holds
        alpha = build_pmorphism(SyntheticAntichainModel(seed=4), 3, 48)
        rng = random.Random(4)
        loose = PartialHomomorphism(JoinsStayInClass(seed=4), 3, dict(alpha.pairs))
        assert any("incomparability" in v for v in loose.check_invariants().violations)
        assert_grouped_matches_pairwise(loose, rng, rng.sample(list(loose.pairs), 5))

    @pytest.mark.parametrize("model, placed, new, message", CORRUPTIONS)
    def test_corruptions_match_pairwise_reference(self, model, placed, new, message):
        alpha = PartialHomomorphism(model, 3, dict(placed))
        assert new_pair_message(alpha, *new) == reference_new_pair_message(alpha, *new)
        element, image = new
        alpha = PartialHomomorphism(model, 3, {**placed, element: image})
        assert alpha.check_invariants() == reference_check_invariants(alpha)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(1, 2**31 - 1),
        height=st.integers(3, 5),
        count=st.integers(1, 3),
        salt=st.integers(0, 2**31 - 1),
    )
    def test_hypothesis_reassignments_match_pairwise_reference(self, seed, height, count, salt):
        alpha = build_pmorphism(SyntheticAntichainModel(seed=seed), height, 12 * height)
        rng = random.Random(salt)
        alpha, moved = reassign_images(alpha, rng, min(count, len(alpha.pairs)))
        assert_grouped_matches_pairwise(alpha, rng, moved)

    def test_every_pairwise_question_is_still_asked(self):
        class Recording(SyntheticAntichainModel):
            def __init__(self):
                super().__init__()
                self.asked = set()

            def leq(self, a, b):
                self.asked.add(("leq", a, b))
                return super().leq(a, b)

            def joins_in_class(self, a, b):
                self.asked.add(("joins", frozenset({a, b})))
                return super().joins_in_class(a, b)

        alpha = build_pmorphism(SyntheticAntichainModel(seed=5), 4, 64)
        *placed, (last, last_image) = alpha.pairs.items()
        grouped, reference = Recording(), Recording()
        assert PartialHomomorphism(grouped, 4, dict(alpha.pairs)).check_invariants().ok
        reference_check_invariants(PartialHomomorphism(reference, 4, dict(alpha.pairs)))
        assert grouped.asked == reference.asked
        grouped.asked.clear()
        reference.asked.clear()
        PartialHomomorphism(grouped, 4, dict(placed)).check_new_pair(last, last_image)
        reference_alpha = PartialHomomorphism(reference, 4, dict(placed))
        reference_new_pair_message(reference_alpha, last, last_image)
        assert grouped.asked == reference.asked


def fixpoint_closed_domain(alpha):
    """Reference closure: rescan every pair until nothing changes."""
    s = alpha.structure
    items = list(alpha.pairs.items())
    closed = {}
    changed = True
    while changed:
        changed = False
        for element, image in items:
            if element in closed:
                continue
            if len(image) == alpha.height - 1:
                closed[element] = image
                changed = True
                continue
            have0 = any(
                img == image + "0" and e in closed and s.leq(element, e) for e, img in items
            )
            have1 = any(
                img == image + "1" and e in closed and s.leq(element, e) for e, img in items
            )
            if have0 and have1:
                closed[element] = image
                changed = True
    return [e for e, _ in items if e in closed]


class TestClosedDomain:
    @pytest.mark.parametrize("steps", range(20, 61, 10))
    def test_one_pass_matches_fixpoint_on_unfinished_builds(self, steps):
        for seed in range(1, 21):
            alpha = build_pmorphism(SyntheticAntichainModel(seed=seed), 5, steps)
            assert _closed_domain(alpha) == fixpoint_closed_domain(alpha)


class TestPackaging:
    def test_missing_leaf_is_staging_error(self):
        model = SyntheticAntichainModel()
        alpha = PartialHomomorphism(model, 2, {model.least(): "", ac((0,)): "0"})
        with pytest.raises(StagingError, match="'1'"):
            pmorphism_of(alpha)

    def test_unsplit_placements_are_left_out(self):
        # an element placed at the root but never split must not break
        # the packaged morphism's back condition
        model = SyntheticAntichainModel(seed=2)
        alpha = build_pmorphism(model, 3, 24)
        packaged = pmorphism_of(alpha)
        assert verify_pmorphism(packaged).ok
        assert packaged.source.n <= len(alpha.pairs)

    def test_end_to_end_all_heights(self):
        for height in (1, 2, 3, 4):
            model = SyntheticAntichainModel()
            alpha = build_pmorphism(model, height, 56)
            packaged = pmorphism_of(alpha)
            report = verify_pmorphism(packaged)
            assert report.ok, report.violations
            assert packaged.target.n == 2**height - 1


class TestSerialization:
    def test_labels(self):
        assert antichain_label(ac(())) == "{}"
        assert antichain_label(ac((0, 1), (2,))) == "{01,2}"
        assert antichain_label(ac((12,))) == "{(12)}"

    def test_partial_hom_json(self):
        model = SyntheticAntichainModel()
        alpha = build_pmorphism(model, 2, 3)
        data = alpha.to_json()
        assert data["height"] == 2
        assert all({"element", "image"} <= set(p) for p in data["pairs"])

    def test_non_antichain_elements_encode_by_description(self):
        model = SortedTupleModel()
        alpha = build_pmorphism(model, 2, 3)
        pairs = alpha.to_json()["pairs"]
        assert [p["element"] for p in pairs] == [model.describe(e) for e in alpha.pairs]
        placed = [entry["element"] for entry in alpha.trace if entry["action"] == "place"]
        assert placed == [p["element"] for p in pairs]
