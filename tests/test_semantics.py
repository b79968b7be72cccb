"""Evaluation, forcing, theories and the bounded IPC decision.

Countermodel golden values were computed by the independent brute-force
sweep in `first_refutation` below and then frozen.
"""

import functools
import gc
import random
import time
import weakref
from dataclasses import astuple
from itertools import product

import pytest
from conftest import formulas
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordsem import semantics
from ordsem.brouwer import (
    BrouwerAlgebra,
    impl_mask,
    interval_algebra,
    quotient,
    upset_algebra,
    verify_brouwer,
)
from ordsem.corpus import (
    BOUNDED_REFUTED,
    BOUNDED_VALID,
    IPC_THEOREMS,
    MIXED_CORPUS,
    NON_THEOREMS,
    parsed,
)
from ordsem.errors import CapacityError, InputError, OrdsemError, ValuationError
from ordsem.formulas import And, Bot, Or, Var, free_vars, parse
from ordsem.order import (
    Poset,
    Upset,
    bits,
    enumerate_upsets,
    from_relation,
    generate_posets,
    random_posets,
    upper_covers,
    upset_masks,
    upward_closure,
)
from ordsem.semantics import (
    Countermodel,
    ValidUpToBound,
    binary_tree_frame,
    eval_algebra,
    forced_upset,
    forces,
    frame_witness,
    holds_in,
    ipc_check_bounded,
    theory_contains,
)


def first_refutation(frame, formula):
    """Independent oracle: scan valuations in canonical order via `forces`."""
    names = sorted(free_vars(formula))
    masks = upset_masks(frame)
    for choice in product(masks, repeat=len(names)):
        valuation = {n: Upset(frame, m) for n, m in zip(names, choice)}
        for point in frame.elements:
            if not forces(frame, point, valuation, formula):
                return valuation, point
    return None


def reference_witness(frame, formula):
    """The frame sweep before bit-slicing: one valuation at a time in
    canonical order through the compiled program, implication by
    `impl_mask`.  The first refuting (name -> mask, point), or None."""
    names, steps, root = semantics._compile(formula)
    for choice in product(upset_masks(frame), repeat=len(names)):
        slots = [*choice, 0]
        for op, a, b in steps:
            x, y = slots[a], slots[b]
            if op == semantics._AND:
                slots.append(x & y)
            elif op == semantics._OR:
                slots.append(x | y)
            else:
                slots.append(impl_mask(frame, x, y))
        forced = slots[root]
        if forced != frame.full_mask:
            point = next(i for i in range(frame.n) if not (forced >> i) & 1)
            return dict(zip(names, choice)), frame.elements[point]
    return None


def mask_witness(witness):
    """A ``frame_witness`` answer with each upset as its mask."""
    if witness is None:
        return None
    valuation, point = witness
    return {name: upset.mask for name, upset in valuation.items()}, point


def assert_sweep_matches_reference(frame, formula):
    witness = mask_witness(frame_witness(frame, formula))
    assert witness == reference_witness(frame, formula), (frame, formula)


def reference_algebra_refutation(algebra, formula):
    """The algebra fold before lanes: one valuation at a time, in product
    order over the sorted variables.  The first refuting name -> index
    choice, or None."""
    names, steps, root = semantics._compile(formula)
    tables = (algebra.join, algebra.meet, algebra.impl)
    for choice in product(range(algebra.n), repeat=len(names)):
        slots = [*choice, algebra.top]
        for op, a, b in steps:
            slots.append(tables[op][slots[a]][slots[b]])
        if slots[root] != algebra.bottom:
            return dict(zip(names, choice))
    return None


def stored_refutation(structure, formula, max_valuations=semantics.MAX_VALUATIONS):
    """The answer the structure stores for the formula, as (name -> value
    index, index of the refuted point of the swept frame), or None."""
    _, names, found = semantics._answer(structure, formula, max_valuations)
    if found is None:
        return None
    *choice, point = found
    return dict(zip(names, choice)), point


def assert_lanes_match_reference(algebra, formula):
    """The stored choice is the fold's, and its point is the first one of
    the dual frame that forcing under that choice misses."""
    found = stored_refutation(algebra, formula)
    env = None if found is None else found[0]
    assert env == reference_algebra_refutation(algebra, formula), (algebra.carrier, formula)
    if found is not None:
        dual, values = semantics._dual(algebra)
        valuation = {name: Upset(dual, values[i]) for name, i in env.items()}
        missed = dual.full_mask & ~forced_upset(dual, valuation, formula).mask
        assert missed & -missed == 1 << found[1], (algebra.carrier, formula)


def plan_shapes(structure):
    """Each stored plan's lane width, and whether it built leading rows,
    by variable count."""
    return {k: (plan[3], plan[4] is not None) for k, plan in structure._tables.plans.items()}


def order_algebra(labels, pairs):
    """An algebra through the public constructor on the bounded order the
    relation generates, the first label its 0 and the last its 1: (+) the
    lub where there is one and 1 elsewhere, (x) the glb or 0, -> 0."""
    order = from_relation(labels, pairs)
    cells = range(order.n)

    def bound(cones, a, b, default):
        common = cones[a] & cones[b]
        return cones.index(common) if common in cones else default

    join = tuple(tuple(bound(order.up, a, b, order.n - 1) for b in cells) for a in cells)
    meet = tuple(tuple(bound(order.down, a, b, 0) for b in cells) for a in cells)
    return BrouwerAlgebra(order.elements, join, meet, ((0,) * order.n,) * order.n)


def chain_algebra(n):
    """The Brouwer algebra on the chain c0 < ... < c{n-1}."""
    cells = range(n)
    join = tuple(tuple(max(a, b) for b in cells) for a in cells)
    meet = tuple(tuple(min(a, b) for b in cells) for a in cells)
    impl = tuple(tuple(0 if b <= a else b for b in cells) for a in cells)
    return BrouwerAlgebra(tuple(f"c{i}" for i in cells), join, meet, impl)


def subframe(frame, keep):
    """The subposet of the frame on the points of the mask ``keep``."""
    points = list(bits(keep))
    pos = {x: i for i, x in enumerate(points)}
    cones = (sum(1 << pos[y] for y in bits(frame.up[x] & keep)) for x in points)
    return Poset(tuple(frame.elements[x] for x in points), tuple(cones))


def assert_dual_is_subframe(algebra, frame, x=0):
    """The dual frame of ``algebra``, which is [0, X] of Up(frame) for the
    upset mask x, is the subposet of the frame off X: its point y stands
    as the element X | up(y), under that element's label in Up(frame)."""
    labels = dict(zip(upset_masks(frame), upset_algebra(frame).carrier))
    dual, _ = semantics._dual(algebra)
    rest = list(bits(frame.full_mask & ~x))
    point = {y: dual.index_of(labels[x | frame.up[y]]) for y in rest}
    assert dual.n == len(set(point.values())) == len(rest)
    for y in rest:
        assert dual.up[point[y]] == sum(1 << point[z] for z in bits(frame.up[y] & ~x))


def pointwise_forces(frame, x, env, f):
    """Independent oracle: Kripke's clauses read at point x (env: name -> mask)."""
    if isinstance(f, Var):
        return (env[f.name] >> x) & 1 == 1
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return pointwise_forces(frame, x, env, f.left) and pointwise_forces(frame, x, env, f.right)
    if isinstance(f, Or):
        return pointwise_forces(frame, x, env, f.left) or pointwise_forces(frame, x, env, f.right)
    return all(
        not pointwise_forces(frame, y, env, f.left) or pointwise_forces(frame, y, env, f.right)
        for y in range(frame.n)
        if (frame.up[x] >> y) & 1
    )


def prefix_tree(height):
    """Independent oracle for 2^{<height}: every binary string shorter than
    height, sorted by (length, string), ordered by testing every pair for
    a prefix."""
    nodes = sorted(
        ("".join(word) for k in range(height) for word in product("01", repeat=k)),
        key=lambda s: (len(s), s),
    )
    cones = (sum(1 << j for j, t in enumerate(nodes) if t.startswith(s)) for s in nodes)
    return Poset(tuple(nodes), tuple(cones))


def remembering_ipc_check(formula, max_height, max_valuations=semantics.MAX_VALUATIONS):
    """Reference bounded IPC search that does not assume levels grow: it
    keeps every earlier level and stops at the first one that repeats any
    of them, its tree comes from ``prefix_tree``, and its countermodel
    point from a second run of the program through ``forced_upset``.
    Returns (answer, or the CapacityError message; the levels it built)."""
    names, steps, root = semantics._compile(formula)
    atoms = (1 << len(names)) - 1

    def close(profile, shared):
        for slot, (op, a, b) in enumerate(steps, len(names) + 1):
            x, y = profile >> a & 1, profile >> b & 1
            if op == semantics._AND:
                forced = x and y
            elif op == semantics._OR:
                forced = x or y
            else:
                forced = (not x or y) and shared >> slot & 1
            if forced:
                profile |= 1 << slot
        return profile

    previous, seen, levels, spent = {-1}, set(), [], 0
    for k in range(1, max_height + 1):
        spent += len(previous) ** 2
        if spent <= max_valuations:
            shared_sets = {p0 & p1 for p0 in previous for p1 in previous}
            spent += sum(1 << (shared & atoms).bit_count() for shared in shared_sets)
        if spent > max_valuations:
            return f"profile guard: {spent} pairings and closures by height {k} exceed {max_valuations}", levels
        current = set()
        for shared in shared_sets:
            common = shared & atoms
            for sub in range(common + 1):
                if sub & ~common == 0:
                    current.add(close(sub, shared))
        levels.append(current)
        if any(not p >> root & 1 for p in current):
            frame = prefix_tree(k)
            try:
                env, _ = stored_refutation(frame, formula, max_valuations)
            except CapacityError as exc:
                return str(exc), levels
            masks = upset_masks(frame)
            valuation = {name: Upset(frame, masks[i]) for name, i in env.items()}
            forced = forced_upset(frame, valuation, formula).mask
            point = next(i for i in range(frame.n) if not forced >> i & 1)
            return Countermodel(formula, frame, valuation, frame.elements[point], k), levels
        level = frozenset(current)
        if level in seen:
            break
        seen.add(level)
        previous = current
    return ValidUpToBound(formula, max_height), levels


def assert_search_matches_remembering_copy(formula):
    """Equal answers at bounds 1-6, and the copy's levels only grow."""
    for bound in range(1, 7):
        expected, levels = remembering_ipc_check(formula, bound)
        try:
            found = ipc_check_bounded(formula, bound)
        except CapacityError as exc:
            found = str(exc)
        assert found == expected, (formula, bound)
        assert all(low <= high for low, high in zip(levels, levels[1:])), (formula, bound)


def assert_least_refuting_height(formula):
    """Bounded IPC answers with the least refuting tree height, per enumeration."""
    for bound in (1, 2, 3):
        refuting = (k for k in range(1, bound + 1) if frame_witness(binary_tree_frame(k), formula))
        least = next(refuting, None)
        result = ipc_check_bounded(formula, bound)
        if least is None:
            assert result == ValidUpToBound(formula, bound)
        else:
            assert isinstance(result, Countermodel) and result.height == least
            assert not forces(result.frame, result.point, result.valuation, formula)


class TestCompile:
    def test_one_step_per_distinct_subformula(self):
        # slots: p, q, falsum, then p & q, then the implication
        formula = parse("p -> (p & q)")
        program = semantics._compile(formula)
        assert program == (("p", "q"), ((semantics._AND, 0, 1), (semantics._IMP, 0, 3)), 4)
        # the program lives on the formula's node, and a parse of the same
        # text is that node while it lives
        assert formula.program is program
        assert semantics._compile(parse("p -> (p & q)")) is program
        assert len(semantics._compile(parse("(p & q) -> (p & q)"))[1]) == 2


class TestEvalAlgebra:
    def test_self_implication_everywhere(self):
        for poset in generate_posets(2):
            algebra = upset_algebra(poset)
            for value in algebra.carrier:
                assert holds_in(algebra, parse("p -> p"), {"p": value})

    def test_bot_maps_to_one(self, chain2):
        algebra = upset_algebra(chain2)
        assert eval_algebra(parse("bot"), algebra, {}) == algebra.carrier[algebra.top]

    def test_weak_lem_on_fork(self, fork):
        algebra = upset_algebra(fork)
        value = eval_algebra(parse("~p | ~~p"), algebra, {"p": "{l}"})
        assert value == "{l,k}"
        assert value != algebra.carrier[algebra.bottom]

    def test_unbound_variable(self, chain2):
        with pytest.raises(ValuationError):
            eval_algebra(parse("p"), upset_algebra(chain2), {})

    @pytest.mark.parametrize(
        "evaluate",
        [holds_in, lambda algebra, f, valuation: eval_algebra(f, algebra, valuation)],
        ids=["holds_in", "eval_algebra"],
    )
    def test_label_and_variable_errors(self, fork, evaluate):
        # a missing variable is a ValuationError; an unknown label is an
        # InputError, on a variable the formula does not use too, and it
        # is reported before a missing variable
        algebra = upset_algebra(fork)
        cases = [
            ("p -> q", {"p": "{l}"}, ValuationError, "no value for variable 'q'"),
            ("p", {"p": "{l}", "r": "{nope}"}, InputError, "unknown carrier element '{nope}'"),
            ("p -> q", {"p": "{l}", "r": "{nope}"}, InputError, "unknown carrier element '{nope}'"),
        ]
        for text, valuation, kind, message in cases:
            with pytest.raises(OrdsemError) as info:
                evaluate(algebra, parse(text), valuation)
            assert type(info.value) is kind and str(info.value) == message


class TestForces:
    def test_self_implication(self, fork):
        valuation = {"p": upward_closure(fork, ["l"])}
        for point in fork.elements:
            assert forces(fork, point, valuation, parse("p -> p"))

    def test_fork_root_rejects_weak_lem(self, fork):
        valuation = {"p": upward_closure(fork, ["l"])}
        assert not forces(fork, "r", valuation, parse("~p | ~~p"))
        assert forces(fork, "l", valuation, parse("~~p"))
        assert forces(fork, "k", valuation, parse("~p"))

    def test_persistence_on_diamond(self, diamond):
        valuation = {"p": upward_closure(diamond, ["top"])}
        corpus = [parse(t) for t in ("p", "~p", "~~p", "p -> p", "p | ~p", "~p | ~~p")]
        for formula in corpus:
            forced = forced_upset(diamond, valuation, formula)
            for x in diamond.elements:
                for y in diamond.elements:
                    if diamond.leq(x, y) and x in forced:
                        assert y in forced

    def test_unknown_point(self, fork):
        with pytest.raises(InputError):
            forces(fork, "zz", {"p": upward_closure(fork, ["l"])}, parse("p"))

    def test_forced_set_is_always_upset(self):
        for poset in generate_posets(3):
            masks = upset_masks(poset)
            for formula in parsed(MIXED_CORPUS[:10]):
                for m in masks:
                    valuation = {"p": Upset(poset, m), "q": Upset(poset, m)}
                    forced_upset(poset, valuation, formula)  # validates on build


class TestTheory:
    def test_weak_lem_on_chain(self, chain2):
        assert theory_contains(chain2, parse("~p | ~~p"))

    def test_weak_lem_not_on_fork(self, fork):
        assert not theory_contains(fork, parse("~p | ~~p"))

    def test_excluded_middle_not_on_chain(self, chain2):
        formula = parse("p | ~p")
        assert not theory_contains(chain2, formula)
        valuation, point = frame_witness(chain2, formula)
        assert point == "a"
        assert valuation["p"].members == ("b",)

    @pytest.mark.parametrize("text", ["p | ~p", "p -> p"], ids=["refuted", "valid"])
    def test_frame_witness_refuses_an_algebra(self, fork, text):
        # an algebra's refuted point lies in its dual frame, not in the algebra
        with pytest.raises(InputError, match="^cannot compute a frame witness over BrouwerAlgebra$"):
            frame_witness(upset_algebra(fork), parse(text))

    def test_algebra_and_frame_agree_small(self):
        corpus = parsed(MIXED_CORPUS)
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for formula in corpus:
                assert theory_contains(poset, formula) == theory_contains(
                    algebra, formula
                )

    def test_forcing_matches_algebra_value(self, fork):
        # the forced set IS the algebra value, under the upset reading
        algebra = upset_algebra(fork)
        masks = upset_masks(fork)
        for formula in parsed(MIXED_CORPUS[:12]):
            for m in masks:
                forced = forced_upset(fork, {"p": Upset(fork, m), "q": Upset(fork, m)}, formula)
                label = "{" + ",".join(fork.labels_of(m)) + "}"
                value = eval_algebra(formula, algebra, {"p": label, "q": label})
                assert value == "{" + ",".join(forced.members) + "}"

    def test_soundness_small(self):
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for formula in parsed(IPC_THEOREMS):
                assert theory_contains(algebra, formula)

    def test_capacity_guard(self, fork):
        with pytest.raises(CapacityError):
            theory_contains(fork, parse("p -> q"), max_valuations=3)

    def test_caller_guard_overrides_module_default(self, fork, monkeypatch):
        # 5 upsets, 2 variables: 25 valuations
        monkeypatch.setattr(semantics, "MAX_VALUATIONS", 10)
        assert theory_contains(fork, parse("p -> q"), max_valuations=1000) is False
        with pytest.raises(CapacityError):
            theory_contains(fork, parse("p -> q"), max_valuations=24)

    def test_cache_hit_skips_upset_enumeration(self, fork, monkeypatch):
        formula = parse("(p -> q) | (q -> p) | r")  # 5 upsets, 3 variables: 125 valuations
        assert theory_contains(fork, formula) is False
        calls = []
        monkeypatch.setattr(semantics, "upset_masks", lambda frame: calls.append(frame))
        assert theory_contains(fork, formula) is False
        with pytest.raises(CapacityError, match=r"valuation guard: 5\^3 exceeds 124"):
            theory_contains(fork, formula, max_valuations=124)
        assert calls == []

    def test_pointwise_forcing_oracle(self):
        # every poset on <= 3 elements x MIXED_CORPUS x every valuation
        corpus = parsed(MIXED_CORPUS)
        for poset in (p for n in (1, 2, 3) for p in generate_posets(n)):
            masks = upset_masks(poset)
            algebra = upset_algebra(poset)
            for formula in corpus:
                names = sorted(free_vars(formula))
                for choice in product(masks, repeat=len(names)):
                    env = dict(zip(names, choice))
                    expected = sum(
                        1 << x for x in range(poset.n) if pointwise_forces(poset, x, env, formula)
                    )
                    valuation = {n: Upset(poset, m) for n, m in env.items()}
                    assert forced_upset(poset, valuation, formula).mask == expected
                    labels = {n: algebra.carrier[masks.index(m)] for n, m in env.items()}
                    value = eval_algebra(formula, algebra, labels)
                    assert masks[algebra.index_of(value)] == expected


def transfer_sized_frames(seed, count):
    """Seeded frames on 6 and 7 elements, the sizes of the benchmark's
    transfer sources: each pair i < j is related with probability 1/4."""
    rng = random.Random(seed)
    frames = []
    for k in range(count):
        labels = "abcdefg"[: 6 + k % 2]
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :] if rng.random() < 0.25]
        frames.append(from_relation(labels, pairs))
    return frames


class TestFrameSweepDifferential:
    """The bit-sliced sweep finds the refutation the one-at-a-time loop did,
    whether one variable, two or three share the lanes."""

    CORPUS = parsed(MIXED_CORPUS + IPC_THEOREMS[25:])  # and the 3-variable theorems
    FRAMES = random_posets(4, 20, seed=5) + random_posets(5, 20, seed=6)
    THREE_VARIABLES = parsed(
        IPC_THEOREMS[25:] + BOUNDED_REFUTED[-1:] + ("(p -> q) | (q -> r) | (r -> p)", "p & q -> r")
    )

    def test_every_small_poset(self):
        for poset in (p for n in (1, 2, 3, 4) for p in generate_posets(n)):
            for formula in self.CORPUS:
                assert_sweep_matches_reference(poset, formula)

    def test_antichain_and_tree(self):
        for frame in (from_relation("abcde", []), binary_tree_frame(3)):
            for formula in self.CORPUS:
                assert_sweep_matches_reference(frame, formula)

    def test_transfer_sized_frames(self):
        # the two fixed 80- and 72-upset sources, and seeded ones of 20 to 68:
        # every two-variable formula is one sweep of up to 6,400 lanes
        frames = [
            from_relation("abcdefg", [("a", "b"), ("a", "c")]),
            from_relation("abcdefg", [("a", "b"), ("c", "d")]),
            *transfer_sized_frames(3, 6),
        ]
        assert [len(upset_masks(frame)) for frame in frames[:2]] == [80, 72]
        for frame in frames:
            for formula in parsed(MIXED_CORPUS):
                assert_sweep_matches_reference(frame, formula)
            assert plan_shapes(frame) == {0: (0, False), 1: (1, False), 2: (2, False)}

    def test_three_variables_share_the_lanes(self):
        # at most 20 upsets: 20^3 = 8,000 lanes, one sweep per formula
        frames = [p for n in (2, 3) for p in generate_posets(n)]
        frames += [p for p in generate_posets(4) if 16 <= len(upset_masks(p)) <= 20][::6]
        for frame in frames:
            for formula in self.THREE_VARIABLES:
                assert_sweep_matches_reference(frame, formula)
            assert plan_shapes(frame) == {3: (3, False)}

    def test_past_the_lane_bound(self):
        # 677 upsets: 677^2 exceeds the bound, so the last variable has the
        # lanes alone and the first is looped over
        tree = binary_tree_frame(4)
        for formula in parsed(NON_THEOREMS):
            assert_sweep_matches_reference(tree, formula)
        assert plan_shapes(tree) == {0: (0, False), 1: (1, False), 2: (1, True)}

    @settings(deadline=None, max_examples=150)
    @given(formulas(3), st.integers(0, 39))
    def test_random_formulas(self, formula, index):
        assert_sweep_matches_reference(self.FRAMES[index], formula)


@pytest.fixture(scope="module")
def tree4_algebra():
    return upset_algebra(binary_tree_frame(4))  # 677 elements, a 15-point dual


class TestAlgebraLaneDifferential:
    """The sweep of an algebra's dual frame finds the refutation the
    one-valuation fold did."""

    CORPUS = parsed(MIXED_CORPUS)
    ALGEBRAS = [upset_algebra(p) for n in (1, 2, 3, 4) for p in generate_posets(n)]
    ALGEBRAS.append(upset_algebra(from_relation("abcde", [])))

    def test_every_small_algebra(self):
        for algebra in self.ALGEBRAS:
            for formula in self.CORPUS:
                assert_lanes_match_reference(algebra, formula)

    @settings(deadline=None, max_examples=150)
    @given(formulas(3), st.integers(0, len(ALGEBRAS) - 1))
    def test_random_formulas(self, formula, index):
        assert_lanes_match_reference(self.ALGEBRAS[index], formula)

    def test_quotient_algebras(self):
        # algebras built by factoring rather than from upsets
        algebra = upset_algebra(from_relation("abc", [("a", "b")]))
        for element in algebra.carrier:
            factor = quotient(algebra, element)
            for formula in self.CORPUS:
                assert_lanes_match_reference(factor, formula)

    def test_a_tall_chain(self):
        # the dual is a chain of 39 points, the case the upper covers are for
        chain = chain_algebra(40)
        assert verify_brouwer(chain).ok
        assert semantics._dual(chain)[0].n == 39
        for formula in self.CORPUS:
            assert_lanes_match_reference(chain, formula)

    def test_the_algebra_of_the_tree_of_height_four(self, tree4_algebra):
        for formula in self.CORPUS:
            if len(free_vars(formula)) <= 1:
                assert_lanes_match_reference(tree4_algebra, formula)

    def test_the_tree_of_height_four_and_its_algebra_agree(self, tree4_algebra):
        tree = binary_tree_frame(4)
        two_variables = [t for t in IPC_THEOREMS if len(free_vars(parse(t))) == 2]
        for formula in parsed(NON_THEOREMS + tuple(two_variables)):
            assert theory_contains(tree4_algebra, formula) == theory_contains(tree, formula)


class TestDualFrame:
    """An algebra is swept on the frame of its meet-irreducibles, which the
    order of its join table must make a distributive lattice."""

    def test_an_upset_algebra_has_its_frame_as_dual(self):
        for poset in (p for n in (1, 2, 3, 4) for p in generate_posets(n)):
            assert_dual_is_subframe(upset_algebra(poset), poset)

    @pytest.mark.parametrize(
        "labels, pairs",
        [
            ("0abc1", [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
            ("0abc1", [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]),
            # no lattice: 0, a and b all stand for the upset {c, d}
            ("0abcd1", [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                        ("c", "1"), ("d", "1")]),
        ],
        ids=["N5", "M3", "bowtie"],
    )
    def test_a_non_distributive_order_is_refused(self, labels, pairs):
        algebra = order_algebra(list(labels), pairs)
        with pytest.raises(InputError, match="not a distributive lattice"):
            theory_contains(algebra, parse("p -> p"))
        with pytest.raises(InputError, match="not a distributive lattice"):
            theory_contains(algebra, parse("bot -> bot"))

    def test_a_non_lattice_with_the_right_upset_count_is_refused(self):
        # a and c have the upper bounds e, f, 1 and no least one; yet the
        # elements with one upper cover, b < d < f and e, have 8 upsets, and
        # the elements' upsets are all of them: only the order check fails
        algebra = order_algebra(
            ["0", "a", "b", "c", "d", "e", "f", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "e"), ("a", "f"), ("b", "d"),
             ("c", "d"), ("c", "e"), ("d", "f"), ("e", "1"), ("f", "1")],
        )
        assert algebra.up[1] == 0b11100010  # a <= e, f, 1
        with pytest.raises(InputError, match="not a distributive lattice"):
            theory_contains(algebra, parse("p -> p"))

    def test_a_distributive_lattice_is_accepted(self):
        # 0 < m < a, b < 1 built the same way: Up of the fork 0 < a, 0 < b
        algebra = order_algebra(
            ["0", "m", "a", "b", "1"], [("0", "m"), ("m", "a"), ("m", "b"), ("a", "1"), ("b", "1")]
        )
        dual, values = semantics._dual(algebra)
        assert dual.elements == ("0", "a", "b") and dual.up == (0b111, 0b010, 0b100)
        assert values == (0b111, 0b110, 0b010, 0b100, 0)
        assert theory_contains(algebra, parse("(p -> q) | (q -> p)")) is False


class TestFactorsAsSubframes:
    """For an upset X of a frame F, the interval [0, X] of Up(F) is
    Up(F - X) through U |-> U - X: the paper's factor by X, read on the
    frame side, is the downset F - X."""

    CORPUS = parsed(MIXED_CORPUS)
    FRAMES = [p for n in (1, 2, 3) for p in generate_posets(n)]
    FRAMES += random.Random(4).sample(list(generate_posets(4)), 100)

    def test_every_interval_is_the_upset_algebra_of_a_downset(self):
        for frame in self.FRAMES:
            algebra = upset_algebra(frame)
            for x, label in zip(upset_masks(frame), algebra.carrier):
                interval, _ = interval_algebra(algebra, label)
                rest = subframe(frame, frame.full_mask & ~x)
                assert interval.n == len(upset_masks(rest))
                for formula in self.CORPUS:
                    assert theory_contains(interval, formula) == theory_contains(rest, formula)
                assert_dual_is_subframe(interval, frame, x)


class TestLaneTables:
    """Each structure's plans are built once per variable count, and only
    when a query that passed the valuation guard needs one; they share the
    structure's covers."""

    def test_tables_are_kept_per_frame(self):
        frame = from_relation("abcdefg", [("a", "b"), ("a", "c")])  # 80 upsets
        assert not theory_contains(frame, parse("(p -> q) | (q -> p)"))
        tables = frame._tables
        covers = tables.covers
        assert covers == upper_covers(frame)
        assert plan_shapes(frame) == {2: (2, False)}
        plan = tables.plans[2]
        assert len(plan[6]) == 3  # two trailing slots and falsum's
        assert not theory_contains(frame, parse("~p | ~~p | q"))
        assert not theory_contains(frame, parse("(q -> r) | p | ~p"))
        assert plan_shapes(frame) == {2: (2, False), 3: (2, True)}
        rows = tables.plans[3][4]  # the three-variable query's leading rows
        assert len(rows) == len(tables.values) == 80
        assert not theory_contains(frame, parse("(p -> q) | (q -> r) | r"))
        assert not theory_contains(frame, parse("(p -> q) | q"))
        assert tables.plans[2] is plan and tables.plans[3][4] is rows
        assert tables.covers is covers
        assert all(each[0] is covers for each in tables.plans.values())

    def test_one_variable_query_builds_no_rows(self):
        # 16 points, 65,536 upsets: rows would be 65,536 lists of 16 ints
        wide = from_relation([f"a{i}" for i in range(16)], [])
        assert theory_contains(wide, parse("p | ~p"))  # an antichain is classical
        assert frame_witness(wide, parse("p")) is not None
        tables = wide._tables
        assert len(tables.values) == 1 << 16
        assert plan_shapes(wide) == {1: (1, False)}
        plan = tables.plans[1]
        assert len(plan[6]) == 2  # one trailing slot and falsum's
        with pytest.raises(CapacityError, match=r"valuation guard: 65536\^2"):
            theory_contains(wide, parse("p -> q"))
        assert tables.plans == {1: plan}

    def test_guard_comes_before_any_table(self):
        frame = from_relation("abcdefg", [("a", "b")])  # 96 upsets
        with pytest.raises(CapacityError, match=r"valuation guard: 96\^2 exceeds 9215"):
            theory_contains(frame, parse("p -> q"), max_valuations=9215)
        tables = frame._tables
        assert tables.plans == {} and tables.answers == {}

    def test_no_variable_query_builds_no_lanes(self):
        frame = from_relation(["u0", "u1", "u2"], [("u0", "u1")])  # asked nothing else
        assert not theory_contains(frame, parse("bot"))
        assert theory_contains(frame, parse("bot -> bot"))
        assert plan_shapes(frame) == {0: (0, False)}
        _, ones, _, _, _, pools, fixed = frame._tables.plans[0]
        assert ones == 1 and pools == () and fixed == [[0, 0, 0]]  # one lane, falsum's slot only
        assert frame._tables.answers[parse("bot")] == (0,)  # refuted at u0, the first point


PLAN_FRAMES = (
    from_relation("abcde", []),  # 32 upsets: a three-variable query loops a leading variable
    from_relation("rlk", [("r", "l"), ("r", "k")]),
    from_relation("abcd", [("a", "b"), ("b", "c"), ("a", "d")]),
)
PLAN_TEXTS = (
    "bot",
    "bot -> bot",
    "p | ~p",
    "~p | ~~p",
    "(p -> q) | (q -> p)",
    "~(p & q) -> ~p | ~q",
    "p -> q | r",
    "(p -> q) | (q -> r) | (r -> p)",
    "(p -> r) -> (q -> r) -> p | q -> r",
)


@functools.cache
def plan_references(index, text):
    """The one-valuation references' answers on PLAN_FRAMES[index]: the
    frame witness as (name -> mask, point), and the algebra refutation."""
    frame, formula = PLAN_FRAMES[index], parse(text)
    algebra = upset_algebra(frame)
    return reference_witness(frame, formula), reference_algebra_refutation(algebra, formula)


class TestQueryPlans:
    """One structure answers a mix of 0- to 3-variable queries, each
    variable count swept by the plan its first query built, as a fresh
    equal structure and the one-valuation references do, in any order."""

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, len(PLAN_FRAMES) - 1), st.permutations(PLAN_TEXTS))
    @example(0, PLAN_TEXTS)  # the two-variable plan first, then the three-variable one's rows
    @example(0, PLAN_TEXTS[::-1])  # the three-variable plan, with its rows, first
    def test_any_order_gives_the_fresh_answers(self, index, texts):
        frame = PLAN_FRAMES[index]
        shared_frame, shared_algebra = Poset(frame.elements, frame.up), upset_algebra(frame)
        for text in texts:
            formula = parse(text)
            on_frame, on_algebra = plan_references(index, text)
            witness = mask_witness(frame_witness(shared_frame, formula))
            assert witness == mask_witness(frame_witness(Poset(frame.elements, frame.up), formula))
            assert witness == on_frame, (index, text)
            found = stored_refutation(shared_algebra, formula)
            assert found == stored_refutation(upset_algebra(frame), formula)
            assert (None if found is None else found[0]) == on_algebra, (index, text)
            holds = found is None
            assert theory_contains(shared_algebra, formula) is holds
            assert theory_contains(shared_frame, formula) is holds
        counts = {len(free_vars(parse(text))) for text in texts}
        for structure in (shared_frame, shared_algebra):
            tables = structure._tables
            assert set(tables.plans) == counts
            assert all(plan[0] is tables.covers for plan in tables.plans.values())

    @pytest.mark.parametrize("query", [theory_contains, frame_witness])
    def test_a_non_structure_is_refused_alike_before_and_after_queries(self, query):
        formula = parse("p -> q")
        others = [42, None, "abc", {"elements": ["a"], "leq": []}, formula]
        frame = from_relation(["ns-r", "ns-l", "ns-k"], [("ns-r", "ns-l"), ("ns-r", "ns-k")])
        # nothing asked yet, then a cold query, then one that reads its plan
        for asked in (None, "(p -> q) | (q -> p)", "p & q -> q"):
            if asked is not None:
                theory_contains(frame, parse(asked))
            for other in others:
                with pytest.raises(InputError) as info:
                    query(other, formula)
                assert str(info.value) == f"cannot compute a theory over {type(other).__name__}"
        assert set(frame._tables.plans) == {2}

    def test_a_guard_failure_after_a_cached_plan_adds_nothing(self):
        frame = from_relation(["gp-a", "gp-b", "gp-c", "gp-d", "gp-e"], [])  # 32 upsets
        assert theory_contains(frame, parse("(p -> q) | (q -> p)"))
        tables = frame._tables
        plans, answers = dict(tables.plans), dict(tables.answers)
        with pytest.raises(CapacityError, match=r"valuation guard: 32\^2 exceeds 1023"):
            theory_contains(frame, parse("p & q -> q"), max_valuations=1023)
        with pytest.raises(CapacityError, match=r"valuation guard: 32\^3 exceeds 32767"):
            frame_witness(frame, parse("p -> q | r"), max_valuations=32767)
        assert tables.plans == plans and tables.answers == answers
        assert all(tables.plans[k] is plans[k] for k in plans)


class TestTablesLiveOnTheStructure:
    """A structure's tables and answers are held by the structure alone, so
    they go when it goes, and an equal copy rebuilds the same answers.
    Each test labels its fork apart, so no structure another test asked
    about is equal to it."""

    FORMULA = parse("(p -> q) | (q -> p)")

    @staticmethod
    def fork_frame(tag):
        r, l, k = f"{tag}-r", f"{tag}-l", f"{tag}-k"
        return from_relation([r, l, k], [(r, l), (r, k)])

    @classmethod
    def fork_algebra(cls, tag):
        return upset_algebra(cls.fork_frame(tag))

    @pytest.mark.parametrize("build", ["fork_frame", "fork_algebra"])
    def test_a_dropped_structure_is_collected(self, build):
        structure = getattr(self, build)(f"dropped-{build}")
        assert not theory_contains(structure, self.FORMULA)
        gone = weakref.ref(structure)
        del structure
        gc.collect()
        assert gone() is None

    def test_a_cached_point_is_the_point_a_fresh_frame_finds(self):
        # the root comes last, so the refuted point is not the first point
        r, l, k = "cached-r", "cached-l", "cached-k"
        frame = from_relation([l, k, r], [(r, l), (r, k)])
        formula = parse("p | ~p")
        assert not theory_contains(frame, formula)
        assert frame._tables.answers[formula] == (1, 2)  # p = {l}, refuted at r
        witness = frame_witness(frame, formula)
        fresh = Poset(frame.elements, frame.up)
        assert not hasattr(fresh, "_tables")
        assert witness == frame_witness(fresh, formula)
        assert witness[1] == r

    @pytest.mark.parametrize(
        "text",
        ["bot", "p | ~p", "(p -> q) | (q -> p)", "p | q | r | s | t | ~u"],
        ids=["no-variable", "one-variable", "two-variables", "a-leading-variable"],
    )
    def test_every_answer_ends_in_its_point(self, text):
        # a frame's point is its own, an algebra's is its dual frame's
        frame, algebra = self.fork_frame(f"point-{text}"), self.fork_algebra(f"point-{text}")
        formula = parse(text)
        variables = len(free_vars(formula))
        assert not theory_contains(algebra, formula)
        witness = frame_witness(frame, formula)
        for structure in (frame, algebra):
            assert len(structure._tables.answers[formula]) == variables + 1
        assert frame.elements[frame._tables.answers[formula][-1]] == witness[1]
        assert_sweep_matches_reference(frame, formula)
        assert_lanes_match_reference(algebra, formula)

    @pytest.mark.parametrize("build", ["fork_frame", "fork_algebra"])
    def test_an_equal_copy_gives_the_same_refutation(self, build):
        structure = getattr(self, build)(f"equal-{build}")
        kind, fields = type(structure), astuple(structure)
        first = stored_refutation(structure, self.FORMULA)
        gone = weakref.ref(structure)
        del structure
        gc.collect()
        assert gone() is None
        copy = kind(*fields)
        assert not hasattr(copy, "_tables")
        again = stored_refutation(copy, self.FORMULA)
        assert first is not None and again == first


class TestBinaryTree:
    def test_heights(self):
        assert binary_tree_frame(1).elements == ("",)
        assert binary_tree_frame(2).elements == ("", "0", "1")
        assert binary_tree_frame(3).n == 7

    def test_prefix_order(self):
        tree = binary_tree_frame(3)
        assert tree.leq("", "01")
        assert tree.leq("0", "01")
        assert not tree.leq("1", "01")

    def test_bad_height(self):
        with pytest.raises(InputError):
            binary_tree_frame(0)

    def test_height_guard(self):
        assert binary_tree_frame(semantics.MAX_TREE_HEIGHT).n == 1023
        with pytest.raises(CapacityError, match="tree height guard"):
            binary_tree_frame(semantics.MAX_TREE_HEIGHT + 1)

    def test_heap_order_is_the_prefix_order(self):
        for height in range(1, semantics.MAX_TREE_HEIGHT + 1):
            assert binary_tree_frame(height) == prefix_tree(height), height


class TestIpcCheckBounded:
    def test_excluded_middle_countermodel(self):
        result = ipc_check_bounded(parse("p | ~p"), 3)
        assert isinstance(result, Countermodel)
        assert result.height == 2
        oracle = first_refutation(result.frame, result.formula)
        assert oracle is not None
        valuation, point = oracle
        assert result.point == point == ""
        assert result.valuation["p"].members == valuation["p"].members == ("0",)

    def test_peirce_countermodel(self):
        result = ipc_check_bounded(parse("((p -> q) -> p) -> p"), 3)
        assert isinstance(result, Countermodel)
        assert result.height == 2
        # frozen from the independent sweep: both leaves satisfy p, q empty
        assert result.valuation["p"].members == ("0", "1")
        assert result.valuation["q"].members == ()
        assert result.point == ""

    def test_self_implication_valid(self):
        for bound in (1, 2, 3, 4):
            result = ipc_check_bounded(parse("p -> p"), bound)
            assert isinstance(result, ValidUpToBound)
            assert result.bound == bound

    def test_countermodels_reverify_under_forcing(self):
        for text in NON_THEOREMS:
            result = ipc_check_bounded(parse(text), 4)
            assert isinstance(result, Countermodel), text
            assert not forces(result.frame, result.point, result.valuation, result.formula)

    def test_theorems_valid_to_height_four(self):
        for text in IPC_THEOREMS:
            result = ipc_check_bounded(parse(text), 4)
            assert isinstance(result, ValidUpToBound), text

    def test_canonical_classification(self):
        for text in BOUNDED_VALID:
            assert isinstance(ipc_check_bounded(parse(text), 4), ValidUpToBound)
        for text in BOUNDED_REFUTED:
            result = ipc_check_bounded(parse(text), 4)
            assert isinstance(result, Countermodel)
            assert result.height <= 3

    def test_profile_search_agrees_with_enumeration(self):
        for text in dict.fromkeys([*MIXED_CORPUS, *BOUNDED_VALID, *BOUNDED_REFUTED]):
            assert_least_refuting_height(parse(text))

    @settings(deadline=None)
    @given(formulas(3, names="pq"))
    def test_profile_search_agrees_on_random_formulas(self, formula):
        assert_least_refuting_height(formula)

    def test_profile_guard_charges_the_caller_budget(self):
        # one pairing and 2 closures at height 1
        with pytest.raises(CapacityError, match="profile guard: 3 pairings and closures by height 1"):
            ipc_check_bounded(parse("p | ~p"), 3, max_valuations=2)
        wide = "p0 -> p0 | " + " | ".join(f"q{i}" for i in range(1, 9))
        assert isinstance(ipc_check_bounded(parse(wide), 3), ValidUpToBound)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="profile guard"):
            ipc_check_bounded(parse(wide + " | q9 | q10"), 3)
        assert time.perf_counter() - start < 0.5
        # as wide, but refuted at height 1: a refusal before height 1 ran
        # would lose this answer, and height 1 needs its 2^11 closures anyway
        refuted = "p0 | " + " | ".join(f"q{i}" for i in range(1, 11))
        result = ipc_check_bounded(parse(refuted), 3)
        assert isinstance(result, Countermodel) and result.height == 1

    def test_bad_bound(self):
        with pytest.raises(InputError):
            ipc_check_bounded(parse("p"), 0)

    def test_stops_at_the_profile_fixpoint(self):
        start = time.perf_counter()
        result = ipc_check_bounded(parse("p -> p"), 10**9)
        assert time.perf_counter() - start < 0.5
        assert isinstance(result, ValidUpToBound)
        assert result.bound == 10**9

    def test_corpora_match_the_remembering_search(self):
        texts = dict.fromkeys(
            [*MIXED_CORPUS, *NON_THEOREMS, *IPC_THEOREMS, *BOUNDED_VALID, *BOUNDED_REFUTED]
        )
        for text in texts:
            assert_search_matches_remembering_copy(parse(text))

    @settings(deadline=None)
    @given(formulas(3))
    def test_random_formulas_match_the_remembering_search(self, formula):
        assert_search_matches_remembering_copy(formula)

    def test_huge_bound_gives_the_small_bound_answer(self):
        # every corpus formula settles by height 4, so a bound past the
        # fixpoint must return the same countermodel or the same verdict
        texts = dict.fromkeys([*MIXED_CORPUS, *NON_THEOREMS, *IPC_THEOREMS, *BOUNDED_VALID])
        for text in texts:
            small = ipc_check_bounded(parse(text), 4)
            huge = ipc_check_bounded(parse(text), 10**9)
            if isinstance(small, Countermodel):
                assert huge == small, text
            else:
                assert huge == ValidUpToBound(small.formula, 10**9), text
