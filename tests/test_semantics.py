"""Evaluation, forcing, theories and the bounded IPC decision.

Countermodel golden values were computed by the independent brute-force
sweep in `first_refutation` below and then frozen.
"""

import time
from itertools import product

import pytest

from ordsem import semantics
from ordsem.brouwer import upset_algebra
from ordsem.corpus import (
    BOUNDED_REFUTED,
    BOUNDED_VALID,
    IPC_THEOREMS,
    MIXED_CORPUS,
    NON_THEOREMS,
    parsed,
)
from ordsem.errors import CapacityError, InputError, ValuationError
from ordsem.formulas import And, Bot, Or, Var, free_vars, parse
from ordsem.order import Upset, enumerate_upsets, generate_posets, upset_masks, upward_closure
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
        # the per-level refutability decision vs. plain witness search
        for text in MIXED_CORPUS:
            formula = parse(text)
            for height in (1, 2, 3):
                frame = binary_tree_frame(height)
                has_witness = frame_witness(frame, formula) is not None
                result = ipc_check_bounded(formula, height)
                assert isinstance(result, Countermodel) == has_witness

    def test_bad_bound(self):
        with pytest.raises(InputError):
            ipc_check_bounded(parse("p"), 0)

    def test_stops_at_the_profile_fixpoint(self):
        start = time.perf_counter()
        result = ipc_check_bounded(parse("p -> p"), 10**9)
        assert time.perf_counter() - start < 0.5
        assert isinstance(result, ValidUpToBound)
        assert result.bound == 10**9

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
