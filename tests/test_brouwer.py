"""Upset algebras, verification, quotients and interval isomorphisms."""

import dataclasses
import json

import pytest

from ordsem.brouwer import (
    BrouwerAlgebra,
    algebra_dumps,
    algebra_from_json,
    interval_algebra,
    quotient,
    upset_algebra,
    verify_brouwer,
)
from ordsem.errors import InputError
from ordsem.order import from_relation, generate_posets, random_posets


class TestUpsetAlgebra:
    def test_single_point(self):
        algebra = upset_algebra(from_relation(["x"], []))
        assert algebra.n == 2
        assert algebra.carrier[algebra.bottom] == "{x}"
        assert algebra.carrier[algebra.top] == "{}"

    def test_chain_negation_of_top_singleton(self, chain2):
        algebra = upset_algebra(chain2)
        b = algebra.index_of("{b}")
        empty = algebra.index_of("{}")
        assert algebra.impl[b][empty] == algebra.top  # ~{b} = 1

    def test_self_implication_is_zero(self, diamond):
        algebra = upset_algebra(diamond)
        assert all(algebra.impl[u][u] == algebra.bottom for u in range(algebra.n))

    def test_tables_are_set_operations(self, fork):
        # (+) is intersection and (x) union, read back through the labels
        algebra = upset_algebra(fork)
        i = algebra.index_of("{l}")
        j = algebra.index_of("{k}")
        assert algebra.carrier[algebra.join[i][j]] == "{}"
        assert algebra.carrier[algebra.meet[i][j]] == "{l,k}"


class TestConstructor:
    def test_order_is_built_once_and_kept(self, diamond):
        algebra = upset_algebra(diamond)
        assert algebra.order is algebra.order
        assert algebra.order.elements == algebra.carrier
        assert algebra.order.up == algebra.up
        assert algebra.down is algebra.order.down

    def test_non_antisymmetric_order(self, chain2):
        algebra = upset_algebra(chain2)
        up = list(algebra.up)
        up[algebra.top] |= 1 << algebra.bottom  # 1 <= 0 as well as 0 <= 1
        with pytest.raises(InputError, match="antisymmetric"):
            dataclasses.replace(algebra, up=tuple(up))

    def test_non_transitive_order(self):
        # x <= y and y <= z but not x <= z
        with pytest.raises(InputError, match="transitive"):
            BrouwerAlgebra(
                carrier=("x", "y", "z"),
                up=(0b011, 0b110, 0b100),
                join=((0, 1, 2),) * 3,
                meet=((0, 0, 0),) * 3,
                impl=((0, 0, 0),) * 3,
                bottom=0,
                top=2,
            )

    def test_join_table_disagreeing_with_order(self, chain2):
        algebra = upset_algebra(chain2)
        join = [list(row) for row in algebra.join]
        join[algebra.bottom][algebra.top] = algebra.bottom  # 0 (+) 1 should be 1
        with pytest.raises(InputError, match="disagrees with join table"):
            dataclasses.replace(algebra, join=tuple(tuple(row) for row in join))


class TestVerifyBrouwer:
    def test_small_posets_all_valid(self):
        for n in (1, 2, 3):
            for poset in generate_posets(n):
                assert verify_brouwer(upset_algebra(poset)).ok

    def test_all_five_element_posets(self):
        count = 0
        for poset in generate_posets(5):
            count += 1
            assert verify_brouwer(upset_algebra(poset)).ok
        assert count == 4231

    def test_sample_of_random_five_element_posets(self):
        for poset in random_posets(5, 25, seed=5):
            assert verify_brouwer(upset_algebra(poset)).ok

    def test_corrupted_impl_reports_residuation(self, chain2):
        algebra = upset_algebra(chain2)
        full = algebra.index_of("{a,b}")
        impl = [list(row) for row in algebra.impl]
        # correct value of {} -> {a,b} is {a,b} = 0; overwrite with 1
        assert algebra.impl[algebra.top][full] == algebra.bottom
        impl[algebra.top][full] = algebra.top
        corrupt = dataclasses.replace(
            algebra, impl=tuple(tuple(row) for row in impl)
        )
        report = verify_brouwer(corrupt)
        assert not report.ok
        assert any("residuation" in v for v in report.violations)

    def test_corrupted_join_reports_lub(self, fork):
        algebra = upset_algebra(fork)
        i = algebra.index_of("{l}")
        j = algebra.index_of("{k}")
        join = [list(row) for row in algebra.join]
        # {l} (+) {k} is {}; rerouting to the bottom keeps the order
        # agreement (result differs from both operands) but breaks lub
        join[i][j] = algebra.bottom
        corrupt = dataclasses.replace(algebra, join=tuple(tuple(r) for r in join))
        report = verify_brouwer(corrupt)
        assert any("join" in v for v in report.violations)

    def test_residuation_minimum_agrees_with_table(self):
        # brute-force least c with b <= a (+) c must equal impl[a][b]
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for a in range(algebra.n):
                for b in range(algebra.n):
                    candidates = [
                        c for c in range(algebra.n)
                        if algebra.leq(b, algebra.join[a][c])
                    ]
                    least = [
                        c for c in candidates
                        if all(algebra.leq(c, d) for d in candidates)
                    ]
                    assert least == [algebra.impl[a][b]]


class TestQuotient:
    def test_by_top_is_identity_shaped(self, fork):
        algebra = upset_algebra(fork)
        quot = quotient(algebra, algebra.carrier[algebra.top])
        assert quot.n == algebra.n
        assert quot.join == algebra.join
        assert quot.meet == algebra.meet
        assert quot.impl == algebra.impl

    def test_by_bottom_is_trivial(self, fork):
        algebra = upset_algebra(fork)
        quot = quotient(algebra, algebra.carrier[algebra.bottom])
        assert quot.n == 1

    def test_antichain_example(self, antichain2):
        # meets with {a} produce exactly two classes: {X, {b}} and {{a}, {}}
        algebra = upset_algebra(antichain2)
        quot = quotient(algebra, "{a}")
        assert quot.n == 2
        assert set(quot.carrier) == {"[{a}]", "[{a,b}]"}
        assert verify_brouwer(quot).ok

    def test_quotients_verify(self):
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for x in algebra.carrier:
                assert verify_brouwer(quotient(algebra, x)).ok

    def test_unknown_element(self, chain2):
        with pytest.raises(InputError):
            quotient(upset_algebra(chain2), "nope")


def quotient_by_definition(algebra, x):
    """The factor by the principal filter of x, from the definition alone.

    Classes are {y : y (x) x = r}, each labelled by its least member;
    [y] (+) [z] and [y] (x) [z] are read off every pair of members (and
    must not depend on the choice), and [a] -> [b] is the least class [c]
    with [b] <= [a] (+) [c], found by search over all classes.
    """
    xi = algebra.index_of(x)
    classes = {}
    for y in range(algebra.n):
        classes.setdefault(algebra.meet[y][xi], []).append(y)
    least_member = {
        key: next(r for r in members if all(algebra.leq(r, z) for z in members))
        for key, members in classes.items()
    }
    reps = sorted(least_member.values())
    class_of = {
        y: reps.index(least_member[key]) for key, members in classes.items() for y in members
    }
    k = len(reps)

    def lift(table):
        values = {}
        for y in range(algebra.n):
            for z in range(algebra.n):
                values.setdefault((class_of[y], class_of[z]), set()).add(class_of[table[y][z]])
        assert all(len(v) == 1 for v in values.values()), "not a congruence"
        return tuple(tuple(min(values[a, b]) for b in range(k)) for a in range(k))

    join, meet = lift(algebra.join), lift(algebra.meet)

    def leq(a, b):
        return join[a][b] == b

    def least(candidates):
        return next(c for c in candidates if all(leq(c, d) for d in candidates))

    impl = tuple(
        tuple(least([c for c in range(k) if leq(b, join[a][c])]) for b in range(k))
        for a in range(k)
    )
    return BrouwerAlgebra(
        carrier=tuple(f"[{algebra.carrier[r]}]" for r in reps),
        up=tuple(sum(1 << b for b in range(k) if leq(a, b)) for a in range(k)),
        join=join,
        meet=meet,
        impl=impl,
        bottom=class_of[algebra.bottom],
        top=class_of[algebra.top],
    )


class TestQuotientByDefinition:
    def test_matches_quotient(self, diamond):
        posets = [p for n in (1, 2, 3) for p in generate_posets(n)]
        posets += [from_relation(["a", "b", "c", "d"], []), diamond]
        pairs = 0
        for poset in posets:
            algebra = upset_algebra(poset)
            for x in algebra.carrier:
                assert quotient_by_definition(algebra, x) == quotient(algebra, x), x
                pairs += 1
        assert pairs == 132


class TestInterval:
    def test_by_top_is_whole_algebra(self, fork):
        algebra = upset_algebra(fork)
        interval, hom = interval_algebra(algebra, algebra.carrier[algebra.top])
        assert interval.carrier == algebra.carrier
        assert hom.verify().ok

    def test_by_bottom_is_one_element(self, fork):
        algebra = upset_algebra(fork)
        interval, hom = interval_algebra(algebra, algebra.carrier[algebra.bottom])
        assert interval.n == 1
        assert hom.verify().ok

    def test_boolean_square_example(self, antichain2):
        algebra = upset_algebra(antichain2)
        interval, hom = interval_algebra(algebra, "{a}")
        assert set(interval.carrier) == {"{a}", "{a,b}"}
        assert hom.is_isomorphism and hom.verify().ok

    def test_interval_isomorphic_to_quotient_tables(self):
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for x in algebra.carrier:
                interval, hom = interval_algebra(algebra, x)
                quot = quotient(algebra, x)
                assert hom.target == quot
                assert hom.verify().ok
                # canonical constructions line up index by index
                assert interval.join == quot.join
                assert interval.meet == quot.meet
                assert interval.impl == quot.impl


class TestDump:
    def test_bit_exact_round_trip(self, diamond):
        algebra = upset_algebra(diamond)
        text = algebra_dumps(algebra)
        again = algebra_from_json(json.loads(text))
        assert algebra_dumps(again) == text
        assert again == algebra

    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            algebra_from_json({"carrier": ["a"]})
        with pytest.raises(InputError):
            algebra_from_json({"carrier": ["a", "b"], "join": [[0]], "meet": [], "impl": []})
