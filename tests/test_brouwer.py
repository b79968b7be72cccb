"""Upset algebras, verification, quotients and interval isomorphisms."""

import dataclasses
import random
import time

import pytest

from ordsem.brouwer import (
    BrouwerAlgebra,
    _assemble,
    _relabel,
    _up_cones,
    interval_algebra,
    quotient,
    upset_algebra,
    verify_brouwer,
)
from ordsem.documents import algebra_from_json, algebra_to_json
from ordsem.errors import InputError, Report
from ordsem.formulas import parse
from ordsem.order import (
    bits,
    from_relation,
    generate_posets,
    join_index,
    random_posets,
    upset_masks,
)
from ordsem.semantics import binary_tree_frame, theory_contains

# -- reference: the loop-based verify_brouwer as it stood before the
# certificates, every clause over every instance; the oracle for them --------


def ref_verify_brouwer(algebra):
    n = algebra.n
    up, down = algebra.up, algebra.down
    join, meet, impl = algebra.join, algebra.meet, algebra.impl
    car = algebra.carrier
    violations = []
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


def small_upset_algebras():
    return [upset_algebra(p) for n in (1, 2, 3, 4) for p in generate_posets(n)]


def lattice_algebra(poset, rng):
    """The poset as a table algebra when it is a bounded lattice, else None.

    a -> b is the least c with b <= a (+) c where one exists and a seeded
    arbitrary element elsewhere (only a non-distributive lattice lacks one).
    """
    n = poset.n

    def glb(i, j):
        lb = poset.down[i] & poset.down[j]
        return next((k for k in bits(lb) if poset.down[k] == lb), None)

    join = [[join_index(poset, a, b) for b in range(n)] for a in range(n)]
    meet = [[glb(a, b) for b in range(n)] for a in range(n)]
    if any(None in row for row in join + meet):
        return None

    def least(a, b):
        sat = sum(1 << c for c in range(n) if (poset.up[b] >> join[a][c]) & 1)
        return next((c for c in bits(sat) if poset.up[c] & sat == sat), None)

    impl = [[least(a, b) for b in range(n)] for a in range(n)]
    impl = [[rng.randrange(n) if c is None else c for c in row] for row in impl]
    return BrouwerAlgebra(poset.elements, *(tuple(map(tuple, t)) for t in (join, meet, impl)))


def corrupted(algebra, rng):
    """One cell of one table set to another in-range value.

    A join cell (a, b) changes only where a !<= b, and never to b, so the
    order the constructor reads off the join table (a <= b iff
    a (+) b = b) stays the same.
    """
    name = rng.choice(("join", "meet", "impl"))
    table = [list(row) for row in getattr(algebra, name)]
    a, b = rng.randrange(algebra.n), rng.randrange(algebra.n)
    if name == "join" and algebra.leq(a, b):
        return None
    choices = [v for v in range(algebra.n) if v != table[a][b] and (name != "join" or v != b)]
    if not choices:
        return None
    table[a][b] = rng.choice(choices)
    return dataclasses.replace(algebra, **{name: tuple(map(tuple, table))})


def assert_rebuilds(algebra):
    """An algebra the library assembled equals its rebuild through the
    public constructor, which checks every clause: fields, order, 0 and 1."""
    rebuilt = BrouwerAlgebra(*dataclasses.astuple(algebra))
    assert algebra.carrier == rebuilt.carrier
    assert (algebra.join, algebra.meet, algebra.impl) == (rebuilt.join, rebuilt.meet, rebuilt.impl)
    assert algebra.up == rebuilt.up
    assert (algebra.bottom, algebra.top) == (rebuilt.bottom, rebuilt.top)
    assert algebra.order == rebuilt.order and algebra.index == rebuilt.index
    return rebuilt


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

    def test_four_fields(self):
        names = [f.name for f in dataclasses.fields(BrouwerAlgebra)]
        assert names == ["carrier", "join", "meet", "impl"]

    def test_order_and_bounds_read_off_the_join_table(self, fork):
        # upsets under reverse inclusion: i <= j iff upset j is inside upset i
        algebra = upset_algebra(fork)
        masks = upset_masks(fork)  # carrier index i is the upset masks[i]
        assert algebra.up == tuple(
            sum(1 << j for j, mj in enumerate(masks) if mj & ~mi == 0) for mi in masks
        )
        assert algebra.carrier[algebra.bottom] == "{r,l,k}"
        assert algebra.carrier[algebra.top] == "{}"

    def test_dump_tables_rebuild_the_upset_algebra(self, diamond):
        algebra = upset_algebra(diamond)
        data = algebra_to_json(algebra)
        tables = (tuple(map(tuple, data[name])) for name in ("join", "meet", "impl"))
        again = BrouwerAlgebra(tuple(data["carrier"]), *tables)
        assert again == algebra
        assert (again.up, again.bottom, again.top) == (algebra.up, algebra.bottom, algebra.top)

    def test_non_antisymmetric_order(self, chain2):
        algebra = upset_algebra(chain2)
        join = [list(row) for row in algebra.join]
        join[algebra.top][algebra.bottom] = algebra.bottom  # 1 <= 0 as well as 0 <= 1
        with pytest.raises(InputError, match="antisymmetric"):
            dataclasses.replace(algebra, join=tuple(map(tuple, join)))

    def test_non_transitive_order(self):
        # x (+) y = y and y (+) z = z, so x <= y <= z, but x (+) z = 1
        with pytest.raises(InputError, match="transitive"):
            BrouwerAlgebra(
                carrier=("0", "x", "y", "z", "1"),
                join=(
                    (0, 1, 2, 3, 4),
                    (4, 1, 2, 4, 4),
                    (4, 4, 2, 3, 4),
                    (4, 4, 4, 3, 4),
                    (4, 4, 4, 4, 4),
                ),
                meet=((0,) * 5,) * 5,
                impl=((0,) * 5,) * 5,
            )

    @pytest.mark.parametrize(
        "join",
        [((0, 1, 2), (1, 1, 1), (2, 2, 2)), ((0, 0, 2), (1, 1, 2), (2, 2, 2))],
        ids=["no-greatest", "no-least"],
    )
    def test_join_table_without_bounds(self, join):
        # the antichain {l, k} above r has no 1; the antichain {r, l} below k has no 0
        zeros = ((0, 0, 0),) * 3
        with pytest.raises(InputError, match="join table does not define a bounded order"):
            BrouwerAlgebra(("r", "l", "k"), join, zeros, zeros)
        # the library's own builders skip the other clauses, never the bounds
        with pytest.raises(InputError, match="^join table does not define a bounded order$"):
            _assemble(("r", "l", "k"), join, zeros, zeros, _up_cones(join))

    def test_upset_labels_quote_members_with_commas(self):
        # unquoted, the upsets {a, b} and {a,b} of this antichain would both
        # read "{a,b}"; a member is quoted only when its label holds ,{}"\
        algebra = upset_algebra(from_relation(["a", "b", "a,b"], []))
        assert algebra.carrier == (
            "{}", "{a}", "{b}", "{a,b}", '{"a,b"}', '{a,"a,b"}', '{b,"a,b"}', '{a,b,"a,b"}',
        )
        assert verify_brouwer(algebra).ok
        odd = upset_algebra(from_relation(["x{", 'q"', "b\\", "é", "0"], []))
        assert odd.carrier[1:5] == ('{"x{"}', '{"q\\""}', '{"x{","q\\""}', '{"b\\\\"}')
        assert odd.carrier[8] == "{é}" and odd.carrier[16] == "{0}"


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


class TestVerifyAgainstReference:
    def test_every_small_upset_algebra(self):
        algebras = small_upset_algebras()
        assert len(algebras) == 242
        for algebra in algebras:
            report = verify_brouwer(algebra)
            assert report.ok and report == ref_verify_brouwer(algebra)

    def test_every_small_lattice(self):
        rng = random.Random(6)
        lattices = non_distributive = 0
        for n in (1, 2, 3, 4, 5):
            for poset in generate_posets(n):
                algebra = lattice_algebra(poset, rng)
                if algebra is None:
                    continue
                lattices += 1
                report = verify_brouwer(algebra)
                assert report == ref_verify_brouwer(algebra), poset.up
                non_distributive += not report.ok
        # 1 + 2 + 6 + 36 + 380 labelled lattices; M3 (20) and N5 (120)
        assert (lattices, non_distributive) == (425, 140)

    def test_seeded_single_cell_corruptions(self):
        rng = random.Random(6)
        pool = small_upset_algebras()
        cases = violating = 0
        while cases < 1500:
            algebra = corrupted(rng.choice(pool), rng)
            if algebra is None:
                continue
            cases += 1
            report = verify_brouwer(algebra)
            assert report == ref_verify_brouwer(algebra)
            violating += not report.ok
        assert violating == cases

    def test_seeded_corruptions_of_the_five_antichain(self):
        # 32 elements: the rows whose adjunction fails are listed alone
        algebra = upset_algebra(from_relation("abcde", []))
        rng = random.Random(5)
        cases = 0
        while cases < 40:
            corrupt = corrupted(algebra, rng)
            if corrupt is None:
                continue
            cases += 1
            report = verify_brouwer(corrupt)
            assert not report.ok and report == ref_verify_brouwer(corrupt)


class TestTreeAlgebra:
    """The upset algebra of 2^{<4}, 677 elements: the largest tree frame
    whose algebra the tables hold (2^{<5} has 458330 upsets)."""

    @pytest.fixture(scope="class")
    def tree_algebra(self):
        return upset_algebra(binary_tree_frame(4))

    def test_verifies_within_budget(self, tree_algebra):
        n = tree_algebra.n
        assert n == 677
        start = time.perf_counter()
        report = verify_brouwer(tree_algebra)
        elapsed = time.perf_counter() - start
        assert report == Report(checked=2 * n + 3 * n**2 + 2 * n**3)
        assert elapsed < 5, f"verify_brouwer took {elapsed:.1f}s (> 5s)"

    def test_one_changed_impl_cell_is_listed_within_budget(self, tree_algebra):
        n = tree_algebra.n
        impl = [list(row) for row in tree_algebra.impl]
        impl[5][7] = (impl[5][7] + 1) % n
        corrupt = dataclasses.replace(tree_algebra, impl=tuple(map(tuple, impl)))
        start = time.perf_counter()
        report = verify_brouwer(corrupt)
        elapsed = time.perf_counter() - start
        label = tree_algebra.carrier
        assert report.checked == 2 * n + 3 * n**2 + 2 * n**3
        assert report.violations == (
            f"residuation: {label[5]!r} -> {label[7]!r} = {label[impl[5][7]]!r} is not the "
            f"least c with {label[7]!r} <= {label[5]!r} (+) c",
        )
        assert elapsed < 5, f"verify_brouwer took {elapsed:.1f}s (> 5s)"

    def test_quotient_is_the_interval(self, tree_algebra):
        for x in random.Random(6).sample(tree_algebra.carrier, 4):
            quot = quotient(tree_algebra, x)
            interval, hom = interval_algebra(tree_algebra, x)
            assert hom.target == quot
            assert hom.verify().ok
            assert (interval.join, interval.meet, interval.impl) == (quot.join, quot.meet, quot.impl)
            assert verify_brouwer(quot).ok


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

    def test_meet_cell_outside_the_classes_is_named(self, fork):
        algebra = upset_algebra(fork)
        meet = [list(row) for row in algebra.meet]
        meet[0][0] = 1  # {} (x) {} = {l}: {} is no class of {} any more
        broken = dataclasses.replace(algebra, meet=tuple(map(tuple, meet)))
        with pytest.raises(InputError, match=r"^\{l\} \(\+\) \{k\} = \{\} is not y \(x\) \{\} "):
            quotient(broken, "{}")

    def test_one_moved_self_meet_cell_never_escapes_as_key_error(self, fork):
        # moving one y (x) y cell, over every y, new value and x: each
        # quotient either builds or is refused with InputError
        algebra = upset_algebra(fork)
        refused = 0
        for y in range(algebra.n):
            for value in range(algebra.n):
                if value == algebra.meet[y][y]:
                    continue
                meet = [list(row) for row in algebra.meet]
                meet[y][y] = value
                broken = dataclasses.replace(algebra, meet=tuple(map(tuple, meet)))
                for x in algebra.carrier:
                    try:
                        quotient(broken, x)
                    except InputError:
                        refused += 1
        assert refused == 17

    @pytest.mark.parametrize(
        "elements, relation, counts",
        [
            (["r", "l", "k"], [("r", "l"), ("r", "k")], (19, 84, 926)),
            (["a", "b", "c", "d"], [("a", "b"), ("a", "c")], (13, 141, 1999)),
        ],
        ids=["fork", "four"],
    )
    def test_one_cell_mutations_build_what_the_constructor_builds(
        self, elements, relation, counts
    ):
        # seeded one-cell changes the public constructor accepts; at every x
        # the quotient and the interval either equal their public rebuilds
        # or are refused with InputError
        algebra = upset_algebra(from_relation(elements, relation))
        rng = random.Random(17)
        skipped = refused = built = 0
        for _ in range(120):
            name = rng.choice(("join", "meet", "impl"))
            table = [list(row) for row in getattr(algebra, name)]
            a, b = rng.randrange(algebra.n), rng.randrange(algebra.n)
            table[a][b] = rng.choice([v for v in range(algebra.n) if v != table[a][b]])
            try:
                broken = dataclasses.replace(algebra, **{name: tuple(map(tuple, table))})
            except InputError:
                skipped += 1
                continue
            for x in broken.carrier:
                for build in (quotient, lambda y, x: interval_algebra(y, x)[0]):
                    try:
                        factor = build(broken, x)
                    except InputError:
                        refused += 1
                        continue
                    assert_rebuilds(factor)
                    built += 1
        assert (skipped, refused, built) == counts


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
    return BrouwerAlgebra(tuple(f"[{algebra.carrier[r]}]" for r in reps), join, meet, impl)


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

    def test_meet_not_the_glb_is_refused(self, antichain2):
        # the 4-element Boolean algebra with {} (x) {a} moved to {}, outside
        # [0, {a}]: the classes are not the down-cone, and the two-build
        # interval paired it with a flagged isomorphism that fails verify()
        algebra = upset_algebra(antichain2)
        meet = [list(row) for row in algebra.meet]
        assert meet[0][1] == 1
        meet[0][1] = 0
        broken = BrouwerAlgebra(
            algebra.carrier, algebra.join, tuple(map(tuple, meet)), algebra.impl
        )
        assert not verify_brouwer(broken).ok
        with pytest.raises(InputError, match="not its down-cone"):
            interval_algebra(broken, "{a}")


def two_build_interval(algebra, x):
    """The interval as it was built before it became the quotient
    relabelled: its own restricted tables, then a second build inside
    ``quotient``, with the isomorphism found by label lookup."""
    xi = algebra.index_of(x)
    members = list(bits(algebra.down[xi]))
    pos = {r: i for i, r in enumerate(members)}
    interval = BrouwerAlgebra(
        tuple(algebra.carrier[r] for r in members),
        tuple(tuple(pos[algebra.join[r][s]] for s in members) for r in members),
        tuple(tuple(pos[algebra.meet[r][s]] for s in members) for r in members),
        tuple(
            tuple(pos[algebra.meet[algebra.impl[r][s]][xi]] for s in members)
            for r in members
        ),
    )
    quot = quotient(algebra, x)
    mapping = tuple(quot.index_of(f"[{algebra.carrier[r]}]") for r in members)
    return interval, quot, mapping


class TestIntervalDifferential:
    """``interval_algebra`` against the two-build copy above."""

    FORMULAS = [parse(f) for f in ("p | ~p", "~p | ~~p", "(p -> q) | (q -> p)", "~~p -> p")]

    def assert_same(self, algebra):
        assert_rebuilds(algebra)
        for x in algebra.carrier:
            interval, hom = interval_algebra(algebra, x)
            old, old_quot, old_mapping = two_build_interval(algebra, x)
            assert interval.carrier == old.carrier
            assert (interval.join, interval.meet, interval.impl) == (old.join, old.meet, old.impl)
            assert interval.up == old.up
            assert (interval.bottom, interval.top) == (old.bottom, old.top)
            assert hom.target == old_quot and hom.source is interval
            assert hom.mapping == old_mapping == tuple(range(interval.n))
            assert hom.verify().ok
            assert_rebuilds(old_quot)
            rebuilt = assert_rebuilds(interval)
            for f in self.FORMULAS:
                assert theory_contains(interval, f) == theory_contains(rebuilt, f)

    def test_every_upset_algebra_on_at_most_four_elements(self):
        pairs = 0
        for n in range(1, 5):
            for poset in generate_posets(n):
                algebra = upset_algebra(poset)
                self.assert_same(algebra)
                pairs += algebra.n
        assert pairs == 1788

    def test_five_antichain(self):
        algebra = upset_algebra(from_relation(["a", "b", "c", "d", "e"], []))
        assert algebra.n == 32
        self.assert_same(algebra)

    def test_seeded_five_element_posets_and_a_tree(self):
        for poset in random_posets(5, 20, seed=16) + [binary_tree_frame(3)]:
            self.assert_same(upset_algebra(poset))

    def test_quotients_of_three_element_algebras(self):
        for poset in generate_posets(3):
            algebra = upset_algebra(poset)
            for x in algebra.carrier:
                self.assert_same(quotient(algebra, x))

    def test_relabel_checks_labels_and_leaves_theory_tables(self, fork):
        algebra = upset_algebra(fork)
        assert not theory_contains(algebra, self.FORMULAS[0])
        assert hasattr(algebra, "_tables")
        labels = tuple(f"e{i}" for i in range(algebra.n))
        relabelled = _relabel(algebra, labels)
        assert not hasattr(relabelled, "_tables")
        assert relabelled == BrouwerAlgebra(labels, algebra.join, algebra.meet, algebra.impl)
        assert relabelled.join is algebra.join and relabelled.up is algebra.up
        with pytest.raises(InputError, match="duplicate carrier labels"):
            _relabel(algebra, ("e0",) * algebra.n)
        with pytest.raises(InputError, match="labels for"):
            _relabel(algebra, labels[1:])


class TestDump:
    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            algebra_from_json({"carrier": ["a"]})
        with pytest.raises(InputError):
            algebra_from_json({"carrier": ["a", "b"], "join": [[0]], "meet": [], "impl": []})
