"""Mass problems, reducibility and the isomorphism with the upset algebra."""

import pytest

from ordsem.brouwer import impl_mask, upset_algebra
from ordsem.errors import CapacityError, InputError, Report, StructureError
from ordsem.muchnik import (
    MassProblem,
    canonical_degree,
    iso_check,
    mass_problem,
    muchnik_leq,
    muchnik_ops,
)
from ordsem.order import (
    bits,
    from_relation,
    generate_posets,
    is_join_semilattice,
    join_index,
    random_posets,
    upset_masks,
)

# -- reference: object-level reducibility, operations and iso check, one
# question per call and no shared tables; the oracle for the mask kernel ------


def ref_leq(a, b):
    return all(a.poset.down[g] & a.mask for g in bits(b.mask))


def ref_ops(a, b):
    poset = a.poset

    def joined(i, j):
        k = join_index(poset, i, j)
        if k is None:
            raise StructureError(
                f"no join for ({poset.elements[i]!r}, {poset.elements[j]!r})"
            )
        return k

    jmask = 0
    for f in bits(a.mask):
        for g in bits(b.mask):
            jmask |= 1 << joined(f, g)
    imask = 0
    for g in range(poset.n):
        if all(poset.down[joined(f, g)] & b.mask for f in bits(a.mask)):
            imask |= 1 << g
    return (
        MassProblem(poset, jmask),
        MassProblem(poset, a.mask | b.mask),
        MassProblem(poset, imask),
    )


def ref_iso_check(poset):
    algebra = upset_algebra(poset)
    masks = upset_masks(poset)
    pos = {m: i for i, m in enumerate(masks)}
    violations = []
    checked = 0
    problems = [MassProblem(poset, m) for m in range(poset.full_mask + 1)]

    for a in problems:
        checked += 2
        c = canonical_degree(a)
        if not (ref_leq(a, c) and ref_leq(c, a)):
            violations.append(f"A != C(A) for A={a.members}")
        if c.mask not in pos:
            violations.append(f"C(A) is not an upset for A={a.members}")

    for a in problems:
        for b in problems:
            checked += 5
            ca, cb = canonical_degree(a).mask, canonical_degree(b).mask
            if (ref_leq(a, b) and ref_leq(b, a)) != (ca == cb):
                violations.append(f"degree bijection fails on A={a.members}, B={b.members}")
            if ref_leq(a, b) != (cb & ~ca == 0):
                violations.append(f"order transfer fails on A={a.members}, B={b.members}")
            join, meet, impl = ref_ops(a, b)
            if canonical_degree(join).mask != ca & cb:
                violations.append(f"(+) transfer fails on A={a.members}, B={b.members}")
            if canonical_degree(meet).mask != ca | cb:
                violations.append(f"(x) transfer fails on A={a.members}, B={b.members}")
            if canonical_degree(impl).mask != impl_mask(poset, ca, cb):
                violations.append(f"-> transfer fails on A={a.members}, B={b.members}")

    for a in problems:
        for b in problems:
            checked += 1
            ia = pos[canonical_degree(a).mask]
            ib = pos[canonical_degree(b).mask]
            join, meet, impl = ref_ops(a, b)
            if (
                pos[canonical_degree(join).mask] != algebra.join[ia][ib]
                or pos[canonical_degree(meet).mask] != algebra.meet[ia][ib]
                or pos[canonical_degree(impl).mask] != algebra.impl[ia][ib]
            ):
                violations.append(
                    f"algebra table transfer fails on A={a.members}, B={b.members}"
                )

    return Report(checked=checked, violations=tuple(violations))


class TestReducibility:
    def test_reflexive(self, chain2):
        for members in ((), ("a",), ("b",), ("a", "b")):
            problem = mass_problem(chain2, members)
            assert muchnik_leq(problem, problem)

    def test_empty_is_top(self, chain2):
        empty = mass_problem(chain2, ())
        for members in ((), ("a",), ("a", "b")):
            assert muchnik_leq(mass_problem(chain2, members), empty)

    def test_antichain_incomparable_singletons(self, antichain2):
        assert not muchnik_leq(
            mass_problem(antichain2, ("a",)), mass_problem(antichain2, ("b",))
        )

    def test_preorder_transitive(self, diamond):
        problems = [
            mass_problem(diamond, diamond.labels_of(m))
            for m in range(diamond.full_mask + 1)
        ]
        for a in problems:
            for b in problems:
                for c in problems:
                    if muchnik_leq(a, b) and muchnik_leq(b, c):
                        assert muchnik_leq(a, c)

    def test_mismatched_posets(self, chain2, antichain2):
        with pytest.raises(InputError):
            muchnik_leq(mass_problem(chain2, ("a",)), mass_problem(antichain2, ("a",)))


class TestCanonicalDegree:
    def test_closure_is_equivalent(self):
        # A and C(A) are mutually reducible, exhaustively per poset
        from ordsem.order import random_posets

        pool = list(generate_posets(3)) + random_posets(4, 15, seed=7) + random_posets(
            5, 15, seed=8
        )
        for poset in pool:
            for mask in range(poset.full_mask + 1):
                problem = mass_problem(poset, poset.labels_of(mask))
                closed = canonical_degree(problem)
                assert muchnik_leq(problem, closed)
                assert muchnik_leq(closed, problem)


class TestOps:
    def test_chain_join(self, chain2):
        ops = muchnik_ops(mass_problem(chain2, ("a",)), mass_problem(chain2, ("b",)))
        assert ops.join.members == ("b",)

    def test_meet_with_empty(self, chain2):
        a = mass_problem(chain2, ("a",))
        assert muchnik_ops(a, mass_problem(chain2, ())).meet.members == a.members

    def test_chain_impl(self, chain2):
        ops = muchnik_ops(mass_problem(chain2, ("b",)), mass_problem(chain2, ("a",)))
        assert ops.impl.members == ("a", "b")

    def test_missing_join_named(self, fork):
        with pytest.raises(StructureError, match="'l'.*'k'"):
            muchnik_ops(mass_problem(fork, ("l",)), mass_problem(fork, ("k",)))

    def test_missing_join_raises_only_when_read(self, fork):
        empty, leaves = mass_problem(fork, ()), mass_problem(fork, ("l", "k"))
        assert muchnik_ops(empty, leaves).impl.members == ("r", "l", "k")
        with pytest.raises(StructureError):
            muchnik_ops(leaves, empty)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_results_and_errors_as_reference(self, n):
        # every pair of mass problems on every poset, joins missing or not:
        # the same masks, or the same StructureError message
        for poset in generate_posets(n):
            problems = [MassProblem(poset, m) for m in range(poset.full_mask + 1)]
            for a in problems:
                for b in problems:
                    assert muchnik_leq(a, b) == ref_leq(a, b)
                    try:
                        expected = tuple(p.mask for p in ref_ops(a, b))
                    except StructureError as exc:
                        with pytest.raises(StructureError) as info:
                            muchnik_ops(a, b)
                        assert str(info.value) == str(exc)
                    else:
                        assert tuple(p.mask for p in muchnik_ops(a, b)) == expected


class TestIsoCheck:
    def test_single_point(self):
        report = iso_check(from_relation(["x"], []))
        assert report.ok

    def test_chain(self, chain2):
        assert iso_check(chain2).ok

    def test_exhaustive_small_semilattices(self):
        count = 0
        for poset in generate_posets(3):
            if is_join_semilattice(poset):
                count += 1
                assert iso_check(poset).ok
        assert count == 9

    def test_requires_joins(self, fork):
        with pytest.raises(StructureError):
            iso_check(fork)

    def test_capacity_guard(self):
        big = from_relation([f"x{i}" for i in range(6)], [])
        with pytest.raises(CapacityError):
            iso_check(big)


class TestIsoCheckAgainstReference:
    def test_every_small_semilattice(self):
        total = 0
        posets = [
            poset for n in range(1, 5) for poset in generate_posets(n) if is_join_semilattice(poset)
        ]
        for poset in posets:
            report = iso_check(poset)
            assert report == ref_iso_check(poset)
            total += report.checked
        assert len(posets) == 88
        assert total == 123004

    def test_seeded_five_element_semilattices(self):
        pool = [p for p in random_posets(5, 60, seed=4) if is_join_semilattice(p)]
        assert len(pool) >= 3
        for poset in pool[:4]:
            assert iso_check(poset) == ref_iso_check(poset)

    @pytest.mark.parametrize("corrupt", ["down-of-top", "up-of-bot", "up-of-chain"])
    def test_corrupted_cones_give_the_same_violations(self, corrupt):
        # Poset validates its cones on construction, so the damage is done
        # behind its back, to the cached down-cones or to the up-cones alone:
        # top's down-cone forgets bot; bot's up-cone becomes m1's, so bot is
        # not in C({bot}); or the up-cones become those of a chain.  bot is
        # listed last so that upset enumeration, which decides elements by
        # up-cone size and then index, still decides it after m1.
        labels = ["top", "m1", "m2", "bot"]
        diamond = from_relation(
            labels, [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")]
        )
        if corrupt == "down-of-top":
            down = list(diamond.down)
            down[0] &= ~0b1000
            diamond.__dict__["down"] = tuple(down)
        else:
            diamond.down
            if corrupt == "up-of-bot":
                up = diamond.up[:3] + (diamond.up[1],)
            else:
                chain = [("bot", "m1"), ("m1", "m2"), ("m2", "top")]
                up = from_relation(labels, chain).up
            object.__setattr__(diamond, "up", up)
        report = iso_check(diamond)
        assert not report.ok
        assert any(v.startswith("algebra table") for v in report.violations)
        assert report == ref_iso_check(diamond)
