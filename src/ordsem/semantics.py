"""Algebraic evaluation, Kripke forcing, theories, bounded IPC decision.

A formula holds in a Brouwer algebra when it evaluates to 0: conjunction
lands on the lattice join, disjunction on the meet and falsum on 1.  On a
frame, forcing is evaluation in the upset algebra, run on upset masks by
the same compiled program; the two routes define the same theory.

Validity over the full binary trees of bounded height decides IPC
membership in the refutation direction: a countermodel on some 2^{<k}
proves non-membership, while "valid up to the bound" is exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Union

from .brouwer import BrouwerAlgebra, impl_mask
from .errors import CapacityError, InputError, ValuationError
from .formulas import And, Bot, Formula, Imp, Or, Var, free_vars, subformulas
from .order import Poset, Upset, upset_masks

MAX_VALUATIONS = 2_000_000
MAX_TREE_HEIGHT = 10  # 2^{<10} has 1023 nodes

# Opcodes index the (join, meet, impl) tables of an algebra.
_AND, _OR, _IMP = 0, 1, 2
_OPCODE = {And: _AND, Or: _OR, Imp: _IMP}

Structure = Union[BrouwerAlgebra, Poset]


def _compile(f: Formula) -> tuple[list[str], list[tuple[int, int, int]], int]:
    """Post-order straight-line program for f: (names, steps, root).

    Slots 0..k-1 hold the sorted variables and slot k falsum; step i reads
    two earlier slots and writes slot k+1+i.  f's value ends in ``root``.
    """
    names = sorted(free_vars(f))
    index = {name: i for i, name in enumerate(names)}
    bot = len(names)
    steps: list[tuple[int, int, int]] = []

    def walk(g: Formula) -> int:
        if isinstance(g, Var):
            return index[g.name]
        if isinstance(g, Bot):
            return bot
        a = walk(g.left)
        b = walk(g.right)
        steps.append((_OPCODE[type(g)], a, b))
        return bot + len(steps)

    return names, steps, walk(f)


def _backend(structure: Structure) -> tuple[tuple | None, int, int]:
    """(tables, falsum, designated value); frames compute on upset masks."""
    if isinstance(structure, BrouwerAlgebra):
        return (structure.join, structure.meet, structure.impl), structure.top, structure.bottom
    if isinstance(structure, Poset):
        return None, 0, structure.full_mask
    raise InputError(f"cannot compute a theory over {type(structure).__name__}")


def _run(steps: list, root: int, slots: list, tables: tuple | None, structure: Structure) -> int:
    """Run a program from its filled variable and falsum slots."""
    for op, a, b in steps:
        x, y = slots[a], slots[b]
        if tables is not None:
            slots.append(tables[op][x][y])
        elif op == _AND:
            slots.append(x & y)
        elif op == _OR:
            slots.append(x | y)
        else:
            slots.append(impl_mask(structure, x, y))
    return slots[root]


def _evaluate(structure: Structure, f: Formula, env: Mapping[str, int]) -> int:
    names, steps, root = _compile(f)
    tables, bot, _ = _backend(structure)
    try:
        slots = [env[name] for name in names]
    except KeyError as exc:
        raise ValuationError(f"no value for variable {exc.args[0]!r}") from None
    return _run(steps, root, slots + [bot], tables, structure)


def eval_algebra(f: Formula, algebra: BrouwerAlgebra, valuation: Mapping[str, str]) -> str:
    """Fold the formula through the algebra's tables; returns a carrier label."""
    env = {name: algebra.index_of(label) for name, label in valuation.items()}
    return algebra.carrier[_evaluate(algebra, f, env)]


def holds_in(algebra: BrouwerAlgebra, f: Formula, valuation: Mapping[str, str]) -> bool:
    env = {name: algebra.index_of(label) for name, label in valuation.items()}
    return _evaluate(algebra, f, env) == algebra.bottom


def forced_upset(frame: Poset, valuation: Mapping[str, Upset], f: Formula) -> Upset:
    """The set of points forcing f under the valuation."""
    env = {}
    for name, upset in valuation.items():
        if upset.poset != frame:
            raise InputError(f"valuation of {name!r} lives on a different frame")
        env[name] = upset.mask
    return Upset(frame, _evaluate(frame, f, env))


def forces(frame: Poset, point: str, valuation: Mapping[str, Upset], f: Formula) -> bool:
    """Standard intuitionistic forcing at one point."""
    i = frame.index_of(point)
    return (forced_upset(frame, valuation, f).mask >> i) & 1 == 1


_MISSING = object()
# (structure, formula) -> first refuting choice of values, or None.
_refutations: dict = {}


def _first_refutation(
    structure: Structure, f: Formula, max_valuations: int
) -> dict[str, int] | None:
    """First valuation in canonical order under which f is not designated.

    Canonical order is the product, over the sorted variable names, of the
    carrier indices (algebra) or the ascending upset masks (frame).  The
    guard is checked before the cache, so it holds for cached answers too.
    """
    names, steps, root = _compile(f)
    tables, bot, designated = _backend(structure)
    values = upset_masks(structure) if tables is None else range(structure.n)
    if len(values) ** len(names) > max_valuations:
        raise CapacityError(f"valuation guard: {len(values)}^{len(names)} exceeds {max_valuations}")
    key = (structure, f)
    found = _refutations.get(key, _MISSING)
    if found is _MISSING:
        found = None
        for choice in product(values, repeat=len(names)):
            if _run(steps, root, [*choice, bot], tables, structure) != designated:
                found = choice
                break
        _refutations[key] = found
    return None if found is None else dict(zip(names, found))


def theory_contains(structure: Structure, f: Formula, *, max_valuations: int = MAX_VALUATIONS) -> bool:
    """Whether f holds under every valuation into the structure.

    Algebra mode evaluates through the tables; frame mode quantifies over
    upset valuations and demands forcing at every point.
    """
    return _first_refutation(structure, f, max_valuations) is None


def frame_witness(
    frame: Poset, f: Formula, *, max_valuations: int = MAX_VALUATIONS
) -> tuple[dict[str, Upset], str] | None:
    """First refuting (valuation, point) in canonical order, or None."""
    env = _first_refutation(frame, f, max_valuations)
    if env is None:
        return None
    valuation = {name: Upset(frame, mask) for name, mask in env.items()}
    forced = forced_upset(frame, valuation, f).mask
    point = next(i for i in range(frame.n) if not (forced >> i) & 1)
    return valuation, frame.elements[point]


def binary_tree_frame(height: int) -> Poset:
    """The frame 2^{<height}: binary strings of length < height, prefix order."""
    if height < 1:
        raise InputError(f"tree height must be >= 1, got {height}")
    if height > MAX_TREE_HEIGHT:
        raise CapacityError(f"tree height guard: {height} > {MAX_TREE_HEIGHT}")
    nodes = sorted(
        ("".join(word) for k in range(height) for word in product("01", repeat=k)),
        key=lambda s: (len(s), s),
    )
    index = {s: i for i, s in enumerate(nodes)}
    cones = [0] * len(nodes)
    for s in nodes:
        for t in nodes:
            if t.startswith(s):
                cones[index[s]] |= 1 << index[t]
    return Poset(tuple(nodes), tuple(cones))


@dataclass(frozen=True)
class ValidUpToBound:
    """No countermodel exists on any 2^{<k} with k <= bound."""

    formula: Formula
    bound: int

    @property
    def is_countermodel(self) -> bool:
        return False


@dataclass(frozen=True)
class Countermodel:
    """A refutation: the formula fails at `point` under `valuation`."""

    formula: Formula
    frame: Poset
    valuation: dict[str, Upset]
    point: str
    height: int

    @property
    def is_countermodel(self) -> bool:
        return True


IpcResult = Union[ValidUpToBound, Countermodel]


def ipc_check_bounded(f: Formula, max_height: int, *, max_valuations: int = MAX_VALUATIONS) -> IpcResult:
    """Search 2^{<k} for k = 1..max_height for a refuting valuation.

    Per level, refutability is decided exactly by a closure over point
    profiles (which subformulas a point can force); only when a level is
    refutable is the valuation space enumerated, to extract the smallest-k,
    lexicographically-first countermodel.  A countermodel is conclusive;
    validity is only up to the bound.
    """
    if max_height < 1:
        raise InputError(f"max height must be >= 1, got {max_height}")
    subs = subformulas(f)
    position = {g: i for i, g in enumerate(subs)}
    var_bits = {g: 1 << position[g] for g in subs if isinstance(g, Var)}
    goal_bit = 1 << position[f]
    atom_mask = 0
    for bit in var_bits.values():
        atom_mask |= bit

    def close(atoms: int, below0: int | None, below1: int | None) -> int:
        profile = atoms
        for g in subs:
            bit = 1 << position[g]
            if isinstance(g, Var) or isinstance(g, Bot):
                continue
            lbit = 1 << position[g.left]
            rbit = 1 << position[g.right]
            if isinstance(g, And):
                if profile & lbit and profile & rbit:
                    profile |= bit
            elif isinstance(g, Or):
                if profile & (lbit | rbit):
                    profile |= bit
            else:
                local = not (profile & lbit) or bool(profile & rbit)
                above = True if below0 is None else bool(below0 & bit and below1 & bit)
                if local and above:
                    profile |= bit
        return profile

    def atom_subsets(mask: int) -> list[int]:
        positions = [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]
        out = []
        for r in range(len(positions) + 1):
            for combo in combinations(positions, r):
                sub = 0
                for b in combo:
                    sub |= b
                out.append(sub)
        return out

    level_profiles: set[int] = set()
    previous: set[int] = set()
    for k in range(1, max_height + 1):
        if k == 1:
            current = {close(a, None, None) for a in atom_subsets(atom_mask)}
        else:
            current = set()
            for p0 in previous:
                for p1 in previous:
                    common = p0 & p1 & atom_mask
                    for a in atom_subsets(common):
                        current.add(close(a, p0, p1))
        level_profiles |= current
        if any(not (p & goal_bit) for p in level_profiles):
            frame = binary_tree_frame(k)
            witness = frame_witness(frame, f, max_valuations=max_valuations)
            if witness is None:  # profile closure said refutable; enumeration must agree
                raise InputError("internal disagreement between profile search and enumeration")
            valuation, point = witness
            return Countermodel(f, frame, valuation, point, k)
        previous = current
    return ValidUpToBound(f, max_height)
