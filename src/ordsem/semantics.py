"""Algebraic evaluation, Kripke forcing, theories, bounded IPC decision.

A formula holds in a Brouwer algebra when it evaluates to 0: conjunction
lands on the lattice join, disjunction on the meet and falsum on 1.  On a
frame, forcing is evaluation in the upset algebra, run point by point by
the same compiled program; the two routes define the same theory.  Each
formula is compiled once, its program is the only form evaluated, and
it is stored on the formula's (interned) node, so it lives exactly as
long as the formula.

A theory query runs trailing variables' values side by side in lanes.  A
frame sweep holds one bit per lane at every point, and a lane is one
choice of upsets for as many trailing variables as keep the lane count
within ``_MAX_LANES``: every two-variable query on a frame of at most 90
upsets is one sweep.  An algebra fold holds one carrier index per lane,
one lane per value of the last variable, and a step that does not read
it runs once for all lanes.  One sweep or fold runs per choice of the
remaining leading variables.  Each structure keeps its sweep tables and
its answers on itself, so they last as long as the structure.

Validity over the full binary trees of bounded height decides IPC
membership in the refutation direction: a countermodel on some 2^{<k}
proves non-membership, while "valid up to the bound" is exactly that.
The decision closes sets of forced program slots ("profiles") level by
level up the tree, under the caller's valuation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Union

from .brouwer import BrouwerAlgebra
from .errors import CapacityError, InputError, InvariantViolation, ValuationError
from .formulas import BOT, And, Formula, Imp, Or, Var, free_vars
from .order import Poset, Upset, bits, upset_masks

MAX_VALUATIONS = 2_000_000
MAX_TREE_HEIGHT = 10  # 2^{<10} has 1023 nodes

# A frame sweep folds trailing variables into its lanes while their
# choices number at most this.  2^13 makes each two-variable query on the
# 80- and 72-upset sources of `bench/run.py --workload transfer` one
# sweep (job_s 0.19 -> 0.06 s against one variable per lane, Python
# 3.11 on a 2-core host), while 2^{<4}, whose 677 upsets squared exceed
# it, keeps one variable per lane and its speed.
_MAX_LANES = 1 << 13

# Opcodes index the (join, meet, impl) tables of an algebra.
_AND, _OR, _IMP = 0, 1, 2
_OPCODE = {And: _AND, Or: _OR, Imp: _IMP}

Structure = Union[BrouwerAlgebra, Poset]


def _compile(f: Formula) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...], int]:
    """Post-order straight-line program for f: (names, steps, root).

    Slots 0..k-1 hold the sorted variables and slot k falsum; step i reads
    two earlier slots and writes slot k+1+i.  Each distinct subformula has
    one slot, and f's value ends in ``root``.  The program is stored on
    the formula's node, so it is built once and lives as long as f.
    """
    program = f.program
    if program is not None:
        return program
    names = tuple(sorted(free_vars(f)))
    slot: dict[Formula, int] = {Var(name): i for i, name in enumerate(names)}
    slot[BOT] = len(names)
    steps: list[tuple[int, int, int]] = []
    root = _emit(f, slot, steps)
    program = names, tuple(steps), root
    object.__setattr__(f, "program", program)  # the one field a formula fills late
    return program


def _emit(g: Formula, slot: dict[Formula, int], steps: list[tuple[int, int, int]]) -> int:
    """g's slot, appending the steps of its subformulas that have none yet.

    A module function rather than a closure over ``slot``, which would be
    a reference cycle keeping every subformula alive until the cyclic
    collector runs."""
    if g not in slot:
        steps.append((_OPCODE[type(g)], _emit(g.left, slot, steps), _emit(g.right, slot, steps)))
        slot[g] = len(slot)
    return slot[g]


def _values(names: tuple[str, ...], env: Mapping[str, int]) -> list[int]:
    """The values of a program's variables, in slot order."""
    try:
        return [env[name] for name in names]
    except KeyError as exc:
        raise ValuationError(f"no value for variable {exc.args[0]!r}") from None


def _run(steps: tuple, root: int, slots: list[int], tables: tuple) -> int:
    """Run a program through an algebra's tables from its filled variable
    and falsum slots."""
    for op, a, b in steps:
        slots.append(tables[op][slots[a]][slots[b]])
    return slots[root]


def _sweep(
    cones: list[list[int]], steps: tuple, root: int, slots: list[list[int]], ones: int
) -> list[int]:
    """Run a program on a frame over many valuations at once.

    ``cones`` lists each point's up-cone.  A slot holds one int per point,
    whose bit c says whether the point forces the slot under the c-th
    valuation, of the ``ones`` lanes.  The variable and falsum slots are
    given; the root slot is returned.
    """
    for op, a, b in steps:
        left, right = slots[a], slots[b]
        if op == _AND:
            slots.append([x & y for x, y in zip(left, right)])
        elif op == _OR:
            slots.append([x | y for x, y in zip(left, right)])
        else:  # forced where every point above that forces the left forces the right
            holds = [~x | y for x, y in zip(left, right)]
            out = []
            for cone in cones:
                lanes = ones
                for y in cone:
                    lanes &= holds[y]
                out.append(lanes)
            slots.append(out)
    return slots[root]


def _cones(frame: Poset) -> list[list[int]]:
    return [list(bits(cone)) for cone in frame.up]


def _evaluate(algebra: BrouwerAlgebra, f: Formula, env: Mapping[str, int]) -> int:
    names, steps, root = _compile(f)
    tables = (algebra.join, algebra.meet, algebra.impl)
    return _run(steps, root, [*_values(names, env), algebra.top], tables)


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
    names, steps, root = _compile(f)
    points = range(frame.n)
    slots = [[mask >> x & 1 for x in points] for mask in _values(names, env)]
    forced = _sweep(_cones(frame), steps, root, [*slots, [0] * frame.n], 1)
    return Upset(frame, sum(bit << x for x, bit in zip(points, forced)))


def forces(frame: Poset, point: str, valuation: Mapping[str, Upset], f: Formula) -> bool:
    """Standard intuitionistic forcing at one point."""
    i = frame.index_of(point)
    return (forced_upset(frame, valuation, f).mask >> i) & 1 == 1


class _Tables:
    """One structure's valuation values and answers, plus the frame
    sweep's tables: the points' up-cones and its ``lanes``.  The structure
    holds them as ``_tables``, set by its first query.  Each table is built
    by the first query that needs it, once that query has passed the
    valuation guard.

    ``lanes`` maps a lane width d to (trailing, rows).  ``trailing`` holds
    the slots of the last d variables, most significant first: bit c of
    ``trailing[j][x]`` says whether point x lies in the upset that lane c
    gives the j-th of them.  ``rows[i]`` is the slot of a leading variable
    valued by the i-th upset, the same in every lane; it is None until a
    query with a leading variable asks for it.

    ``answers`` maps each formula asked to its first refuting choice of
    values, or None.  It keys on the formula's node, so a formula asked
    of a structure stays interned as long as the structure's tables.
    """

    __slots__ = ("values", "answers", "cones", "lanes")

    def __init__(self, values: tuple[int, ...] | range):
        self.values = values
        self.answers: dict[Formula, tuple[int, ...] | None] = {}
        self.cones: list[list[int]] | None = None
        self.lanes: dict[int, tuple[list[list[int]], list[list[int]] | None]] = {}


def _algebra_refutation(
    algebra: BrouwerAlgebra, tables: _Tables, program: tuple
) -> tuple[int, ...] | None:
    """One fold per choice of the leading variables, the last one's values
    side by side: a slot that reads it holds one carrier index per lane,
    and a step that does not read it runs once for all the lanes."""
    names, steps, root = program
    ops = (algebra.join, algebra.meet, algebra.impl)
    bottom, top = algebra.bottom, algebra.top
    if not names:
        return None if _run(steps, root, [top], ops) == bottom else ()
    lanes = tables.values
    # which operands of each step vary with the lane: 0 neither, 1 the
    # right, 2 the left, 3 both
    varies = [False] * (len(names) - 1) + [True, False]
    plan = []
    for op, a, b in steps:
        kind = varies[a] << 1 | varies[b]
        varies.append(kind != 0)
        plan.append((ops[op], a, b, kind))
    for lead in product(lanes, repeat=len(names) - 1):
        slots = [*lead, lanes, top]
        for table, a, b, kind in plan:
            x, y = slots[a], slots[b]
            if kind == 0:
                slots.append(table[x][y])
            elif kind == 1:
                row = table[x]
                slots.append([row[v] for v in y])
            elif kind == 2:
                slots.append([table[u][y] for u in x])
            else:
                slots.append([table[u][v] for u, v in zip(x, y)])
        out = slots[root]
        if out.count(bottom) != len(out):
            return (*lead, next(c for c, v in enumerate(out) if v != bottom))
    return None


def _lane_width(count: int, variables: int) -> int:
    """How many trailing variables share the lanes, of a query's
    ``variables`` over ``count`` upsets: as many as keep the lanes within
    ``_MAX_LANES``, and at least the last one."""
    width = 1
    while width < variables and count ** (width + 1) <= _MAX_LANES:
        width += 1
    return width


def _trailing_slots(frame: Poset, masks: tuple[int, ...], width: int) -> list[list[int]]:
    """The last ``width`` variables' slots.  Lane c spells their upsets'
    indices in base len(masks), most significant first, so variable j's
    index holds for a block of len(masks)**(width-1-j) lanes, and the
    blocks of all its upsets repeat len(masks)**j times."""
    count, points = len(masks), range(frame.n)
    slots = []
    for j in range(width):
        block, cycles = count ** (width - 1 - j), count**j
        one, zero = "1" * block, "0" * block
        slots.append([
            int("".join([one if mask >> x & 1 else zero for mask in reversed(masks)]) * cycles, 2)
            for x in points
        ])
    return slots


def _frame_refutation(frame: Poset, tables: _Tables, program: tuple) -> tuple[int, ...] | None:
    """One sweep per choice of the leading variables, the trailing ones'
    upsets side by side in the lanes.  Lane order is canonical order, so
    the lowest refuted lane of the first refuted sweep is the first
    refutation."""
    names, steps, root = program
    if tables.cones is None:
        tables.cones = _cones(frame)
    cones, falsum = tables.cones, [0] * frame.n
    if not names:
        forced = _sweep(cones, steps, root, [falsum], 1)
        return None if all(forced) else ()
    masks = tables.values
    count = len(masks)
    width = _lane_width(count, len(names))
    leading = len(names) - width
    ones = (1 << count**width) - 1
    trailing, rows = tables.lanes.get(width, (None, None))
    if trailing is None:
        trailing = _trailing_slots(frame, masks, width)
    if leading and rows is None:
        rows = [[ones if mask >> x & 1 else 0 for x in range(frame.n)] for mask in masks]
    tables.lanes[width] = trailing, rows
    for lead in product(range(count), repeat=leading):
        refuted = 0
        slots = [*[rows[i] for i in lead], *trailing, falsum]
        for lanes in _sweep(cones, steps, root, slots, ones):
            refuted |= ~lanes
        refuted &= ones
        if refuted:
            lane = (refuted & -refuted).bit_length() - 1
            digits = [lane // count ** (width - 1 - j) % count for j in range(width)]
            return tuple(masks[i] for i in (*lead, *digits))
    return None


def _first_refutation(
    structure: Structure, f: Formula, max_valuations: int
) -> dict[str, int] | None:
    """First valuation in canonical order under which f is not designated.

    Canonical order is the product, over the sorted variable names, of the
    carrier indices (algebra) or the ascending upset masks (frame).  Both
    modes run trailing variables' values side by side in lanes, in
    canonical order: the first refutation is the lowest refuted lane of
    the first choice of the leading variables that has one.  A
    structure's values are cached with its answers, so the guard holds
    for cached answers too.
    """
    if not isinstance(structure, (BrouwerAlgebra, Poset)):
        raise InputError(f"cannot compute a theory over {type(structure).__name__}")
    program = _compile(f)
    names = program[0]
    tables = getattr(structure, "_tables", None)
    if tables is None:
        values = upset_masks(structure) if isinstance(structure, Poset) else range(structure.n)
        tables = _Tables(values)
        object.__setattr__(structure, "_tables", tables)  # lives as long as the structure
    if len(tables.values) ** len(names) > max_valuations:
        raise CapacityError(
            f"valuation guard: {len(tables.values)}^{len(names)} exceeds {max_valuations}"
        )
    if f not in tables.answers:
        search = _frame_refutation if isinstance(structure, Poset) else _algebra_refutation
        tables.answers[f] = search(structure, tables, program)
    found = tables.answers[f]
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
    profiles: bit i of a profile says that the point forces slot i of f's
    compiled program, so the atoms are the low bits and f is the root's
    bit.  A node's profile follows from its atoms and the profiles its two
    children share, so each level is built from the previous one, and the
    search stops at the first level whose profile set repeats an earlier
    one.  The pairings of the previous level's profiles and the closures
    they need, one per atom set and shared child profile, are charged to
    ``max_valuations`` before each level runs; a level that would exceed
    it raises CapacityError.  Only when a level is refutable is the
    valuation space enumerated, to extract the smallest-k,
    lexicographically-first countermodel.  A countermodel is conclusive;
    validity is only up to the bound.
    """
    if max_height < 1:
        raise InputError(f"max height must be >= 1, got {max_height}")
    names, steps, root = _compile(f)
    atoms = (1 << len(names)) - 1

    def close(profile: int, shared: int) -> int:
        for slot, (op, a, b) in enumerate(steps, len(names) + 1):
            x, y = profile >> a & 1, profile >> b & 1
            if op == _AND:
                forced = x and y
            elif op == _OR:
                forced = x or y
            else:  # forced here and at both children
                forced = (not x or y) and shared >> slot & 1
            if forced:
                profile |= 1 << slot
        return profile

    previous = {-1}  # a leaf closes as if its children forced every slot
    seen: set[frozenset[int]] = set()
    spent = 0
    for k in range(1, max_height + 1):
        spent += len(previous) ** 2
        if spent <= max_valuations:
            shared_sets = {p0 & p1 for p0 in previous for p1 in previous}
            spent += sum(1 << (shared & atoms).bit_count() for shared in shared_sets)
        if spent > max_valuations:
            raise CapacityError(
                f"profile guard: {spent} pairings and closures by height {k} exceed {max_valuations}"
            )
        current = set()
        for shared in shared_sets:
            common = sub = shared & atoms
            while True:  # every atom set that persists into both children
                current.add(close(sub, shared))
                if not sub:
                    break
                sub = (sub - 1) & common
        if any(not p >> root & 1 for p in current):
            frame = binary_tree_frame(k)
            witness = frame_witness(frame, f, max_valuations=max_valuations)
            if witness is None:  # profile closure said refutable; enumeration must agree
                raise InvariantViolation(
                    "internal disagreement between profile search and enumeration"
                )
            valuation, point = witness
            return Countermodel(f, frame, valuation, point, k)
        level = frozenset(current)
        if level in seen:  # later levels repeat earlier ones: nothing new to refute
            break
        seen.add(level)
        previous = current
    return ValidUpToBound(f, max_height)
