"""Algebraic evaluation, Kripke forcing, theories, bounded binary-tree checks.

A formula holds in a Brouwer algebra when it evaluates to 0: conjunction
lands on the lattice join, disjunction on the meet and falsum on 1.  On a
frame, forcing is evaluation in the upset algebra, run point by point by
the same compiled program; the two routes define the same theory.  Each
formula is compiled once, its program is the only form evaluated, and
it is stored on the formula's (interned) node, so it lives exactly as
long as the formula.

A theory query sweeps a frame: a frame itself, an algebra its dual frame
M, since a finite Brouwer algebra is the algebra of upsets of its
meet-irreducibles (Birkhoff; Esakia).  So every structure keeps the same
tables, and every answer has one shape: the first refuting choice of
values, then the first point of the swept frame it refutes.  A sweep
holds one bit per lane at every point, and a lane is one choice of upsets
for as many trailing variables as keep the lane count within
``_MAX_LANES``: every two-variable query on a structure of at most 90
values is one sweep, run per choice of the remaining leading variables.
Implication reads each point's upper covers, so a tall dual, a chain
algebra's, stays linear.  Each structure keeps on itself, as long as it
lives, its answers and one sweep plan per variable count, built by the
first query with that many variables: a query asked before is one lookup,
and any other is one lookup of its plan and its sweeps (about 5.6 us on a
poset of at most five points or on its algebra, CPython 3.11 on a 2-core
x86 host).

Validity over the full binary trees of bounded height refutes IPC
membership: a countermodel on some 2^{<k} proves non-membership, while
"valid up to the bound" is exactly that.  The check closes sets of forced
program slots ("profiles") level by level up the tree, under the caller's
valuation budget, until a level equals the previous one, as levels only
grow.  At that fixpoint the closure has decided the logic of the finite
binary trees, which is not IPC: it contains Gabbay and de Jongh's bb2,
which fails at the root of the three-leaf fork.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import and_, or_
from typing import Mapping, Union

from .brouwer import BrouwerAlgebra, _dual
from .errors import CapacityError, InputError, InvariantViolation, ValuationError
from .formulas import BOT, And, Formula, Imp, Or, Var, free_vars
from .order import Poset, Upset, upper_covers, upset_masks

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

_UNASKED = object()  # ``_Tables.answers`` has no entry for the formula


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


def _sweep(
    covers: list[tuple[int, int]], steps: tuple, root: int, slots: list[list[int]], ones: int
) -> list[int]:
    """Run a program on a frame over many valuations at once.

    ``covers`` is ``upper_covers(frame)``.  A slot holds one int per point,
    whose bit c says whether the point forces the slot under the c-th
    valuation, of the ``ones`` lanes.  The variable and falsum slots are
    given; the root slot is returned.  Conjunction and disjunction are
    ``map`` kernels over the points, as a comprehension is a frame of its
    own per step.  Implication's base is a comprehension, since mapping
    ``ones.__xor__`` calls a method wrapper per point and is no faster;
    it then reads each point's upper covers.
    """
    for op, a, b in steps:
        left, right = slots[a], slots[b]
        if op == _AND:
            slots.append(list(map(and_, left, right)))
        elif op == _OR:
            slots.append(list(map(or_, left, right)))
        else:  # forced where the left fails or the right holds, and at each upper cover
            holds = [ones ^ x | y for x, y in zip(left, right)]
            for x, y in covers:  # y is done before x
                holds[x] &= holds[y]
            slots.append(holds)
    return slots[root]


def _evaluate(algebra: BrouwerAlgebra, f: Formula, env: Mapping[str, int]) -> int:
    names, steps, root = _compile(f)
    tables = (algebra.join, algebra.meet, algebra.impl)
    slots = [*_values(names, env), algebra.top]
    for op, a, b in steps:
        slots.append(tables[op][slots[a]][slots[b]])
    return slots[root]


def _indices(algebra: BrouwerAlgebra, valuation: Mapping[str, str]) -> dict[str, int]:
    """Each variable's carrier index, one ``algebra.index`` lookup each.
    Every label is checked, used by the formula or not."""
    index = algebra.index
    try:
        return {name: index[label] for name, label in valuation.items()}
    except KeyError:  # index_of raises the unknown-element InputError
        return {name: algebra.index_of(label) for name, label in valuation.items()}


def eval_algebra(f: Formula, algebra: BrouwerAlgebra, valuation: Mapping[str, str]) -> str:
    """Fold the formula through the algebra's tables; returns a carrier label."""
    return algebra.carrier[_evaluate(algebra, f, _indices(algebra, valuation))]


def holds_in(algebra: BrouwerAlgebra, f: Formula, valuation: Mapping[str, str]) -> bool:
    return _evaluate(algebra, f, _indices(algebra, valuation)) == algebra.bottom


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
    forced = _sweep(upper_covers(frame), steps, root, [*slots, [0] * frame.n], 1)
    return Upset(frame, sum(bit << x for x, bit in zip(points, forced)))


def forces(frame: Poset, point: str, valuation: Mapping[str, Upset], f: Formula) -> bool:
    """Standard intuitionistic forcing at one point."""
    i = frame.index_of(point)
    return (forced_upset(frame, valuation, f).mask >> i) & 1 == 1


class _Tables:
    """One structure's sweep tables and answers, held as its ``_tables``,
    built from the frame it sweeps: a frame itself, an algebra its dual.

    ``n`` counts the swept frame's points and ``covers`` is its
    ``upper_covers``; the frame itself is not held, since a frame's tables
    holding the frame would be a reference cycle.  ``values`` lists the upsets a variable ranges
    over in canonical order: ascending masks, or the algebra's elements'
    upsets by carrier index.  ``plans`` maps a variable count k to the
    plan every k-variable query sweeps with (see ``_plan``), built by the
    first such query that passed the valuation guard.

    ``answers`` maps each formula asked to None, if it holds, or else to
    its first refuting choice of value indices followed by the first point
    of the swept frame refuted under that choice.  It keys on the
    formula's node, so a formula asked of a structure stays interned as
    long as the structure's tables.
    """

    __slots__ = ("n", "values", "covers", "plans", "answers")

    def __init__(self, frame: Poset, values: tuple[int, ...]):
        self.n = frame.n
        self.values = values
        self.covers = upper_covers(frame)
        self.plans: dict[int, tuple] = {}
        self.answers: dict[Formula, tuple[int, ...] | None] = {}


def _lane_width(count: int, variables: int) -> int:
    """How many trailing variables share the lanes, of a query's
    ``variables`` over ``count`` upsets: as many as keep the lanes within
    ``_MAX_LANES``, and at least the last one if there is one."""
    width = min(variables, 1)
    while width < variables and count ** (width + 1) <= _MAX_LANES:
        width += 1
    return width


def _plan(tables: _Tables, variables: int) -> tuple:
    """The plan every query of ``variables`` variables sweeps with, stored
    in ``tables.plans``: (covers, ones, count, width, rows, pools, fixed).

    Each variable ranges over ``count`` upsets, and the last ``width``
    share the ``ones`` lanes.  Lane c spells their upsets' indices in base
    ``count``, most significant first, so bit c of the j-th one's slot at
    point x says whether x lies in the upset lane c gives it.  ``fixed``
    holds those slots and falsum's.  ``rows[i]`` is the slot of a leading
    variable valued by the i-th upset, in every lane, built only when a
    variable leads, and ``pools`` holds ``rows`` once per leading variable.
    """
    masks, points = tables.values, range(tables.n)
    count = len(masks)
    width = _lane_width(count, variables)
    ones = (1 << count**width) - 1
    fixed = []
    for j in range(width):  # j's index holds for count**(width-1-j) lanes, count**j times
        block, cycles = count ** (width - 1 - j), count**j
        one, zero = "1" * block, "0" * block
        fixed.append([
            int("".join([one if mask >> x & 1 else zero for mask in reversed(masks)]) * cycles, 2)
            for x in points
        ])
    fixed.append([0] * tables.n)
    leading = variables - width
    rows = [[ones if mask >> x & 1 else 0 for x in points] for mask in masks] if leading else None
    plan = (tables.covers, ones, count, width, rows, (rows,) * leading, fixed)
    tables.plans[variables] = plan
    return plan


def _frame_refutation(plan: tuple, steps: tuple, root: int) -> tuple[int, ...] | None:
    """The first refuting choice of value indices followed by the first
    point refuted under it, or None.  One sweep per choice of the leading
    variables' rows, the trailing ones' upsets side by side in the lanes.
    Lane order is canonical order, so the lowest refuted lane of the first
    refuted sweep is the first refutation."""
    covers, ones, count, width, rows, pools, fixed = plan
    for lead in product(*pools):
        forced = _sweep(covers, steps, root, [*lead, *fixed], ones)
        refuted = ones ^ reduce(and_, forced, ones)
        if refuted:
            low = refuted & -refuted  # the first refuted lane's bit
            lane = low.bit_length() - 1
            return (
                *[rows.index(row) for row in lead],  # distinct upsets have distinct rows
                *[lane // count ** (width - 1 - j) % count for j in range(width)],
                [lanes & low for lanes in forced].index(0),
            )
    return None


def _answer(
    structure: Structure, f: Formula, max_valuations: int
) -> tuple[_Tables, tuple[str, ...], tuple[int, ...] | None]:
    """The structure's tables, f's variables and f's answer (see
    ``_Tables.answers``), swept on a miss.

    Canonical order is the product, over the sorted variable names, of the
    value indices: ascending upset masks (frame) or carrier indices
    (algebra).  An algebra is swept on its dual frame with the upsets in
    carrier order, so it reads only the join table's order;
    ``verify_brouwer`` checks that ``meet`` and ``impl`` fit it.  The guard
    holds for cached answers too.  The structure's type is checked only
    when its tables are built.
    """
    tables = getattr(structure, "_tables", None)
    if tables is None:
        if not isinstance(structure, (BrouwerAlgebra, Poset)):
            raise InputError(f"cannot compute a theory over {type(structure).__name__}")
        if isinstance(structure, Poset):
            tables = _Tables(structure, upset_masks(structure))
        else:
            tables = _Tables(*_dual(structure))
        object.__setattr__(structure, "_tables", tables)  # lives as long as the structure
    names, steps, root = _compile(f)
    variables = len(names)
    if len(tables.values) ** variables > max_valuations:
        raise CapacityError(
            f"valuation guard: {len(tables.values)}^{variables} exceeds {max_valuations}"
        )
    found = tables.answers.get(f, _UNASKED)
    if found is _UNASKED:
        plan = tables.plans.get(variables) or _plan(tables, variables)
        found = tables.answers[f] = _frame_refutation(plan, steps, root)
    return tables, names, found


def theory_contains(structure: Structure, f: Formula, *, max_valuations: int = MAX_VALUATIONS) -> bool:
    """Whether f holds under every valuation into the structure.

    Frame mode quantifies over upset valuations and demands forcing at
    every point.  Algebra mode reads only the order of the join table,
    which must be a distributive lattice (else ``InputError``): it is
    swept as a frame, and ``verify_brouwer`` checks the ``meet`` and
    ``impl`` tables, as the command line does before a query on a dump.
    """
    return _answer(structure, f, max_valuations)[2] is None


def frame_witness(
    frame: Poset, f: Formula, *, max_valuations: int = MAX_VALUATIONS
) -> tuple[dict[str, Upset], str] | None:
    """First refuting (valuation, point) in canonical order, or None: the
    stored answer, decoded.  An algebra has no points of its own, so it is
    refused (``InputError``)."""
    if isinstance(frame, BrouwerAlgebra):
        raise InputError("cannot compute a frame witness over BrouwerAlgebra")
    tables, names, found = _answer(frame, f, max_valuations)
    if found is None:
        return None
    *choice, point = found
    valuation = {name: Upset(frame, tables.values[i]) for name, i in zip(names, choice)}
    return valuation, frame.elements[point]


def binary_tree_frame(height: int) -> Poset:
    """The frame 2^{<height}: binary strings of length < height, prefix order.
    In (length, string) order they form a heap: node i spells i + 1 in
    binary without its leading 1, and its children are 2i + 1 and 2i + 2."""
    if height < 1:
        raise InputError(f"tree height must be >= 1, got {height}")
    if height > MAX_TREE_HEIGHT:
        raise CapacityError(f"tree height guard: {height} > {MAX_TREE_HEIGHT}")
    n = (1 << height) - 1
    cones = [1 << i for i in range(n)]
    for i in reversed(range(n // 2)):  # the inner nodes, children first
        cones[i] |= cones[2 * i + 1] | cones[2 * i + 2]
    return Poset(tuple(bin(i + 1)[3:] for i in range(n)), tuple(cones))


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
    children share, so each level is built from the previous one.  Levels
    only grow: a node with P's atoms whose children both carry P closes to
    P again, as P holds an implication slot only where its clause holds.
    So a level that repeats an earlier one equals the previous one, as
    does every later level, and the search stops at the first such level.
    The pairings of the previous level's profiles and the closures they
    need, one per atom set and shared child profile, are charged to
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
        if current == previous:  # the fixpoint: every later level is this one
            break
        previous = current
    return ValidUpToBound(f, max_height)
