"""Fixed formula corpora used by the verification suites.

``IPC_THEOREMS`` are intuitionistically provable; everything in
``NON_THEOREMS`` is refutable on some finite binary tree.  The mixed
corpus keeps to two variables so exhaustive valuation sweeps stay cheap.
"""

from __future__ import annotations

from .formulas import Formula, parse

IPC_THEOREMS: tuple[str, ...] = (
    # one and two variables
    "p -> p",
    "p -> (q -> p)",
    "bot -> p",
    "p & q -> p",
    "p & q -> q",
    "p -> (q -> p & q)",
    "p -> p | q",
    "q -> p | q",
    "p | p -> p",
    "p -> p & p",
    "p & q -> q & p",
    "p | q -> q | p",
    "~(p & ~p)",
    "p -> ~~p",
    "~~~p -> ~p",
    "(p -> q) -> (~q -> ~p)",
    "~~(p | ~p)",
    "(p -> (p -> q)) -> (p -> q)",
    "~(p | q) -> ~p & ~q",
    "~p & ~q -> ~(p | q)",
    "(~p | q) -> (p -> q)",
    "p & ~p -> q",
    "p & (p -> q) -> q",
    "~p -> (p -> q)",
    "(p -> q) & (p -> ~q) -> ~p",
    # three variables
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "(p -> q) & (q -> r) -> (p -> r)",
    "p & (q | r) -> (p & q) | (p & r)",
    "(p & q) | (p & r) -> p & (q | r)",
    "p | (q & r) -> (p | q) & (p | r)",
    "(p | q) & (p | r) -> p | (q & r)",
    "(p -> r) & (q -> r) -> (p | q -> r)",
    "(p | q -> r) -> (p -> r) & (q -> r)",
)

NON_THEOREMS: tuple[str, ...] = (
    "p | ~p",
    "~p | ~~p",
    "~~p -> p",
    "((p -> q) -> p) -> p",
    "(p -> q) | (q -> p)",
    "p",
    "~p",
    "bot",
    "p -> q",
    "q -> p",
    "p -> p & q",
    "p | q -> p",
    "p | q -> q",
    "p | q -> p & q",
    "(p -> q) -> p",
    "(p -> q) -> q",
    "~(p & q) -> ~p | ~q",
    "(p -> q) -> ~p | q",
    "(~~p -> ~~q) -> (p -> q)",
    "~~p -> ~p",
    "(p -> q) -> (q -> p)",
    "~p -> ~q",
    "p -> ~p",
    "(p | q) -> (p & q) | (q -> p)",
    "~~(p -> q) -> (p -> q)",
)

# Fifty formulas in at most two variables, mixed valid/invalid; the slice
# of IPC_THEOREMS below stops before the three-variable block.
MIXED_CORPUS: tuple[str, ...] = IPC_THEOREMS[:25] + NON_THEOREMS[:25]

# Canonical bounded-IPC classification corpus.
BOUNDED_VALID: tuple[str, ...] = (
    "p -> p",
    "p -> (q -> p)",
    "bot -> p",
    "(p -> q) & (q -> r) -> (p -> r)",
    "~~(p | ~p)",
)

BOUNDED_REFUTED: tuple[str, ...] = (
    "p | ~p",
    "~p | ~~p",
    "((p -> q) -> p) -> p",
    "(p -> q) | (q -> p)",
    "~~p -> p",
    # first refuted at height 3: bounded depth bd2, and Kreisel-Putnam
    "p2 | (p2 -> (p1 | ~p1))",
    "(~p -> q | r) -> (~p -> q) | (~p -> r)",
)


def parsed(corpus: tuple[str, ...]) -> tuple[Formula, ...]:
    return tuple(parse(text) for text in corpus)
