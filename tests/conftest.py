import pytest
from hypothesis import strategies as st

from ordsem.formulas import BOT, And, Imp, Or, Var
from ordsem.order import from_relation


def formulas(max_depth: int, names: str = "pqr"):
    """Hypothesis strategy: formulas over the one-letter variables in names and falsum."""
    atoms = st.one_of(st.sampled_from([Var(name) for name in names]), st.just(BOT))
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
        ),
        max_leaves=2 ** max_depth,
    )


@pytest.fixture
def chain2():
    return from_relation(["a", "b"], [("a", "b")])


@pytest.fixture
def chain3():
    return from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def antichain2():
    return from_relation(["a", "b"], [])


@pytest.fixture
def fork():
    # the frame 2^{<2}: one root below two incomparable leaves
    return from_relation(["r", "l", "k"], [("r", "l"), ("r", "k")])


@pytest.fixture
def diamond():
    return from_relation(
        ["bot", "m1", "m2", "top"],
        [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")],
    )
