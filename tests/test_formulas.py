"""Grammar, desugaring, error reporting, print/parse round-trips,
hash-consing and the parse memo."""

import copy
import gc
import pickle
import re
import weakref

import pytest
from conftest import formulas
from hypothesis import given
from hypothesis import strategies as st

from ordsem import formulas as formulas_module
from ordsem.corpus import IPC_THEOREMS, MIXED_CORPUS, NON_THEOREMS
from ordsem.formulas import (
    BOT,
    MAX_DEPTH,
    And,
    Bot,
    Imp,
    Or,
    ParseError,
    Var,
    free_vars,
    neg,
    parse,
    pretty,
)
from ordsem.order import from_relation
from ordsem.semantics import theory_contains

_TOKEN = re.compile(r"->|[~&|()]|[a-z][a-zA-Z0-9_]*")


@st.composite
def spellings(draw):
    """A formula and a text for it: `pretty`'s, with redundant parentheses
    around the whole, around atoms and around parenthesised subformulas,
    and random whitespace between the pieces."""
    ast = draw(formulas(4))
    extra = st.integers(0, 2)
    outer = draw(extra)
    pieces, opened = ["(" * outer], []
    for token in _TOKEN.findall(pretty(ast)):
        if token == "(":
            opened.append(1 + draw(extra))
            pieces.append("(" * opened[-1])
        elif token == ")":
            pieces.append(")" * opened.pop())
        elif token[0].isalpha():
            wrap = draw(extra)
            pieces.append("(" * wrap + token + ")" * wrap)
        else:
            pieces.append(token)
    pieces.append(")" * outer)
    gap = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n"])
    gaps = draw(st.lists(gap, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    return ast, "".join(gap + piece for gap, piece in zip(gaps, pieces)) + gaps[-1]


class TestParse:
    def test_weak_lem_desugaring(self):
        p = Var("p")
        assert parse("~p | ~~p") == Or(Imp(p, BOT), Imp(Imp(p, BOT), BOT))

    def test_imp_right_associative(self):
        assert parse("p -> q -> r") == Imp(Var("p"), Imp(Var("q"), Var("r")))

    def test_and_or_precedence(self):
        assert parse("p & q | r") == Or(And(Var("p"), Var("q")), Var("r"))
        assert parse("p | q -> r") == Imp(Or(Var("p"), Var("q")), Var("r"))

    def test_neg_binds_tightest(self):
        assert parse("~p & q") == And(neg(Var("p")), Var("q"))

    def test_bot_keyword(self):
        assert parse("bot") == BOT
        assert parse("bottom") == Var("bottom")  # only the exact word is reserved

    def test_identifiers(self):
        assert parse("x_1") == Var("x_1")
        assert parse("pQ2") == Var("pQ2")

    def test_parens(self):
        assert parse("(p -> q) -> r") == Imp(Imp(Var("p"), Var("q")), Var("r"))


class TestParseErrors:
    def test_truncated_input_offset(self):
        with pytest.raises(ParseError) as info:
            parse("p ->")
        assert info.value.offset == 4

    def test_expected_token_set(self):
        with pytest.raises(ParseError) as info:
            parse("p -> )")
        assert "ident" in info.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as info:
            parse("(p -> q")
        assert info.value.offset == 7

    def test_garbage_character(self):
        with pytest.raises(ParseError) as info:
            parse("p + q")
        assert info.value.offset == 2

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse("p q")

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "~" * n + "p",
            lambda n: "(" * n + "p" + ")" * n,
            lambda n: "p -> " * n + "p",
            lambda n: "p & " * n + "p",
            lambda n: "p | " * n + "p",
        ],
        ids=["negations", "parentheses", "implications", "conjunctions", "disjunctions"],
    )
    def test_depth_limit_is_exact(self, shape):
        parse(shape(MAX_DEPTH))
        with pytest.raises(ParseError, match="deeper|taller"):
            parse(shape(MAX_DEPTH + 1))


class TestPretty:
    def test_round_trip_examples(self):
        for text in (
            "p", "bot", "~p", "~~p", "p -> q -> r", "(p -> q) -> r",
            "p & q | r", "p & (q | r)", "~(p & q)", "~p | ~~p",
            "p | (q | r)", "(p | q) | r",
        ):
            ast = parse(text)
            assert parse(pretty(ast)) == ast

    def test_negation_sugar_restored(self):
        assert pretty(parse("p -> bot")) == "~p"


class TestRoundTripProperty:
    @given(formulas(4))
    def test_parse_of_pretty_is_identity(self, ast):
        assert parse(pretty(ast)) == ast


class TestHelpers:
    def test_free_vars(self):
        assert free_vars(parse("p -> (q & ~p)")) == {"p", "q"}
        assert free_vars(BOT) == frozenset()


class TestHashConsing:
    """One live node per formula: equal formulas are the same object."""

    def test_parse_of_pretty_is_the_same_object(self):
        for text in MIXED_CORPUS + IPC_THEOREMS + NON_THEOREMS:
            f = parse(text)
            assert parse(pretty(f)) is f
            assert parse(text) is f

    def test_negation_is_the_same_object(self):
        f = parse("p & q")
        assert neg(f) is neg(f)
        assert neg(f) is parse("~(p & q)")
        assert Bot() is BOT

    @given(formulas(4))
    def test_built_trees_are_their_parse(self, ast):
        assert parse(pretty(ast)) is ast

    def test_copies_are_the_same_object(self):
        f = parse("(p -> q) | ~r")
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_fields_are_immutable(self):
        f = parse("p -> q")
        with pytest.raises(AttributeError):
            f.left = Var("r")
        with pytest.raises(AttributeError):
            del f.right
        with pytest.raises(AttributeError):
            Var("p").name = "q"
        with pytest.raises(AttributeError):
            f.program = None
        assert f == Imp(Var("p"), Var("q"))

    def test_repr_and_field_names(self):
        f = parse("~p | q & bot")
        assert repr(f) == (
            "Or(left=Imp(left=Var(name='p'), right=Bot()), "
            "right=And(left=Var(name='q'), right=Bot()))"
        )
        assert f.left.left.name == "p"
        assert f.right.right is BOT

    def test_wrong_field_count(self):
        with pytest.raises(TypeError):
            And(Var("p"))

    def test_unreferenced_node_leaves_the_table(self):
        node = And(Var("x_unshared"), Var("y_unshared"))
        key = (And, Var("x_unshared"), Var("y_unshared"))
        assert formulas_module._interned[key] is node
        gone = weakref.ref(node)
        del node
        gc.collect()
        assert gone() is None
        assert key not in formulas_module._interned

    @given(spellings())
    def test_a_memo_hit_is_the_node_the_parser_builds(self, spelled):
        ast, text = spelled
        f = parse(text)
        assert parse(text) is f
        assert formulas_module._parse(text) is f
        assert f is ast

    def test_an_unreferenced_formula_leaves_the_memo(self):
        text = "x_memo & ~y_memo -> x_memo"
        f = parse(text)
        assert formulas_module._parsed[text] is f
        assert theory_contains(from_relation(["a"], []), f)  # compiles f
        assert f.program is not None
        gone = weakref.ref(f)
        del f
        gc.collect()
        assert gone() is None
        assert text not in formulas_module._parsed
        assert parse(text).program is None

    @pytest.mark.parametrize(
        "text",
        [
            "", "p ->", "(p -> q", "p + q", "p q", "p -> )", "p - q",
            "~" * (MAX_DEPTH + 1) + "p",
            "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
            "p & " * (MAX_DEPTH + 1) + "p",
        ],
        ids=[
            "empty", "truncated", "unbalanced", "garbage", "trailing", "misplaced", "stray-dash",
            "too-many-negations", "too-many-parentheses", "too-tall",
        ],
    )
    def test_a_bad_text_raises_alike_every_time_and_is_not_stored(self, text):
        raised = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse(text)
            raised.append((str(info.value), info.value.offset, info.value.expected))
        assert raised[0] == raised[1]
        assert text not in formulas_module._parsed
