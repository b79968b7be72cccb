"""JSON documents: round trips, and the exit contract on hostile input."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsem import documents
from ordsem.brouwer import upset_algebra
from ordsem.cli import main
from ordsem.formulas import parse
from ordsem.morphism import pmorphism_from_labels
from ordsem.order import from_relation
from ordsem.semantics import ipc_check_bounded

FORK = from_relation(["r", "l", "k"], [("r", "l"), ("r", "k")])
CHAIN = from_relation(["a", "b"], [("a", "b")])
DIAMOND = from_relation(
    ["bot", "m1", "m2", "top"], [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")]
)
ALGEBRA = upset_algebra(DIAMOND)
PMORPHISM = pmorphism_from_labels(FORK, CHAIN, {"r": "a", "l": "b", "k": "b"})
COUNTERMODEL = ipc_check_bounded(parse("(p -> q) | (q -> p)"), 3)
ANTICHAIN5_DUMP = json.dumps(documents.algebra_to_json(upset_algebra(from_relation("abcde", []))))

# kind -> (value, writer, reader, what the reader gives back for the value)
KINDS = {
    "poset": (DIAMOND, documents.poset_to_json, documents.poset_from_json, DIAMOND),
    "algebra": (ALGEBRA, documents.algebra_to_json, documents.algebra_from_json, ALGEBRA),
    "pmorphism": (
        PMORPHISM, documents.pmorphism_to_json, documents.pmorphism_from_json, PMORPHISM
    ),
    "countermodel": (
        COUNTERMODEL,
        documents.countermodel_to_json,
        documents.countermodel_from_json,
        (COUNTERMODEL.frame, COUNTERMODEL.valuation, COUNTERMODEL.point),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_round_trip(kind):
    value, to_json, from_json, expected = KINDS[kind]
    text = json.dumps(to_json(value), sort_keys=True)
    again = from_json(json.loads(text))
    assert again == expected
    if kind != "countermodel":  # the reader keeps only what the DOT export draws
        assert json.dumps(to_json(again), sort_keys=True) == text


# -- the exit contract: any document, any reader, exits 0, 1 or 2

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
LABELS = st.sampled_from(["a", "b", "r", "", "0", "{}", "\ud800", "a\\"])
DROP = object()


def spoiled(valid):
    """Valid-shaped documents, some with one key dropped or replaced by junk."""

    def spoil(doc):
        def apply(change):
            key, value = change
            out = {k: v for k, v in doc.items() if k != key}
            return out if value is DROP else {**out, key: value}

        return st.tuples(st.sampled_from(sorted(doc)), st.just(DROP) | JUNK).map(apply)

    return st.one_of(valid, valid, valid.flatmap(spoil), JUNK)


@st.composite
def poset_docs(draw):
    elements = draw(st.lists(LABELS, max_size=5))
    pool = labels_of({"elements": elements})
    pairs = draw(st.lists(st.lists(pool, min_size=2, max_size=2), max_size=6))
    return {"elements": elements, "leq": pairs}


@st.composite
def algebra_docs(draw):
    if draw(st.booleans()):  # a real dump, one cell possibly changed
        data = documents.algebra_to_json(upset_algebra(draw(st.sampled_from([CHAIN, FORK]))))
        n = len(data["carrier"])
        table = draw(st.sampled_from(["join", "meet", "impl"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        data[table][i][j] = draw(st.integers(-1, n))
        return data
    carrier = draw(st.lists(LABELS, max_size=5))
    n = len(carrier)
    rows = st.lists(st.lists(st.integers(-1, n), min_size=n, max_size=n), min_size=n, max_size=n)
    return {"carrier": carrier, "join": draw(rows), "meet": draw(rows), "impl": draw(rows)}


def labels_of(doc):
    elements = doc.get("elements") if isinstance(doc, dict) else None
    return st.sampled_from(elements) if isinstance(elements, list) and elements else LABELS


@st.composite
def pmorphism_docs(draw):
    source, target = draw(spoiled(poset_docs())), draw(spoiled(poset_docs()))
    pairs = draw(st.lists(st.tuples(labels_of(source), labels_of(target)).map(list), max_size=6))
    doc = {"source": source, "target": target, "map": pairs}
    return {"pmorphism": doc, "partial": {}} if draw(st.booleans()) else doc


@st.composite
def countermodel_docs(draw):
    frame = draw(spoiled(poset_docs()))
    valuation = draw(st.dictionaries(LABELS, st.lists(LABELS, max_size=3), max_size=3))
    return {"frame": frame, "valuation": valuation, "point": draw(LABELS)}


NOT_JSON = st.one_of(
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=20),
    st.integers(1, 3000).map(lambda depth: b"[" * depth),
)


def text_files(docs):
    """File contents: a generated document, or text and bytes that are not one."""
    return st.one_of(spoiled(docs).map(lambda doc: json.dumps(doc).encode()), NOT_JSON)


# reader -> (file contents, commands that read the file at PATH)
READERS = {
    "poset": (
        text_files(poset_docs()),
        [
            ["upsets", "PATH"],
            ["algebra", "verify", "PATH"],
            ["muchnik", "iso-check", "PATH"],
            ["theory", "--frame", "PATH", "--", "p | ~p"],
            ["pmorphism", "search", "PATH", "PATH"],
            ["export-dot", "frame", "PATH", "-o", "OUT"],
        ],
    ),
    "algebra": (
        text_files(algebra_docs()),
        [
            ["algebra", "verify", "PATH"],
            ["algebra", "quotient", "PATH", "-x", "{l}"],
            ["check", "--algebra", "PATH", "--", "p | ~p"],
        ],
    ),
    "pmorphism": (
        text_files(pmorphism_docs()),
        [["pmorphism", "verify", "PATH"], ["export-dot", "pmorphism", "PATH", "-o", "OUT"]],
    ),
    "countermodel": (
        text_files(countermodel_docs()),
        [["export-dot", "countermodel", "PATH", "-o", "OUT"]],
    ),
}
FORMULAS = st.one_of(st.text(alphabet="pq01~&|->() ", max_size=24), st.text(max_size=12))


def run(argv):
    """Exit code and stderr of one command; stdout is strict UTF-8, as on a terminal."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
        out.flush()
    return code, err.getvalue()


class TestExitContract:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_documents(self, reader, data, tmp_path_factory):
        contents, commands = READERS[reader]
        folder = tmp_path_factory.getbasetemp() / reader
        folder.mkdir(exist_ok=True)
        path = folder / "input.json"
        path.write_bytes(data.draw(contents))
        argv = [str(path) if a == "PATH" else str(folder / "out.dot") if a == "OUT" else a
                for a in data.draw(st.sampled_from(commands))]
        code, err = run(argv)
        assert code in (0, 1, 2), err
        assert "internal error" not in err

    # Commands whose input is only options.  The ranges reach past every
    # guard (heights past 2^{<10}, non-positive counts) yet keep each
    # build to at most 40 steps.
    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(-3, 12),
        formula=st.sampled_from(["p | ~p", "p -> p", "(p -> q) | (q -> p)", "~p | ~~p"]),
    )
    def test_ipc_max_height(self, height, formula):
        code, err = run(["ipc", "--max-height", str(height), "--", formula])
        assert code in (0, 1, 2), err
        assert "internal error" not in err

    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(-2, 12), steps=st.integers(-5, 40), seed=st.integers(0, 3))
    def test_split_build(self, height, steps, seed):
        argv = ["split", "build", "--height", str(height), "--steps", str(steps)]
        code, err = run([*argv, "--seed", str(seed)])
        assert code in (0, 1, 2), err
        assert "internal error" not in err

    @settings(max_examples=30, deadline=None)
    @given(depth=st.integers(-2, 6), seed=st.integers(0, 3))
    def test_split_verify(self, depth, seed):
        code, err = run(["split", "verify", "--depth", str(depth), "--seed", str(seed)])
        assert code in (0, 1, 2), err
        assert "internal error" not in err

    # One-cell changes of a 32-element dump, past the 5-element carriers the
    # readers' documents reach: verify lists an O(n^3) report, and quotient
    # verifies before it factors.
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_cell_of_a_larger_dump(self, data, tmp_path_factory):
        doc = json.loads(ANTICHAIN5_DUMP)
        n = len(doc["carrier"])
        table = doc[data.draw(st.sampled_from(["join", "meet", "impl"]))]
        table[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = data.draw(
            st.integers(-1, n)
        )
        path = tmp_path_factory.getbasetemp() / "antichain5.json"
        path.write_text(json.dumps(doc))
        x = data.draw(st.sampled_from(doc["carrier"]))
        for argv in (["algebra", "verify", str(path)], ["algebra", "quotient", str(path), "-x", x]):
            code, err = run(argv)
            assert code in (0, 1, 2), err
            assert "internal error" not in err

    @settings(max_examples=60, deadline=None)
    @given(formula=FORMULAS, command=st.sampled_from(["check", "theory", "ipc"]))
    def test_formulas(self, formula, command, tmp_path_factory):
        if command == "ipc":
            argv = ["ipc", "--max-height", "2", "--", formula]
        else:
            path = tmp_path_factory.getbasetemp() / "fork.json"
            path.write_text(json.dumps(documents.poset_to_json(FORK)))
            argv = [command, "--frame", str(path), "--", formula]
        code, err = run(argv)
        assert code in (0, 1, 2), err
        assert "internal error" not in err
