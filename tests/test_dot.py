"""Golden DOT outputs for frames, morphisms and countermodels."""

from ordsem.dot import countermodel_dot, frame_dot, pmorphism_dot
from ordsem.formulas import parse
from ordsem.morphism import pmorphism_from_labels
from ordsem.order import from_relation
from ordsem.semantics import Countermodel, ipc_check_bounded

FORK_DOT = """digraph frame {
  rankdir=BT;
  n0 [label="r"];
  n1 [label="l"];
  n2 [label="k"];
  n0 -> n1;
  n0 -> n2;
}
"""

FORK_TO_CHAIN_DOT = """digraph pmorphism {
  rankdir=BT;
  subgraph cluster_source {
    label="source";
    s0 [label="r"];
    s1 [label="l"];
    s2 [label="k"];
    s0 -> s1;
    s0 -> s2;
  }
  subgraph cluster_target {
    label="target";
    t0 [label="a"];
    t1 [label="b"];
    t0 -> t1;
  }
  s0 -> t0 [style=dashed, color=blue, constraint=false];
  s1 -> t1 [style=dashed, color=blue, constraint=false];
  s2 -> t1 [style=dashed, color=blue, constraint=false];
}
"""

EXCLUDED_MIDDLE_DOT = """digraph countermodel {
  rankdir=BT;
  n0 [label="ε", peripheries=2];
  n1 [label="0: p"];
  n2 [label="1"];
  n0 -> n1;
  n0 -> n2;
}
"""


def test_frame_golden(fork):
    assert frame_dot(fork) == FORK_DOT


def test_hasse_edges_only(diamond):
    text = frame_dot(diamond)
    assert text.count("->") == 4  # the bot -> top edge is reduced away


def test_labels_are_escaped():
    # a backslash is escaped before the quote, so neither ends the string early
    text = frame_dot(from_relation(["a\\", 'say "b"'], [("a\\", 'say "b"')]))
    assert 'n0 [label="a\\\\"];' in text
    assert 'n1 [label="say \\"b\\""];' in text


def test_pmorphism_golden(fork, chain2):
    m = pmorphism_from_labels(fork, chain2, {"r": "a", "l": "b", "k": "b"})
    assert pmorphism_dot(m) == FORK_TO_CHAIN_DOT


def test_countermodel_golden():
    result = ipc_check_bounded(parse("p | ~p"), 3)
    assert isinstance(result, Countermodel)
    text = countermodel_dot(result.frame, result.valuation, result.point)
    assert text == EXCLUDED_MIDDLE_DOT
