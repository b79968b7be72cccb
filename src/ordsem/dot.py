"""DOT export: Hasse diagrams for frames, morphisms and countermodels."""

from __future__ import annotations

from typing import Mapping, Sequence

from .morphism import PMorphism
from .order import Poset, Upset


def _display(label: str) -> str:
    return label if label else "ε"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse(poset: Poset, node: str = "n", indent: str = "  ",
           attrs: Sequence[str] | None = None) -> list[str]:
    """One line per element, named ``node`` + index, then one per cover
    edge; ``attrs`` replaces each element's default ``label=...``."""
    if attrs is None:
        attrs = [f"label={_quote(_display(label))}" for label in poset.elements]
    lines = [f"{indent}{node}{i} [{text}];" for i, text in enumerate(attrs)]
    for a, b in poset.cover_pairs():
        lines.append(f"{indent}{node}{poset.index_of(a)} -> {node}{poset.index_of(b)};")
    return lines


def _digraph(name: str, body: list[str]) -> str:
    return "\n".join([f"digraph {name} {{", "  rankdir=BT;", *body, "}"]) + "\n"


def frame_dot(poset: Poset) -> str:
    return _digraph("frame", _hasse(poset))


def pmorphism_dot(m: PMorphism) -> str:
    lines = []
    for node, side, poset in (("s", "source", m.source), ("t", "target", m.target)):
        lines += [f"  subgraph cluster_{side} {{", f'    label="{side}";']
        lines += _hasse(poset, node, "    ") + ["  }"]
    for i, v in enumerate(m.mapping):
        lines.append(f"  s{i} -> t{v} [style=dashed, color=blue, constraint=false];")
    return _digraph("pmorphism", lines)


def countermodel_dot(frame: Poset, valuation: Mapping[str, Upset], point: str) -> str:
    """Frame annotated with the atoms forced at each node; the refuting
    point gets a double border."""
    refuting = frame.index_of(point)
    attrs = []
    for i, label in enumerate(frame.elements):
        atoms = sorted(name for name, upset in valuation.items() if label in upset)
        text = _display(label)
        if atoms:
            text += ": " + ",".join(atoms)
        extra = ", peripheries=2" if i == refuting else ""
        attrs.append(f"label={_quote(text)}{extra}")
    return _digraph("countermodel", _hasse(frame, attrs=attrs))
