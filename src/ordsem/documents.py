"""The JSON documents the command line reads and writes.

Each checkable answer passes from one command to the next as a document:
a poset file, an algebra dump, a p-morphism (bare or wrapped under
``"pmorphism"`` as ``split build`` writes it), a countermodel as ``ipc``
writes it, and the ndjson trace of a split build.  Every reader checks
its input's shape with the same few validators before any constructor
sees it, so malformed input is an ``InputError`` and never a crash.
"""

from __future__ import annotations

import json
import re

from .brouwer import BrouwerAlgebra
from .errors import InputError
from .formulas import pretty
from .morphism import PMorphism, pmorphism_from_labels
from .order import Poset, Upset, from_relation, upward_closure
from .semantics import Countermodel
from .splitting import PartialHomomorphism


def load(path: str) -> object:
    """Parse a UTF-8 JSON file; any failure to read or parse is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    # ValueError covers decode errors, bad UTF-8 and over-long integers;
    # RecursionError covers deep nesting.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def write(path: str, text: str) -> None:
    """Write ``text`` as UTF-8; a failure to write is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# -- shape validators shared by every reader

_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_label(value: object) -> bool:
    """A string UTF-8 can write: a "\\ud800" escape parses to a lone surrogate."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def _fields(data: object, kind: str, *keys: str) -> dict:
    """``data`` as a JSON object that has every one of ``keys``."""
    if not isinstance(data, dict) or not all(key in data for key in keys):
        names = [f'"{key}"' for key in keys]
        raise InputError(f"{kind} JSON needs {', '.join(names[:-1])} and {names[-1]} keys")
    return data


def _strings(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(_is_label(v) for v in value):
        raise InputError(f"{what} must be a list of strings")
    return value


def _label_pairs(value: object, what: str) -> list[tuple[str, str]]:
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_label(e) for e in p)
        for p in value
    ):
        raise InputError(f"{what} must be a list of [a, b] pairs of element labels")
    return [(a, b) for a, b in value]


def _index_rows(value: object, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not all(
        isinstance(row, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
        for row in value
    ):
        raise InputError(f"{what} must be a list of rows of integer indices")
    return tuple(tuple(row) for row in value)


def poset_to_json(poset: Poset) -> dict:
    """Generating-relation form: cover pairs only, loader re-closes."""
    return {
        "elements": list(poset.elements),
        "leq": [[a, b] for a, b in poset.cover_pairs()],
    }


def poset_from_json(data: object) -> Poset:
    data = _fields(data, "poset", "elements", "leq")
    return from_relation(
        _strings(data["elements"], '"elements"'), _label_pairs(data["leq"], '"leq"')
    )


def algebra_to_json(algebra: BrouwerAlgebra) -> dict:
    return {
        "carrier": list(algebra.carrier),
        "join": [list(row) for row in algebra.join],
        "meet": [list(row) for row in algebra.meet],
        "impl": [list(row) for row in algebra.impl],
    }


def algebra_from_json(data: object) -> BrouwerAlgebra:
    """Rebuild from a dump; the constructor reads the order off ``join``."""
    data = _fields(data, "algebra", "carrier", "join", "meet", "impl")
    carrier = _strings(data["carrier"], '"carrier"')
    join, meet, impl = (_index_rows(data[name], f'"{name}"') for name in ("join", "meet", "impl"))
    return BrouwerAlgebra(tuple(carrier), join, meet, impl)


def pmorphism_to_json(m: PMorphism) -> dict:
    return {
        "source": poset_to_json(m.source),
        "target": poset_to_json(m.target),
        "map": [
            [m.source.elements[i], m.target.elements[v]]
            for i, v in enumerate(m.mapping)
        ],
    }


def pmorphism_from_json(data: object) -> PMorphism:
    """A bare p-morphism, or one wrapped under ``"pmorphism"``."""
    if isinstance(data, dict) and "pmorphism" in data:
        data = data["pmorphism"]
    data = _fields(data, "p-morphism", "source", "target", "map")
    source = poset_from_json(data["source"])
    target = poset_from_json(data["target"])
    mapping: dict[str, str] = {}
    for a, b in _label_pairs(data["map"], '"map"'):
        if a in mapping:
            raise InputError(f"map lists source element {a!r} twice")
        mapping[a] = b
    return pmorphism_from_labels(source, target, mapping)


def valuation_to_json(valuation: dict[str, Upset]) -> dict:
    return {name: list(upset.members) for name, upset in valuation.items()}


def countermodel_to_json(result: Countermodel) -> dict:
    return {
        "result": "countermodel",
        "formula": pretty(result.formula),
        "height": result.height,
        "frame": poset_to_json(result.frame),
        "valuation": valuation_to_json(result.valuation),
        "point": result.point,
    }


def countermodel_from_json(data: object) -> tuple[Poset, dict[str, Upset], str]:
    """The frame, the valuation's upsets and the refuting point; a
    missing valuation is empty."""
    data = _fields(data, "countermodel", "frame", "point")
    frame = poset_from_json(data["frame"])
    valuation = data.get("valuation", {})
    if not isinstance(valuation, dict) or not all(_is_label(name) for name in valuation):
        raise InputError('countermodel "valuation" must map atoms to lists of labels')
    upsets = {
        name: upward_closure(frame, _strings(members, f"valuation of {name!r}"))
        for name, members in valuation.items()
    }
    if not _is_label(data["point"]):
        raise InputError('countermodel "point" must be a string')
    return frame, upsets, data["point"]


def trace_lines(alpha: PartialHomomorphism) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in alpha.trace)
