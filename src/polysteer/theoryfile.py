"""Self-describing text format for spaces, bipartite states, and ensembles.

A theory file is a UTF-8 JSON document:

    {
      "format": "theoryfile/1",
      "spaces": {
        "<name>": {
          "ambient_dim": <int>,
          "rays": [["p/q" | "p" | <int>, ...], ...],
          "facets": [[...], ...],        # optional, checked when present
          "unit": [...]
        }, ...
      },
      "states": {
        "<name>": {"space_a": "<name>", "space_b": "<name>",
                   "matrix": [[...], ...]}, ...
      },
      "ensembles": {
        "<name>": {"space": "<name>", "parts": [[...], ...]}, ...
      }
    }

Each section is optional; one that is present must be an object, and
entries name their spaces by strings. Rationals are written as "p/q" or
integer strings (bare JSON integers are accepted too). Serialization is
canonical: two-space indent, sorted keys, trailing newline, every rational
rendered "p/q" or "p". Parsing failures raise TheoryFileError with the
offending line when it can be located.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratlin
from .composite import BipartiteState
from .cone import cone_from_rays
from .ratlin import as_vector, format_rational
from .space import StateSpace
from .steering import Ensemble

FORMAT = "theoryfile/1"


class TheoryFileError(ValueError):
    """A parse or validation failure, anchored to a line where possible."""


def parse_rational(value) -> Fraction:
    """A "p/q" or "p" string, or a bare JSON integer, as a Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    try:
        return ratlin.parse_rational(value)
    except ValueError:
        raise TheoryFileError(f"not a rational: {value!r}") from None


def parse_vector(values, context: str) -> tuple[Fraction, ...]:
    """A JSON array of rationals; context names it in the error."""
    if not isinstance(values, list):
        raise TheoryFileError(f"{context}: expected an array of rationals")
    return tuple(parse_rational(v) for v in values)


def parse_matrix(values, context: str) -> tuple[tuple[Fraction, ...], ...]:
    """A nonempty JSON array of rows of rationals."""
    if not isinstance(values, list) or not values:
        raise TheoryFileError(f"{context}: expected a nonempty array of rows")
    return tuple(parse_vector(row, context) for row in values)


def format_vector(v) -> list[str]:
    """The JSON form of a vector: each entry "p/q" or "p"."""
    return [format_rational(x) for x in v]


def format_matrix(m) -> list[list[str]]:
    return [format_vector(row) for row in m]


@dataclass
class TheoryFile:
    """Named spaces, states, and ensembles, parsed and validated."""

    spaces: dict[str, StateSpace] = field(default_factory=dict)
    states: dict[str, BipartiteState] = field(default_factory=dict)
    ensembles: dict[str, Ensemble] = field(default_factory=dict)

    def space(self, name: str) -> StateSpace:
        if name not in self.spaces:
            raise TheoryFileError(f"unknown space {name!r}")
        return self.spaces[name]

    def state(self, name: str) -> BipartiteState:
        if name not in self.states:
            raise TheoryFileError(f"unknown state {name!r}")
        return self.states[name]

    def ensemble(self, name: str) -> Ensemble:
        if name not in self.ensembles:
            raise TheoryFileError(f"unknown ensemble {name!r}")
        return self.ensembles[name]


def _line_of(text: str, token: str) -> int | None:
    pos = text.find(f'"{token}"')
    if pos < 0:
        return None
    return text.count("\n", 0, pos) + 1


def _anchored(text: str, token: str, message: str) -> TheoryFileError:
    line = _line_of(text, token)
    prefix = f"line {line}: " if line is not None else ""
    return TheoryFileError(f"{prefix}{message}")


def _space(entry: dict, spaces: dict[str, StateSpace]) -> StateSpace:
    dim = entry["ambient_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise TheoryFileError("ambient_dim must be a positive integer")
    rays = parse_matrix(entry["rays"], "rays")
    unit = parse_vector(entry["unit"], "unit")
    cone = cone_from_rays(rays, dim)
    if "facets" in entry:
        given = sorted(parse_matrix(entry["facets"], "facets"))
        if given != sorted(as_vector(g) for g in cone.facets):
            raise TheoryFileError("facets do not match the facets computed from the rays")
    return StateSpace(cone, unit)


def _space_ref(entry: dict, key: str, spaces: dict[str, StateSpace]) -> StateSpace:
    """The space an entry's key names; the name must be a string."""
    ref = entry[key]
    if not isinstance(ref, str):
        raise TheoryFileError(f"{key} must name a space by a string, not {ref!r}")
    if ref not in spaces:
        raise TheoryFileError(f"unknown space {ref!r}")
    return spaces[ref]


def _state(entry: dict, spaces: dict[str, StateSpace]) -> BipartiteState:
    space_a = _space_ref(entry, "space_a", spaces)
    space_b = _space_ref(entry, "space_b", spaces)
    return BipartiteState(space_a, space_b, parse_matrix(entry["matrix"], "matrix"))


def _ensemble(entry: dict, spaces: dict[str, StateSpace]) -> Ensemble:
    space = _space_ref(entry, "space", spaces)
    return Ensemble(space, parse_matrix(entry["parts"], "parts"))


# Each section of a theory file: its key, the kind of its entries, their
# keys, and the reader of one entry given the spaces read so far.
_SECTIONS = (
    ("spaces", "space", {"ambient_dim", "rays", "facets", "unit"}, _space),
    ("states", "state", {"space_a", "space_b", "matrix"}, _state),
    ("ensembles", "ensemble", {"space", "parts"}, _ensemble),
)


def loads(text: str) -> TheoryFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TheoryFileError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise TheoryFileError("the top level must be an object")
    if doc.get("format") != FORMAT:
        raise TheoryFileError(
            f"unsupported format {doc.get('format')!r}; expected {FORMAT!r}"
        )
    unknown = set(doc) - {"format", "spaces", "states", "ensembles"}
    if unknown:
        raise TheoryFileError(f"unknown top-level keys {sorted(unknown)}")
    tf = TheoryFile()
    for key, kind, keys, read in _SECTIONS:
        section = doc.get(key, {})
        if not isinstance(section, dict):
            raise _anchored(text, key, f"{key}: expected an object of named entries")
        for name, entry in section.items():
            if not isinstance(entry, dict):
                raise _anchored(text, name, f"{kind} {name!r}: expected an object")
            extra = set(entry) - keys
            if extra:
                raise _anchored(text, name, f"{kind} {name!r}: unknown keys {sorted(extra)}")
            try:
                getattr(tf, key)[name] = read(entry, tf.spaces)
            except KeyError as exc:
                raise _anchored(text, name, f"{kind} {name!r}: missing key {exc}") from None
            except ValueError as exc:
                raise _anchored(text, name, f"{kind} {name!r}: {exc}") from None
    return tf


def space_to_entry(space: StateSpace) -> dict:
    return {
        "ambient_dim": space.cone.ambient_dim,
        "rays": format_matrix(space.cone.rays),
        "facets": format_matrix(space.cone.facets),
        "unit": format_vector(space.unit),
    }


def to_document(tf: TheoryFile) -> dict:
    doc: dict = {"format": FORMAT}
    if tf.spaces:
        doc["spaces"] = {
            name: space_to_entry(space) for name, space in tf.spaces.items()
        }
    if tf.states:
        doc["states"] = {}
        for name, st in tf.states.items():
            doc["states"][name] = {
                "space_a": _space_name(tf, st.space_a),
                "space_b": _space_name(tf, st.space_b),
                "matrix": format_matrix(st.matrix),
            }
    if tf.ensembles:
        doc["ensembles"] = {
            name: {
                "space": _space_name(tf, e.space),
                "parts": format_matrix(e.parts),
            }
            for name, e in tf.ensembles.items()
        }
    return doc


def _space_name(tf: TheoryFile, space: StateSpace) -> str:
    for name, candidate in tf.spaces.items():
        if candidate == space:
            return name
    raise TheoryFileError("state references a space that is not in the file")


def dumps(tf: TheoryFile) -> str:
    return json.dumps(to_document(tf), indent=2, sort_keys=True) + "\n"


def load(path) -> TheoryFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(tf: TheoryFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(tf))
