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
rendered "p/q" or "p".

Reading has two phases. `loads` checks every entry against the grammar; an
entry's semantic checks run the first time it is looked up, so a command
pays only for the entries it names. Failures of either phase raise
TheoryFileError with the offending entry's line when it can be located.
`read` does the same for a document already parsed from a larger text,
such as the inputs a report embeds, and anchors to lines of that text.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator, MutableMapping
from dataclasses import dataclass, field
from fractions import Fraction
from json.decoder import scanstring

from . import ratlin
from .composite import BipartiteState
from .cone import ConeError, _primitive_generators, cone_from_rays
from .ratlin import format_rational
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


class _Unread:
    """An entry of a file not read yet: the call that reads it."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], object]):
        self.read = read


class Section(MutableMapping):
    """One section's entries by name, in file order.

    An entry found by `loads` is built, and its semantic checks run, the
    first time it is looked up; the result is kept. An entry set by
    assignment is stored as given.
    """

    def __init__(self):
        self._entries: dict[str, object] = {}
        self._space_names: dict[str, tuple[str, ...]] = {}

    def assign(self, name: str, value, space_names: tuple[str, ...]) -> None:
        """Set an entry with the names of the spaces it refers to, which
        serialization writes while they still name its spaces."""
        self._entries[name] = value
        self._space_names[name] = space_names

    def space_names(self, name: str) -> tuple[str, ...] | None:
        """The names of the spaces entry `name` refers to, as its file wrote
        them; None for an entry set by plain assignment."""
        return self._space_names.get(name)

    def __getitem__(self, name: str):
        value = self._entries[name]
        if type(value) is _Unread:
            value = self._entries[name] = value.read()
        return value

    def __setitem__(self, name: str, value) -> None:
        self._entries[name] = value
        self._space_names.pop(name, None)

    def __delitem__(self, name: str) -> None:
        del self._entries[name]
        self._space_names.pop(name, None)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class TheoryFile:
    """Named spaces, states, and ensembles.

    Every entry of a file has passed the grammar; each one's semantic checks
    run when it is first looked up (see `loads`), and `check` runs them all.
    """

    spaces: Section = field(default_factory=Section)
    states: Section = field(default_factory=Section)
    ensembles: Section = field(default_factory=Section)

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

    def check(self) -> None:
        """Read every entry, so that the whole file is validated."""
        for section in (self.spaces, self.states, self.ensembles):
            list(section.values())


_TOKEN = re.compile(r'["{}\[\]]')
_KEY_END = re.compile(r"\s*:")


def _line_of(text: str, path: tuple[str, ...]) -> int | None:
    """The line of the object key that `path` leads to from the top level.

    path[0] is a top-level key, path[1] a key of its value, and so on, so a
    name is found in its own section even when another section, or a string
    value before it, spells the same name. `text` is valid JSON.
    """
    depth = matched = pos = 0
    while (m := _TOKEN.search(text, pos)) is not None:
        pos = m.end()
        if m.group() == '"':
            key, pos = scanstring(text, pos)
            if depth == matched + 1 and key == path[matched] and _KEY_END.match(text, pos):
                matched += 1
                if matched == len(path):
                    return text.count("\n", 0, m.start()) + 1
        elif m.group() in "{[":
            depth += 1
        else:
            depth -= 1
            if matched and depth <= matched:
                return None  # left the value of the last key matched
    return None


def _anchored(text: str, path: tuple[str, ...], message: str) -> TheoryFileError:
    line = _line_of(text, path)
    prefix = f"line {line}: " if line is not None else ""
    return TheoryFileError(f"{prefix}{message}")


# Each entry's grammar reader checks it and returns the names of the spaces
# it refers to, with the call that builds it from those spaces and runs the
# semantic checks.


def _space(entry: dict, spaces: Section) -> tuple[tuple[str, ...], Callable]:
    dim = entry["ambient_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise TheoryFileError("ambient_dim must be a positive integer")
    rays = parse_matrix(entry["rays"], "rays")
    unit = parse_vector(entry["unit"], "unit")
    given = parse_matrix(entry["facets"], "facets") if "facets" in entry else None

    def build() -> StateSpace:
        cone = cone_from_rays(rays, dim)
        if given is not None:
            # Facet normals, like rays, are read up to positive scale.
            try:
                normals = set(_primitive_generators(given, dim))
            except ConeError as exc:
                raise ConeError(f"facets: {exc}") from None
            if normals != set(cone.facets):
                raise TheoryFileError("facets do not match the facets computed from the rays")
        return StateSpace(cone, unit)

    return (), build


def _space_ref(entry: dict, key: str, spaces: Section) -> str:
    """The space name an entry's key holds; it must be a string naming a
    space of the file."""
    ref = entry[key]
    if not isinstance(ref, str):
        raise TheoryFileError(f"{key} must name a space by a string, not {ref!r}")
    if ref not in spaces:
        raise TheoryFileError(f"unknown space {ref!r}")
    return ref


def _state(entry: dict, spaces: Section) -> tuple[tuple[str, ...], Callable]:
    refs = (_space_ref(entry, "space_a", spaces), _space_ref(entry, "space_b", spaces))
    matrix = parse_matrix(entry["matrix"], "matrix")
    return refs, lambda space_a, space_b: BipartiteState(space_a, space_b, matrix)


def _ensemble(entry: dict, spaces: Section) -> tuple[tuple[str, ...], Callable]:
    refs = (_space_ref(entry, "space", spaces),)
    parts = parse_matrix(entry["parts"], "parts")
    return refs, lambda space: Ensemble(space, parts)


# Each section of a theory file: its key, the kind of its entries, their
# keys, and the grammar reader of one entry given the file's spaces.
_SECTIONS = (
    ("spaces", "space", {"ambient_dim", "rays", "facets", "unit"}, _space),
    ("states", "state", {"space_a", "space_b", "matrix"}, _state),
    ("ensembles", "ensemble", {"space", "parts"}, _ensemble),
)


def _reader(text: str, path: tuple[str, ...], message: str, refs: tuple[str, ...],
            build: Callable, spaces: Section) -> Callable[[], object]:
    """Read the spaces an entry refers to, each with its own errors, then
    build the entry, anchoring a failure to the entry's line. A space
    deleted since `loads` is a failure of the entry that names it."""

    def read():
        for ref in refs:
            if ref not in spaces:
                raise _anchored(text, path, f"{message}: unknown space {ref!r}")
        args = [spaces[ref] for ref in refs]
        try:
            return build(*args)
        except ValueError as exc:
            raise _anchored(text, path, f"{message}: {exc}") from None

    return read


def parse_json(text: str):
    """The JSON document in text; a syntax error raises TheoryFileError
    with its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TheoryFileError(f"line {exc.lineno}: {exc.msg}") from None


def loads(text: str) -> TheoryFile:
    """Parse a theory file, checking every entry against the grammar.

    The grammar covers the JSON, the format tag, section and entry shapes,
    entry keys, `ambient_dim`, every rational and matrix, and every space
    reference. The semantic checks (a space's DD conversion, its `facets`
    cross-check and unit positivity, a state's positivity, an ensemble's
    parts) run when an entry is first looked up, after those of the spaces
    it names. Failures of either kind raise TheoryFileError anchored to the
    entry's line; `TheoryFile.check` validates the whole file.
    """
    return read(parse_json(text), text)


def read(doc, text: str, prefix: tuple[str, ...] = ()) -> TheoryFile:
    """The theory file `doc`, checked as `loads` checks it. `doc` was parsed
    from the JSON `text`, where `prefix` is the key path to it from the top
    level; errors are anchored to lines of `text`."""
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
    for key, kind, keys, parse in _SECTIONS:
        section = doc.get(key, {})
        if not isinstance(section, dict):
            raise _anchored(text, (*prefix, key), f"{key}: expected an object of named entries")
        for name, entry in section.items():
            path, message = (*prefix, key, name), f"{kind} {name!r}"
            if not isinstance(entry, dict):
                raise _anchored(text, path, f"{message}: expected an object")
            extra = set(entry) - keys
            if extra:
                raise _anchored(text, path, f"{message}: unknown keys {sorted(extra)}")
            try:
                refs, build = parse(entry, tf.spaces)
            except KeyError as exc:
                raise _anchored(text, path, f"{message}: missing key {exc}") from None
            except ValueError as exc:
                raise _anchored(text, path, f"{message}: {exc}") from None
            read = _reader(text, path, message, refs, build, tf.spaces)
            getattr(tf, key).assign(name, _Unread(read), refs)
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
            written = tf.states.space_names(name) or (None, None)
            doc["states"][name] = {
                "space_a": _space_name(tf, st.space_a, written[0]),
                "space_b": _space_name(tf, st.space_b, written[1]),
                "matrix": format_matrix(st.matrix),
            }
    if tf.ensembles:
        doc["ensembles"] = {}
        for name, e in tf.ensembles.items():
            (written,) = tf.ensembles.space_names(name) or (None,)
            doc["ensembles"][name] = {
                "space": _space_name(tf, e.space, written),
                "parts": format_matrix(e.parts),
            }
    return doc


def _space_name(tf: TheoryFile, space: StateSpace, written: str | None) -> str:
    """The name an entry's space goes by: the one the entry was written
    with while it still names that space, else the first equal space."""
    if written in tf.spaces and tf.spaces[written] == space:
        return written
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
