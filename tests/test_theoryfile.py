"""Theory-file parsing, validation, and canonical serialization.

Expected values here are frozen by hand from the documented grammar: the
canonical form is two-space indented JSON with sorted keys and a trailing
newline, and every rational renders as "p/q" or a bare integer string.
"""

import json
from fractions import Fraction

import pytest

from polysteer import theoryfile
from polysteer.fixtures import fixture_library
from polysteer.ratlin import format_rational
from polysteer.theoryfile import (
    TheoryFile,
    TheoryFileError,
    dumps,
    loads,
    parse_rational,
)

MINIMAL = {
    "format": "theoryfile/1",
    "spaces": {
        "pair": {
            "ambient_dim": 2,
            "rays": [["1", "0"], ["0", "1"]],
            "unit": ["1", "1"],
        }
    },
}


def doc_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestRationals:
    def test_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)

    @pytest.mark.parametrize(
        "bad", ["1/0", "x", "1.5/2", True, None, [1], "0.5", "1e2", "1_000"]
    )
    def test_rejects(self, bad):
        with pytest.raises(TheoryFileError, match="not a rational"):
            parse_rational(bad)

    def test_rendering_round_trips(self):
        for f in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(7, 3)):
            assert parse_rational(format_rational(f)) == f
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"


class TestParsing:
    def test_minimal_space(self):
        tf = loads(doc_text(MINIMAL))
        space = tf.space("pair")
        assert space.dim == 2
        assert sorted(space.cone.rays) == [(0, 1), (1, 0)]
        assert space.unit == (1, 1)

    def test_bare_integers_accepted(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["rays"] = [[1, 0], [0, 1]]
        doc["spaces"]["pair"]["unit"] = [1, 1]
        tf = loads(doc_text(doc))
        assert tf.space("pair").unit == (1, 1)

    def test_unknown_format(self):
        with pytest.raises(TheoryFileError, match="unsupported format"):
            loads(doc_text({"format": "theoryfile/2"}))

    def test_unknown_top_level_key(self):
        doc = dict(MINIMAL, extras={})
        with pytest.raises(TheoryFileError, match="unknown top-level keys"):
            loads(doc_text(doc))

    def test_unknown_space_key_is_line_anchored(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["color"] = "red"
        text = doc_text(doc)
        with pytest.raises(TheoryFileError) as err:
            loads(text)
        message = str(err.value)
        assert "unknown keys ['color']" in message
        line = int(message.split("line ")[1].split(":")[0])
        assert '"pair"' in text.splitlines()[line - 1]

    def test_invalid_json_reports_line(self):
        with pytest.raises(TheoryFileError, match="line 3"):
            loads('{\n"format": "theoryfile/1",\n"spaces": }\n')

    def test_missing_key(self):
        doc = json.loads(doc_text(MINIMAL))
        del doc["spaces"]["pair"]["unit"]
        with pytest.raises(TheoryFileError, match="missing key 'unit'"):
            loads(doc_text(doc))

    def test_rays_must_have_the_ambient_length(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["rays"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        tf = loads(doc_text(doc))
        with pytest.raises(TheoryFileError, match="vector has 3 entries, the cone lives in 2"):
            tf.space("pair")

    def test_zero_ray_is_named_at_its_entry(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["z"] = {
            "ambient_dim": 2,
            "rays": [["1", "0"], ["0", "0"], ["0", "1"]],
            "unit": ["1", "1"],
        }
        text = doc_text(doc)
        with pytest.raises(TheoryFileError) as err:
            loads(text).space("z")
        message = str(err.value)
        assert message.endswith(
            "space 'z': generator 1 is the zero vector; rays and facet normals must be nonzero"
        )
        assert line_of_error(message) == entry_line(text, "z", "spaces")

    def test_facets_cross_checked(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["facets"] = [["1", "0"], ["0", "1"]]
        loads(doc_text(doc)).check()
        doc["spaces"]["pair"]["facets"] = [["1", "1"], ["0", "1"]]
        tf = loads(doc_text(doc))
        with pytest.raises(TheoryFileError, match="facets do not match"):
            tf.check()

    def test_facets_are_read_up_to_positive_scale(self):
        """Like rays, facet normals are compared as primitive normals, so a
        positive multiple of a facet or a repeated one is the same facet."""
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["facets"] = [["2", "0"], ["0", "1/3"], ["0", "5"]]
        loads(doc_text(doc)).check()
        square = theoryfile.to_document(fixture_library())["spaces"]["square_space"]
        square["facets"] = [[str(2 * int(x)) for x in f] for f in square["facets"]]
        assert ["-2", "0", "2"] in square["facets"]
        loads(doc_text({"format": "theoryfile/1", "spaces": {"sq": square}})).check()

    @pytest.mark.parametrize("facets", [
        [["2", "2"], ["0", "1"]],
        [["1", "0"]],
        [["1", "0"], ["0", "1"], ["1", "1"]],
        [["1", "0"], ["0", "-1"]],
    ], ids=["scaled-non-facet", "missing-facet", "extra-normal", "negated-facet"])
    def test_a_normal_that_is_not_a_facet_is_rejected(self, facets):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["facets"] = facets
        with pytest.raises(TheoryFileError, match="space 'pair': facets do not match"):
            loads(doc_text(doc)).check()

    @pytest.mark.parametrize("row,message", [
        (["0", "0"], "facets: generator 1 is the zero vector"),
        (["1", "0", "0"], "facets: vector has 3 entries, the cone lives in 2"),
    ], ids=["zero", "wrong-length"])
    def test_a_malformed_facet_is_named_at_its_entry(self, row, message):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["facets"] = [["1", "0"], row, ["0", "1"]]
        text = doc_text(doc)
        with pytest.raises(TheoryFileError, match=f"space 'pair': {message}") as err:
            loads(text).space("pair")
        assert line_of_error(str(err.value)) == entry_line(text, "pair", "spaces")

    def test_state_needs_known_spaces(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["states"] = {
            "omega": {"space_a": "pair", "space_b": "ghost", "matrix": [["1"]]}
        }
        with pytest.raises(TheoryFileError, match="unknown space 'ghost'"):
            loads(doc_text(doc))

    def test_state_matrix_validated(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["states"] = {
            "omega": {
                "space_a": "pair",
                "space_b": "pair",
                "matrix": [["1", "0", "0"], ["0", "1", "0"]],
            }
        }
        tf = loads(doc_text(doc))
        with pytest.raises(TheoryFileError, match="state 'omega'"):
            tf.state("omega")

    @pytest.mark.parametrize("key,value", [
        ("spaces", [1]), ("spaces", []), ("spaces", None),
        ("states", "x"), ("ensembles", [])
    ])
    def test_section_must_be_an_object(self, key, value):
        doc = json.loads(doc_text(MINIMAL))
        doc[key] = value
        with pytest.raises(TheoryFileError, match=f"{key}: expected an object"):
            loads(doc_text(doc))

    @pytest.mark.parametrize("section,entry,key", [
        ("states", {"space_a": ["pair"], "space_b": "pair", "matrix": [["1", "0"]]},
         "space_a"),
        ("states", {"space_a": "pair", "space_b": 1, "matrix": [["1", "0"]]}, "space_b"),
        ("ensembles", {"space": {"pair": 1}, "parts": [["1", "0"]]}, "space"),
    ])
    def test_space_reference_must_be_a_string(self, section, entry, key):
        doc = json.loads(doc_text(MINIMAL))
        doc[section] = {"x": entry}
        with pytest.raises(TheoryFileError, match=f"{key} must name a space by a string"):
            loads(doc_text(doc))

    def test_ensemble_parsed(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["ensembles"] = {
            "halves": {"space": "pair", "parts": [["1/2", "0"], ["0", "1/2"]]}
        }
        e = loads(doc_text(doc)).ensemble("halves")
        assert e.parts == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))

    def test_lookup_errors(self):
        tf = loads(doc_text(MINIMAL))
        with pytest.raises(TheoryFileError, match="unknown state"):
            tf.state("nope")
        with pytest.raises(TheoryFileError, match="unknown ensemble"):
            tf.ensemble("nope")


def entry_line(text: str, name: str, after: str) -> int:
    """The line of the key `name` in the first object after the line holding
    `after` (the section key)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(f'"{after}"'))
    return next(
        i + 1 for i, line in enumerate(lines)
        if i > start and line.strip().startswith(f'"{name}": {{')
    )


def line_of_error(message: str) -> int:
    return int(message.split("line ")[1].split(":")[0])


class TestDeferredChecks:
    """The grammar is checked for every entry when a file is read; the
    semantic checks run on an entry, and on the spaces it names, when it is
    first looked up."""

    @staticmethod
    def broken_doc():
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["skew"] = {
            "ambient_dim": 2,
            "rays": [["1", "0"], ["0", "1"]],
            "facets": [["1", "1"], ["0", "1"]],
            "unit": ["1", "1"],
        }
        doc["states"] = {
            "negative": {"space_a": "pair", "space_b": "pair",
                         "matrix": [["-1", "0"], ["0", "1"]]},
            "on_skew": {"space_a": "skew", "space_b": "pair",
                        "matrix": [["1", "0"], ["0", "1"]]},
            "swap": {"space_a": "pair", "space_b": "pair",
                     "matrix": [["0", "1"], ["1", "0"]]},
        }
        return doc

    def test_unused_broken_entries_do_not_stop_a_lookup(self):
        tf = loads(doc_text(self.broken_doc()))
        assert list(tf.spaces) == ["pair", "skew"]
        assert list(tf.states) == ["negative", "on_skew", "swap"]
        assert tf.state("swap").matrix == ((0, 1), (1, 0))
        assert tf.states.space_names("on_skew") == ("skew", "pair")

    def test_lookup_raises_anchored_to_the_entry(self):
        text = doc_text(self.broken_doc())
        tf = loads(text)
        with pytest.raises(TheoryFileError, match="state 'negative': map sends") as err:
            tf.state("negative")
        assert line_of_error(str(err.value)) == entry_line(text, "negative", "states")
        # A failed read is not kept: the lookup fails again the same way.
        with pytest.raises(TheoryFileError, match="state 'negative'"):
            tf.state("negative")

    def test_state_reads_its_spaces_first(self):
        text = doc_text(self.broken_doc())
        with pytest.raises(TheoryFileError, match="space 'skew': facets do not match") as err:
            loads(text).state("on_skew")
        assert line_of_error(str(err.value)) == entry_line(text, "skew", "spaces")

    def test_check_reads_every_entry(self):
        with pytest.raises(TheoryFileError, match="space 'skew': facets do not match"):
            loads(doc_text(self.broken_doc())).check()
        doc = self.broken_doc()
        del doc["spaces"]["skew"]["facets"]
        with pytest.raises(TheoryFileError, match="state 'negative'"):
            loads(doc_text(doc)).check()

    def test_grammar_errors_in_unused_entries_still_raise(self):
        doc = self.broken_doc()
        doc["states"]["swap"]["matrix"][0][0] = "1/0"
        text = doc_text(doc)
        with pytest.raises(TheoryFileError, match="not a rational") as err:
            loads(text)
        assert line_of_error(str(err.value)) == entry_line(text, "swap", "states")

    def test_a_space_converts_once_and_only_when_looked_up(self, monkeypatch):
        calls = []
        real = theoryfile.cone_from_rays
        monkeypatch.setattr(
            theoryfile, "cone_from_rays", lambda *a: calls.append(a) or real(*a)
        )
        tf = loads(dumps(fixture_library()))
        assert calls == []
        tf.state("square_iso")
        tf.space("square_space")
        assert len(calls) == 1

    def test_name_in_two_sections_is_anchored_in_its_own(self):
        # The state is named like a space, and another state's entry spells
        # that name as a value before the state's own key.
        lib = fixture_library()
        doc = json.loads(dumps(lib))
        doc["states"]["a_first"] = {
            "space_a": "square_space", "space_b": "square_space",
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        doc["states"]["square_space"] = {
            "space_a": "square_space", "space_b": "square_space",
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
        }
        text = doc_text(doc)
        with pytest.raises(TheoryFileError, match="state 'square_space'") as err:
            loads(text).state("square_space")
        line = line_of_error(str(err.value))
        assert line == entry_line(text, "square_space", "states")
        assert line != entry_line(text, "square_space", "spaces")


class TestCanonicalForm:
    def test_fixture_library_round_trips_byte_identical(self):
        text = dumps(fixture_library())
        assert dumps(loads(text)) == text
        assert text.endswith("\n")

    def test_dump_load_files(self, tmp_path):
        path = tmp_path / "lib.json"
        theoryfile.dump(fixture_library(), path)
        tf = theoryfile.load(path)
        assert set(tf.spaces) == set(fixture_library().spaces)

    def test_serialization_requires_named_spaces(self):
        lib = fixture_library()
        orphan = TheoryFile()
        orphan.states["omega"] = lib.state("nonsteering_table")
        with pytest.raises(TheoryFileError, match="not in the file"):
            dumps(orphan)

    def test_rationals_render_reduced(self):
        text = dumps(fixture_library())
        assert '"1/2"' in text
        assert "0.5" not in text


class TestEqualSpaces:
    """Two spaces that compare equal keep the names their entries wrote."""

    @staticmethod
    def doc():
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["twin"] = dict(doc["spaces"]["pair"])
        doc["states"] = {
            "across": {"space_a": "pair", "space_b": "twin",
                       "matrix": [["1", "0"], ["0", "1"]]},
            "on_twin": {"space_a": "twin", "space_b": "twin",
                        "matrix": [["1", "0"], ["0", "1"]]},
        }
        doc["ensembles"] = {"split": {"space": "twin", "parts": [["1", "0"], ["0", "1"]]}}
        return doc

    def test_round_trip_keeps_the_written_names(self):
        doc = self.doc()
        tf = loads(doc_text(doc))
        assert tf.space("pair") == tf.space("twin")
        text = dumps(tf)
        assert dumps(loads(text)) == text
        out = json.loads(text)
        assert out["states"] == doc["states"]
        assert out["ensembles"] == doc["ensembles"]

    def test_assigned_entries_fall_back_to_the_first_equal_space(self):
        tf = loads(doc_text(self.doc()))
        tf.states["copy"] = tf.state("on_twin")
        tf.ensembles.assign("kept", tf.ensemble("split"), ("twin",))
        doc = json.loads(dumps(tf))
        assert doc["states"]["copy"]["space_a"] == "pair"
        assert doc["states"]["on_twin"]["space_a"] == "twin"
        assert doc["ensembles"]["kept"]["space"] == "twin"

    def test_a_renamed_space_is_found_by_equality(self):
        tf = loads(doc_text(self.doc()))
        tf.check()
        del tf.spaces["twin"]
        assert json.loads(dumps(tf))["states"]["on_twin"]["space_a"] == "pair"

    def test_an_unread_entry_whose_space_was_deleted_names_both(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["twin"] = dict(doc["spaces"]["pair"])
        doc["states"] = {"w": {"space_a": "pair", "space_b": "twin",
                               "matrix": [["1", "0"], ["0", "1"]]}}
        text = doc_text(doc)
        for read in (dumps, lambda tf: tf.state("w")):
            tf = loads(text)
            del tf.spaces["twin"]
            with pytest.raises(TheoryFileError, match=r"state 'w': unknown space 'twin'") as exc:
                read(tf)
            assert line_of_error(str(exc.value)) == entry_line(text, "w", "states")
