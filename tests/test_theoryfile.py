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
        with pytest.raises(TheoryFileError, match="vector has 3 entries, the cone lives in 2"):
            loads(doc_text(doc))

    def test_facets_cross_checked(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["facets"] = [["1", "0"], ["0", "1"]]
        loads(doc_text(doc))
        doc["spaces"]["pair"]["facets"] = [["1", "1"], ["0", "1"]]
        with pytest.raises(TheoryFileError, match="facets do not match"):
            loads(doc_text(doc))

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
        with pytest.raises(TheoryFileError, match="state 'omega'"):
            loads(doc_text(doc))

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
