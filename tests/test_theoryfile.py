"""Theory-file parsing, validation, and canonical serialization.

Expected values here are frozen by hand from the documented grammar: the
canonical form is two-space indented JSON with sorted keys and a trailing
newline, and every rational renders as "p/q" or a bare integer string.
"""

import json
from fractions import Fraction

import pytest

from polysteer import ratlin, theoryfile
from polysteer.fixtures import fixture_library
from polysteer.ratlin import format_rational
from polysteer.theoryfile import (
    TheoryFile,
    TheoryFileError,
    dumps,
    loads,
    parse_vector,
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


def read_rational(value) -> Fraction:
    """One value read as a one-entry vector."""
    (x,) = parse_vector([value], "value")
    return x


class TestRationals:
    def test_forms(self):
        assert read_rational("3/4") == Fraction(3, 4)
        assert read_rational("-7") == Fraction(-7)
        assert read_rational(5) == Fraction(5)

    @pytest.mark.parametrize(
        "bad", ["1/0", "x", "1.5/2", True, None, [1], "0.5", "1e2", "1_000"]
    )
    def test_rejects(self, bad):
        with pytest.raises(TheoryFileError, match="not a rational"):
            read_rational(bad)

    @pytest.mark.parametrize("value", [
        "3/4", " 3 ", "+2/3", "-7", "1/0", "1/-2", "1/02", "1.5", "1e3", "\u0663", "",
        1.0, True, None, [1], [[1]], 7, 10**199, "9" * 200,
    ], ids=repr)
    def test_the_grammar_accepts_a_literal_iff_the_reader_does(self, value):
        """The grammar checks a literal by ratlin's pattern alone, in an
        entry never looked up, and agrees with the reader on every value."""
        expected = None
        if type(value) is int:
            expected = Fraction(value)
        elif ratlin.is_rational_literal(value):
            (num,), den = ratlin.literal_row([value])
            expected = Fraction(num, den)
        doc = json.loads(doc_text(MINIMAL))
        doc["states"] = {"unread": {"space_a": "pair", "space_b": "pair",
                                    "matrix": [["1", value], ["0", "1"]]}}
        text = doc_text(doc)
        if expected is None:
            with pytest.raises(TheoryFileError, match="not a rational"):
                read_rational(value)
            with pytest.raises(TheoryFileError, match="state 'unread': not a rational") as err:
                loads(text)
            assert line_of_error(str(err.value)) == entry_line(text, "unread", "states")
        else:
            assert read_rational(value) == expected
            loads(text)

    def test_rendering_round_trips(self):
        for f in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(7, 3)):
            assert read_rational(format_rational(f)) == f
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"


# Values the one-pass vector check must judge as the per-literal grammar
# does: the join separator, whitespace str.strip() removes and int() does
# not (or the reverse), digits int() reads but the grammar refuses, and
# the grammar's edges.
LITERALS = [
    "1,2", "1, 2", ",", "\u20031", "1\x1c", "\x85-3", "\u200b1", "\u0661", "1_0", "+", "1/",
    "/2", "1/0", "1/01", "1/-2", "-0", "007", "3/4", " +2/3 ", "-7", "", " ", "1.5", "1e3",
    "0x1", "1 /2", True, False, None, 1.5, 7, -3, 0, [1],
]


class TestOnePassCheck:
    """A vector's literals are checked in one pass by
    ``ratlin.are_rational_literals``; the per-literal loop runs only to word
    an error. Together they accept exactly what ``ratlin.is_rational_literal``
    accepts, plus bare JSON integers, and `loads` words a refusal as the
    per-literal check always has, at the entry's line."""

    @staticmethod
    def check_agrees(value):
        ok = type(value) is int or ratlin.is_rational_literal(value)
        for values in ([value], ["1", value], [value, "-2/3", value]):
            per_literal = all(map(ratlin.is_rational_literal, values))
            assert ratlin.are_rational_literals(values) == per_literal
            if not ok:
                with pytest.raises(TheoryFileError) as err:
                    theoryfile.parse_vector(values, "v", build=False)
                assert str(err.value) == str(theoryfile._not_a_rational(value))
                continue
            assert theoryfile.parse_vector(values, "v", build=False) == ()
            want = tuple(Fraction(v if type(v) is int else v.strip()) for v in values)
            got = theoryfile.parse_vector(values, "v")
            assert got == want and all(type(x) is Fraction for x in got)
        return ok

    @staticmethod
    def loads_agrees(value, ok):
        doc = json.loads(doc_text(MINIMAL))
        doc["states"] = {"unread": {"space_a": "pair", "space_b": "pair",
                                    "matrix": [["1", value], ["0", "1"]]}}
        text = doc_text(doc)
        if ok:
            loads(text)
            return
        with pytest.raises(TheoryFileError) as err:
            loads(text)
        line = entry_line(text, "unread", "states")
        assert str(err.value) == f"line {line}: state 'unread': {theoryfile._not_a_rational(value)}"

    @pytest.mark.parametrize("value", LITERALS, ids=repr)
    def test_the_one_pass_check_agrees_with_the_per_literal_grammar(self, value):
        self.loads_agrees(value, self.check_agrees(value))

    def test_unicode_whitespace_and_digits(self):
        # Every whitespace character lies below U+3001; so do the non-ASCII
        # digits of many scripts.
        for c in map(chr, range(0x3001)):
            for text in (c, c + "1", "1" + c, "1/1" + c, c + "-1/2" + c):
                assert ratlin.are_rational_literals([text]) == ratlin.is_rational_literal(text)
                assert ratlin.are_rational_literals(["2", text]) == ratlin.is_rational_literal(text)

    def test_literals_around_the_digit_limits(self, int_digit_limit):
        short = ratlin.qarith._SHORT
        values = [
            "9" * short, "9" * (short + 1), "1/" + "9" * (short + 1), " " * short + "5",
            "9" * int_digit_limit, "-" + "9" * (int_digit_limit + 1),
            "1/" + "9" * (int_digit_limit + 1), "9" * (int_digit_limit + 1) + "/2",
        ]
        results = [self.check_agrees(v) for v in values]
        assert results == [True, True, True, True, True, False, False, False]
        for value, ok in zip(values, results):
            self.loads_agrees(value, ok)

    def test_a_bad_rays_literal_wins_over_a_missing_unit(self):
        doc = json.loads(doc_text(MINIMAL))
        doc["spaces"]["pair"]["rays"][1][0] = "1/0"
        del doc["spaces"]["pair"]["unit"]
        text = doc_text(doc)
        with pytest.raises(TheoryFileError) as err:
            loads(text)
        line = entry_line(text, "pair", "spaces")
        assert str(err.value) == f"line {line}: space 'pair': not a rational: '1/0'"


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

    def test_a_repeated_key_is_rejected(self):
        """json.loads alone keeps the last copy of a key, so a space defined
        twice would be read from its second copy."""
        text = doc_text(MINIMAL)
        first = '    "pair": {'
        assert text.count(first) == 1
        twice = text.replace(first, '    "pair": {"ambient_dim": 0},\n' + first)
        # The error names the line of the second copy, the original one.
        line = text[:text.index(first)].count("\n") + 2
        with pytest.raises(TheoryFileError, match=f"^line {line}: repeated key 'pair'$"):
            loads(twice)
        inner = text.replace('"ambient_dim": 2,', '"ambient_dim": 2,\n"ambient_dim": 3,')
        line = text[:text.index('"ambient_dim": 2,')].count("\n") + 2
        with pytest.raises(TheoryFileError, match=f"^line {line}: repeated key 'ambient_dim'$"):
            loads(inner)

    def test_a_repeated_key_is_anchored_where_json_meets_it(self):
        """An inner object closes, and so is checked, before the object
        holding it; braces and colons inside strings are not structure."""
        cases = [
            ('{"a": 1,\n"a": 2,\n"b": {"c": 1,\n"c": 2}}', "line 4: repeated key 'c'"),
            ('[{"x": "{",\n "y": [1, {"z": 0, "z": 1}]}]', "line 2: repeated key 'z'"),
            ('{"s": "a:\\"}",\n"s": 1}', "line 2: repeated key 's'"),
        ]
        for text, message in cases:
            with pytest.raises(TheoryFileError) as info:
                theoryfile.parse_json(text)
            assert str(info.value) == message

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

    def test_numbers_are_built_only_for_the_entries_looked_up(self, monkeypatch):
        # ratlin.literal_row reads every number of an entry, one vector or
        # matrix row a call.
        parsed = []
        real = ratlin.literal_row
        monkeypatch.setattr(ratlin, "literal_row", lambda v: parsed.extend(v) or real(v))
        text = dumps(fixture_library())
        tf = loads(text)
        assert parsed == []
        tf.state("square_iso")
        doc = json.loads(text)
        state = doc["states"]["square_iso"]
        space = doc["spaces"][state["space_a"]]
        assert state["space_b"] == state["space_a"]
        literals = [*state["matrix"], *space["rays"], *space["facets"], space["unit"]]
        assert sorted(parsed) == sorted(x for row in literals for x in row)

    @pytest.mark.parametrize("section,name,key", [
        ("spaces", "pentagon_space", "rays"),
        ("spaces", "pentagon_space", "facets"),
        ("spaces", "pentagon_space", "unit"),
        ("states", "two_squares_twisted", "matrix"),
        ("ensembles", "table_basis_split", "parts"),
    ])
    def test_a_bad_literal_in_an_unread_entry_fails_loads(self, section, name, key):
        doc = json.loads(dumps(fixture_library()))
        values = doc[section][name][key]
        (values[0] if key != "unit" else values)[0] = "1/02"
        text = doc_text(doc)
        with pytest.raises(TheoryFileError, match=r"not a rational: '1/02'$") as err:
            loads(text)
        assert line_of_error(str(err.value)) == entry_line(text, name, section)

    def test_a_literal_past_the_digit_limit_fails_loads(self, int_digit_limit):
        """A unit entry read as a number up to int()'s digit limit, and
        refused by the grammar, at the space's line, one digit past it."""
        doc = json.loads(dumps(fixture_library()))
        doc["spaces"]["cube_space"]["unit"][3] = "1" * int_digit_limit
        tf = loads(doc_text(doc))
        assert tf.space("cube_space").unit[3] == int("1" * int_digit_limit)
        doc["spaces"]["cube_space"]["unit"][3] = "1" * (int_digit_limit + 1)
        text = doc_text(doc)
        message = (
            f"space 'cube_space': not a rational: a part of {int_digit_limit + 1} digits "
            f"exceeds the {int_digit_limit}-digit limit"
        )
        with pytest.raises(TheoryFileError, match=message) as err:
            loads(text)
        assert line_of_error(str(err.value)) == entry_line(text, "cube_space", "spaces")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_bare_integer_past_the_digit_limit_fails_at_its_line(self, int_digit_limit, sign):
        """A bare JSON integer in a unit is read up to int()'s digit limit;
        one digit past it, reading the JSON fails at the integer's line,
        past a string and a float of as many digits before it."""
        doc = json.loads(dumps(fixture_library()))
        doc["spaces"]["cube_space"]["unit"][2] = "9" * (int_digit_limit + 1)
        doc["spaces"]["cube_space"]["unit"][3] = "@float"
        doc["spaces"]["square_space"]["unit"][2] = "@"
        template = doc_text(doc).replace('"@float"', "9" * (int_digit_limit + 1) + ".5")
        text = template.replace('"@"', sign + "7" * int_digit_limit)
        unit = theoryfile.parse_json(text)["spaces"]["square_space"]["unit"]
        assert unit[2] == int(sign + "7" * int_digit_limit)
        text = template.replace('"@"', sign + "7" * (int_digit_limit + 1))
        message = (
            f"an integer of {int_digit_limit + 1} digits exceeds the {int_digit_limit}-digit "
            "limit on integer strings"
        )
        line = text[:text.index("7" * int_digit_limit)].count("\n") + 1
        for read in (theoryfile.parse_json, loads):
            with pytest.raises(TheoryFileError, match=message) as err:
                read(text)
            assert line_of_error(str(err.value)) == line

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
