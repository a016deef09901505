"""End-to-end command-line behavior: exit codes, reports, verification.

Commands run in-process through main() so coverage and tracebacks work;
one test also exercises the installed console script in a subprocess.
Exit code contract: 0 affirmative, 1 negative, 2 input errors.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polysteer
from polysteer import cli, steering, theoryfile
from polysteer.cli import main
from polysteer.fixtures import fixture_library
from polysteer.ratlin import format_rational


@pytest.fixture(scope="module")
def lib_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fixtures.json"
    theoryfile.dump(fixture_library(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestExitCodes:
    def test_not_steering_exits_one_with_counterexample(self, capsys, lib_path):
        code, report = run_json(
            capsys, "check-steering", lib_path, "nonsteering_table"
        )
        assert code == 1
        assert report["verdicts"]["status"] == "not_steering"
        assert report["certificates"]["counterexample"] == [
            ["0", "1/2"],
            ["1/2", "0"],
        ]
        assert report["certificates"]["farkas"]

    def test_steering_exits_zero(self, capsys, lib_path):
        code, report = run_json(
            capsys, "check-steering", lib_path, "classical_correlated_2"
        )
        assert code == 0
        assert report["verdicts"]["status"] == "steering_up_to"
        assert len(report["certificates"]["lifted"]) >= 1

    def test_malformed_rational_exits_two(self, capsys, lib_path):
        code, _, err = run(capsys, "purify", lib_path, "simplex_2", "1/0,1")
        assert code == 2
        assert "not a rational" in err

    def test_unknown_state_exits_two(self, capsys, lib_path):
        code, _, err = run(capsys, "check-steering", lib_path, "ghost")
        assert code == 2
        assert "unknown state" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "self-dual", "/nonexistent.json", "x")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "section,message",
        [({"spaces": [1]}, "spaces: expected an object"),
         ({"spaces": []}, "spaces: expected an object"),
         ({"states": "x"}, "states: expected an object"),
         ({"states": {"w": {"space_a": ["s"], "space_b": "s", "matrix": [["1", "0"]]}}},
          "space_a must name a space by a string")],
        ids=["spaces-list", "spaces-empty-list", "states-string", "space-ref-list"],
    )
    def test_malformed_section_exits_two(self, capsys, tmp_path, section, message):
        doc = {
            "format": "theoryfile/1",
            "spaces": {"s": {"ambient_dim": 2, "rays": [["1", "0"], ["0", "1"]],
                             "unit": ["1", "1"]}},
            **section,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "self-dual", str(path), "s")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert message in err

    def test_wrong_coordinate_count_exits_two(self, capsys, lib_path):
        code, _, err = run(capsys, "purify", lib_path, "simplex_3", "1/2,1/2")
        assert code == 2
        assert "coordinates" in err


def without_timing(out: str) -> str:
    """A command's stdout with a JSON report's wall time dropped."""
    if not out.startswith("{"):
        return out
    report = json.loads(out)
    report.pop("wall_time_ms")
    return json.dumps(report, indent=2, sort_keys=True)


def line_of_key(text: str, name: str, section: str) -> int:
    """The line of entry `name` inside `section` of a canonical theory file."""
    lines = text.splitlines()
    start = lines.index(f'  "{section}": {{')
    return next(
        i + 1 for i, line in enumerate(lines)
        if i > start and line == f'    "{name}": {{'
    )


class TestUnusedBrokenEntries:
    """A command validates only the entries it names and the spaces they
    use; the grammar is still checked for the whole file."""

    @pytest.fixture(scope="class")
    def broken_path(self, tmp_path_factory):
        doc = theoryfile.to_document(fixture_library())
        # A space whose facets do not match its rays, and a state whose map
        # sends a dual extreme ray outside the B cone.
        skew = dict(doc["spaces"]["square_space"])
        skew["facets"] = [["1", "0", "1"]] + skew["facets"][1:]
        doc["spaces"]["skew_square"] = skew
        doc["states"]["negative_bit"] = {
            "space_a": "simplex_2", "space_b": "simplex_2",
            "matrix": [["-1", "0"], ["0", "1"]],
        }
        doc["states"]["on_skew"] = {
            "space_a": "skew_square", "space_b": "simplex_2",
            "matrix": [["0", "0", "1"], ["0", "0", "1"]],
        }
        path = tmp_path_factory.mktemp("broken") / "broken.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["check-steering", "nonsteering_table", "--depth", "3"],
        ["section", "two_squares_twisted"],
        ["pure", "extremality_gap"],
        ["self-dual", "square_space"],
        ["homogeneous", "simplex_3"],
        ["purify", "simplex_3", "1/2,1/4,1/4"],
        ["tensor", "square_space", "simplex_2", "--kind", "max"],
    ])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_healthy_entry_reports_as_on_the_clean_file(
        self, capsys, lib_path, broken_path, argv, json_flag
    ):
        clean = run(capsys, argv[0], lib_path, *argv[1:], *json_flag)
        broken = run(capsys, argv[0], broken_path, *argv[1:], *json_flag)
        assert broken[0] == clean[0]
        assert without_timing(broken[1]) == without_timing(clean[1])
        assert broken[2] == clean[2] == ""

    @pytest.mark.parametrize("argv,section,name,message", [
        (["self-dual", "skew_square"], "spaces", "skew_square",
         "space 'skew_square': facets do not match"),
        (["pure", "negative_bit"], "states", "negative_bit",
         "state 'negative_bit': map sends a dual extreme ray outside the B cone"),
        # A state reads the spaces it names first, with their own errors.
        (["section", "on_skew"], "spaces", "skew_square",
         "space 'skew_square': facets do not match"),
    ])
    def test_named_broken_entry_exits_two_with_its_line(
        self, capsys, broken_path, argv, section, name, message
    ):
        code, out, err = run(capsys, argv[0], broken_path, *argv[1:])
        assert code == 2
        assert out == ""
        line = line_of_key(Path(broken_path).read_text(), name, section)
        assert err.startswith(f"error: line {line}: {message}")

    def test_grammar_error_in_an_unused_entry_exits_two(self, capsys, tmp_path):
        doc = theoryfile.to_document(fixture_library())
        doc["states"]["square_iso"]["matrix"][2][2] = "1/0"
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "self-dual", str(path), "square_space")
        assert code == 2
        assert out == ""
        line = line_of_key(text, "square_iso", "states")
        assert err.startswith(f"error: line {line}: state 'square_iso': not a rational")


class TestSharedParser:
    """main builds its parser once per process; no flag of one call may
    reach the next."""

    SEQUENCE = [
        ["self-dual", "square_space", "--json"],
        ["self-dual", "square_space"],
        ["check-steering", "two_squares_correlated", "--depth", "3", "--json"],
        ["check-steering", "two_squares_correlated", "--json"],
        ["tensor", "simplex_2", "simplex_2", "--kind", "max", "--json"],
        ["tensor", "simplex_2", "simplex_2", "--json"],
        ["check-steering", "--depth", "x"],
        ["check-steering", "classical_correlated_2"],
    ]

    @staticmethod
    def with_file(argv, lib_path):
        return [argv[0], lib_path, *argv[1:]]

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, without_timing(captured.out), captured.err

    @staticmethod
    def fresh_process(argv):
        src = str(Path(polysteer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polysteer.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        return proc.returncode, without_timing(proc.stdout), proc.stderr

    def test_command_wrapped_after_the_first_call_sees_its_calls(
        self, capsys, lib_path, tmp_path, monkeypatch
    ):
        code, out, _ = run(capsys, "self-dual", lib_path, "square_space", "--json")
        path = tmp_path / "report.json"
        path.write_text(out)
        seen = []
        real = cli.cmd_verify
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args) or real(args))
        vcode, vout, _ = run(capsys, "verify", str(path))
        assert (code, vcode, len(seen)) == (0, 0, 1)
        assert vout.startswith("OK:")

    def test_back_to_back_calls_match_fresh_processes(self, capsys, lib_path):
        got = [self.in_process(capsys, self.with_file(a, lib_path)) for a in self.SEQUENCE]
        want = [self.fresh_process(self.with_file(a, lib_path)) for a in self.SEQUENCE]
        assert got == want
        flags = [json.loads(out)["flags"] for _, out, _ in got[2:6]]
        assert [f.get("depth") for f in flags[:2]] == [3, 2]
        assert [f.get("kind") for f in flags[2:]] == ["max", "min"]
        assert not got[1][1].startswith("{")
        assert got[6][0] == 2 and "usage:" in got[6][2]


class TestVerdicts:
    def test_square_self_dual_with_witness(self, capsys, lib_path):
        code, report = run_json(capsys, "self-dual", lib_path, "square_space")
        assert code == 0
        assert report["verdicts"]["weakly_self_dual"] is True
        w = report["certificates"]["witness"]
        assert len(w["matrix"]) == 3
        assert sorted(w["ray_bijection"]) == [0, 1, 2, 3]

    def test_square_not_homogeneous(self, capsys, lib_path):
        code, report = run_json(capsys, "homogeneous", lib_path, "square_space")
        assert code == 1
        assert report["verdicts"]["status"] == "no"
        assert len(report["certificates"]["failed_pair"]) == 2

    def test_simplex_homogeneous(self, capsys, lib_path):
        code, report = run_json(capsys, "homogeneous", lib_path, "simplex_3")
        assert code == 0
        assert report["verdicts"]["status"] == "yes"
        assert report["certificates"]["generators"]

    def test_purify_simplex_interior(self, capsys, lib_path):
        code, report = run_json(
            capsys, "purify", lib_path, "simplex_2", "1/3,2/3"
        )
        assert code == 0
        assert report["certificates"]["purification"]["matrix"] == [
            ["1/3", "0"],
            ["0", "2/3"],
        ]

    def test_tensor_min_simplices(self, capsys, lib_path):
        code, report = run_json(
            capsys, "tensor", lib_path, "simplex_2", "simplex_2", "--kind", "min"
        )
        assert code == 0
        assert report["verdicts"]["ray_count"] == 4
        assert report["verdicts"]["dim"] == 4

    def test_tensor_kinds_differ_for_squares(self, capsys, lib_path):
        _, rmin = run_json(
            capsys, "tensor", lib_path, "square_space", "square_space",
            "--kind", "min",
        )
        _, rmax = run_json(
            capsys, "tensor", lib_path, "square_space", "square_space",
            "--kind", "max",
        )
        assert rmin["verdicts"]["ray_count"] == 16
        assert rmax["verdicts"]["ray_count"] > 16

    def test_pure_negative_with_summand(self, capsys, lib_path):
        code, report = run_json(capsys, "pure", lib_path, "extremality_gap")
        assert code == 1
        assert report["verdicts"]["pure"] is False
        assert report["certificates"]["decomposition_part"]

    def test_pure_positive(self, capsys, lib_path):
        code, report = run_json(capsys, "pure", lib_path, "square_iso")
        assert code == 0
        assert report["verdicts"]["pure"] is True

    def test_section_unique(self, capsys, lib_path):
        code, report = run_json(
            capsys, "section", lib_path, "two_squares_correlated"
        )
        assert code == 0
        assert report["verdicts"]["dimension"] == 0
        assert "alternate" not in report["certificates"]

    def test_section_ambiguous_carries_alternate(self, capsys, lib_path):
        code, report = run_json(capsys, "section", lib_path, "two_squares_twisted")
        assert code == 0
        assert report["verdicts"]["dimension"] >= 1
        assert "alternate" in report["certificates"]

    def test_section_absent_exits_one_with_farkas(self, capsys, lib_path):
        code, report = run_json(capsys, "section", lib_path, "cube_to_hexagon")
        assert code == 1
        assert report["verdicts"]["found"] is False
        assert report["certificates"]["farkas"]


class TestReports:
    def test_digest_covers_inputs_not_timing(self, capsys, lib_path):
        _, first = run_json(capsys, "self-dual", lib_path, "square_space")
        _, second = run_json(capsys, "self-dual", lib_path, "square_space")
        assert first["digest"] == second["digest"]
        body = {k: first[k] for k in ("command", "flags", "inputs")}
        from polysteer.cli import _digest

        assert _digest(body) == first["digest"]

    def test_reports_embed_inputs(self, capsys, lib_path):
        _, report = run_json(
            capsys, "check-steering", lib_path, "nonsteering_table"
        )
        doc = report["inputs"]
        assert doc["format"] == "theoryfile/1"
        assert "nonsteering_table" in doc["states"]
        assert set(doc["spaces"]) == {"simplex_3", "simplex_2"}

    def test_inputs_keep_the_names_of_equal_spaces(self, capsys, tmp_path):
        lib = fixture_library()
        tf = theoryfile.TheoryFile()
        tf.spaces["bit"] = tf.spaces["also_bit"] = lib.space("simplex_2")
        tf.states["table"] = lib.state("classical_correlated_2")
        doc = theoryfile.to_document(tf)
        doc["states"]["table"]["space_b"] = "also_bit"
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-steering", str(path), "table", "--json")
        state = json.loads(out)["inputs"]["states"]["table"]
        assert (state["space_a"], state["space_b"]) == ("bit", "also_bit")
        report = tmp_path / "report.json"
        report.write_text(out)
        assert run(capsys, "verify", str(report))[0] == 0

    def test_depth_recorded_in_flags(self, capsys, lib_path):
        _, report = run_json(
            capsys, "check-steering", lib_path, "classical_correlated_2",
            "--depth", "3",
        )
        assert report["flags"]["depth"] == 3
        assert report["verdicts"]["depth"] == 3


class TestVerify:
    COMMANDS = [
        ("check-steering", ["nonsteering_table"]),
        ("check-steering", ["classical_correlated_2"]),
        ("self-dual", ["square_space"]),
        ("self-dual", ["pentagon_space"]),
        ("homogeneous", ["square_space"]),
        ("homogeneous", ["simplex_3"]),
        ("purify", ["simplex_3", "1/2,1/4,1/4"]),
        ("tensor", ["simplex_2", "square_space", "--kind", "max"]),
        ("pure", ["extremality_gap"]),
        ("pure", ["square_iso"]),
        ("section", ["two_squares_correlated"]),
        ("section", ["two_squares_twisted"]),
        ("section", ["cube_to_hexagon"]),
    ]

    @pytest.mark.parametrize("command,rest", COMMANDS)
    def test_emitted_reports_verify(
        self, capsys, lib_path, tmp_path, command, rest
    ):
        code, out, _ = run(capsys, command, lib_path, *rest, "--json")
        assert code in (0, 1)
        path = tmp_path / "report.json"
        path.write_text(out)
        vcode, vout, _ = run(capsys, "verify", str(path))
        assert vcode == 0, vout
        assert vout.startswith("OK:")

    def test_tampered_witness_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "self-dual", lib_path, "square_space", "--json")
        report = json.loads(out)
        report["certificates"]["witness"]["matrix"][0][0] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "witness fails substitution" in vout

    def test_widened_witness_fails_substitution(self, capsys, lib_path, tmp_path):
        # Rows of the wrong width fail the substitution check; they must not
        # raise from the inverse inside it.
        _, out, _ = run(capsys, "self-dual", lib_path, "square_space", "--json")
        report = json.loads(out)
        for row in report["certificates"]["witness"]["matrix"]:
            row.append("0")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "witness fails substitution" in vout
        assert "not square" not in vout

    def test_tampered_inputs_break_digest(self, capsys, lib_path, tmp_path):
        _, out, _ = run(
            capsys, "check-steering", lib_path, "nonsteering_table", "--json"
        )
        report = json.loads(out)
        report["inputs"]["states"]["nonsteering_table"]["matrix"][0][0] = "1/3"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "digest" in vout

    def test_tampered_counterexample_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(
            capsys, "check-steering", lib_path, "nonsteering_table", "--json"
        )
        report = json.loads(out)
        report["certificates"]["counterexample"] = [
            ["1/4", "1/4"],
            ["1/4", "1/4"],
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "farkas" in vout or "refute" in vout

    @pytest.mark.parametrize("key", ["observable", "ensemble"])
    def test_extra_zero_effect_or_part_rejected(self, capsys, lib_path, tmp_path, key):
        # Each lifted observable needs exactly one effect per part; a zero
        # appended to either list changes no sum.
        _, out, _ = run(
            capsys, "check-steering", lib_path, "two_squares_correlated",
            "--depth", "2", "--json",
        )
        report = json.loads(out)
        assert report["verdicts"]["status"] == "steering_up_to"
        report["certificates"]["lifted"][0][key].append(["0", "0", "0"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith("FAIL:")

    def test_flipped_verdict_without_lifts_rejected(self, capsys, lib_path, tmp_path):
        # The lifts must cover the depth's extremal ensembles; an empty list
        # covers none of them.
        _, out, _ = run(capsys, "check-steering", lib_path, "nonsteering_table", "--json")
        report = json.loads(out)
        report["verdicts"]["status"] = "steering_up_to"
        report["certificates"] = {"lifted": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "extremal ensembles" in vout

    @pytest.mark.parametrize("drop", [0, -1])
    def test_dropped_lift_rejected(self, capsys, lib_path, tmp_path, drop):
        _, out, _ = run(
            capsys, "check-steering", lib_path, "two_squares_correlated",
            "--depth", "3", "--json",
        )
        report = json.loads(out)
        assert len(report["certificates"]["lifted"]) >= 2
        del report["certificates"]["lifted"][drop]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "extremal ensembles" in vout

    def test_malformed_inputs_section_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "self-dual", lib_path, "square_space", "--json")
        report = json.loads(out)
        report["inputs"]["spaces"] = [1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "spaces: expected an object" in vout

    @pytest.mark.parametrize("row", [0, 1])
    def test_ragged_section_images_rejected(self, capsys, lib_path, tmp_path, row):
        # An extra coordinate on any image must not be dropped unread.
        _, out, _ = run(capsys, "section", lib_path, "two_squares_correlated", "--json")
        report = json.loads(out)
        report["certificates"]["section"]["images"][row].append("0")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith("FAIL:")

    @pytest.mark.parametrize("ragged", [True, False])
    def test_regrouped_observable_rejected(self, capsys, lib_path, tmp_path, ragged):
        # The same entries regrouped into rows of another width stack to
        # the same vector, so only the width check tells them apart.
        _, out, _ = run(
            capsys, "check-steering", lib_path, "two_squares_correlated",
            "--depth", "2", "--json",
        )
        report = json.loads(out)
        lifted = report["certificates"]["lifted"][0]
        flat = [x for row in lifted["observable"] for x in row]
        if ragged:
            lifted["observable"] = [flat[:2], flat[2:6]] + [
                flat[i:i + 3] for i in range(6, len(flat), 3)
            ]
        else:
            lifted["observable"] = [[x] for x in flat]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith("FAIL:")

    def test_reshuffled_section_bases_rejected(self, capsys, lib_path, tmp_path):
        # An appended (base point, image) pair, or two base points swapped
        # with their images, describes the same affine map; a section must
        # still come over the program's own basis, one image per point.
        tampered = 0
        for state in fixture_library().states:
            _, out, _ = run(capsys, "section", lib_path, state, "--json")
            for key in ("section", "alternate"):
                if key not in json.loads(out)["certificates"]:
                    continue
                for kind in ("append", "swap"):
                    report = json.loads(out)
                    cert = report["certificates"][key]
                    points, images = cert["base_points"], cert["images"]
                    if kind == "append":
                        points.append(points[0])
                        images.append(["7"] * len(images[0]))
                    else:
                        points[:2], images[:2] = points[1::-1], images[1::-1]
                    path = tmp_path / "bad.json"
                    path.write_text(json.dumps(report))
                    code, vout, _ = run(capsys, "verify", str(path))
                    assert code == 1, (state, key, kind)
                    assert vout.startswith("FAIL:")
                    tampered += 1
        # Six fixture states have a section, one of them an alternate too.
        assert tampered == 14

    def test_found_section_verify_enumerates_the_interval_once(
        self, capsys, lib_path, tmp_path, monkeypatch
    ):
        # verify re-derives a found section through the section builder: one
        # order interval per report, however many sections it carries.
        vertices = steering.order_interval_vertices
        calls = []
        monkeypatch.setattr(
            steering, "order_interval_vertices", lambda *a: calls.append(1) or vertices(*a)
        )
        found = 0
        for state in fixture_library().states:
            code, out, _ = run(capsys, "section", lib_path, state, "--json")
            if code != 0:
                continue
            path = tmp_path / "section.json"
            path.write_text(out)
            calls.clear()
            code, vout, _ = run(capsys, "verify", str(path))
            assert (code, vout) == (0, "OK: section report verified\n")
            assert len(calls) == 1, (state, len(calls))
            found += 1
        assert found == 6

    def test_negated_summand_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "pure", lib_path, "extremality_gap", "--json")
        report = json.loads(out)
        part = report["certificates"]["decomposition_part"]
        report["certificates"]["decomposition_part"] = [
            [format_rational(-Fraction(x)) for x in row] for row in part
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "not positive" in vout

    @pytest.mark.parametrize("state", ["nonsteering_table", "two_squares_correlated"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_tampered_depth_rejected(self, capsys, lib_path, tmp_path, state, delta):
        _, out, _ = run(capsys, "check-steering", lib_path, state, "--json")
        report = json.loads(out)
        report["verdicts"]["depth"] += delta
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "differ" in vout

    @pytest.mark.parametrize("scale", ["0", "1/2", "1"])
    def test_summand_parallel_to_the_map_rejected(
        self, capsys, lib_path, tmp_path, scale
    ):
        # square_iso is pure; a summand t*phi splits phi into multiples of
        # itself, which proves nothing about extremality.
        _, out, _ = run(capsys, "pure", lib_path, "square_iso", "--json")
        report = json.loads(out)
        phi = report["inputs"]["states"]["square_iso"]["matrix"]
        t = Fraction(scale)
        report["verdicts"]["pure"] = False
        report["certificates"]["decomposition_part"] = [
            [format_rational(t * Fraction(x)) for x in row] for row in phi
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "parallel to the map" in vout

    def test_tampered_section_farkas_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "section", lib_path, "cube_to_hexagon", "--json")
        report = json.loads(out)
        farkas = report["certificates"]["farkas"]
        k = next(i for i, x in enumerate(farkas) if x != "0")
        farkas[k] = format_rational(Fraction(farkas[k]) + 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "does not refute the section program" in vout

    def test_flipped_section_verdict_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "section", lib_path, "cube_to_hexagon", "--json")
        foreign = json.loads(out)["certificates"]["farkas"]
        _, out, _ = run(
            capsys, "section", lib_path, "two_squares_correlated", "--json"
        )
        report = json.loads(out)
        report["verdicts"]["found"] = False
        report["certificates"]["farkas"] = foreign
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "does not refute the section program" in vout

    @pytest.mark.parametrize(
        "part,key,index,value",
        [
            ("certificates", "unit", 0, "7"),
            ("verdicts", "ray_count", None, 99),
            ("verdicts", "dim", None, 99),
            ("verdicts", "ray_count", None, 24.0),
        ],
    )
    def test_tampered_tensor_report_rejected(
        self, capsys, lib_path, tmp_path, part, key, index, value
    ):
        _, out, _ = run(
            capsys, "tensor", lib_path, "square_space", "square_space",
            "--kind", "max", "--json",
        )
        report = json.loads(out)
        assert report["verdicts"]["ray_count"] == 24
        if index is None:
            report[part][key] = value
        else:
            report[part][key][index] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "recomputed tensor" in vout

    def test_unknown_tensor_kind_rejected(self, capsys, lib_path, tmp_path):
        # A kind other than min or max once recomputed as the max tensor,
        # so a rewritten kind with its digest redone verified.
        _, out, _ = run(
            capsys, "tensor", lib_path, "simplex_2", "simplex_2",
            "--kind", "max", "--json",
        )
        report = json.loads(out)
        report["flags"]["kind"] = "banana"
        head = {k: report[k] for k in ("command", "flags", "inputs")}
        report["digest"] = cli._digest(head)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith("FAIL:") and "banana" in vout

    @pytest.mark.parametrize(
        "argv,tamper",
        [
            (
                ["homogeneous", "square_space"],
                lambda r: r["certificates"].update(failed_pair=[["0"] * 3, ["0"] * 3]),
            ),
            (
                ["homogeneous", "simplex_3"],
                lambda r: r["certificates"]["generators"][0][0].__setitem__(0, "2"),
            ),
            (["homogeneous", "simplex_3"], lambda r: r["verdicts"].update(extra=True)),
            (
                ["self-dual", "cube_space"],
                lambda r: r["certificates"].update(
                    witness={"matrix": [["1"]], "ray_bijection": [0], "scales": ["1"]}
                ),
            ),
            # Only the rays that had a scale were substituted, so a witness
            # with its scale list cut short verified.
            (
                ["self-dual", "hexagon_space"],
                lambda r: r["certificates"]["witness"].update(
                    scales=r["certificates"]["witness"]["scales"][:1]
                ),
            ),
            (
                ["pure", "square_iso"],
                lambda r: r["certificates"].update(decomposition_part=[["0"] * 3] * 3),
            ),
            (["section", "two_squares_twisted"], lambda r: r["verdicts"].update(dimension=5)),
            (["section", "two_squares_twisted"], lambda r: r["verdicts"].update(dimension=0)),
            # Both raised ValueError past the verifier and exited 2.
            (
                ["purify", "simplex_2", "1/3,2/3"],
                lambda r: r["certificates"]["purification"]["matrix"][0].__setitem__(0, "-5"),
            ),
            (
                ["check-steering", "nonsteering_table"],
                lambda r: r["certificates"]["counterexample"].__setitem__(0, ["-1", "1"]),
            ),
        ],
        ids=[
            "homogeneous-zero-pair", "homogeneous-generator", "homogeneous-extra-verdict",
            "self-dual-junk-witness", "self-dual-short-scales", "pure-junk-summand", "section-dimension-5",
            "section-dimension-0", "purify-outside-cone", "steering-part-outside-cone",
        ],
    )
    def test_tampered_body_rejected(self, capsys, lib_path, tmp_path, argv, tamper):
        _, out, _ = run(capsys, argv[0], lib_path, *argv[1:], "--json")
        report = json.loads(out)
        tamper(report)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith("FAIL:")

    def test_input_error_names_its_line_in_the_report(self, capsys, lib_path, tmp_path):
        """An error in an embedded entry is anchored to that entry's line of
        the report file, which verify reads once."""
        _, out, _ = run(capsys, "pure", lib_path, "square_iso", "--json")
        report = json.loads(out)
        report["inputs"]["spaces"]["square_space"]["rays"][0] = ["0", "0", "0"]
        head = {k: report[k] for k in ("command", "flags", "inputs")}
        report["digest"] = cli._digest(head)
        text = json.dumps(report, indent=2, sort_keys=True)
        path = tmp_path / "bad.json"
        path.write_text(text)
        lines = text.splitlines()
        inputs = lines.index('  "inputs": {')
        spaces = lines.index('    "spaces": {', inputs)
        line = lines.index('      "square_space": {', spaces) + 1
        assert line > 1
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vout.startswith(
            f"FAIL: report body does not support its verdict: line {line}: "
            "space 'square_space': generator 0 is the zero vector"
        )

    def test_unsupported_report_format(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "report/9"}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "unsupported report format" in err

    def test_flipped_verdict_rejected(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "check-steering", lib_path, "square_iso", "--json")
        report = json.loads(out)
        report["verdicts"]["status"] = "not_steering"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, vout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "does not support its verdict" in vout

    def test_missing_report_keys(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "homogeneous", lib_path, "square_space", "--json")
        report = json.loads(out)
        del report["digest"]
        del report["flags"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "missing flags, digest" in err

    def test_report_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "not an object" in err

    def test_command_that_is_not_a_string(self, capsys, lib_path, tmp_path):
        _, out, _ = run(capsys, "homogeneous", lib_path, "square_space", "--json")
        report = json.loads(out)
        report["command"] = ["homogeneous"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "is not a string" in err


def fixture_commands():
    """Every fixture command, as the benchmark runs them, and a purify."""
    lib = fixture_library()
    commands = [["purify", "simplex_2", "1/3,2/3"]]
    for state in lib.states:
        commands += [["check-steering", state, "--depth", "3"], ["section", state],
                     ["pure", state]]
    for space in lib.spaces:
        commands += [["self-dual", space], ["homogeneous", space]]
    return commands + [["tensor", "square_space", "square_space", "--kind", "max"]]


@pytest.mark.parametrize("argv", fixture_commands(), ids=" ".join)
def test_summary_exit_code_matches_the_report(capsys, lib_path, argv):
    """Each command's summary reads its verdict as the report does: the
    exit code is the same with and without --json."""
    text_code, text, _ = run(capsys, argv[0], lib_path, *argv[1:])
    json_code, out, _ = run(capsys, argv[0], lib_path, *argv[1:], "--json")
    assert text_code == json_code in (0, 1)
    assert not text.startswith("{") and out.startswith("{")


def test_purify_help_documents_the_state_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["purify", "--help"])
    assert exc.value.code == 0
    assert "comma-separated rationals, e.g. 1/3,1/3,1/3" in capsys.readouterr().out


class TestFixturesCommand:
    def test_stdout_is_canonical(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert theoryfile.dumps(theoryfile.loads(out)) == out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "lib.json"
        code, out, _ = run(capsys, "fixtures", "--out", str(path))
        assert code == 0
        assert "wrote" in out
        tf = theoryfile.load(path)
        assert "cube_to_hexagon" in tf.states


def test_console_script_installed(lib_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polysteer.cli", "homogeneous", lib_path,
         "octahedron_space"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "homogeneous = no" in proc.stdout
