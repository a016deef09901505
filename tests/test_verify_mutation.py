"""Mutation test of `verify`: a perturbed leaf of a report's body fails.

Every report the benchmark's `fixture_commands` yields, plus `purify` on two
interior states (one purifiable, one not), is built once. Leaves of its
`verdicts` and `certificates` are then perturbed one at a time: a rational
string gets +1, a bool is flipped, an int gets +1 (an int 0 or 1 is also
written as the JSON bool of the same value) and a status is swapped for the
next status of its command. `verify` must exit 1 on every result.

To keep the run short, each report perturbs at most the first and the middle
leaf of each key path (list indices dropped), which still reaches every
verdict key and every certificate key.
"""

import contextlib
import copy
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polysteer import theoryfile
from polysteer.cli import main
from polysteer.fixtures import fixture_library
from polysteer.ratlin import format_rational

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

STATUSES = {
    "check-steering": ("steering_up_to", "not_steering", "undecided"),
    "homogeneous": ("yes", "no", "unknown"),
}

PURIFY = [["purify", "simplex_3", "1/2,1/4,1/4"], ["purify", "cube_space", "0,0,0,1"]]


def fixture_commands(lib):
    """The benchmark's fixture commands, imported without a bytecode cache."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module.fixture_commands(lib)


def leaves(node, path=()):
    """(path, value) for every leaf below node, in document order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from leaves(item, path + (i,))
    else:
        yield path, node


def key_path(path):
    return tuple(p for p in path if isinstance(p, str))


def perturbed(command, value, path):
    """The tampered values tried in place of one leaf."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1] + ([bool(value)] if value in (0, 1) else [])
    if path[-1] == "status":
        statuses = STATUSES[command]
        return [statuses[(statuses.index(value) + 1) % len(statuses)]]
    return [format_rational(Fraction(value) + 1)]


def chosen_leaves(report):
    """The first and middle leaf of each key path of the body."""
    groups = {}
    body = {"verdicts": report["verdicts"], "certificates": report["certificates"]}
    for path, value in leaves(body):
        groups.setdefault(key_path(path), []).append((path, value))
    for members in groups.values():
        for i in sorted({0, len(members) // 2}):
            yield members[i]


def set_leaf(report, path, value):
    node = report
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


COMMANDS = fixture_commands(fixture_library()) + PURIFY


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each command's JSON report, keyed by the command's words."""
    theory = tmp_path_factory.mktemp("mutation") / "fixtures.json"
    theoryfile.dump(fixture_library(), theory)
    out = {}
    for argv in COMMANDS:
        code, text = call([argv[0], str(theory), *argv[1:], "--json"])
        assert code in (0, 1), text
        out[" ".join(argv)] = json.loads(text)
    return out


@pytest.mark.parametrize("words", [" ".join(argv) for argv in COMMANDS])
def test_perturbed_leaf_fails_verify(reports, tmp_path, words):
    command = words.split()[0]
    report = reports[words]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert call(["verify", str(path)])[0] == 0
    accepted = []
    for leaf, value in chosen_leaves(report):
        for bad in perturbed(command, value, leaf):
            tampered = copy.deepcopy(report)
            set_leaf(tampered, leaf, bad)
            path.write_text(json.dumps(tampered))
            code, text = call(["verify", str(path)])
            if code != 1 or not text.startswith("FAIL:"):
                accepted.append((leaf, bad, code, text))
    assert not accepted


def test_every_body_key_is_perturbed(reports):
    covered = {
        ".".join(key_path(leaf))
        for report in reports.values()
        for leaf, _ in chosen_leaves(report)
    }
    assert covered == {
        "verdicts.status", "verdicts.weakly_self_dual",
        "verdicts.purified", "verdicts.ray_count", "verdicts.dim",
        "verdicts.pure", "verdicts.found", "verdicts.dimension", "verdicts.depth",
        "certificates.lifted.ensemble", "certificates.lifted.observable",
        "certificates.counterexample", "certificates.farkas",
        "certificates.witness.matrix", "certificates.witness.ray_bijection",
        "certificates.witness.scales", "certificates.generators",
        "certificates.failed_pair", "certificates.purification.matrix",
        "certificates.rays", "certificates.unit",
        "certificates.decomposition_part",
        "certificates.section.base_points", "certificates.section.images",
        "certificates.alternate.base_points", "certificates.alternate.images",
    }
