"""Command-line surface: decision procedures over theory files, reports.

Every decision command reads a theory file, runs one decision procedure,
prints a human summary (or the full JSON report with --json), and exits
with the codes below. The whole file is checked against the grammar, but
only the entries the command names, and the spaces they use, are
validated; a broken entry elsewhere in the file does not stop it. Each
decision command is one row of `_COMMANDS`: its arguments, the entries
its report embeds, its body builder, verify's certificate check and its
summary. One runner, `_decide`, does the rest for all of them.

    0  the affirmative verdict (steers, self-dual, homogeneous, ...)
    1  the negative verdict, with certificates where they exist
    2  input or usage errors

Reports embed the inputs they were computed from, so `verify` can re-check
a report's certificates without access to the original file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import theoryfile
from .composite import (
    BipartiteState,
    decomposition_program,
    is_isomorphism_state,
    is_pure_in_max,
    marginal_b,
    max_tensor,
    min_tensor,
    purify,
)
from .cone import dual_cone
from .fixtures import fixture_library
from .ratlin import LPOutcome, as_matrix, rank
from .space import OrderIsoWitness, is_homogeneous, is_weakly_self_dual
from .steering import (
    AffineSection,
    Ensemble,
    affine_section_search,
    decide_steering,
    ensemble_lift_program,
    extremal_ensembles,
    section_program,
)
from .theoryfile import (
    TheoryFileError,
    format_matrix,
    format_vector,
    parse_matrix,
    parse_vector,
)

REPORT_FORMAT = "report/1"


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _paren(row) -> str:
    return "(" + ", ".join(row) + ")"


def _state_inputs(tf: theoryfile.TheoryFile, flags: dict) -> dict:
    """The report inputs of a state command: the state, with its spaces."""
    name = flags["state"]
    st = tf.state(name)
    sub = theoryfile.TheoryFile()
    names = tf.states.space_names(name)
    for sp_name in names:
        sub.spaces[sp_name] = tf.space(sp_name)
    sub.states.assign(name, st, names)
    return theoryfile.to_document(sub)


def _space_inputs(*keys: str) -> Callable[[theoryfile.TheoryFile, dict], dict]:
    """The report inputs of a command on the spaces its flags `keys` name."""

    def inputs(tf: theoryfile.TheoryFile, flags: dict) -> dict:
        sub = theoryfile.TheoryFile()
        for key in keys:
            sub.spaces[flags[key]] = tf.space(flags[key])
        return theoryfile.to_document(sub)

    return inputs


# Each command's body, (verdicts, certificates), comes from one builder that
# takes a theory file and the report's flags; `verify` re-derives through the
# same builder. Its summary turns the flags and the body into the human lines
# and whether the verdict is affirmative.


def _check_steering_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    verdict = decide_steering(tf.state(flags["state"]), depth=flags["depth"])
    if verdict:
        certificates = {
            "lifted": [
                {
                    "ensemble": format_matrix(le.ensemble.parts),
                    "observable": format_matrix(
                        e.functional for e in le.observable.effects
                    ),
                }
                for le in verdict.lifted
            ]
        }
    else:
        certificates = {
            "counterexample": format_matrix(verdict.counterexample.parts),
            "farkas": format_vector(verdict.farkas),
        }
    return {"status": verdict.status, "depth": verdict.depth}, certificates


def _check_steering_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    lines = [f"{flags['state']}: {verdicts['status']} (depth {verdicts['depth']})"]
    if "lifted" in certificates:
        lines.append(f"  lifted {len(certificates['lifted'])} extremal ensembles")
    else:
        parts = ", ".join(_paren(p) for p in certificates["counterexample"])
        lines.append(f"  unliftable ensemble: {parts}")
    return lines, verdicts["status"] == "steering_up_to"


def _witness_certificate(witness: OrderIsoWitness) -> dict:
    return {
        "matrix": format_matrix(witness.matrix),
        "ray_bijection": list(witness.ray_bijection),
        "scales": format_vector(witness.scales),
    }


def _self_dual_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    witness = is_weakly_self_dual(tf.space(flags["space"]))
    if witness is None:
        return {"weakly_self_dual": False}, {}
    return {"weakly_self_dual": True}, {"witness": _witness_certificate(witness)}


def _self_dual_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    found = verdicts["weakly_self_dual"]
    lines = [f"{flags['space']}: {'weakly self-dual' if found else 'not weakly self-dual'}"]
    if found:
        lines.append("  witness matrix rows:")
        lines += ["    " + _paren(row) for row in certificates["witness"]["matrix"]]
    return lines, found


def _homogeneous_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    verdict = is_homogeneous(tf.space(flags["space"]))
    certificates: dict = {}
    if verdict.generators is not None:
        certificates["generators"] = [format_matrix(g) for g in verdict.generators]
    if verdict.failed_pair is not None:
        certificates["failed_pair"] = format_matrix(verdict.failed_pair)
    return {"status": verdict.status}, certificates


def _homogeneous_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    lines = [f"{flags['space']}: homogeneous = {verdicts['status']}"]
    if "failed_pair" in certificates:
        a, b = certificates["failed_pair"]
        lines.append(f"  no automorphism carries {_paren(a)} to {_paren(b)}")
    return lines, verdicts["status"] == "yes"


def _read_purify_flags(flags: dict) -> dict:
    """The state argument, comma-separated rationals, in canonical form."""
    return {**flags, "state": format_vector(parse_vector(flags["state"].split(","), "state"))}


def _purify_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    space = tf.space(flags["space"])
    alpha = parse_vector(flags["state"], "state")
    if len(alpha) != space.dim:
        raise TheoryFileError(
            f"state has {len(alpha)} coordinates; the space needs {space.dim}"
        )
    omega = purify(space, alpha)
    if omega is None:
        return {"purified": False}, {}
    return {"purified": True}, {"purification": {"matrix": format_matrix(omega.matrix)}}


def _purify_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    alpha = _paren(flags["state"])
    if not verdicts["purified"]:
        return [f"no isomorphism-state purification of {alpha}"], False
    rows = certificates["purification"]["matrix"]
    return [f"purification of {alpha}:"] + ["  " + _paren(row) for row in rows], True


def _tensor_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    a, b = tf.space(flags["space_a"]), tf.space(flags["space_b"])
    composite = {"min": min_tensor, "max": max_tensor}[flags["kind"]](a, b)
    verdicts = {"ray_count": len(composite.cone.rays), "dim": composite.cone.ambient_dim}
    certificates = {
        "rays": format_matrix(composite.cone.rays),
        "unit": format_vector(composite.unit),
    }
    return verdicts, certificates


def _tensor_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    lines = [
        f"{flags['kind']} tensor of {flags['space_a']} and {flags['space_b']}: "
        f"{verdicts['ray_count']} extreme rays in dimension {verdicts['dim']}"
    ]
    return lines + ["  " + _paren(r) for r in certificates["rays"]], True


def _pure_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    result = is_pure_in_max(tf.state(flags["state"]))
    certificates: dict = {}
    if result.witness is not None:
        certificates["decomposition_part"] = format_matrix(result.witness)
    return {"pure": result.extremal}, certificates


def _pure_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    pure = verdicts["pure"]
    lines = [f"{flags['state']}: {'pure' if pure else 'not pure'} in the largest composite"]
    if "decomposition_part" in certificates:
        lines.append("  proper summand:")
        lines += ["    " + _paren(row) for row in certificates["decomposition_part"]]
    return lines, pure


def _section_certificate(section: AffineSection) -> dict:
    return {
        "base_points": format_matrix(section.base_points),
        "images": format_matrix(section.images),
    }


def _section_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    search = affine_section_search(tf.state(flags["state"]))
    if not search:
        return {"found": False}, {"farkas": format_vector(search.farkas)}
    certificates = {"section": _section_certificate(search.section)}
    if search.alternate is not None:
        certificates["alternate"] = _section_certificate(search.alternate)
    return {"found": True, "dimension": search.dimension}, certificates


def _section_summary(flags, verdicts, certificates) -> tuple[list[str], bool]:
    if not verdicts["found"]:
        return [f"{flags['state']}: no affine section exists"], False
    dimension = verdicts["dimension"]
    return [f"{flags['state']}: affine section found (solution set dimension {dimension})"], True


def cmd_fixtures(args) -> int:
    text = theoryfile.dumps(fixture_library())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote fixture library to {args.out}")
    else:
        print(text, end="")
    return 0


# `verify` checks a verdict that carries a certificate by substituting it,
# and re-derives that verdict's other fields. Each `_substitute_*` returns
# the problems it found and the body its checked certificates imply, or
# None when the reported verdict carries no certificate, or one that costs
# more to check than to find (a found section); verify then re-derives the
# whole body through the command's builder.


def _substitute_check_steering(tf, flags, verdicts, certificates):
    omega = tf.state(flags["state"])
    target = marginal_b(omega).vector
    problems: list[str] = []
    if verdicts["status"] == "steering_up_to":
        lifted = []
        for idx, item in enumerate(certificates["lifted"]):
            parts = parse_matrix(item["ensemble"], "ensemble")
            effects = as_matrix(parse_matrix(item["observable"], "observable"))
            lifted.append(
                {"ensemble": format_matrix(parts), "observable": format_matrix(effects)}
            )
            # Stacked, the effects must solve lift_ensemble's program; a wrong width shifts them.
            program = ensemble_lift_program(omega, Ensemble(omega.space_b, parts))
            stacked = LPOutcome.feasible([x for eff in effects for x in eff])
            if len(effects[0]) != omega.space_a.dim or not stacked.check(program):
                problems.append(f"lifted[{idx}]: observable does not solve its lift program")
        # The lifts must cover the depth's extremal ensembles, in search order.
        depth = flags["depth"]
        expected = extremal_ensembles(omega.space_b, target, depth)
        if [item["ensemble"] for item in lifted] != [
            format_matrix(e.parts) for _, e in expected
        ]:
            problems.append("lifted ensembles are not the extremal ensembles of the depth")
        status, want = "steering_up_to", {"lifted": lifted}
    else:
        parts = parse_matrix(certificates["counterexample"], "counterexample")
        e = Ensemble(omega.space_b, parts)
        if not e.is_for(target):
            problems.append("counterexample does not sum to the marginal")
        farkas = parse_vector(certificates["farkas"], "farkas")
        if not LPOutcome.infeasible(farkas).check(ensemble_lift_program(omega, e)):
            problems.append("farkas certificate does not refute the lift program")
        status = "not_steering"
        want = {"counterexample": format_matrix(parts), "farkas": format_vector(farkas)}
        # A vertex of the k-part splitting polytope with k - j zero parts is
        # a vertex of the j-part one, so the search meets a counterexample of
        # j parts first, and stops, at depth max(2, j).
        depth = max(2, len(parts))
        if depth > flags["depth"]:
            problems.append("counterexample has more parts than the depth searched")
    return problems, ({"status": status, "depth": depth}, want)


def _substitute_self_dual(tf, flags, verdicts, certificates):
    if not verdicts["weakly_self_dual"]:
        return None
    space = tf.space(flags["space"])
    w = certificates["witness"]
    # JSON true and false would index and sort as 1 and 0.
    if any(type(i) is not int for i in w["ray_bijection"]):
        return ["ray_bijection entries must be integers"], None
    witness = OrderIsoWitness(
        parse_matrix(w["matrix"], "matrix"),
        tuple(w["ray_bijection"]),
        parse_vector(w["scales"], "scales"),
    )
    problems = []
    if not witness.verify(dual_cone(space.cone), space.cone):
        problems.append("witness fails substitution on the dual cone's rays")
    return problems, ({"weakly_self_dual": True}, {"witness": _witness_certificate(witness)})


def _substitute_purify(tf, flags, verdicts, certificates):
    if not verdicts["purified"]:
        return None
    space = tf.space(flags["space"])
    matrix = parse_matrix(certificates["purification"]["matrix"], "matrix")
    omega = BipartiteState(space, space, matrix)
    problems = []
    if marginal_b(omega).vector != parse_vector(flags["state"], "state"):
        problems.append("purification does not have the requested marginal")
    if is_isomorphism_state(omega) is None:
        problems.append("purification is not an isomorphism state")
    want = {"purification": {"matrix": format_matrix(matrix)}}
    return problems, ({"purified": True}, want)


def _substitute_pure(tf, flags, verdicts, certificates):
    # The zero map is refuted with no summand, so like a pure verdict it is re-derived.
    if verdicts["pure"] or "decomposition_part" not in certificates:
        return None
    omega = tf.state(flags["state"])
    psi = parse_matrix(certificates["decomposition_part"], "decomposition_part")
    phi = omega.matrix
    if len(psi) != len(phi) or any(len(a) != len(b) for a, b in zip(psi, phi)):
        return ["witness part does not have the map's shape"], None
    # A summand t*phi splits phi into multiples of itself, which every
    # extremal map allows; only a summand off phi's line refutes purity.
    if rank([[x for row in phi for x in row], [x for row in psi for x in row]]) < 2:
        return ["witness part is parallel to the map"], None
    program = decomposition_program(phi, dual_cone(omega.space_a.cone), omega.space_b.cone)
    summand = LPOutcome.feasible([x for row in psi for x in row])
    problems = [] if summand.check(program) else ["summand or its complement is not positive"]
    return problems, ({"pure": False}, {"decomposition_part": format_matrix(psi)})


def _substitute_section(tf, flags, verdicts, certificates):
    # A found section, its dimension and its alternate are re-derived: the
    # search is one program, one LP and the dimension loop.
    if verdicts["found"]:
        return None
    farkas = parse_vector(certificates["farkas"], "farkas")
    if not LPOutcome.infeasible(farkas).check(section_program(tf.state(flags["state"]))[0]):
        return ["farkas certificate does not refute the section program"], None
    return [], ({"found": False}, {"farkas": format_vector(farkas)})


@dataclass(frozen=True)
class _Command:
    """What one decision command has of its own. `arguments` follow the
    file, each (name, add_argument keywords); the report's flags are their
    values, which `read_flags` may rewrite. `inputs` gives the entries the
    report embeds and `body` its (verdicts, certificates), both from the
    theory file and the flags. `substitute` is verify's certificate check,
    None when no verdict of the command carries a certificate, and
    `summary` the human lines with whether the verdict is affirmative."""

    help: str
    arguments: tuple[tuple[str, dict], ...]
    inputs: Callable[[theoryfile.TheoryFile, dict], dict]
    body: Callable[[theoryfile.TheoryFile, dict], tuple[dict, dict]]
    substitute: Callable | None
    summary: Callable[[dict, dict, dict], tuple[list[str], bool]]
    read_flags: Callable[[dict], dict] = dict


# The decision commands, in the order `polysteer --help` lists them.
_COMMANDS = {
    "check-steering": _Command(
        "decide steering of a state's B marginal",
        (("state", {}), ("--depth", {"type": int, "default": 2,
                                     "help": "largest ensemble length checked (default 2)"})),
        _state_inputs, _check_steering_body, _substitute_check_steering,
        _check_steering_summary,
    ),
    "self-dual": _Command(
        "search for a dual-to-cone order isomorphism", (("space", {}),),
        _space_inputs("space"), _self_dual_body, _substitute_self_dual, _self_dual_summary,
    ),
    "homogeneous": _Command(
        "decide interior transitivity of the automorphisms", (("space", {}),),
        _space_inputs("space"), _homogeneous_body, None, _homogeneous_summary,
    ),
    "purify": _Command(
        "purify an interior state to an isomorphism state",
        (("space", {}), ("state", {"help": "comma-separated rationals, e.g. 1/3,1/3,1/3"})),
        _space_inputs("space"), _purify_body, _substitute_purify, _purify_summary,
        _read_purify_flags,
    ),
    "tensor": _Command(
        "compute a composite cone of two spaces",
        (("space_a", {}), ("space_b", {}),
         ("--kind", {"choices": ["min", "max"], "default": "min"})),
        _space_inputs("space_a", "space_b"), _tensor_body, None, _tensor_summary,
    ),
    "pure": _Command(
        "decide purity of a state in the largest composite", (("state", {}),),
        _state_inputs, _pure_body, _substitute_pure, _pure_summary,
    ),
    "section": _Command(
        "search for an affine section of a state's map", (("state", {}),),
        _state_inputs, _section_body, _substitute_section, _section_summary,
    ),
}


# A --json report's top-level keys, as _decide writes them; verify refuses
# any other.
_REPORT_KEYS = (
    "format", "command", "flags", "inputs", "digest", "verdicts", "certificates", "wall_time_ms",
)


def _decide(args) -> int:
    """Run a decision command from its row: read the file, embed the named
    entries, build the body, and print it as the JSON report (--json) or
    as the summary's lines. Returns the exit code of the verdict."""
    t0 = time.perf_counter()
    row = _COMMANDS[args.command]
    tf = theoryfile.load(args.file)
    given = {name.lstrip("-"): getattr(args, name.lstrip("-")) for name, _ in row.arguments}
    inputs = row.inputs(tf, given)
    flags = row.read_flags(given)
    verdicts, certificates = row.body(tf, flags)
    lines, affirmative = row.summary(flags, verdicts, certificates)
    if args.json:
        head = {"command": args.command, "flags": flags, "inputs": inputs}
        digest = _digest(head)
        wall_time_ms = round((time.perf_counter() - t0) * 1000, 3)
        values = (REPORT_FORMAT, *head.values(), digest, verdicts, certificates, wall_time_ms)
        report = dict(zip(_REPORT_KEYS, values, strict=True))
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0 if affirmative else 1


def cmd_verify(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        text = fh.read()
    report = theoryfile.parse_json(text)
    if not isinstance(report, dict):
        raise TheoryFileError(f"report is a JSON {type(report).__name__}, not an object")
    if report.get("format") != REPORT_FORMAT:
        raise TheoryFileError(
            f"unsupported report format {report.get('format')!r}"
        )
    if unknown := set(report).difference(_REPORT_KEYS):
        raise TheoryFileError(f"report has unknown top-level keys {sorted(unknown)}")
    missing = [
        key for key in ("command", "flags", "inputs", "digest")
        if key not in report
    ]
    if missing:
        raise TheoryFileError("report is missing " + ", ".join(missing))
    command = report["command"]
    if not isinstance(command, str):
        raise TheoryFileError(f"report command {command!r} is not a string")
    head = {"command": command, "flags": report["flags"], "inputs": report["inputs"]}
    problems = []
    if _digest(head) != report["digest"]:
        problems.append("digest does not match the embedded inputs")
    if command not in _COMMANDS:
        raise TheoryFileError(f"no verifier for command {command!r}")
    row = _COMMANDS[command]
    try:
        # The embedded theory file, every entry validated, its errors
        # anchored to the report's lines; the report's flags name its entries.
        tf = theoryfile.read(report["inputs"], text, ("inputs",))
        tf.check()
        flags, verdicts, certificates = report["flags"], report["verdicts"], report["certificates"]
        checked = row.substitute and row.substitute(tf, flags, verdicts, certificates)
        found, want = checked or ([], row.body(tf, flags))
        # Compared as canonical JSON, so that 24.0 or true cannot stand in
        # for 24, "2/4" for "1/2", and no unchecked key rides along.
        if not found and _canonical([verdicts, certificates]) != _canonical(list(want)):
            found = [f"recomputed {command} verdicts or certificates differ"]
        problems += found
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        detail = str(exc) or type(exc).__name__
        problems.append(f"report body does not support its verdict: {detail}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"OK: {command} report verified")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call of the process (parsing leaves it unchanged). The subcommand names
    the function that runs it; see `main`. Each decision command's
    subparser comes from its row of `_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="polysteer",
        description="Exact decision procedures for polyhedral state spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("file")
        for arg, options in row.arguments:
            p.add_argument(arg, **options)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="re-check the certificates in an emitted report")
    p.add_argument("report")

    p = sub.add_parser("fixtures", help="emit the built-in fixture library as a theory file")
    p.add_argument("--out", help="write to a file instead of stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # verify and fixtures run `cmd_<command>`, a decision command runs
    # `_decide`. Both are looked up at call time rather than bound into the
    # shared parser, so that a wrapper installed on this module after the
    # first call (perfbench's tracing wraps `cmd_verify`) still sees every
    # call.
    command = globals().get("cmd_" + args.command.replace("-", "_"), _decide)
    try:
        return command(args)
    except (TheoryFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
