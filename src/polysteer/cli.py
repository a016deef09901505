"""Command-line surface: decision procedures over theory files, reports.

Every command reads a theory file, runs one decision procedure, prints a
human summary (or the full JSON report with --json), and exits with the
codes below. The whole file is checked against the grammar, but only the
entries the command names, and the spaces they use, are validated; a
broken entry elsewhere in the file does not stop it.

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


def _inputs_for_state(tf: theoryfile.TheoryFile, name: str) -> dict:
    st = tf.state(name)
    sub = theoryfile.TheoryFile()
    names = tf.states.space_names(name)
    for sp_name in names:
        sub.spaces[sp_name] = tf.space(sp_name)
    sub.states.assign(name, st, names)
    return theoryfile.to_document(sub)


def _inputs_for_spaces(tf: theoryfile.TheoryFile, *names: str) -> dict:
    sub = theoryfile.TheoryFile()
    for name in names:
        sub.spaces[name] = tf.space(name)
    return theoryfile.to_document(sub)


def _decode_inputs(inputs: dict) -> theoryfile.TheoryFile:
    """The theory file a report embeds, every entry validated; the report's
    flags name its entries."""
    tf = theoryfile.loads(json.dumps(inputs))
    tf.check()
    return tf


def _emit(args, t0: float, flags: dict, inputs: dict, verdicts: dict,
          certificates: dict, lines: list[str], affirmative: bool) -> int:
    """Print a command's body as its JSON report (--json) or as its human
    lines, and return the exit code of its verdict."""
    if args.json:
        head = {"command": args.command, "flags": flags, "inputs": inputs}
        report = {
            "format": REPORT_FORMAT,
            **head,
            "digest": _digest(head),
            "verdicts": verdicts,
            "certificates": certificates,
            "wall_time_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0 if affirmative else 1


# Each command's body, (verdicts, certificates), comes from one builder that
# takes a theory file and the report's flags; `verify` re-derives through the
# same builder.


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


def cmd_check_steering(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"state": args.state, "depth": args.depth}
    verdicts, certificates = _check_steering_body(tf, flags)
    lines = [f"{args.state}: {verdicts['status']} (depth {verdicts['depth']})"]
    if "lifted" in certificates:
        lines.append(f"  lifted {len(certificates['lifted'])} extremal ensembles")
    else:
        parts = ", ".join(_paren(p) for p in certificates["counterexample"])
        lines.append(f"  unliftable ensemble: {parts}")
    return _emit(args, t0, flags, _inputs_for_state(tf, args.state), verdicts,
                 certificates, lines, verdicts["status"] == "steering_up_to")


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


def cmd_self_dual(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"space": args.space}
    verdicts, certificates = _self_dual_body(tf, flags)
    found = verdicts["weakly_self_dual"]
    lines = [f"{args.space}: {'weakly self-dual' if found else 'not weakly self-dual'}"]
    if found:
        lines.append("  witness matrix rows:")
        lines += ["    " + _paren(row) for row in certificates["witness"]["matrix"]]
    return _emit(args, t0, flags, _inputs_for_spaces(tf, args.space), verdicts,
                 certificates, lines, found)


def _homogeneous_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    verdict = is_homogeneous(tf.space(flags["space"]))
    certificates: dict = {}
    if verdict.generators is not None:
        certificates["generators"] = [format_matrix(g) for g in verdict.generators]
    if verdict.failed_pair is not None:
        certificates["failed_pair"] = format_matrix(verdict.failed_pair)
    return {"status": verdict.status}, certificates


def cmd_homogeneous(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"space": args.space}
    verdicts, certificates = _homogeneous_body(tf, flags)
    lines = [f"{args.space}: homogeneous = {verdicts['status']}"]
    if "failed_pair" in certificates:
        a, b = certificates["failed_pair"]
        lines.append(f"  no automorphism carries {_paren(a)} to {_paren(b)}")
    return _emit(args, t0, flags, _inputs_for_spaces(tf, args.space), verdicts,
                 certificates, lines, verdicts["status"] == "yes")


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


def cmd_purify(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    inputs = _inputs_for_spaces(tf, args.space)
    alpha = format_vector(parse_vector(args.state.split(","), "state"))
    flags = {"space": args.space, "state": alpha}
    verdicts, certificates = _purify_body(tf, flags)
    if verdicts["purified"]:
        lines = [f"purification of {_paren(alpha)}:"]
        lines += ["  " + _paren(row) for row in certificates["purification"]["matrix"]]
    else:
        lines = [f"no isomorphism-state purification of {_paren(alpha)}"]
    return _emit(args, t0, flags, inputs, verdicts, certificates, lines,
                 verdicts["purified"])


def _tensor_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    a, b = tf.space(flags["space_a"]), tf.space(flags["space_b"])
    composite = {"min": min_tensor, "max": max_tensor}[flags["kind"]](a, b)
    verdicts = {"ray_count": len(composite.cone.rays), "dim": composite.cone.ambient_dim}
    certificates = {
        "rays": format_matrix(composite.cone.rays),
        "unit": format_vector(composite.unit),
    }
    return verdicts, certificates


def cmd_tensor(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"space_a": args.space_a, "space_b": args.space_b, "kind": args.kind}
    verdicts, certificates = _tensor_body(tf, flags)
    lines = [
        f"{args.kind} tensor of {args.space_a} and {args.space_b}: "
        f"{verdicts['ray_count']} extreme rays in dimension {verdicts['dim']}"
    ]
    lines += ["  " + _paren(r) for r in certificates["rays"]]
    return _emit(args, t0, flags, _inputs_for_spaces(tf, args.space_a, args.space_b),
                 verdicts, certificates, lines, True)


def _pure_body(tf: theoryfile.TheoryFile, flags: dict) -> tuple[dict, dict]:
    result = is_pure_in_max(tf.state(flags["state"]))
    certificates: dict = {}
    if result.witness is not None:
        certificates["decomposition_part"] = format_matrix(result.witness)
    return {"pure": result.extremal}, certificates


def cmd_pure(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"state": args.state}
    verdicts, certificates = _pure_body(tf, flags)
    pure = verdicts["pure"]
    lines = [f"{args.state}: {'pure' if pure else 'not pure'} in the largest composite"]
    if "decomposition_part" in certificates:
        lines.append("  proper summand:")
        lines += ["    " + _paren(row) for row in certificates["decomposition_part"]]
    return _emit(args, t0, flags, _inputs_for_state(tf, args.state), verdicts,
                 certificates, lines, pure)


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


def cmd_section(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    flags = {"state": args.state}
    verdicts, certificates = _section_body(tf, flags)
    if verdicts["found"]:
        lines = [
            f"{args.state}: affine section found "
            f"(solution set dimension {verdicts['dimension']})"
        ]
    else:
        lines = [f"{args.state}: no affine section exists"]
    return _emit(args, t0, flags, _inputs_for_state(tf, args.state), verdicts,
                 certificates, lines, verdicts["found"])


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
    if verdicts["pure"]:
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


# Each command's body builder, and its substitution check (None when no
# verdict of the command carries a certificate).
_COMMANDS = {
    "check-steering": (_check_steering_body, _substitute_check_steering),
    "self-dual": (_self_dual_body, _substitute_self_dual),
    "homogeneous": (_homogeneous_body, None),
    "purify": (_purify_body, _substitute_purify),
    "tensor": (_tensor_body, None),
    "pure": (_pure_body, _substitute_pure),
    "section": (_section_body, _substitute_section),
}


def cmd_verify(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TheoryFileError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(report, dict):
        raise TheoryFileError(f"report is a JSON {type(report).__name__}, not an object")
    if report.get("format") != REPORT_FORMAT:
        raise TheoryFileError(
            f"unsupported report format {report.get('format')!r}"
        )
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
    build, substitute = _COMMANDS[command]
    try:
        tf, flags = _decode_inputs(report["inputs"]), report["flags"]
        verdicts, certificates = report["verdicts"], report["certificates"]
        checked = substitute and substitute(tf, flags, verdicts, certificates)
        found, want = checked or ([], build(tf, flags))
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
    the function that runs it; see `main`."""
    parser = argparse.ArgumentParser(
        prog="polysteer",
        description="Exact decision procedures for polyhedral state spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-steering", help="decide steering of a state's B marginal")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("--depth", type=int, default=2, help="largest ensemble length checked (default 2)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("self-dual", help="search for a dual-to-cone order isomorphism")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("homogeneous", help="decide interior transitivity of the automorphisms")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("purify", help="purify an interior state to an isomorphism state")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("state", help="comma-separated rationals, e.g. 1/3,1/3,1/3")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tensor", help="compute a composite cone of two spaces")
    p.add_argument("file")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--kind", choices=["min", "max"], default="min")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pure", help="decide purity of a state in the largest composite")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("section", help="search for an affine section of a state's map")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="re-check the certificates in an emitted report")
    p.add_argument("report")

    p = sub.add_parser("fixtures", help="emit the built-in fixture library as a theory file")
    p.add_argument("--out", help="write to a file instead of stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Each command runs `cmd_<command>`, looked up at call time rather than
    # bound into the shared parser, so that a wrapper installed on this
    # module after the first call (perfbench's tracing wraps `cmd_verify`)
    # still sees every call.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (TheoryFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
