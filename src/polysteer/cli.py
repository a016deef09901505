"""Command-line surface: decision procedures over theory files, reports.

Every command reads a theory file, runs one decision procedure, prints a
human summary (or the full JSON report with --json), and exits with:

    0  the affirmative verdict (steers, self-dual, homogeneous, ...)
    1  the negative verdict, with certificates where they exist
    2  input or usage errors

Reports embed the inputs they were computed from, so `verify` can re-check
a report's certificates without access to the original file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import theoryfile
from .composite import (
    BipartiteState,
    is_isomorphism_state,
    is_pure_in_max,
    marginal_b,
    max_tensor,
    min_tensor,
)
from .cone import dual_cone
from .fixtures import fixture_library
from .ratlin import LPOutcome, as_vector, format_rational, mat_vec, rank
from .space import OrderIsoWitness, effects_interval, is_homogeneous, is_weakly_self_dual
from .steering import (
    AffineSection,
    Ensemble,
    affine_section_search,
    decide_steering,
    ensemble_lift_program,
    section_program,
)
from .theoryfile import TheoryFileError, parse_rational

REPORT_FORMAT = "report/1"


def _rvec(v) -> list[str]:
    return [format_rational(x) for x in v]


def _rmat(m) -> list[list[str]]:
    return [_rvec(row) for row in m]


def _parse_vec(values) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in values)


def _parse_mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(_parse_vec(row) for row in rows)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _report(command: str, flags: dict, inputs: dict, verdicts: dict, certificates: dict, t0: float) -> dict:
    body = {"command": command, "flags": flags, "inputs": inputs}
    return {
        "format": REPORT_FORMAT,
        **body,
        "digest": _digest(body),
        "verdicts": verdicts,
        "certificates": certificates,
        "wall_time_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def _inputs_for_state(tf: theoryfile.TheoryFile, name: str) -> dict:
    st = tf.state(name)
    sub = theoryfile.TheoryFile()
    for sp_name, sp in tf.spaces.items():
        if sp in (st.space_a, st.space_b):
            sub.spaces[sp_name] = sp
    sub.states[name] = st
    return theoryfile.to_document(sub)


def _inputs_for_spaces(tf: theoryfile.TheoryFile, *names: str) -> dict:
    sub = theoryfile.TheoryFile()
    for name in names:
        sub.spaces[name] = tf.space(name)
    return theoryfile.to_document(sub)


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _state_from_inputs(doc: dict) -> tuple[str, BipartiteState]:
    tf = theoryfile.loads(json.dumps(doc | {"format": theoryfile.FORMAT}))
    [(name, st)] = tf.states.items()
    return name, st


def _space_from_inputs(doc: dict):
    tf = theoryfile.loads(json.dumps(doc | {"format": theoryfile.FORMAT}))
    [(name, sp)] = tf.spaces.items()
    return name, sp


def cmd_check_steering(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    omega = tf.state(args.state)
    verdict = decide_steering(omega, depth=args.depth)
    certificates: dict = {}
    if verdict.status == "steering_up_to":
        certificates["lifted"] = [
            {
                "ensemble": _rmat(le.ensemble.parts),
                "observable": _rmat(e.functional for e in le.observable.effects),
            }
            for le in verdict.lifted
        ]
    else:
        certificates["counterexample"] = _rmat(verdict.counterexample.parts)
        certificates["farkas"] = _rvec(verdict.farkas)
    report = _report(
        "check-steering",
        {"state": args.state, "depth": args.depth},
        _inputs_for_state(tf, args.state),
        {"status": verdict.status, "depth": verdict.depth},
        certificates,
        t0,
    )
    lines = [f"{args.state}: {verdict.status} (depth {verdict.depth})"]
    if verdict.status == "steering_up_to":
        lines.append(f"  lifted {len(verdict.lifted)} extremal ensembles")
    else:
        parts = ", ".join(
            "(" + ", ".join(_rvec(p)) + ")" for p in verdict.counterexample.parts
        )
        lines.append(f"  unliftable ensemble: {parts}")
    _emit(report, lines, args.json)
    return 0 if verdict else 1


def cmd_self_dual(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    space = tf.space(args.space)
    witness = is_weakly_self_dual(space)
    certificates: dict = {}
    if witness is not None:
        certificates["witness"] = {
            "matrix": _rmat(witness.matrix),
            "ray_bijection": list(witness.ray_bijection),
            "scales": _rvec(witness.scales),
        }
    report = _report(
        "self-dual",
        {"space": args.space},
        _inputs_for_spaces(tf, args.space),
        {"weakly_self_dual": witness is not None},
        certificates,
        t0,
    )
    lines = [f"{args.space}: {'weakly self-dual' if witness else 'not weakly self-dual'}"]
    if witness is not None:
        lines.append("  witness matrix rows:")
        for row in witness.matrix:
            lines.append("    (" + ", ".join(_rvec(row)) + ")")
    _emit(report, lines, args.json)
    return 0 if witness is not None else 1


def cmd_homogeneous(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    space = tf.space(args.space)
    verdict = is_homogeneous(space)
    certificates: dict = {}
    if verdict.generators is not None:
        certificates["generators"] = [_rmat(g) for g in verdict.generators]
    if verdict.failed_pair is not None:
        certificates["failed_pair"] = _rmat(verdict.failed_pair)
    report = _report(
        "homogeneous",
        {"space": args.space},
        _inputs_for_spaces(tf, args.space),
        {"status": verdict.status},
        certificates,
        t0,
    )
    lines = [f"{args.space}: homogeneous = {verdict.status}"]
    if verdict.failed_pair is not None:
        a, b = verdict.failed_pair
        lines.append(
            "  no automorphism carries ("
            + ", ".join(_rvec(a))
            + ") to ("
            + ", ".join(_rvec(b))
            + ")"
        )
    _emit(report, lines, args.json)
    return 0 if verdict else 1


def cmd_purify(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    space = tf.space(args.space)
    alpha = _parse_vec(args.state.split(","))
    if len(alpha) != space.dim:
        raise TheoryFileError(
            f"state has {len(alpha)} coordinates; the space needs {space.dim}"
        )
    from .composite import purify

    omega = purify(space, alpha)
    certificates: dict = {}
    if omega is not None:
        certificates["purification"] = {"matrix": _rmat(omega.matrix)}
    report = _report(
        "purify",
        {"space": args.space, "state": _rvec(alpha)},
        _inputs_for_spaces(tf, args.space),
        {"purified": omega is not None},
        certificates,
        t0,
    )
    lines = []
    if omega is None:
        lines.append(f"no isomorphism-state purification of ({', '.join(_rvec(alpha))})")
    else:
        lines.append(f"purification of ({', '.join(_rvec(alpha))}):")
        for row in omega.matrix:
            lines.append("  (" + ", ".join(_rvec(row)) + ")")
    _emit(report, lines, args.json)
    return 0 if omega is not None else 1


def _tensor_body(composite) -> tuple[dict, dict]:
    """The verdicts and certificates of a tensor report."""
    verdicts = {"ray_count": len(composite.cone.rays), "dim": composite.cone.ambient_dim}
    certificates = {"rays": _rmat(composite.cone.rays), "unit": _rvec(composite.unit)}
    return verdicts, certificates


def cmd_tensor(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    a, b = tf.space(args.space_a), tf.space(args.space_b)
    composite = (min_tensor if args.kind == "min" else max_tensor)(a, b)
    report = _report(
        "tensor",
        {"space_a": args.space_a, "space_b": args.space_b, "kind": args.kind},
        _inputs_for_spaces(tf, args.space_a, args.space_b),
        *_tensor_body(composite),
        t0,
    )
    lines = [
        f"{args.kind} tensor of {args.space_a} and {args.space_b}: "
        f"{len(composite.cone.rays)} extreme rays in dimension {composite.cone.ambient_dim}"
    ]
    for r in composite.cone.rays:
        lines.append("  (" + ", ".join(_rvec(r)) + ")")
    _emit(report, lines, args.json)
    return 0


def cmd_pure(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    omega = tf.state(args.state)
    result = is_pure_in_max(omega)
    certificates: dict = {}
    if result.witness is not None:
        certificates["decomposition_part"] = _rmat(result.witness)
    report = _report(
        "pure",
        {"state": args.state},
        _inputs_for_state(tf, args.state),
        {"pure": result.extremal},
        certificates,
        t0,
    )
    lines = [f"{args.state}: {'pure' if result else 'not pure'} in the largest composite"]
    if result.witness is not None:
        lines.append("  proper summand:")
        for row in result.witness:
            lines.append("    (" + ", ".join(_rvec(row)) + ")")
    _emit(report, lines, args.json)
    return 0 if result else 1


def cmd_section(args) -> int:
    t0 = time.perf_counter()
    tf = theoryfile.load(args.file)
    omega = tf.state(args.state)
    search = affine_section_search(omega)
    certificates: dict = {}
    verdicts: dict = {"found": bool(search)}
    if search:
        verdicts["dimension"] = search.dimension
        certificates["section"] = {
            "base_points": _rmat(search.section.base_points),
            "images": _rmat(search.section.images),
        }
        if search.alternate is not None:
            certificates["alternate"] = {
                "base_points": _rmat(search.alternate.base_points),
                "images": _rmat(search.alternate.images),
            }
    elif search.farkas is not None:
        certificates["farkas"] = _rvec(search.farkas)
    report = _report(
        "section",
        {"state": args.state},
        _inputs_for_state(tf, args.state),
        verdicts,
        certificates,
        t0,
    )
    if search:
        lines = [
            f"{args.state}: affine section found "
            f"(solution set dimension {search.dimension})"
        ]
    else:
        lines = [f"{args.state}: no affine section exists"]
    _emit(report, lines, args.json)
    return 0 if search else 1


def cmd_fixtures(args) -> int:
    text = theoryfile.dumps(fixture_library())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote fixture library to {args.out}")
    else:
        print(text, end="")
    return 0


def _verify_check_steering(report: dict) -> list[str]:
    problems: list[str] = []
    _, omega = _state_from_inputs(report["inputs"])
    target = marginal_b(omega).vector
    interval = effects_interval(omega.space_a)
    certs = report["certificates"]
    if report["verdicts"]["status"] == "steering_up_to":
        for idx, item in enumerate(certs["lifted"]):
            parts = _parse_mat(item["ensemble"])
            effects = _parse_mat(item["observable"])
            e = Ensemble(omega.space_b, parts)
            if not e.is_for(target):
                problems.append(f"lifted[{idx}]: ensemble does not sum to the marginal")
                continue
            total = (Fraction(0),) * omega.space_a.dim
            for eff, part in zip(effects, parts):
                if not interval.contains(eff):
                    problems.append(f"lifted[{idx}]: effect outside [0, u]")
                if omega.apply(eff) != part:
                    problems.append(f"lifted[{idx}]: effect does not map onto its part")
                total = tuple(x + y for x, y in zip(total, eff))
            if total != as_vector(omega.space_a.unit):
                problems.append(f"lifted[{idx}]: effects do not sum to the unit")
    else:
        parts = _parse_mat(certs["counterexample"])
        e = Ensemble(omega.space_b, parts)
        if not e.is_for(target):
            problems.append("counterexample does not sum to the marginal")
        farkas = _parse_vec(certs["farkas"])
        lp = ensemble_lift_program(omega, e)
        if not LPOutcome.infeasible(farkas).check(lp):
            problems.append("farkas certificate does not refute the lift program")
    return problems


def _verify_self_dual(report: dict) -> list[str]:
    _, space = _space_from_inputs(report["inputs"])
    if not report["verdicts"]["weakly_self_dual"]:
        if is_weakly_self_dual(space) is not None:
            return ["negative verdict, but a witness exists"]
        return []
    w = report["certificates"]["witness"]
    witness = OrderIsoWitness(
        _parse_mat(w["matrix"]),
        tuple(w["ray_bijection"]),
        _parse_vec(w["scales"]),
    )
    if not witness.verify(dual_cone(space.cone), space.cone):
        return ["witness fails substitution on the dual cone's rays"]
    return []


def _verify_homogeneous(report: dict) -> list[str]:
    _, space = _space_from_inputs(report["inputs"])
    verdict = is_homogeneous(space)
    if verdict.status != report["verdicts"]["status"]:
        return [f"recomputed status {verdict.status} != reported"]
    return []


def _verify_purify(report: dict) -> list[str]:
    problems = []
    _, space = _space_from_inputs(report["inputs"])
    alpha = _parse_vec(report["flags"]["state"])
    if not report["verdicts"]["purified"]:
        from .composite import purify

        if purify(space, alpha) is not None:
            problems.append("negative verdict, but a purification exists")
        return problems
    matrix = _parse_mat(report["certificates"]["purification"]["matrix"])
    omega = BipartiteState(space, space, matrix)
    if marginal_b(omega).vector != alpha:
        problems.append("purification does not have the requested marginal")
    if is_isomorphism_state(omega) is None:
        problems.append("purification is not an isomorphism state")
    return problems


def _verify_tensor(report: dict) -> list[str]:
    doc = report["inputs"]
    tf = theoryfile.loads(json.dumps(doc | {"format": theoryfile.FORMAT}))
    a = tf.space(report["flags"]["space_a"])
    b = tf.space(report["flags"]["space_b"])
    kind = report["flags"]["kind"]
    composite = (min_tensor if kind == "min" else max_tensor)(a, b)
    # Every field is re-derived, and compared as canonical JSON so that 24.0
    # or true cannot stand in for an integer.
    got = [report["verdicts"], report["certificates"]]
    if _canonical(got) != _canonical(list(_tensor_body(composite))):
        return ["recomputed tensor verdicts or certificates differ"]
    return []


def _verify_pure(report: dict) -> list[str]:
    _, omega = _state_from_inputs(report["inputs"])
    if report["verdicts"]["pure"]:
        if not is_pure_in_max(omega):
            return ["positive verdict, but the map is not extremal"]
        return []
    psi = _parse_mat(report["certificates"]["decomposition_part"])
    phi = omega.matrix
    if len(psi) != len(phi) or any(len(a) != len(b) for a, b in zip(psi, phi)):
        return ["witness part does not have the map's shape"]
    # A summand t*phi splits phi into multiples of itself, which every
    # extremal map allows; only a summand off phi's line refutes purity.
    if rank([[x for row in phi for x in row], [x for row in psi for x in row]]) < 2:
        return ["witness part is parallel to the map"]
    problems = []
    source = dual_cone(omega.space_a.cone)
    target = omega.space_b.cone
    rest = tuple(
        tuple(a - b for a, b in zip(row_phi, row_psi))
        for row_phi, row_psi in zip(phi, psi)
    )
    for r in source.rays:
        if not target.contains(mat_vec(psi, as_vector(r))):
            problems.append("witness part is not positive")
            break
        if not target.contains(mat_vec(rest, as_vector(r))):
            problems.append("witness complement is not positive")
            break
    return problems


def _verify_section(report: dict) -> list[str]:
    _, omega = _state_from_inputs(report["inputs"])
    if not report["verdicts"]["found"]:
        farkas = _parse_vec(report["certificates"]["farkas"])
        if not LPOutcome.infeasible(farkas).check(section_program(omega)[0]):
            return ["farkas certificate does not refute the section program"]
        return []
    cert = report["certificates"]["section"]
    section = AffineSection(
        _parse_mat(cert["base_points"]), _parse_mat(cert["images"])
    )
    problems = []
    if not section.verify(omega):
        problems.append("section fails verification against the state")
    if "alternate" in report["certificates"]:
        alt = report["certificates"]["alternate"]
        alternate = AffineSection(
            _parse_mat(alt["base_points"]), _parse_mat(alt["images"])
        )
        if not alternate.verify(omega):
            problems.append("alternate section fails verification")
        if alternate.images == section.images:
            problems.append("alternate section is not distinct")
    return problems


_VERIFIERS = {
    "check-steering": _verify_check_steering,
    "self-dual": _verify_self_dual,
    "homogeneous": _verify_homogeneous,
    "purify": _verify_purify,
    "tensor": _verify_tensor,
    "pure": _verify_pure,
    "section": _verify_section,
}


def cmd_verify(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TheoryFileError(f"line {exc.lineno}: {exc.msg}") from None
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
    body = {
        "command": report["command"],
        "flags": report["flags"],
        "inputs": report["inputs"],
    }
    problems = []
    if _digest(body) != report["digest"]:
        problems.append("digest does not match the embedded inputs")
    verifier = _VERIFIERS.get(report["command"])
    if verifier is None:
        raise TheoryFileError(f"no verifier for command {report['command']!r}")
    try:
        problems += verifier(report)
    except (KeyError, IndexError, TypeError, TheoryFileError) as exc:
        detail = str(exc) or type(exc).__name__
        problems.append(f"report body does not support its verdict: {detail}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"OK: {report['command']} report verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_check_steering)

    p = sub.add_parser("self-dual", help="search for a dual-to-cone order isomorphism")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_self_dual)

    p = sub.add_parser("homogeneous", help="decide interior transitivity of the automorphisms")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_homogeneous)

    p = sub.add_parser("purify", help="purify an interior state to an isomorphism state")
    p.add_argument("file")
    p.add_argument("space")
    p.add_argument("state", help="comma-separated rationals, e.g. 1/3,1/3,1/3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("tensor", help="compute a composite cone of two spaces")
    p.add_argument("file")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--kind", choices=["min", "max"], default="min")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("pure", help="decide purity of a state in the largest composite")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pure)

    p = sub.add_parser("section", help="search for an affine section of a state's map")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("verify", help="re-check the certificates in an emitted report")
    p.add_argument("report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="emit the built-in fixture library as a theory file")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TheoryFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
