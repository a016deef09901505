"""The benchmark's workloads: seeded op lists, certificate checks, digests.

Every workload is a fixed multiset of operations ("ops") over the program's
public functions. The seed fixes the order in which one pass runs them, so
every seed does the same work and a run of whole passes weighs every op
equally; see README.md for why the inputs themselves do not vary by seed.

An op runs one call into the program and returns its result. Its check runs
the program's own certificate checkers on that result (the time it takes is
the workload's checker time), and its digest canonicalises the verdict and
certificate so it can be compared with the reference stored at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("random_batch", "tensor_dd", "cli_roundtrip")

# Module short names, in dependency order; one tracing layer each.
PROGRAM_MODULES = (
    "_kernel",
    "ratlin",
    "dd",
    "cone",
    "space",
    "composite",
    "steering",
    "theoryfile",
    "fixtures",
    "cli",
)

# random_batch draws the first CORPUS_STATES states of acceptance criterion
# 8's own sequence: 40 distinct ops, in a pass of 15 to 20 s on one core of
# a 2.1 GHz Xeon.
CRITERION_8_SEED = 20260814
CORPUS_STATES = 20

# Pairs whose tensors finish within 60 s at the benchmark's first commit.
# square (x) hexagon, pentagon (x) hexagon and pentagon^2 do not.
TENSOR_PAIRS = (
    ("square_space", "square_space"),
    ("square_space", "pentagon_space"),
    ("simplex_3", "cube_space"),
    ("square_space", "cube_space"),
)


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]
    # A verify op is itself a checker: its whole latency is checker time.
    is_verify: bool = False
    # The result is (exit code, report text) of a CLI command.
    reports: bool = False


def import_program():
    """Import polysteer afresh and return its modules by short name.

    Dropping the cached modules first makes every call pay the full import,
    so set-up can be timed more than once in one process.
    """
    for name in [n for n in sys.modules if n == "polysteer" or n.startswith("polysteer.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"polysteer.{m}") for m in PROGRAM_MODULES}
    )


def _canon(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    return x


def digest(payload) -> str:
    text = json.dumps(_canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(prog, workload: str, seed: int, workdir: str) -> list[Op]:
    """The ops of one pass of `workload`, in the order `seed` gives them."""
    builders = {
        "random_batch": _random_batch,
        "tensor_dd": _tensor_dd,
        "cli_roundtrip": _cli_roundtrip,
    }
    return builders[workload](prog, random.Random(seed), workdir)


# --- random_batch -------------------------------------------------------


def criterion_8_states(prog, count: int):
    """The first `count` states of acceptance criterion 8's random sequence.

    Mirrors the generator in tests/test_acceptance.py: product mixtures over
    simplex_2, simplex_3 and square_space, with every fourth draw an order
    isomorphism state.
    """
    F = Fraction
    BipartiteState = prog.composite.BipartiteState
    lib = prog.fixtures.fixture_library()
    rng = random.Random(CRITERION_8_SEED)
    bit, trit, square = (lib.space(n) for n in ("simplex_2", "simplex_3", "square_space"))
    spaces = [bit, trit, square]
    automorphisms = [w.matrix for w in prog.space.order_isomorphisms(square.cone, square.cone)]
    wsd = prog.space.is_weakly_self_dual(square).matrix

    def product_state(space_a, space_b):
        terms = []
        for _ in range(rng.randint(1, 3)):
            alpha = [F(0)] * space_a.dim
            for r in space_a.cone.rays:
                c = F(rng.randint(1, 4))
                alpha = [a + c * x for a, x in zip(alpha, r)]
            beta = [F(0)] * space_b.dim
            for r in space_b.cone.rays:
                c = F(rng.randint(1, 4))
                beta = [b + c * x for b, x in zip(beta, r)]
            terms.append((F(1, rng.randint(1, 3)), tuple(alpha), tuple(beta)))
        return BipartiteState.from_products(space_a, space_b, terms)

    def monomial_state(space):
        n = space.dim
        perm = list(range(n))
        rng.shuffle(perm)
        matrix = tuple(
            tuple(F(rng.randint(1, 5)) if perm[j] == i else F(0) for i in range(n))
            for j in range(n)
        )
        return BipartiteState(space, space, matrix)

    def square_iso_state():
        aut = rng.choice(automorphisms)
        matrix = tuple(
            tuple(sum(aut[j][k] * wsd[k][i] for k in range(3)) for i in range(3))
            for j in range(3)
        )
        return BipartiteState(square, square, matrix)

    states = []
    for i in range(count):
        if i % 4 == 3:
            space = spaces[i % len(spaces)]
            states.append(square_iso_state() if space is square else monomial_state(space))
        else:
            states.append(product_state(rng.choice(spaces), rng.choice(spaces)))
    return states


def steering_payload(v) -> dict:
    return {
        "status": v.status,
        "depth": v.depth,
        "lifted": [
            [le.ensemble.parts, [e.functional for e in le.observable.effects]]
            for le in v.lifted
        ],
        "counterexample": v.counterexample.parts if v.counterexample else None,
        "farkas": v.farkas,
    }


def section_payload(s) -> dict:
    def sec(x):
        return None if x is None else [x.base_points, x.images]

    return {
        "found": bool(s),
        "dimension": s.dimension,
        "section": sec(s.section),
        "alternate": sec(s.alternate),
        "farkas": s.farkas,
    }


def _check_steering(prog, omega, v) -> list:
    target = prog.composite.marginal_b(omega).vector
    if v.status == "not_steering":
        e = v.counterexample
        lp = prog.steering.ensemble_lift_program(omega, e)
        problems = [] if e.is_for(target) else ["counterexample does not sum to the marginal"]
        if not prog.ratlin.LPOutcome.infeasible(v.farkas).check(lp):
            problems.append("farkas vector does not refute the lift program")
        return problems
    if v.status != "steering_up_to":
        return [f"unexpected steering status {v.status!r}"]
    interval = prog.space.effects_interval(omega.space_a)
    problems = []
    for idx, le in enumerate(v.lifted):
        effects = [e.functional for e in le.observable.effects]
        if not le.ensemble.is_for(target):
            problems.append(f"lifted[{idx}]: ensemble does not sum to the marginal")
        if not all(interval.contains(f) for f in effects):
            problems.append(f"lifted[{idx}]: effect outside [0, u]")
        if tuple(omega.apply(f) for f in effects) != tuple(le.ensemble.parts):
            problems.append(f"lifted[{idx}]: effects do not map onto the parts")
        if tuple(sum(col) for col in zip(*effects)) != tuple(omega.space_a.unit):
            problems.append(f"lifted[{idx}]: effects do not sum to the unit")
    return problems


def _check_section(omega, s) -> list:
    # A negative verdict's Farkas vector refers to a program the library
    # does not expose, so only its reference digest checks it.
    if not s:
        return []
    problems = [] if s.section.verify(omega) else ["section fails verification"]
    if s.alternate is not None:
        if not s.alternate.verify(omega):
            problems.append("alternate section fails verification")
        if s.alternate.images == s.section.images:
            problems.append("alternate section is not distinct")
    return problems


def _random_batch(prog, rng, workdir) -> list[Op]:
    ops = []
    for i, omega in enumerate(criterion_8_states(prog, CORPUS_STATES)):
        ops.append(
            Op(
                f"state{i:02d}/decide_steering",
                lambda omega=omega: prog.steering.decide_steering(omega, depth=2),
                lambda v, omega=omega: _check_steering(prog, omega, v),
                lambda v: digest(steering_payload(v)),
            )
        )
        ops.append(
            Op(
                f"state{i:02d}/affine_section_search",
                lambda omega=omega: prog.steering.affine_section_search(omega),
                lambda s, omega=omega: _check_section(omega, s),
                lambda s: digest(section_payload(s)),
            )
        )
    rng.shuffle(ops)
    return ops


# --- tensor_dd ----------------------------------------------------------


def tensor_payload(t) -> dict:
    return {"kind": t.kind, "rays": t.cone.rays, "facets": t.cone.facets, "unit": t.unit}


def _check_tensor(prog, a, b, t) -> list:
    kron = prog.composite.kron_vec
    problems = []
    if not all(t.cone.contains(kron(ra, rb)) for ra in a.cone.rays for rb in b.cone.rays):
        problems.append("a product state lies outside the composite")
    dual = prog.cone.dual_cone(t.cone)
    if not all(dual.contains(kron(fa, fb)) for fa in a.cone.facets for fb in b.cone.facets):
        problems.append("a product effect is negative on the composite")
    if tuple(t.unit) != tuple(kron(a.unit, b.unit)):
        problems.append("unit is not the product of the factor units")
    return problems


def _tensor_dd(prog, rng, workdir) -> list[Op]:
    lib = prog.fixtures.fixture_library()
    ops = []
    for name_a, name_b in TENSOR_PAIRS:
        a, b = lib.space(name_a), lib.space(name_b)
        for kind in ("min", "max"):
            # Looked up at call time, so a traced run sees the wrapper.
            ops.append(
                Op(
                    f"{kind}_tensor/{name_a}/{name_b}",
                    lambda kind=kind, a=a, b=b: getattr(prog.composite, f"{kind}_tensor")(a, b),
                    lambda t, a=a, b=b: _check_tensor(prog, a, b, t),
                    lambda t: digest(tensor_payload(t)),
                )
            )
    rng.shuffle(ops)
    return ops


# --- cli_roundtrip ------------------------------------------------------


def fixture_commands(lib) -> list[list[str]]:
    """Every fixture command: one argv per state and space, plus a tensor."""
    commands = []
    for state in lib.states:
        commands.append(["check-steering", state, "--depth", "3"])
        commands.append(["section", state])
        commands.append(["pure", state])
    for space in lib.spaces:
        commands.append(["self-dual", space])
        commands.append(["homogeneous", space])
    commands.append(["tensor", "square_space", "square_space", "--kind", "max"])
    return commands


def _call_cli(prog, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _report_payload(result) -> dict:
    code, text = result
    report = json.loads(text)
    report.pop("wall_time_ms", None)
    return {"exit": code, "report": report}


def _check_verify(result) -> list:
    code, text = result
    if code != 0 or not text.startswith("OK"):
        return [f"verify exited {code}: {text.strip()}"]
    return []


def _cli_roundtrip(prog, rng, workdir) -> list[Op]:
    lib = prog.fixtures.fixture_library()
    theory = os.path.join(workdir, "fixtures.json")
    prog.theoryfile.dump(lib, theory)
    pairs = []
    for argv in fixture_commands(lib):
        key = "/".join(a for a in argv if not a.startswith("--"))
        report = os.path.join(workdir, key.replace("/", "_") + ".json")
        full = [argv[0], theory, *argv[1:], "--json"]

        def command(full=full, report=report):
            code, text = _call_cli(prog, full)
            with open(report, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code, text

        pairs.append(
            (
                Op(key, command, lambda r: [], lambda r: digest(_report_payload(r)), reports=True),
                Op(
                    "verify/" + key,
                    lambda report=report: _call_cli(prog, ["verify", report]),
                    _check_verify,
                    lambda r: digest(list(r)),
                    is_verify=True,
                ),
            )
        )
    # A random order in which each report is verified after it is written.
    ready = [cmd for cmd, _ in pairs]
    follow = {id(cmd): ver for cmd, ver in pairs}
    ops = []
    while ready:
        op = ready.pop(rng.randrange(len(ready)))
        ops.append(op)
        if id(op) in follow:
            ready.append(follow.pop(id(op)))
    return ops
