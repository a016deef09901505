"""The homogenized vertex enumeration against an LP-probe oracle.

`dd.polytope_vertices` reads a polytope's vertices off the extreme rays of
its homogenization, implicit equalities and all. The oracle below finds the
affine hull first, with exact LPs: one base feasibility LP, one all-strict
probe, and one strict probe per row when the probe fails. Every enumeration
polysteer runs (order intervals, effect intervals, ensemble splittings and
the feasible section polytopes whose dimension `affine_section_search`
reports) must agree with it vertex for vertex, and must run no LP at all.
"""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import polysteer.dd
import polysteer.space
import polysteer.steering
from polysteer import composite, fixtures
from polysteer.cone import dual_cone, face_of
from polysteer.dd import extreme_rays, int_dot
from polysteer.ratlin import (
    LinearProgram,
    integer_row,
    lp_feasible,
    nullspace,
    primitive,
    solve_linear,
    vec_dot,
)
from polysteer.space import StateSpace, effects_interval
from polysteer.steering import (
    ensemble_polytope_vertices,
    order_interval_vertices,
    section_program,
)
from reference_dd import extreme_rays as third_ray_scan_extreme_rays
from strict_lp import strict_witness

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def lp_probe_vertices(ineqs, eqs, dim):
    """All vertices of the bounded polyhedron {x : g.x >= h, a.x = b}, its
    implicit equalities found by strict-LP probes."""
    ineqs = [(tuple(map(Fraction, g)), Fraction(h)) for g, h in ineqs]
    eqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in eqs]
    base = LinearProgram(
        dim, eq=[integer_row(*row) for row in eqs], ge=[integer_row(*row) for row in ineqs]
    )
    if lp_feasible(base).status != "feasible":
        return []

    implicit: list[int] = []
    probe = strict_witness(dim, eq=eqs, gt=ineqs)
    if probe is not None:
        witnesses = [probe]
    else:
        witnesses = []
        for i, (g, h) in enumerate(ineqs):
            if any(vec_dot(g, w) > h for w in witnesses):
                continue
            others = ineqs[:i] + ineqs[i + 1 :]
            res = strict_witness(dim, eq=eqs, ge=others, gt=[(g, h)])
            if res is not None:
                witnesses.append(res)
            else:
                implicit.append(i)

    hull_rows = [lhs for lhs, _ in eqs] + [ineqs[i][0] for i in implicit]
    hull_rhs = [rhs for _, rhs in eqs] + [ineqs[i][1] for i in implicit]
    if hull_rows:
        x0 = solve_linear(hull_rows, hull_rhs)
        basis = nullspace(hull_rows)
    else:
        x0 = (Fraction(0),) * dim
        basis = [tuple(Fraction(int(j == i)) for j in range(dim)) for i in range(dim)]
    q = len(basis)
    if q == 0:
        return [x0]

    hom_rows = []
    for i, (g, h) in enumerate(ineqs):
        if i in implicit:
            continue
        row = tuple(vec_dot(g, n) for n in basis) + (vec_dot(g, x0) - h,)
        if any(row):
            hom_rows.append(primitive(row))
    hom_rows.append((0,) * q + (1,))

    vertices = []
    for r, _ in extreme_rays(hom_rows, q + 1):
        assert r[q] > 0, "the oracle only meets polytopes"
        z = [Fraction(c, r[q]) for c in r[:q]]
        vertices.append(
            tuple(x0[k] + sum(z[i] * basis[i][k] for i in range(q)) for k in range(dim))
        )
    return sorted(set(vertices))


def oracle(ineqs, dim):
    """The oracle in place of `dd.polytope_vertices`."""
    return lp_probe_vertices(ineqs, [], dim)


def oracle_rows(rows, dim, *, in_order=False):
    """The oracle in place of `dd._vertex_rows`, the integer core the
    splitting polytopes and the order and effect intervals call: the rows
    are (G, -H) for G.x >= H, and the vertices come back as integer rows
    over their common scale."""
    verts = oracle([(r[:dim], -r[dim]) for r in rows], dim)
    scale = math.lcm(*(x.denominator for v in verts for x in v))
    return [tuple(int(x * scale) for x in v) for v in verts], scale


def criterion_8_states():
    """The states the benchmark draws from acceptance criterion 8's sequence."""
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
    prog = SimpleNamespace(composite=composite, fixtures=fixtures, space=polysteer.space)
    return module.criterion_8_states(prog, module.CORPUS_STATES)


LIB = fixtures.fixture_library()
SPACES = [(name, LIB.space(name)) for name in LIB.spaces]
STATES = [(name, LIB.states[name]) for name in LIB.states] + [
    (f"criterion-8 state {i}", omega) for i, omega in enumerate(criterion_8_states())
]


def interval_tops(space):
    """Zero, the rays, the midpoints of edges and two interior points."""
    rays = space.cone.rays
    tops = [(0,) * space.dim, *rays]
    for i, a in enumerate(rays):
        for b in rays[i + 1 :]:
            mid = tuple(Fraction(x + y, 2) for x, y in zip(a, b))
            if len(face_of(space.cone, mid).ray_indices) == 2:
                tops.append(mid)
    tops.append(tuple(map(sum, zip(*rays))))
    tops.append(
        tuple(sum(Fraction(j + 1, 3) * r[c] for j, r in enumerate(rays)) for c in range(space.dim))
    )
    return tops


def enumerations():
    """Every enumeration the oracle is compared on, as (label, thunk).

    The criterion-8 marginals are interior; splittings of a ray and of an
    edge midpoint give the lower-dimensional splitting polytopes. A section
    polytope is enumerated from its program's ge rows and each eq row as a
    pair of opposite rows, as `steering._polytope_dimension` does."""
    for name, space in SPACES:
        for top in interval_tops(space):
            yield f"[0, {top}] in {name}", lambda c=space.cone, t=top: order_interval_vertices(c, t)
        # A space keeps the effect vertices it enumerated, so each run reads
        # them off a fresh copy of the space.
        yield f"effects of {name}", lambda s=space: effects_interval(
            StateSpace(s.cone, s.unit)
        ).vertices
    splits = [
        (f"marginal of {name}", omega.space_b, composite.marginal_b(omega).vector)
        for name, omega in STATES[len(LIB.states):]
    ]
    for name in ("simplex_3", "square_space"):
        space = LIB.space(name)
        splits += [(f"{top} in {name}", space, top) for top in interval_tops(space)[1:]]
    for label, space, target in splits:
        for k in (2, 3):
            yield (
                f"{k}-splittings of {label}",
                lambda s=space, t=target, k=k: ensemble_polytope_vertices(s, t, k),
            )
    for name, omega in STATES:
        program, _ = section_program(omega)
        if lp_feasible(program).status != "feasible":
            continue
        rows = [(a, b) for a, b, _ in program.ge]
        rows += [r for a, b, _ in program.eq for r in ((a, b), (tuple(-x for x in a), -b))]
        yield (
            f"section polytope of {name}",
            lambda r=rows, n=program.n_vars: polysteer.steering.polytope_vertices(r, n),
        )


CASES = list(enumerations())
# Every order interval among the cases, as (label, cone, top): the effects
# of a space are [0, unit] in its dual cone.
INTERVALS = [
    case
    for name, space in SPACES
    for case in [
        *((f"[0, {top}] in {name}", space.cone, top) for top in interval_tops(space)),
        (f"effects of {name}", dual_cone(space.cone), space.unit),
    ]
]


def interval_oracle(cone, top):
    """The oracle on [0, top]'s own rows g.y >= 0 and -g.y >= -g.top, not
    on the integer rows order_interval_vertices scales top to."""
    rows = [r for g in cone.facets for r in ((g, 0), (tuple(-c for c in g), -vec_dot(g, top)))]
    return oracle(rows, len(top))


def test_vertex_enumeration_runs_no_lp(simplex_count):
    for _, run in CASES:
        run()
    assert simplex_count[0] == 0
    # The count is 0 because no LP ran, not because none is counted.
    oracle([((1,), 0), ((-1,), -1)], 1)
    assert simplex_count[0] > 0


def test_vertex_enumeration_matches_the_lp_probe_oracle(monkeypatch):
    computed = [run() for _, run in CASES]
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return oracle_rows(*a, **kw)

    monkeypatch.setattr(polysteer.steering, "polytope_vertices", oracle)
    monkeypatch.setattr(polysteer.space, "_vertex_rows", counted)
    expected, unseen = [], []
    for label, run in CASES:
        before = len(calls)
        expected.append(run())
        if "section polytope" not in label and len(calls) == before:
            unseen.append(label)
    # The splitting polytopes and the order and effect intervals reach
    # double description through the integer core: each of them must have
    # gone to the oracle, not to the core.
    assert sum("splittings" in label for label, _ in CASES) > 50
    assert sum(label.startswith(("[0, ", "effects of")) for label, _ in CASES) > 100
    assert not unseen, f"enumerated without the oracle: {unseen}"
    mismatched = [label for (label, _), got, want in zip(CASES, computed, expected) if got != want]
    assert not mismatched, f"differs from the LP-probe oracle: {mismatched}"
    # The oracle above replaced the core under the intervals' integer rows;
    # on each interval's own rows it checks the scaling of top as well.
    got = dict(zip((label for label, _ in CASES), computed))
    assert len(INTERVALS) > 100 and all(label in got for label, _, _ in INTERVALS)
    scaled = [label for label, c, top in INTERVALS if list(got[label]) != interval_oracle(c, top)]
    assert not scaled, f"differs from the LP-probe oracle on its own rows: {scaled}"


@pytest.fixture
def homogenized_runs(monkeypatch):
    """Every homogenized DD run of the enumerations, as (rows, dim, pairs)."""
    runs = []

    def recorded(rows, dim, *, in_order=False):
        pairs = extreme_rays(rows, dim, in_order=in_order)
        runs.append((rows, dim, pairs))
        return pairs

    monkeypatch.setattr(polysteer.dd, "extreme_rays", recorded)
    for _, run in CASES:
        run()
    assert len(runs) > 100
    return runs


def test_vertex_enumeration_masks_are_exact(homogenized_runs):
    # Each homogenized DD run returns, for every vertex ray, exactly the
    # rows tight on it, recomputed here by integer dot products.
    for rows, _, pairs in homogenized_runs:
        assert len(pairs) == len({r for r, _ in pairs})
        for ray, mask in pairs:
            assert mask == sum(1 << i for i, h in enumerate(rows) if int_dot(h, ray) == 0)


def test_vertex_enumeration_matches_the_third_ray_scan(homogenized_runs):
    for rows, dim, pairs in homogenized_runs:
        assert pairs == third_ray_scan_extreme_rays(rows, dim)
