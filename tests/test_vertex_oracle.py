"""The interior-point vertex enumeration against an LP-probe oracle.

`dd.polytope_vertices` certifies a polytope's affine hull from a point its
caller supplies. The oracle below finds the hull the older way, with exact
LPs: one base feasibility LP, one all-strict probe, and one strict probe per
row when the probe fails. Every enumeration polysteer runs (order intervals,
effect intervals and ensemble splittings) must agree with it vertex for
vertex, and must run no LP at all.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import polysteer.dd
import polysteer.space
import polysteer.steering
from polysteer import composite, fixtures
from polysteer.cone import face_of
from polysteer.dd import extreme_rays, int_dot
from polysteer.ratlin import (
    LinearProgram,
    integer_row,
    lp_feasible,
    nullspace,
    primitive,
    simplex,
    solve_linear,
    vec_dot,
)
from polysteer.space import effects_interval
from polysteer.steering import ensemble_polytope_vertices, order_interval_vertices
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


def oracle(ineqs, interior):
    """The oracle in place of `dd.polytope_vertices`: it ignores the point."""
    return lp_probe_vertices(ineqs, [], len(interior))


def criterion_8_marginals():
    """The B marginals of the states the benchmark draws from acceptance
    criterion 8's sequence, with their spaces."""
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
    states = module.criterion_8_states(prog, module.CORPUS_STATES)
    return [(omega.space_b, composite.marginal_b(omega).vector) for omega in states]


LIB = fixtures.fixture_library()
SPACES = [(name, LIB.space(name)) for name in LIB.spaces]
MARGINALS = criterion_8_marginals()


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
    edge midpoint give the lower-dimensional splitting polytopes."""
    for name, space in SPACES:
        for top in interval_tops(space):
            yield f"[0, {top}] in {name}", lambda c=space.cone, t=top: order_interval_vertices(c, t)
        yield f"effects of {name}", lambda s=space: effects_interval(s).vertices
    splits = [(f"marginal {i}", space, target) for i, (space, target) in enumerate(MARGINALS)]
    for name in ("simplex_3", "square_space"):
        space = LIB.space(name)
        splits += [(f"{top} in {name}", space, top) for top in interval_tops(space)[1:]]
    for label, space, target in splits:
        for k in (2, 3):
            yield (
                f"{k}-splittings of {label}",
                lambda s=space, t=target, k=k: ensemble_polytope_vertices(s, t, k),
            )


CASES = list(enumerations())


@pytest.fixture
def simplex_count(monkeypatch):
    """How many `_Simplex` tableaux are built while the test runs."""
    count = [0]

    class Counted(simplex._Simplex):
        def __init__(self, *args, **kwargs):
            count[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simplex, "_Simplex", Counted)
    return count


def test_vertex_enumeration_runs_no_lp(simplex_count):
    for _, run in CASES:
        run()
    assert simplex_count[0] == 0
    # The count is 0 because no LP ran, not because none is counted.
    oracle([((1,), 0), ((-1,), -1)], (Fraction(1, 2),))
    assert simplex_count[0] > 0


def test_vertex_enumeration_matches_the_lp_probe_oracle(monkeypatch):
    computed = [run() for _, run in CASES]
    monkeypatch.setattr(polysteer.steering, "polytope_vertices", oracle)
    monkeypatch.setattr(polysteer.space, "polytope_vertices", oracle)
    expected = [run() for _, run in CASES]
    mismatched = [label for (label, _), got, want in zip(CASES, computed, expected) if got != want]
    assert not mismatched, f"differs from the LP-probe oracle: {mismatched}"


def test_vertex_enumeration_masks_are_exact(monkeypatch):
    # Each homogenized DD run returns, for every vertex ray, exactly the
    # rows tight on it, recomputed here by integer dot products.
    runs = []

    def recorded(rows, dim):
        pairs = extreme_rays(rows, dim)
        runs.append((rows, pairs))
        return pairs

    monkeypatch.setattr(polysteer.dd, "extreme_rays", recorded)
    for _, run in CASES:
        run()
    assert len(runs) > 100
    for rows, pairs in runs:
        assert len(pairs) == len({r for r, _ in pairs})
        for ray, mask in pairs:
            assert mask == sum(1 << i for i, h in enumerate(rows) if int_dot(h, ray) == 0)
