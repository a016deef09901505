"""Every LP builder's integer rows against the Fraction-row builder it
replaced.

The builders below write each row as Fractions, as the program builders of
`steering` and `composite` did before every LP row became one integer row
(A, b, s). Each converted builder's rows, read at their rational values
(A / s, b / s), must equal the reference's, row for row and in the same
order: the section rows of the 8 fixture states and the first 100 states of
acceptance criterion 8, the lift programs of every depth-2 ensemble of those
states, and the decomposition programs of the fixture `pure` commands. Their
units are integer, so the fixture states are also rescaled to fractional
units and matrices.
"""

from fractions import Fraction
from operator import mul

import pytest

from polysteer import fixtures, steering
from polysteer.composite import BipartiteState, decomposition_program, dual_cone, marginal_b
from polysteer.cone import face_of
from polysteer.ratlin import (
    as_vector,
    vec_scale,
    integral_with_scale,
    mat_vec,
    vec_dot,
    vec_sub,
    vec_zero,
)
from polysteer.space import StateSpace
from polysteer.steering import (
    AffineSection,
    _affine_basis,
    _section_search_full,
    ensemble_lift_program,
    extremal_ensembles,
    order_interval_vertices,
    section_program,
)
from rational_rows import rational_rows

_ZERO = Fraction(0)


def fraction_weighted_rows(weights, functionals):
    """steering._weighted_rows as it wrote Fractions: each entry one reduced
    Fraction(L_i * F_c, s * t), and the constant sum_i L_i C_i / (s u)."""
    lam, s = weights
    out = []
    for (f, t), (c, u) in functionals:
        width = len(f)
        row = [_ZERO] * (len(lam) * width)
        st = s * t
        for i, li in enumerate(lam):
            if li:
                for col, fc in enumerate(f, i * width):
                    if fc:
                        row[col] = Fraction(li * fc, st)
        out.append((tuple(row), Fraction(sum(map(mul, lam, c)), s * u)))
    return out


def fraction_section_rows(omega, verts, basis, rays, values=()):
    """steering._section_rows as it wrote Fraction rows."""
    space_a = omega.space_a
    frame = AffineSection(tuple(basis), ())
    bounds = [vec_dot(space_a.unit, as_vector(r)) for r in space_a.cone.rays]
    eq, ge = [], []
    for y in verts:
        lam = integral_with_scale(frame.coordinates(y))
        for (row, const), yj in zip(fraction_weighted_rows(lam, values), y):
            eq.append((row, yj - const))
        for (row, const), bound in zip(fraction_weighted_rows(lam, rays), bounds):
            ge.append((row, -const))
            ge.append((tuple(-x for x in row), const - bound))
    target = marginal_b(omega).vector
    origin = frame.coordinates(vec_zero(len(target)))
    for fr in face_of(omega.space_b.cone, target).rays():
        weights = integral_with_scale(vec_sub(frame.coordinates(fr), origin))
        ge += [(row, -const) for row, const in fraction_weighted_rows(weights, rays)]
    return eq, ge


def fraction_lift_rows(omega, e):
    """steering.ensemble_lift_program's (eq, ge) as it wrote Fraction rows."""
    space_a = omega.space_a
    da, db = space_a.dim, omega.space_b.dim
    k = len(e.parts)
    n = k * da
    ge = []
    for i in range(k):
        for r in space_a.cone.rays:
            row = [Fraction(0)] * n
            for c in range(da):
                row[i * da + c] = Fraction(r[c])
            ge.append((tuple(row), Fraction(0)))
    eq = []
    for c in range(da):
        row = [Fraction(0)] * n
        for i in range(k):
            row[i * da + c] = Fraction(1)
        eq.append((tuple(row), Fraction(space_a.unit[c])))
    for i, part in enumerate(e.parts):
        for j in range(db):
            row = [Fraction(0)] * n
            for c in range(da):
                row[i * da + c] = omega.matrix[j][c]
            eq.append((tuple(row), part[j]))
    return eq, ge


def fraction_decomposition_rows(phi, source, target):
    """composite.decomposition_program's ge rows as it wrote Fraction rows."""
    dt, ds = len(phi), len(phi[0])
    ge = []
    for r in source.rays:
        image = mat_vec(phi, as_vector(r))
        for g in target.facets:
            row = tuple(Fraction(g[j] * r[i]) for j in range(dt) for i in range(ds))
            ge += [(row, Fraction(0)), (tuple(-c for c in row), -vec_dot(as_vector(g), image))]
    return ge


@pytest.fixture(scope="module")
def states(criterion_8_sequence):
    lib = fixtures.fixture_library()
    return [lib.state(name) for name in lib.states] + list(criterion_8_sequence(100))


def test_section_rows_read_as_the_fraction_rows(states, monkeypatch):
    """Every _section_rows call of section_program and of _section_search_full,
    on the functionals they pass it, against the reference writer."""
    rows = steering._section_rows
    calls = []

    def compared(*args):
        eq, ge = rows(*args)
        assert (rational_rows(eq), rational_rows(ge)) == fraction_section_rows(*args)
        calls.append(len(eq) + len(ge))
        return eq, ge

    monkeypatch.setattr(steering, "_section_rows", compared)
    for omega in states:
        section_program(omega)
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        _section_search_full(omega, verts, _affine_basis(verts))
    assert (len(states), len(calls), sum(calls)) == (108, 187, 13935), (len(calls), sum(calls))


def test_lift_rows_read_as_the_fraction_rows(states):
    programs = 0
    for omega in states:
        target = marginal_b(omega).vector
        for _, e in extremal_ensembles(omega.space_b, target, 2):
            lp = ensemble_lift_program(omega, e)
            assert (rational_rows(lp.eq), rational_rows(lp.ge)) == fraction_lift_rows(omega, e)
            programs += 1
    assert programs == 377, programs


def test_decomposition_rows_read_as_the_fraction_rows():
    lib = fixtures.fixture_library()
    rows = 0
    for name in lib.states:
        omega = lib.state(name)
        source, target = dual_cone(omega.space_a.cone), omega.space_b.cone
        lp = decomposition_program(omega.matrix, source, target)
        assert not lp.eq
        assert rational_rows(lp.ge) == fraction_decomposition_rows(omega.matrix, source, target)
        rows += len(lp.ge)
    assert rows == 214, rows


def test_fractional_units_and_matrices_read_as_the_fraction_rows(monkeypatch):
    """The fixture states with the A unit scaled by 2/3 and the matrix by
    3/7, so that units, bounds, matrix rows and parts all have denominators:
    every builder against its reference."""
    compared = []
    rows = steering._section_rows

    def checked(*args):
        eq, ge = rows(*args)
        assert (rational_rows(eq), rational_rows(ge)) == fraction_section_rows(*args)
        compared.append("section")
        return eq, ge

    monkeypatch.setattr(steering, "_section_rows", checked)
    lib = fixtures.fixture_library()
    for name in lib.states:
        base = lib.state(name)
        space_a = StateSpace(base.space_a.cone, vec_scale(Fraction(2, 3), base.space_a.unit))
        matrix = [vec_scale(Fraction(3, 7), row) for row in base.matrix]
        omega = BipartiteState(space_a, base.space_b, matrix)
        section_program(omega)
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        _section_search_full(omega, verts, _affine_basis(verts))
        for _, e in extremal_ensembles(omega.space_b, marginal_b(omega).vector, 2):
            lp = ensemble_lift_program(omega, e)
            assert (rational_rows(lp.eq), rational_rows(lp.ge)) == fraction_lift_rows(omega, e)
            compared.append("lift")
        source, target = dual_cone(space_a.cone), omega.space_b.cone
        lp = decomposition_program(omega.matrix, source, target)
        assert rational_rows(lp.ge) == fraction_decomposition_rows(omega.matrix, source, target)
    assert (compared.count("section"), compared.count("lift")) == (12, 21), compared
