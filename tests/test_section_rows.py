"""The section program's rows, built on integers, against the Fraction-
product builder they replaced.

`steering._section_search_full` scales each row of the state's matrix and
each vertex's affine coordinates to integers once and writes every entry as
one reduced Fraction. The builder below is the earlier one, which multiplies
Fractions entry by entry; both must give equal programs, row for row and in
the same order, on every fixture state and on the states the benchmark draws.
"""

from fractions import Fraction

from polysteer import fixtures
from polysteer.composite import marginal_b
from polysteer.cone import face_of
from polysteer.ratlin import (
    LinearProgram,
    as_vector,
    mat_transpose,
    solve_linear,
    vec_dot,
    vec_sub,
)
from polysteer.steering import (
    AffineSection,
    _affine_basis,
    _section_search_full,
    order_interval_vertices,
)


def fraction_product_rows(omega, verts, basis):
    """The section program over the raw basis images, as it was built."""
    space_a, space_b = omega.space_a, omega.space_b
    da = space_a.dim
    m = len(basis)
    n = m * da
    frame = AffineSection(tuple(basis), ())
    eq, ge = [], []
    for y in verts:
        lam = frame.coordinates(y)
        for j in range(space_b.dim):
            row = [Fraction(0)] * n
            for i in range(m):
                for c in range(da):
                    row[i * da + c] = lam[i] * omega.matrix[j][c]
            eq.append((tuple(row), Fraction(y[j])))
        for r in space_a.cone.rays:
            rv = as_vector(r)
            bound = vec_dot(space_a.unit, rv)
            low = [Fraction(0)] * n
            for i in range(m):
                for c in range(da):
                    low[i * da + c] = lam[i] * rv[c]
            ge.append((tuple(low), Fraction(0)))
            ge.append((tuple(-x for x in low), -bound))
    face = face_of(space_b.cone, marginal_b(omega).vector)
    diffs = mat_transpose([vec_sub(p, basis[0]) for p in basis[1:]])
    for fr in face.rays():
        coeff = solve_linear(diffs, fr)
        if coeff is None:
            continue
        for r in space_a.cone.rays:
            rv = as_vector(r)
            row = [Fraction(0)] * n
            for i in range(1, m):
                for c in range(da):
                    row[i * da + c] += coeff[i - 1] * rv[c]
                    row[0 * da + c] -= coeff[i - 1] * rv[c]
            ge.append((tuple(row), Fraction(0)))
    return LinearProgram(n, eq=eq, ge=ge)


def test_integer_rows_equal_the_fraction_product_rows(criterion_8_states):
    lib = fixtures.fixture_library()
    states = [lib.state(name) for name in lib.states] + list(criterion_8_states)
    rows = 0
    for omega in states:
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        basis = _affine_basis(verts)
        got, _ = _section_search_full(omega, verts, basis)
        want = fraction_product_rows(omega, verts, basis)
        assert (got.n_vars, got.eq, got.ge, got.gt) == (want.n_vars, want.eq, want.ge, want.gt)
        assert all(type(x) is Fraction for lhs, _ in got.eq + got.ge for x in lhs)
        rows += got.row_count()
    assert len(states) == 28 and rows >= 1000, rows
