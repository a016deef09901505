"""The section programs' rows, built on integers, against the Fraction-
product builders they replaced.

`steering._section_search_full` and the reduced program of
`steering.section_program` share one row writer, which scales each
functional and each vertex's affine coordinates to integers once and writes
every row as one integer row (A, b, s). The builders below are the earlier
ones, which multiply Fractions entry by entry; each pair must give equal
programs, row for row and in the same order, with each integer row read at
its rational value, on every fixture state and on the states the benchmark
draws. A state with a trivial kernel has one candidate section, which
section_program checks before writing any row.
"""

from fractions import Fraction
from typing import NamedTuple

from polysteer import fixtures, steering
from polysteer.composite import marginal_b
from polysteer.cone import face_of
from polysteer.ratlin import (
    as_vector,
    mat_transpose,
    mat_vec,
    nullspace,
    solve_linear,
    vec_dot,
)
from polysteer.steering import (
    AffineSection,
    _affine_basis,
    _section_search_full,
    order_interval_vertices,
    section_program,
)
from rational_rows import rational_rows, vec_sub


class FractionProgram(NamedTuple):
    """A program's rows as rational (lhs, rhs) pairs."""

    n_vars: int
    eq: list
    ge: list


def rational_view(program):
    """The program with each integer row (A, b, s) read as (A / s, b / s)."""
    return FractionProgram(program.n_vars, rational_rows(program.eq), rational_rows(program.ge))


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
    return FractionProgram(n, eq, ge)


def fraction_product_reduced_rows(omega, verts, basis):
    """The section program over kernel coefficients, as it was built, or
    None where it fell back to the program over the raw basis images."""
    space_a, space_b = omega.space_a, omega.space_b
    m = len(basis)
    frame = AffineSection(tuple(basis), ())
    particular = [solve_linear(omega.matrix, p) for p in basis]
    if None in particular:
        return None
    kernel = nullspace(omega.matrix, ncols=space_a.dim)
    kappa = len(kernel)
    n = m * kappa
    ge = []
    particular_cols = mat_transpose(particular)
    for y in verts:
        lam = frame.coordinates(y)
        base_pt = mat_vec(particular_cols, lam)
        for r in space_a.cone.rays:
            rv = as_vector(r)
            bound = vec_dot(space_a.unit, rv)
            const = vec_dot(base_pt, rv)
            low = [Fraction(0)] * n
            for i in range(m):
                for t in range(kappa):
                    low[i * kappa + t] = lam[i] * vec_dot(kernel[t], rv)
            ge.append((tuple(low), -const))
            ge.append((tuple(-x for x in low), const - bound))
    face = face_of(space_b.cone, marginal_b(omega).vector)
    diffs = mat_transpose([vec_sub(p, basis[0]) for p in basis[1:]])
    steps = mat_transpose([vec_sub(w, particular[0]) for w in particular[1:]])
    for fr in face.rays():
        coeff = solve_linear(diffs, fr)
        if coeff is None:
            continue
        step = mat_vec(steps, coeff)
        for r in space_a.cone.rays:
            rv = as_vector(r)
            const = vec_dot(step, rv)
            row = [Fraction(0)] * n
            for i in range(1, m):
                for t in range(kappa):
                    kr = coeff[i - 1] * vec_dot(kernel[t], rv)
                    row[i * kappa + t] += kr
                    row[0 * kappa + t] -= kr
            ge.append((tuple(row), -const))
    if kappa == 0:
        if any(rhs > 0 for _, rhs in ge):
            return None
        ge = []
    return FractionProgram(n, [], ge)


def fixture_states():
    lib = fixtures.fixture_library()
    return [lib.state(name) for name in lib.states]


def interval_basis(omega):
    verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
    return verts, [verts[i] for i in _affine_basis(verts)]


def assert_same_program(got, want):
    assert rational_view(got) == want


def test_integer_rows_equal_the_fraction_product_rows(criterion_8_states):
    states = fixture_states() + list(criterion_8_states)
    rows = 0
    for omega in states:
        verts, basis = interval_basis(omega)
        got, _ = _section_search_full(omega)
        assert_same_program(got, fraction_product_rows(omega, verts, basis))
        rows += got.row_count()
    assert len(states) == 28 and rows >= 1000, rows


def test_reduced_rows_equal_the_fraction_product_rows(criterion_8_states, monkeypatch):
    """section_program against the reduced reference, and against the full
    one exactly where the reference fell back: there, and only there, it
    calls _section_search_full."""
    full = steering._section_search_full
    calls = []
    monkeypatch.setattr(
        steering, "_section_search_full", lambda *args: calls.append(1) or full(*args)
    )
    fallbacks = []
    reduced_rows = 0
    for states in (fixture_states(), list(criterion_8_states)):
        count = 0
        for omega in states:
            verts, basis = interval_basis(omega)
            want = fraction_product_reduced_rows(omega, verts, basis)
            before = len(calls)
            got, _ = section_program(omega)
            assert (len(calls) > before) == (want is None)
            if want is None:
                count += 1
                want = fraction_product_rows(omega, verts, basis)
            else:
                reduced_rows += got.row_count()
            assert_same_program(got, want)
        fallbacks.append(count)
    # What steering.section_fallbacks counts on the benchmark: none of the
    # fixture states and 14 of the 20 states random_batch draws fall back.
    assert fallbacks == [0, 14], fallbacks
    assert reduced_rows >= 300, reduced_rows


def test_trivial_kernel_candidate_is_checked_before_any_row(
    criterion_8_states, monkeypatch
):
    """With a trivial kernel section_program checks its one candidate and
    writes no reduced row: it calls _section_rows zero times, whether the
    candidate holds (the empty program) or fails (the full program, stubbed
    out here so that its own rows are not counted)."""
    written = []
    rows = steering._section_rows
    monkeypatch.setattr(steering, "_section_rows", lambda *a: written.append(1) or rows(*a))
    full = object()
    monkeypatch.setattr(steering, "_section_search_full", lambda *a: (full, None))
    held = failed = 0
    for omega in fixture_states() + list(criterion_8_states):
        verts, basis = interval_basis(omega)
        if nullspace(omega.matrix, ncols=omega.space_a.dim) or any(
            solve_linear(omega.matrix, p) is None for p in basis
        ):
            continue
        program, decode = section_program(omega)
        assert not written
        if program is full:
            failed += 1
            assert fraction_product_reduced_rows(omega, verts, basis) is None
        else:
            held += 1
            assert (program.n_vars, program.row_count()) == (0, 0)
            assert decode(()).verify(omega)
    # Of the 28 states, 12 have a trivial kernel and a preimage for every
    # basis point; the 3 whose candidate fails are criterion-8 states.
    assert (held, failed) == (9, 3), (held, failed)
