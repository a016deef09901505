"""Exact linear algebra and LP kernel tests.

Randomized checks compare against independent oracles implemented here with
cofactor determinants and exhaustive vertex enumeration, never against the
code paths under test. The integer simplex and certificate check are also
pinned to the Fraction-built versions they replaced, kept here as references
that read each integer row (A, b, s) at its rational value (A / s, b / s).
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
import math
import random
import sys

import pytest

from polysteer._kernel import Tableau
from polysteer.composite import marginal_b, max_tensor
from polysteer.fixtures import fixture_library
from polysteer.ratlin import gauss, simplex
from polysteer.ratlin import (
    IntegerSolver,
    LinearProgram,
    LPOutcome,
    as_matrix,
    as_vector,
    format_rational,
    independent_rows,
    int_mat_vec,
    integer_row,
    integer_rows,
    integral,
    integral_with_scale,
    invert,
    is_rational_literal,
    literal_row,
    lp_feasible,
    lp_optimize,
    mat_identity,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    vec_dot,
)
from polysteer.steering import ensemble_lift_program, extremal_ensembles, section_program
from polysteer.theoryfile import parse_vector
from rational_rows import mat_mul, rational_rows

F = Fraction


def rational_program(n, eq=(), ge=(), objective=None):
    """The program of rational (lhs, rhs) rows, each written as its integer row."""
    return LinearProgram(
        n,
        eq=[integer_row(*row) for row in eq],
        ge=[integer_row(*row) for row in ge],
        objective=objective,
    )


# --- independent oracles -------------------------------------------------


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return F(1)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * det_cofactor(minor)
    return total


def rank_by_minors(m):
    rows, cols = len(m), len(m[0]) if m else 0
    for r in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), r):
            for ci in combinations(range(cols), r):
                sub = [[m[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    return r
    return 0


def cramer_solve(a, b):
    d = det_cofactor(a)
    if d == 0:
        return None
    n = len(a)
    out = []
    for j in range(n):
        aj = [row[:j] + [b[i]] + row[j + 1 :] for i, row in enumerate(a)]
        out.append(det_cofactor(aj) / d)
    return out


def brute_force_optimal(lp):
    """Max over all vertices (bounded pointed programs only)."""
    eqs, ges = rational_rows(lp.eq), rational_rows(lp.ge)
    rows = eqs + ges
    eq_idx = set(range(len(eqs)))
    best = None
    for subset in combinations(range(len(rows)), lp.n_vars):
        if not eq_idx.issubset(subset) and eq_idx - set(subset):
            continue
        a = [list(rows[i][0]) for i in subset]
        b = [rows[i][1] for i in subset]
        x = cramer_solve(a, b)
        if x is None:
            continue
        if all(vec_dot(lhs, x) == rhs for lhs, rhs in eqs) and all(
            vec_dot(lhs, x) >= rhs for lhs, rhs in ges
        ):
            val = vec_dot(lp.objective, x)
            if best is None or val > best:
                best = val
    return best


# --- rationals -----------------------------------------------------------


def literal_value(text):
    """One literal as a Fraction, read as a theory file reads it: checked
    by is_rational_literal, then read by literal_row."""
    assert is_rational_literal(text)
    (num,), den = literal_row([text])
    return F(num, den)


def test_literals_accept_canonical_forms():
    assert literal_value("3/4") == F(3, 4)
    assert literal_value("-7") == F(-7)
    assert literal_value("+2/3") == F(2, 3)
    assert literal_value("0") == 0


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "1/-2", "1/0", "", "a/b", "2 / 3", "--1", "1_000", "\u0663"]
)
def test_literals_reject_noncanonical(bad):
    assert not is_rational_literal(bad)
    with pytest.raises(ValueError, match="not a rational"):
        parse_vector([bad], "row")


def test_a_literal_part_may_have_as_many_digits_as_int_reads(int_digit_limit):
    """A numerator or denominator is read up to the interpreter's limit on
    the digits of an integer string, sign not counted, and refused past it
    by the pattern check and the theory-file reader alike, with the limit
    named."""
    at, over = "7" * int_digit_limit, "7" * (int_digit_limit + 1)
    for text in (at, f"-{at}", f" +{at}/{at} ", f"1/{at}", "0" * int_digit_limit):
        num, _, den = text.strip().partition("/")
        assert literal_value(text) == F(int(num), int(den or 1))
    for text in (over, f"-{over}", f"{at}/{over}", f"{over}/3", "0" * (int_digit_limit + 1)):
        assert not is_rational_literal(text)
        with pytest.raises(ValueError, match=f"exceeds the {int_digit_limit}-digit limit"):
            parse_vector([text], "row")


def test_a_literal_part_is_checked_at_the_lowest_limit(int_digit_limit):
    """At the lowest nonzero limit, the threshold, a literal no longer than
    it is accepted without counting its parts and one digit more is not."""
    low = sys.int_info.str_digits_check_threshold
    sys.set_int_max_str_digits(low)
    try:
        for text in ("7" * low, f"-{'7' * low}", f"1/{'7' * (low - 2)}"):
            assert is_rational_literal(text)
        for text in ("7" * (low + 1), f"1/{'7' * (low + 1)}"):
            assert not is_rational_literal(text)
    finally:
        sys.set_int_max_str_digits(int_digit_limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no limit on the digits of an integer string",
)
def test_a_literal_part_is_unbounded_when_the_limit_is_lifted():
    saved = sys.get_int_max_str_digits()
    text = "7" * (sys.int_info.default_max_str_digits + 1)
    sys.set_int_max_str_digits(0)
    try:
        assert is_rational_literal(text) and is_rational_literal(f"1/{text}")
        assert literal_value(f"-{text}/7") == F(-int(text), 7)
    finally:
        sys.set_int_max_str_digits(saved)


def test_format_rational_round_trip():
    for s in ["3/4", "-7", "0", "22/7"]:
        assert format_rational(literal_value(s)) == s.lstrip("+")


def test_primitive_scaling():
    assert primitive([F(1, 2), F(3, 4)]) == (2, 3)
    assert primitive([F(-2), F(4)]) == (-1, 2)
    with pytest.raises(ValueError):
        primitive([F(0), F(0)])


# --- vector arithmetic ---------------------------------------------------
#
# vec_dot and mat_vec sum integer products over one scale per operand;
# the reference sums Fraction products entry by entry.


def fraction_dot(u, v):
    assert len(u) == len(v)
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def random_entry(rng):
    """An int, a small Fraction or one with a large denominator, any sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 2:
        return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**15))
    return F(0)


def test_vector_products_equal_the_fraction_sums():
    rng = random.Random(29)
    for _ in range(300):
        n, rows = rng.randint(0, 5), rng.randint(0, 4)
        u = [random_entry(rng) for _ in range(n)]
        v = [random_entry(rng) for _ in range(n)] if rng.random() < 0.8 else [0] * n
        m = [[random_entry(rng) for _ in range(n)] for _ in range(rows)]
        dot = vec_dot(u, v)
        assert type(dot) is F and dot == fraction_dot(u, v)
        assert mat_vec(m, v) == tuple(fraction_dot(row, v) for row in m)
    assert vec_dot((), ()) == 0 and mat_vec((), (1, 2)) == ()
    assert mat_vec(((F(1, 3), 0),), (0, 0)) == (0,)


def test_vector_products_reject_a_length_mismatch():
    with pytest.raises(ValueError):
        vec_dot((1, F(1, 2)), (1,))
    with pytest.raises(ValueError):
        vec_dot((), (F(1, 2),))
    with pytest.raises(ValueError):
        mat_vec(((1, 2), (3, 4)), (1, 2, 3))
    with pytest.raises(ValueError):
        mat_vec(((1, 2), (3,)), (1, 2))


def test_int_mat_vec_is_mat_vec_over_the_scale():
    rng = random.Random(20261030)
    for _ in range(200):
        n, rows = rng.randint(0, 5), rng.randint(0, 4)
        m = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(rows)]
        x = [rng.randint(-9, 9) for _ in range(n)]
        den = rng.randint(1, 60)
        got = int_mat_vec(m, x, den)
        assert all(type(e) is F for e in got)
        assert got == tuple(e / den for e in mat_vec(m, x))
        assert got == tuple(fraction_dot(row, [F(e, den) for e in x]) for row in m)
    with pytest.raises(ValueError, match="lengths differ"):
        int_mat_vec([[1, 2], [3, 4]], [1, 2, 3], 1)
    with pytest.raises(ValueError, match="lengths differ"):
        int_mat_vec([[1, 2], [3]], [1, 2], 5)


# --- gaussian elimination ------------------------------------------------


def test_solve_linear_unique():
    a = as_matrix([[1, 1], [1, -1]])
    x = solve_linear(a, [3, 1])
    assert x == (F(2), F(1))


def test_solve_linear_inconsistent():
    a = as_matrix([[1, 1], [2, 2]])
    assert solve_linear(a, [1, 3]) is None


def test_solve_linear_underdetermined_resubstitutes():
    a = as_matrix([[1, 2, 3]])
    x = solve_linear(a, [6])
    assert x is not None and vec_dot(a[0], x) == 6


def test_rank_and_nullspace():
    a = as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    basis = nullspace(a)
    assert len(basis) == 1
    assert all(vec_dot(row, basis[0]) == 0 for row in a)


def test_invert():
    a = as_matrix([[2, 1], [1, 1]])
    inv = invert(a)
    assert mat_mul(a, inv) == mat_identity(2)
    assert invert(as_matrix([[1, 2], [2, 4]])) is None


def test_gauss_randomized_against_minor_oracle():
    rng = random.Random(20260814)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = as_matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank_by_minors([list(r) for r in m])
        for v in nullspace(m):
            assert all(vec_dot(row, v) == 0 for row in m)
        assert len(nullspace(m)) == cols - rank(m)
        b = [rng.randint(-3, 3) for _ in range(rows)]
        x = solve_linear(m, b)
        if x is None:
            aug = [list(r) + [b[i]] for i, r in enumerate(m)]
            assert rank_by_minors(aug) > rank_by_minors([list(r) for r in m])
        else:
            assert list(mat_vec(m, x)) == [F(v) for v in b]


def as_int_fraction_or_string(rng, x):
    """x written as an int (when integral), a Fraction or a "p/q" string."""
    forms = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms.append(x.numerator)
    return rng.choice(forms)


def seeded_matrices(seed, count):
    """Rational matrices with zero, repeated and scaled rows, in mixed entry forms."""
    rng = random.Random(seed)
    for trial in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        m = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if trial % 3 == 0:
            m[rng.randrange(rows)] = [F(0)] * cols
        if trial % 4 == 0 and rows > 1:
            m[rng.randrange(1, rows)] = [F(-3, 2) * x for x in m[0]]
        yield m, [[as_int_fraction_or_string(rng, x) for x in row] for row in m]


def test_fraction_free_rank_against_minor_oracle():
    for m, mixed in seeded_matrices(20261018, 120):
        assert rank(mixed) == rank_by_minors(m)
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, "0/5", F(0)]]) == 0
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 2], [3]])


def test_independent_rows_is_the_greedy_subset():
    def greedy(m):
        chosen = []
        for i, row in enumerate(m):
            if rank_by_minors([m[j] for j in chosen] + [row]) > len(chosen):
                chosen.append(i)
        return chosen

    for m, mixed in seeded_matrices(20261019, 120):
        assert independent_rows(mixed) == greedy(m)
    assert independent_rows([]) == []
    assert independent_rows([[0, 0], [1, 1], [2, 2], [0, 3], [5, 7]]) == [1, 3]
    with pytest.raises(ValueError, match="ragged"):
        independent_rows([[1], [2, 3]])


def gauss_jordan(rows, ncols):
    """Fraction Gauss-Jordan over the first ncols columns, rows never swapped:
    each column pivots on the first unused row with a nonzero entry. Returns
    the reduced rows and the (row, column) pivots."""
    m = [[F(x) for x in row] for row in rows]
    pivots, used = [], set()
    for c in range(ncols):
        r = next((i for i in range(len(m)) if i not in used and m[i][c]), None)
        if r is None:
            continue
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        used.add(r)
        pivots.append((r, c))
    return m, pivots


def reference_solve(a, b):
    n = len(a[0])
    m, pivots = gauss_jordan([list(row) + [y] for row, y in zip(a, b)], n)
    used = {r for r, _ in pivots}
    if any(m[i][n] for i in range(len(m)) if i not in used):
        return None
    x = [F(0)] * n
    for r, c in pivots:
        x[c] = m[r][n]
    return tuple(x)


def reference_nullspace(a):
    n = len(a[0])
    m, pivots = gauss_jordan(a, n)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        v = [F(0)] * n
        v[f] = F(1)
        for r, c in pivots:
            v[c] = -m[r][f]
        basis.append(tuple(v))
    return basis


def reference_invert(a):
    n = len(a)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    m, pivots = gauss_jordan([list(row) + eye[i] for i, row in enumerate(a)], n)
    if len(pivots) < n:
        return None
    row_of = {c: r for r, c in pivots}
    return tuple(tuple(m[row_of[i]][n + j] for j in range(n)) for i in range(n))


def test_integer_solver_matches_solve_linear_and_invert():
    """One IntegerSolver per integer matrix gives every b / q what
    solve_linear gives A x = b / q, None included, and reads the inverse
    invert gives: of A when square, of the chosen rows when tall."""
    rng = random.Random(38)
    kinds = {"square": 0, "tall": 0, "wide": 0, "deficient": 0, "refused": 0}
    for trial in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(m, n)) if trial % 3 == 0 else min(m, n)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        a = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(n)] for row in left]
        solver = IntegerSolver(a)
        assert solver.chosen == independent_rows(a) and len(solver.pivots) == rank(a)
        kinds["square" if m == n else "tall" if m > n else "wide"] += 1
        kinds["deficient"] += rank(a) < min(m, n)
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        for b in ([sum(map(int.__mul__, row, x0)) for row in a], [rng.randint(-4, 4) for _ in a]):
            q = rng.randint(1, 5)
            want = solve_linear(a, [F(y, q) for y in b])
            got = solver.solve(b, q)
            if want is None:
                assert got is None
                kinds["refused"] += 1
            else:
                x, d = got
                assert d > 0 and tuple(F(v, d) for v in x) == want
        chosen = [a[i] for i in solver.chosen]
        inv = invert(chosen) if len(chosen) == n else None
        got = solver.inverse()
        assert (got is None) == (inv is None)
        if got is not None:
            rows, d = got
            assert d > 0 and tuple(tuple(F(v, d) for v in row) for row in rows) == inv
    assert all(kinds.values()), kinds


def test_integer_solver_on_zero_rows_and_zero_width():
    empty = IntegerSolver([])
    assert empty.solve([]) == ([], 1) and solve_linear([], []) == ()
    assert empty.inverse() == ([], 1) and invert([]) == ()
    flat = IntegerSolver([[], [], []])
    assert flat.chosen == [] and flat.inverse() == ([], 1)
    assert flat.solve([0, 0, 0], 2) == ([], 2) and solve_linear([[], [], []], [0, 0, 0]) == ()
    assert flat.solve([0, 1, 0]) is None and solve_linear([[], [], []], [0, 1, 0]) is None
    with pytest.raises(ValueError, match="row count"):
        IntegerSolver([[1, 2], [3, 4]]).solve([1])


def test_gauss_outputs_equal_the_gauss_jordan_reference():
    # The kernel basis, the particular solution and the inverse are read off
    # the unique reduced row echelon form, so they are pinned exactly, not
    # just checked by re-substitution: a different valid basis or solution
    # would change certificate bytes.
    rng = random.Random(20261021)
    for m, mixed in seeded_matrices(20261022, 120):
        assert nullspace(mixed) == reference_nullspace(m)
        b = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in m]
        assert solve_linear(mixed, b) == reference_solve(m, b)
        # A row that is the sum of the others, with its right-hand side off
        # by one, makes the system inconsistent.
        bad = m + [[sum(col) for col in zip(*m)]]
        bad_b = b + [sum(b) + 1]
        assert solve_linear(bad, bad_b) is None
        assert reference_solve(bad, bad_b) is None
    singular = invertible = 0
    for trial in range(150):
        n = rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            a[rng.randrange(1, n)] = [F(2, 3) * x for x in a[0]]
        inv = reference_invert(a)
        assert invert(a) == inv
        if inv is None:
            singular += 1
        else:
            invertible += 1
            assert mat_mul(a, inv) == mat_identity(n)
    assert singular > 20 and invertible > 20


def eager_eliminate(a, reduce=False):
    """The elimination pass as it was before rows were scaled on demand:
    every row scaled to integers up front, then the same sweep."""
    rows = [gauss.integral(row) for row in a]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    ncols = len(rows[0]) if rows else 0
    chosen, basis = [], []
    for i, v in enumerate(rows):
        if len(basis) == ncols:
            break
        for c, b in basis:
            if v[c]:
                v = gauss._clear(v, b, c)
        c = next((j for j, e in enumerate(v) if e), -1)
        if c >= 0:
            basis.append((c, v))
            chosen.append(i)
    if reduce:
        for k in range(len(basis) - 1, 0, -1):
            c, b = basis[k]
            for j in range(k):
                cj, v = basis[j]
                if v[c]:
                    basis[j] = (cj, gauss._clear(v, b, c))
    return chosen, basis


def test_rows_are_scaled_when_the_sweep_reaches_them(monkeypatch):
    # A ragged row after the basis is full is still refused.
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 0], [0, 1], [1]])
    with pytest.raises(ValueError, match="ragged"):
        independent_rows([[1, 0], [0, 1], [1]])
    with pytest.raises(ValueError, match="ragged"):
        solve_linear([[1, 0], [0, 1], [1]], [1, 2, 3])
    # The matrix may be any iterable of rows.
    assert rank(row for row in [[1, 2], [2, 4], [0, 1]]) == 2
    assert independent_rows(iter([[0, 0], [1, "1/2"], [2, 1], [0, 3]])) == [1, 3]
    assert solve_linear((row for row in [[1, 0], [1, 1]]), [2, 3]) == (2, 1)

    # Seeded matrices give what the eager pass gave, through every reader.
    rng = random.Random(20261023)
    cases = [
        (mixed, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in mixed])
        for _, mixed in seeded_matrices(20261024, 120)
    ]

    def readers():
        return [(rank(a), independent_rows(a), solve_linear(a, b)) for a, b in cases]

    for a, _ in cases:
        for reduce in (False, True):
            assert gauss._eliminate(a, reduce) == eager_eliminate(a, reduce)
    on_demand = readers()
    monkeypatch.setattr(gauss, "_eliminate", eager_eliminate)
    assert readers() == on_demand
    monkeypatch.undo()

    # The 128 rays of max_tensor(square, cube) span 12 dimensions; the sweep
    # scales rows only until it has 12 independent ones.
    lib = fixture_library()
    sq, cube = lib.space("square_space"), lib.space("cube_space")
    rays = max_tensor(sq, cube).cone.rays
    last = independent_rows(rays)[-1]
    integral, scaled = gauss.integral, []

    def counted(row):
        scaled.append(row)
        return integral(row)

    monkeypatch.setattr(gauss, "integral", counted)
    assert rank(rays) == 12
    assert len(rays) == 128 and scaled == list(rays[: last + 1])


def test_tracked_sweep_matches_eliminating_the_chosen_rows_beside_the_identity():
    # The tracked pass chooses the same rows as the plain one, and each
    # chosen row ends as it would in the pass over [B | I], B the chosen
    # rows scaled to integers.
    for _, mixed in seeded_matrices(20261025, 200):
        ncols = len(mixed[0])
        for reduce in (False, True):
            chosen, basis = gauss._eliminate(mixed, reduce, track=True)
            assert chosen == independent_rows(mixed)
            beside = [
                [*gauss.integral(mixed[i]), *(int(j == k) for j in range(ncols))]
                for k, i in enumerate(chosen)
            ]
            assert basis == gauss._eliminate(beside, reduce)[1]


def test_primitive_of_int_fraction_and_string_entries():
    assert primitive([2, 4, -6]) == (1, 2, -3)
    assert primitive((3, -5, 0)) == (3, -5, 0)
    assert primitive(["1/2", "-3/4", 0]) == (2, -3, 0)
    assert primitive([F(6, 5), "-9/10", 3]) == (4, -3, 10)
    rng = random.Random(20261020)
    for _ in range(100):
        v = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        if not any(v):
            continue
        p = primitive([as_int_fraction_or_string(rng, x) for x in v])
        assert all(isinstance(n, int) for n in p)
        assert math.gcd(*p) == 1
        # p is a positive multiple of v.
        t = next(F(n) / x for n, x in zip(p, v) if x)
        assert t > 0 and [t * x for x in v] == list(p)
    for zero in ([0, 0], (0,), ["0/3", F(0)], []):
        with pytest.raises(ValueError, match="zero vector"):
            primitive(zero)


# --- integer input passes through ---------------------------------------
#
# A vector of plain ints crosses into integer rows at scale 1 with no
# Fraction round trip; every other vector takes the Fraction route. Either
# way the result is what the same values give as Fractions.


def seeded_rows(seed, count):
    """(values, entries) pairs: Fraction values and the same values written
    as all ints, Fractions, "p/q" strings, bools (0 and 1 only) or a mix."""
    rng = random.Random(seed)
    for trial in range(count):
        n, kind = rng.randint(0, 6), trial % 5
        if kind == 3:
            values = [F(rng.randint(0, 1)) for _ in range(n)]
            entries = [bool(x) for x in values]
        elif kind == 0:
            values = [F(rng.randint(-10**9, 10**9) // rng.choice((1, 6))) for _ in range(n)]
            entries = [x.numerator for x in values]
        else:
            values = [F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n)]
            entries = {
                1: list(values),
                2: [f"{x.numerator}/{x.denominator}" for x in values],
                4: [as_int_fraction_or_string(rng, x) for x in values],
            }[kind]
            if kind == 4 and n:
                entries[rng.randrange(n)] = rng.choice((True, False, 7))
                values = [F(x) for x in entries]
        yield values, entries


def each_container(entries):
    """The entries as a list, a tuple and a one-shot generator."""
    return [list(entries), tuple(entries), (x for x in entries)]


def test_integral_of_any_entries_is_that_of_their_fraction_values():
    for values, entries in seeded_rows(20261031, 400):
        want_ints, want_scale = integral_with_scale(values)
        assert want_scale == math.lcm(*(x.denominator for x in values))
        for v in each_container(entries):
            ints, scale = integral_with_scale(v)
            assert (ints, scale) == (want_ints, want_scale)
            assert type(ints) is list and all(type(n) is int for n in ints)
            assert [F(n, scale) for n in ints] == values
        for v in each_container(entries):
            assert integral(v) == want_ints
        if any(values):
            for v in each_container(entries):
                assert primitive(v) == primitive(values)
        for v in each_container(entries):
            assert integer_rows([tuple(v)] * 2) == integer_rows([values] * 2)
    # All ints pass at scale 1, as they are.
    assert integral_with_scale((3, -6, 0)) == ([3, -6, 0], 1)
    assert integral_with_scale([]) == ([], 1)
    assert integer_rows(((4, -2), (0, 8))) == ([[4, -2], [0, 8]], 1)
    assert integer_rows(()) == ([], 1)


def test_an_all_int_result_is_a_new_list():
    row = [4, -6, 10]
    ints, scale = integral_with_scale(row)
    assert scale == 1 and ints == row and ints is not row
    ints[0] = 99
    integral(row).append(1)
    assert row == [4, -6, 10]
    rows = [[1, 2], [3, 4]]
    out, _ = integer_rows(rows)
    out[0][0] = 99
    assert rows == [[1, 2], [3, 4]]


def test_tracked_elimination_leaves_the_callers_rows_unchanged():
    rng = random.Random(20261032)
    for trial in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        if trial % 2:
            a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        else:
            a = [
                [as_int_fraction_or_string(rng, F(rng.randint(-4, 4), rng.randint(1, 3)))
                 for _ in range(cols)]
                for _ in range(rows)
            ]
        before = [list(row) for row in a]
        for reduce, track in ((True, True), (False, True), (True, False)):
            gauss._eliminate(a, reduce=reduce, track=track)
            assert a == before


def test_bool_entries_read_as_one_and_zero():
    assert integral_with_scale([True, False, 2]) == ([1, 0, 2], 1)
    assert integral_with_scale([True, F(1, 2)]) == ([2, 1], 2)
    assert all(type(n) is int for n in integral([True, False, True]))
    assert primitive((True, False)) == (1, 0)
    assert primitive([False, 2, True]) == (0, 2, 1)
    assert integer_rows([[True], [False]]) == ([[1], [0]], 1)
    assert rank([[True, False], [False, True]]) == 2


def test_integer_rows_refuses_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged matrix"):
        integer_rows(((1,), (2, 3)))
    with pytest.raises(ValueError, match="ragged matrix"):
        integer_rows([[F(1, 2), 1], [3]])
    with pytest.raises(ValueError, match="ragged matrix"):
        integer_rows([[1, 2], []])


# --- linear programs -----------------------------------------------------


def test_lp_optimize_simple_bounded():
    lp = rational_program(
        2,
        ge=[((1, 0), 0), ((0, 1), 0), ((-1, -2), -4), ((-2, -1), -4)],
        objective=(1, 1),
    )
    out = lp_optimize(lp)
    assert out.status == "optimal"
    assert out.value == F(8, 3)
    assert out.witness == (F(4, 3), F(4, 3))
    assert out.check(lp)


def test_lp_optimize_unbounded_gives_ray():
    lp = rational_program(1, ge=[((1,), 0)], objective=(1,))
    out = lp_optimize(lp)
    assert out.status == "unbounded"
    assert out.check(lp)


def test_lp_optimize_infeasible_gives_farkas():
    lp = rational_program(1, ge=[((1,), 0), ((-1,), 1)], objective=(1,))
    out = lp_optimize(lp)
    assert out.status == "infeasible"
    assert out.check(lp)


def test_lp_optimize_equality_rows():
    lp = rational_program(
        3,
        eq=[((1, 1, 1), 1)],
        ge=[((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
        objective=(1, 2, 3),
    )
    out = lp_optimize(lp)
    assert out.status == "optimal" and out.value == 3
    assert out.witness == (0, 0, 1)


def test_lp_feasible_empty_program():
    lp = LinearProgram(2)
    out = lp_feasible(lp)
    assert out.status == "feasible"
    assert out.witness == (0, 0)


def test_lp_feasible_zero_vars():
    assert lp_feasible(LinearProgram(0, ge=[((), -1, 1)])).status == "feasible"
    out = lp_feasible(LinearProgram(0, ge=[((), 1, 1)]))
    assert out.status == "infeasible" and out.check(LinearProgram(0, ge=[((), 1, 1)]))


def test_lp_free_variables():
    # Variables carry no implicit sign: minimum of x at -5 is reachable.
    lp = rational_program(1, ge=[((1,), -5)], objective=(-1,))
    out = lp_optimize(lp)
    assert out.status == "optimal" and out.witness == (-5,) and out.value == 5


def test_lp_randomized_against_vertex_enumeration():
    rng = random.Random(911)
    box = 5
    agree = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        lp_ge = []
        for j in range(n):
            unit = [0] * n
            unit[j] = 1
            lp_ge.append((tuple(unit), -box))
            lp_ge.append((tuple(-v for v in unit), -box))
        for _ in range(rng.randint(0, 4)):
            lhs = tuple(rng.randint(-3, 3) for _ in range(n))
            lp_ge.append((lhs, rng.randint(-4, 4)))
        eq = []
        if n > 1 and rng.random() < 0.3:
            eq.append((tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2)))
        obj = tuple(rng.randint(-3, 3) for _ in range(n))
        lp = rational_program(n, eq=eq, ge=lp_ge, objective=obj)
        out = lp_optimize(lp)
        assert out.check(lp)
        oracle = brute_force_optimal(lp)
        if out.status == "optimal":
            assert oracle == out.value
            agree += 1
        else:
            assert out.status == "infeasible" and oracle is None
    assert agree > 20


def test_lp_outcomes_always_carry_valid_certificates():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [
            (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5))
        ]
        kinds = [rng.choice(["eq", "ge", "ge"]) for _ in rows]
        lp = rational_program(
            n,
            eq=[r for r, k in zip(rows, kinds) if k == "eq"],
            ge=[r for r, k in zip(rows, kinds) if k == "ge"],
        )
        out = lp_feasible(lp)
        assert out.status in ("feasible", "infeasible")
        assert out.check(lp)


def test_vector_width_validation():
    with pytest.raises(ValueError, match="width"):
        LinearProgram(2, ge=[((1,), 0, 1)])
    with pytest.raises(ValueError, match="denominator"):
        LinearProgram(2, eq=[((1, 0), 0, 0)])
    with pytest.raises(ValueError):
        LinearProgram(2, objective=(1,))
    with pytest.raises(ValueError):
        as_vector(["1", "x"])


# --- the integer simplex against its Fraction-built reference ------------


class FractionSimplex:
    """The simplex as it was built on Fractions, kept as a reference.

    Its tableau stores every column of the layout [p | q | slacks |
    artificials | rhs], which `_Simplex` reads through three mirror
    identities instead. Its rows are Fraction lists handed to the tableau's
    entry constructor, and its ratio test divides tableau entries read back
    as Fractions. `ties` counts ratio-test ties, where Bland's basis
    tie-break decides. It reads a program's integer rows as rationals.
    """

    def __init__(self, n_vars, eq_rows, ge_rows, objective=None):
        eq_rows, ge_rows = rational_rows(eq_rows), rational_rows(ge_rows)
        self.n = n_vars
        self.g = len(ge_rows)
        self.m = len(eq_rows) + self.g
        self.n_real = 2 * n_vars + self.g
        self.n_total = self.n_real + self.m
        self.rhs_col = self.n_total
        self.obj2_row = self.m
        self.obj1_row = self.m + 1
        self.sigma = []
        self.ties = 0
        rows, basis = [], []
        specs = [(lhs, rhs, None) for lhs, rhs in eq_rows]
        specs += [(lhs, rhs, i) for i, (lhs, rhs) in enumerate(ge_rows)]
        for k, (lhs, rhs, slack) in enumerate(specs):
            if slack is not None and rhs <= 0:
                sign = -1
            else:
                sign = -1 if rhs < 0 else 1
            coeffs = [F(0)] * (self.n_total + 1)
            for j, c in enumerate(lhs):
                coeffs[j] = sign * c
                coeffs[n_vars + j] = -sign * c
            if slack is not None:
                coeffs[2 * n_vars + slack] = F(-sign)
            coeffs[self.rhs_col] = sign * rhs
            coeffs[self.n_real + k] = F(1)
            self.sigma.append(sign)
            basis.append(2 * n_vars + slack if slack is not None and rhs <= 0 else self.n_real + k)
            rows.append(coeffs)
        obj2 = [F(0)] * (self.n_total + 1)
        if objective is not None:
            for j, c in enumerate(objective):
                obj2[j] = -c
                obj2[n_vars + j] = c
        obj1 = [F(0)] * (self.n_total + 1)
        for j in range(self.n_real, self.n_total):
            obj1[j] = F(1)
        for k, row in enumerate(rows):
            if basis[k] >= self.n_real:
                obj1 = [a - b for a, b in zip(obj1, row)]
        self.tab = Tableau(rows + [obj2, obj1])
        self.basis = basis
        self.active = [True] * self.m

    def _pivot(self, r, c):
        self.tab.pivot(r, c)
        self.basis[r] = c

    def _bland(self, obj_row, allow_artificial):
        tab = self.tab
        limit = self.n_total if allow_artificial else self.n_real
        while True:
            enter = next((j for j in range(limit) if tab.entry(obj_row, j) < 0), -1)
            if enter < 0:
                return "optimal"
            leave, best = -1, None
            for i in range(self.m):
                if self.active[i] and tab.entry(i, enter) > 0:
                    ratio = tab.entry(i, self.rhs_col) / tab.entry(i, enter)
                    self.ties += ratio == best
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best, leave = ratio, i
            if leave < 0:
                self._unbounded_col = enter
                return "unbounded"
            self._pivot(leave, enter)

    def phase1(self):
        status = self._bland(self.obj1_row, allow_artificial=True)
        assert status == "optimal", "phase 1 is always bounded"
        return self.tab.nums[self.obj1_row][self.rhs_col] == 0

    def phase1_farkas(self):
        out = []
        for k in range(self.m):
            coeff = self.tab.entry(self.obj1_row, self.n_real + k)
            out.append(self.sigma[k] * (F(1) - coeff))
        return tuple(out)

    def drive_out_artificials(self):
        for i in range(self.m):
            if self.basis[i] < self.n_real:
                continue
            row = self.tab.nums[i]
            col = next((j for j in range(self.n_real) if row[j]), -1)
            if col < 0:
                self.active[i] = False
            else:
                self._pivot(i, col)

    def phase2(self):
        return self._bland(self.obj2_row, allow_artificial=False)

    def objective_value(self):
        return self.tab.entry(self.obj2_row, self.rhs_col)

    def solution(self):
        x = [F(0)] * self.n
        for i in range(self.m):
            if not self.active[i]:
                continue
            b = self.basis[i]
            if b < self.n:
                x[b] += self.tab.entry(i, self.rhs_col)
            elif b < 2 * self.n:
                x[b - self.n] -= self.tab.entry(i, self.rhs_col)
        return tuple(x)

    def ray(self):
        enter = self._unbounded_col
        d = [F(0)] * self.n
        if enter < self.n:
            d[enter] += F(1)
        elif enter < 2 * self.n:
            d[enter - self.n] -= F(1)
        for i in range(self.m):
            if not self.active[i]:
                continue
            b = self.basis[i]
            coeff = self.tab.entry(i, enter)
            if not coeff:
                continue
            if b < self.n:
                d[b] -= coeff
            elif b < 2 * self.n:
                d[b - self.n] += coeff
        return tuple(d)


def fraction_check(out, lp):
    """LPOutcome.check as it was, re-substituting with Fraction dot products
    into the program's rows read as rationals."""
    eqs, ges = rational_rows(lp.eq), rational_rows(lp.ge)
    if out.status in ("feasible", "optimal"):
        x = out.witness
        if x is None or len(x) != lp.n_vars:
            return False
        ok = (
            all(vec_dot(a, x) == b for a, b in eqs)
            and all(vec_dot(a, x) >= b for a, b in ges)
        )
        if out.status == "optimal":
            ok = ok and lp.objective is not None and vec_dot(lp.objective, x) == out.value
        return ok
    if out.status == "infeasible":
        y = out.farkas
        e = len(eqs)
        if y is None or len(y) != e + len(ges) or any(v < 0 for v in y[e:]):
            return False
        combo, r = [F(0)] * lp.n_vars, F(0)
        for mult, (lhs, rhs) in zip(y, eqs + ges):
            combo = [c + mult * a for c, a in zip(combo, lhs)]
            r += mult * rhs
        if any(combo):
            return False
        return r > 0
    if out.status == "unbounded":
        d = out.ray
        if d is None or len(d) != lp.n_vars or lp.objective is None:
            return False
        return (
            all(vec_dot(a, d) == 0 for a, _ in eqs)
            and all(vec_dot(a, d) >= 0 for a, _ in ges)
            and vec_dot(lp.objective, d) > 0
        )
    return False


def seeded_programs(seed, count):
    """Small LPs rich in the cases the pivot rule and the row flip branch on.

    Entries mix denominators; about a third of right-hand sides are 0, so
    ge rows start on their slacks and ratio tests tie; some rows repeat an
    earlier row scaled, to force ties; n may be 0. Yields (lp, optimize).
    """
    rng = random.Random(seed)

    def q():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    for _ in range(count):
        n = rng.choice((0, 1, 2, 2, 3, 3, 4))
        optimize = rng.random() < 0.5
        rows = {kind: [] for kind in ("eq", "ge")}
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(("eq", "ge", "ge"))
            earlier = rows["ge"]
            if earlier and rng.random() < 0.25:
                lhs, rhs = rng.choice(earlier)
                t = F(rng.randint(1, 3), rng.randint(1, 3))
                lhs, rhs = tuple(t * c for c in lhs), t * rhs
            else:
                lhs = tuple(q() for _ in range(n))
                rhs = F(0) if rng.random() < 0.35 else q()
            rows[kind].append((lhs, rhs))
        objective = tuple(q() for _ in range(n)) if optimize else None
        yield rational_program(n, **rows, objective=objective), optimize


def full_layout(sx):
    """The tableau of `sx` in the layout [p | q | slacks | artificials | rhs],
    as a tuple of (numerators, denominators) per row.

    A FractionSimplex stores that layout. A `_Simplex` stores [p |
    artificials | rhs], and its q and slack columns are expanded here by the
    identities q_j = -p_j and slack_k = -sigma_{e+k} a_{e+k}, less the
    sigma-weighted 1 in the phase-1 row. Pairs stay reduced: n - d is prime
    to d when n is.
    """
    if isinstance(sx, FractionSimplex):
        return tuple((tuple(rn), tuple(rd)) for rn, rd in zip(sx.tab.nums, sx.tab.dens))
    n, m, e = sx.n, sx.m, sx.m - sx.g
    rows = []
    for i, (rn, rd) in enumerate(zip(sx.tab.nums, sx.tab.dens)):
        phase1 = i == sx.obj1_row
        slack_n = [
            -s * (rn[c] - rd[c] if phase1 else rn[c])
            for s, c in zip(sx.sigma[e:], range(n + e, n + m))
        ]
        nums = (*rn[:n], *(-x for x in rn[:n]), *slack_n, *rn[n:])
        dens = (*rd[:n], *rd[:n], *rd[n + e : n + m], *rd[n:])
        rows.append((nums, dens))
    return tuple(rows)


def traced_solve(lp, optimize, cls, monkeypatch, expected=None):
    """Solve lp with cls as the simplex; returns (outcome, events, ties).

    Events are each simplex's starting basis and tableau, and then every
    pivot: its row, its entering column in the full layout, the basis after
    it and the whole tableau after it, read by `full_layout`. Equal events
    therefore mean the same pivot sequence and equal tableaux throughout.
    Given the `expected` events, each event must equal the one in its
    place, so a solve that strays fails at its first differing pivot
    instead of running on.
    """
    events, made = [], []

    def record(*event):
        if expected is not None and (
            len(events) >= len(expected) or event != expected[len(events)]
        ):
            pytest.fail(f"event {len(events)} ({event[0]}) departs from the reference",
                        pytrace=False)
        events.append(event)

    def make(*args, **kwargs):
        sx = cls(*args, **kwargs)
        made.append(sx)
        record("start", tuple(sx.basis), full_layout(sx))
        return sx

    def pivot(sx, r, c):
        real_pivot(sx, r, c)
        record("pivot", r, c, tuple(sx.basis), full_layout(sx))

    real_pivot = cls._pivot
    with monkeypatch.context() as m:
        m.setattr(simplex, "_Simplex", make)
        m.setattr(cls, "_pivot", pivot)
        out = (simplex.lp_optimize if optimize else simplex.lp_feasible)(lp)
    return out, events, sum(getattr(sx, "ties", 0) for sx in made)


def assert_follows_the_reference(lp, optimize, monkeypatch):
    """Solve lp with FractionSimplex, then with `_Simplex` held to its
    events, and require equal outcomes; returns (outcome, events, ties)."""
    ref, ref_events, ref_ties = traced_solve(lp, optimize, FractionSimplex, monkeypatch)
    out, events, _ = traced_solve(
        lp, optimize, simplex._Simplex, monkeypatch, expected=ref_events
    )
    assert events == ref_events
    assert out == ref
    for field in ("witness", "farkas", "ray", "value"):
        value = getattr(out, field)
        items = value if isinstance(value, tuple) else () if value is None else (value,)
        assert all(type(v) is Fraction for v in items)
    return out, events, ref_ties


def mirror_pivots(lp, events):
    """How many pivots enter a q column, a slack column whose row was written
    as given (scale -1), and one whose row was flipped (scale +1)."""
    n = lp.n_vars
    flipped = [b <= 0 for _, b, _ in lp.ge]
    counts = [0, 0, 0]
    for e in events:
        if e[0] == "pivot" and n <= e[2] < 2 * n:
            counts[0] += 1
        elif e[0] == "pivot" and 2 * n <= e[2] < 2 * n + len(flipped):
            counts[1 + flipped[e[2] - 2 * n]] += 1
    return counts


def test_integer_simplex_follows_the_fraction_reference_pivot_for_pivot(monkeypatch):
    seen = {"optimal": 0, "unbounded": 0, "infeasible": 0, "feasible": 0}
    ties = flipped = empty = pivots = 0
    mirrors = [0, 0, 0]
    for lp, optimize in seeded_programs(20261018, 400):
        out, events, ref_ties = assert_follows_the_reference(lp, optimize, monkeypatch)
        seen[out.status] += 1
        ties += ref_ties
        flipped += any(b <= 0 for _, b, _ in lp.ge)
        empty += lp.n_vars == 0
        pivots += sum(e[0] == "pivot" for e in events)
        mirrors = [a + b for a, b in zip(mirrors, mirror_pivots(lp, events))]
    assert min(seen.values()) >= 20, seen
    # The 400 programs, of eq and ge rows only, make 756 pivots.
    assert ties >= 50 and flipped >= 100 and empty >= 20 and pivots >= 750
    assert mirrors[0] >= 150 and min(mirrors[1:]) >= 20, mirrors


def test_integer_simplex_follows_the_reference_on_the_benchmark_programs(
    criterion_8_states, monkeypatch
):
    """The section programs and depth-2 lift programs of the states
    `random_batch` draws: the LPs the benchmark's time goes to."""
    seen = {"feasible": 0, "infeasible": 0}
    pivots = 0
    for omega in criterion_8_states:
        programs = [section_program(omega)[0]]
        target = marginal_b(omega).vector
        programs += [
            ensemble_lift_program(omega, e)
            for _, e in extremal_ensembles(omega.space_b, target, 2)
        ]
        for lp in programs:
            out, events, _ = assert_follows_the_reference(lp, False, monkeypatch)
            seen[out.status] += 1
            pivots += sum(e[0] == "pivot" for e in events)
    assert seen["infeasible"] >= 50 and seen["feasible"] >= 30 and pivots >= 700, (seen, pivots)


def test_the_tableau_stores_only_p_artificials_and_rhs(criterion_8_states, monkeypatch):
    """Every tableau the section programs build is [p | artificials | rhs]
    wide and [constraints | phase 2 | phase 1] tall: no mirror column is
    stored."""
    shapes = []

    class Recorded(simplex._Simplex):
        def __init__(self, n_vars, eq_rows, ge_rows, objective=None):
            super().__init__(n_vars, eq_rows, ge_rows, objective)
            rows = len(eq_rows) + len(ge_rows)
            shapes.append(((self.tab.nrows, self.tab.ncols), (rows + 2, n_vars + rows + 1)))

    monkeypatch.setattr(simplex, "_Simplex", Recorded)
    for omega in criterion_8_states:
        lp_feasible(section_program(omega)[0])
    assert len(shapes) == len(criterion_8_states)
    assert all(got == want for got, want in shapes), shapes
    assert max(rows for (rows, _), _ in shapes) >= 100


def test_integer_certificate_check_agrees_with_fraction_reference():
    rng = random.Random(1018)
    verdicts = {True: 0, False: 0}
    for lp, optimize in seeded_programs(1967, 300):
        out = (lp_optimize if optimize else lp_feasible)(lp)
        assert out.check(lp) and fraction_check(out, lp)
        field = {"feasible": "witness", "optimal": "witness", "infeasible": "farkas"}.get(
            out.status, "ray"
        )
        cert = list(getattr(out, field))
        if out.status == "optimal" and rng.random() < 0.3:
            bad = dataclasses.replace(out, value=out.value + F(rng.choice((-1, 1)), 2))
        elif cert:
            k = rng.randrange(len(cert))
            nudge = F(rng.choice((-1, 1)), rng.randint(1, 3))
            cert[k] = rng.choice((F(0), -cert[k], cert[k] + nudge))
            bad = dataclasses.replace(out, **{field: tuple(cert)})
        else:
            continue
        verdict = bad.check(lp)
        assert verdict == fraction_check(bad, lp)
        verdicts[verdict] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 100, verdicts
    # Hand cases: wrong widths, missing certificates, and a Farkas sum
    # 0 >= 0, which certifies nothing, beside one 0 >= 1, which does.
    lp = rational_program(2, ge=[((1, 0), 0)], objective=(1, 0))
    cases = [
        (lp, LPOutcome("feasible", witness=(F(1),)), False),
        (lp, LPOutcome("optimal", witness=(F(1), F(0))), False),
        (lp, LPOutcome("infeasible", farkas=(F(0),)), False),
        (lp, LPOutcome("infeasible", farkas=(F(1), F(0))), False),
        (lp, LPOutcome("unbounded"), False),
        (lp, LPOutcome("unknown"), False),
        (rational_program(1, ge=[((1,), 0), ((-1,), 0)]), LPOutcome.infeasible((1, 1)), False),
        (rational_program(1, ge=[((1,), 1), ((-1,), 0)]), LPOutcome.infeasible((1, 1)), True),
        (rational_program(0, eq=[((), 0)]), LPOutcome.feasible(()), True),
    ]
    for program, out, verdict in cases:
        assert out.check(program) is verdict and fraction_check(out, program) is verdict


def fraction_solve(lp, optimize):
    """lp_optimize or lp_feasible as they ran on Fraction rows: FractionSimplex
    over the rows read as rationals, its outcome certified by fraction_check."""
    sx = FractionSimplex(lp.n_vars, lp.eq, lp.ge, objective=lp.objective if optimize else None)
    if not sx.phase1():
        out = LPOutcome.infeasible(sx.phase1_farkas())
    elif not optimize:
        out = LPOutcome.feasible(sx.solution())
    else:
        sx.drive_out_artificials()
        if sx.phase2() == "unbounded":
            out = LPOutcome.unbounded(sx.ray())
        else:
            out = LPOutcome.optimal(sx.solution(), sx.objective_value())
    assert fraction_check(out, lp)
    return out


def test_integer_rows_solve_as_the_fraction_row_reference():
    """Status, witness, farkas, ray and value, to the type of every entry,
    equal those of the reference solve on the 400 seeded programs."""
    seen = {"optimal": 0, "unbounded": 0, "infeasible": 0, "feasible": 0}
    scaled = 0
    for lp, optimize in seeded_programs(20261018, 400):
        out = (lp_optimize if optimize else lp_feasible)(lp)
        # repr tells a Fraction from an int of the same value.
        assert repr(out) == repr(fraction_solve(lp, optimize))
        seen[out.status] += 1
        scaled += any(s > 1 for _, _, s in lp.eq + lp.ge)
    assert min(seen.values()) >= 20 and scaled >= 100, (seen, scaled)


def test_integer_row_keeps_the_exact_value():
    assert integer_row((F(1, 2), F(-2, 3)), F(1, 6)) == ((3, -4), 1, 6)
    # Not made primitive: the row reads 2x + 4y >= 6, not x + 2y >= 3.
    assert integer_row((2, 4), 6) == ((2, 4), 6, 1)
    assert integer_row((), F(-5, 7)) == ((), -5, 7)


def test_a_row_over_a_multiple_denominator_is_the_same_row():
    """(A, b, s) and (kA, kb, ks) are one rational row: the same tableau,
    the same pivots and the same certificates, which check on either."""
    for lp, optimize in seeded_programs(4242, 60):
        k = 1 + lp.row_count() % 4
        scaled = LinearProgram(
            lp.n_vars,
            eq=[(tuple(k * a for a in lhs), k * b, k * s) for lhs, b, s in lp.eq],
            ge=[(tuple(k * a for a in lhs), k * b, k * s) for lhs, b, s in lp.ge],
            objective=lp.objective,
        )
        solve = lp_optimize if optimize else lp_feasible
        out = solve(lp)
        assert repr(solve(scaled)) == repr(out)
        assert out.check(scaled) and out.check(lp)
        assert full_layout(simplex._Simplex(lp.n_vars, lp.eq, lp.ge, lp.objective)) == (
            full_layout(simplex._Simplex(scaled.n_vars, scaled.eq, scaled.ge, scaled.objective))
        )
