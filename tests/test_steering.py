"""Ensemble lifting, steering verdicts, and affine sections.

Oracles: the interval vertices, image intervals, counterexample ensembles,
and section values here were derived by hand from the map convention
omega-hat(a) = M a and frozen. Solver-produced witnesses (observables and
sections) are re-verified structurally instead of frozen where several
witnesses would be equally valid: effects must be observables that map onto
the claimed parts, and sections must invert the map on every interval vertex
while preserving the order.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from polysteer import steering
from polysteer.cone import cone_from_rays, face_of
from polysteer.composite import BipartiteState, is_isomorphism_state, marginal_b
from polysteer.fixtures import fixture_library
from polysteer.ratlin import gauss
from polysteer.ratlin import (
    LinearProgram,
    LPOutcome,
    as_vector,
    integer_row,
    lp_feasible,
    mat_transpose,
    solve_linear,
    vec_dot,
    vec_zero,
)
from polysteer.space import StateSpace, effects_interval
from polysteer.steering import (
    AffineSection,
    _affine_basis,
    _polytope_dimension,
    Ensemble,
    adjoint_state,
    affine_section_search,
    bisteering,
    decide_steering,
    ensemble_polytope_vertices,
    face_condition,
    image_interval,
    injective_steering_implies_iso,
    lift_ensemble,
    order_interval_vertices,
    section_program,
    universal_self_steering_scan,
)
import reference_lp_loops

F = Fraction

SQUARE_RAYS = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
CUBE_RAYS = [(x, y, z, 1) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
HEX_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]

# Three-outcome measurement on a trit read out into a bit; its bit marginal
# (1/2, 1/2) admits the splitting into the two basis directions, and no
# observable on the trit side realizes that splitting.
TABLE_MATRIX = ((F(1, 4), 0, F(1, 4)), (0, F(1, 4), F(1, 4)))

# Correlated mixture of two square vertex states: steers, and its square
# marginal sits on an edge whose interval admits exactly one affine section.
CORRELATED_SQUARE_MATRIX = ((1, 0, 0), (0, 1, 1), (0, 1, 1))

# Same marginal, but the mixture pairs each square vertex with the other
# edge endpoint; the section here moves in a one-parameter family.
TWISTED_SQUARE_MATRIX = ((1, 1, 0), (0, 0, 1), (0, 0, 1))

# Maps opposite cube vertex pairs onto opposite hexagon vertex pairs. Every
# two-part splitting of the hexagon's central marginal lifts, yet no single
# affine section can serve all of them at once.
CUBE_HEX_MATRIX = ((1, 0, -1, 0), (0, 1, 1, 0), (0, 0, 0, 1))

# Product of two uniform bit states: the map has rank one, so the interval
# vertex (1/2, 0) has no preimage.
RANK_ONE_BIT_MATRIX = ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

# Injective, so the section candidate is unique, and it sends the interval
# vertex (3/4, 0) to (3/2, 0), outside [0, u_A].
SHEARED_BIT_MATRIX = ((F(1, 2), F(1, 4)), (0, F(1, 4)))

# Order isomorphism from the square's dual onto the square: the entangled
# unit-normalized state whose ensembles always lift.
SQUARE_ISO_MATRIX = ((1, -1, 0), (1, 1, 0), (0, 0, 1))


def simplex_space(n):
    rays = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return StateSpace(cone_from_rays(rays, n), (1,) * n)


def square_space():
    return StateSpace(cone_from_rays(SQUARE_RAYS, 3), (0, 0, 1))


def cube_space():
    return StateSpace(cone_from_rays(CUBE_RAYS, 4), (0, 0, 0, 1))


def hexagon_space():
    return StateSpace(cone_from_rays(HEX_RAYS, 3), (0, 0, 1))


def table_state():
    return BipartiteState(simplex_space(3), simplex_space(2), TABLE_MATRIX)


def correlated_square_state():
    sq = square_space()
    return BipartiteState(sq, sq, CORRELATED_SQUARE_MATRIX)


def twisted_square_state():
    sq = square_space()
    return BipartiteState(sq, sq, TWISTED_SQUARE_MATRIX)


def cube_to_hexagon_state():
    return BipartiteState(cube_space(), hexagon_space(), CUBE_HEX_MATRIX)


def classical_pair():
    bit = simplex_space(2)
    return BipartiteState(bit, bit, ((F(1, 2), 0), (0, F(1, 2))))


def rank_one_bit_state():
    return BipartiteState(simplex_space(2), simplex_space(2), RANK_ONE_BIT_MATRIX)


def sheared_bit_state():
    return BipartiteState(simplex_space(2), simplex_space(2), SHEARED_BIT_MATRIX)


def square_iso_state():
    sq = square_space()
    return BipartiteState(sq, sq, SQUARE_ISO_MATRIX)


def assert_valid_lift(omega, ensemble, observable):
    """An observable certifies a lift when it sums to the order unit, every
    effect lies in the dual interval, and the images hit the parts."""
    interval = effects_interval(omega.space_a)
    total = (F(0),) * omega.space_a.dim
    for effect, part in zip(observable.effects, ensemble.parts):
        assert interval.contains(effect.functional)
        assert omega.apply(effect.functional) == part
        total = tuple(a + b for a, b in zip(total, effect.functional))
    assert total == as_vector(omega.space_a.unit)


# ---------------------------------------------------------------------------
# Order intervals


def test_order_interval_vertices_of_square_edge_marginal():
    sq = square_space()
    assert order_interval_vertices(sq.cone, (0, 1, 1)) == (
        (F(-1, 2), F(1, 2), F(1, 2)),
        (F(0), F(0), F(0)),
        (F(0), F(1), F(1)),
        (F(1, 2), F(1, 2), F(1, 2)),
    )


def test_order_interval_vertices_of_hexagon_center():
    hx = hexagon_space()
    verts = order_interval_vertices(hx.cone, (0, 0, 1))
    assert verts == (
        (F(-1, 2), F(0), F(1, 2)),
        (F(-1, 2), F(1, 2), F(1, 2)),
        (F(0), F(-1, 2), F(1, 2)),
        (F(0), F(0), F(0)),
        (F(0), F(0), F(1)),
        (F(0), F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2), F(1, 2)),
        (F(1, 2), F(0), F(1, 2)),
    )


def test_order_interval_top_must_be_in_cone():
    sq = square_space()
    with pytest.raises(ValueError, match="interval top"):
        order_interval_vertices(sq.cone, (2, 0, 1))


# ---------------------------------------------------------------------------
# Ensembles


def test_ensemble_total_and_canonical_parts():
    bit = simplex_space(2)
    e = Ensemble(bit, ((F(1, 2), 0), (0, F(1, 2))))
    assert e.total() == (F(1, 2), F(1, 2))
    assert e.is_for((F(1, 2), F(1, 2)))
    assert not e.is_for((1, 0))
    assert e.canonical_parts() == ((0, F(1, 2)), (F(1, 2), 0))


def test_ensemble_rejects_empty_and_outside_parts():
    bit = simplex_space(2)
    with pytest.raises(ValueError, match="at least one part"):
        Ensemble(bit, ())
    with pytest.raises(ValueError, match="not in the cone"):
        Ensemble(bit, ((1, -1),))


# ---------------------------------------------------------------------------
# Lifting ensembles


def test_lift_requires_matching_total():
    omega = table_state()
    bad = Ensemble(simplex_space(2), ((1, 0),))
    with pytest.raises(ValueError, match="does not sum to the B marginal"):
        lift_ensemble(omega, bad)


def test_basis_splitting_of_table_state_fails_to_lift():
    omega = table_state()
    e = Ensemble(simplex_space(2), ((0, F(1, 2)), (F(1, 2), 0)))
    result = lift_ensemble(omega, e)
    assert not result
    assert result.observable is None
    assert result.farkas is not None
    # One multiplier per program row: 6 positivity rows, 3 unit rows, and
    # 2 image rows per part.
    assert len(result.farkas) == 13


def test_diagonal_splitting_of_table_state_lifts():
    omega = table_state()
    e = Ensemble(simplex_space(2), ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))))
    result = lift_ensemble(omega, e)
    assert result
    assert_valid_lift(omega, e, result.observable)


# ---------------------------------------------------------------------------
# Image interval and the face condition


def test_table_state_image_interval_is_a_hexagon():
    omega = table_state()
    assert image_interval(omega) == (
        (F(0), F(0)),
        (F(0), F(1, 4)),
        (F(1, 4), F(0)),
        (F(1, 4), F(1, 2)),
        (F(1, 2), F(1, 4)),
        (F(1, 2), F(1, 2)),
    )


def test_iso_state_image_interval_fills_the_marginal_interval():
    omega = square_iso_state()
    target = marginal_b(omega).vector
    assert target == (0, 0, 1)
    full = tuple(sorted(order_interval_vertices(omega.space_b.cone, target)))
    assert image_interval(omega) == full


def test_cube_to_hexagon_image_interval_fills_the_marginal_interval():
    omega = cube_to_hexagon_state()
    full = tuple(sorted(order_interval_vertices(omega.space_b.cone, (0, 0, 1))))
    assert image_interval(omega) == full


def test_face_condition_is_necessary_but_not_sufficient():
    # The table state satisfies the face condition and still fails to steer.
    omega = table_state()
    assert face_condition(omega)
    assert not decide_steering(omega, depth=2)


def test_face_condition_holds_on_steering_examples():
    assert face_condition(correlated_square_state())
    assert face_condition(cube_to_hexagon_state())


# ---------------------------------------------------------------------------
# Steering verdicts


def test_depth_below_two_is_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        decide_steering(table_state(), depth=1)


def test_table_state_is_not_steering():
    omega = table_state()
    verdict = decide_steering(omega, depth=2)
    assert not verdict
    assert verdict.status == "not_steering"
    assert verdict.counterexample.canonical_parts() == (
        (F(0), F(1, 2)),
        (F(1, 2), F(0)),
    )
    assert verdict.farkas is not None
    # The counterexample re-validates: lifting it fails again.
    assert not lift_ensemble(omega, verdict.counterexample)


def test_table_counterexample_is_stable_under_deeper_search():
    omega = table_state()
    shallow = decide_steering(omega, depth=2)
    deep = decide_steering(omega, depth=3)
    assert deep.status == "not_steering"
    assert (
        deep.counterexample.canonical_parts()
        == shallow.counterexample.canonical_parts()
    )


def test_classical_pair_steers_with_frozen_certificates():
    omega = classical_pair()
    verdict = decide_steering(omega, depth=3)
    assert verdict
    assert verdict.status == "steering_up_to"
    keys = sorted(le.ensemble.canonical_parts() for le in verdict.lifted)
    assert keys == [
        ((F(0), F(1, 2)), (F(1, 2), F(0))),
        ((F(1, 2), F(1, 2)),),
    ]
    for le in verdict.lifted:
        assert_valid_lift(omega, le.ensemble, le.observable)


def test_correlated_square_state_steers():
    omega = correlated_square_state()
    for depth in (2, 3):
        verdict = decide_steering(omega, depth=depth)
        assert verdict
        for le in verdict.lifted:
            assert_valid_lift(omega, le.ensemble, le.observable)


def test_cube_to_hexagon_steers_through_opposite_pairs():
    omega = cube_to_hexagon_state()
    verdict = decide_steering(omega, depth=2)
    assert verdict
    keys = sorted(le.ensemble.canonical_parts() for le in verdict.lifted)
    # The extremal two-part splittings of the hexagon center are the three
    # opposite vertex pairs, plus the one-part splitting by the center.
    assert keys == [
        ((F(-1, 2), F(0), F(1, 2)), (F(1, 2), F(0), F(1, 2))),
        ((F(-1, 2), F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2), F(1, 2))),
        ((F(0), F(-1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2))),
        ((F(0), F(0), F(1)),),
    ]
    for le in verdict.lifted:
        assert_valid_lift(omega, le.ensemble, le.observable)


def count_eliminations_in_lifts(monkeypatch) -> list:
    """Every elimination run inside a lift_ensemble call, one entry each."""
    calls, inside = [], []
    eliminate, lift = gauss._eliminate, steering.lift_ensemble

    def counted_eliminate(*a, **k):
        if inside:
            calls.append(1)
        return eliminate(*a, **k)

    def counted_lift(*a, **k):
        inside.append(1)
        try:
            return lift(*a, **k)
        finally:
            inside.pop()

    monkeypatch.setattr(gauss, "_eliminate", counted_eliminate)
    monkeypatch.setattr(steering, "lift_ensemble", counted_lift)
    return calls


KERNEL_STATES = {"two_squares_correlated", "two_squares_twisted", "cube_to_hexagon", "nonsteering_table"}


@pytest.mark.parametrize("name", sorted(KERNEL_STATES | {
    "classical_correlated_2", "classical_correlated_3", "square_iso", "extremality_gap",
}))
def test_decide_steering_eliminates_the_map_once_per_state(name, monkeypatch):
    """The first lift builds the state's solver, the one elimination of
    omega-hat, and reads off whether the map has a kernel; no other
    ensemble, and no later decision on the state, eliminates it again.
    A map with a kernel then runs the LP for every ensemble."""
    fixture = fixture_library().state(name)

    def fresh():
        return BipartiteState(fixture.space_a, fixture.space_b, fixture.matrix)

    want = decide_steering(fresh(), 3)
    omega = fresh()
    calls = count_eliminations_in_lifts(monkeypatch)
    assert decide_steering(omega, 3) == want
    assert len(calls) == 1 and len(want.lifted) + (not want) > 1
    assert decide_steering(omega, 3) == want
    assert len(calls) == 1
    injective = len(omega.solver().chosen) == omega.space_a.dim
    assert injective == (name not in KERNEL_STATES)


def test_deep_searches_stop_at_the_marginal_dimension(monkeypatch):
    """A vertex of a splitting polytope has at most dim B nonzero parts, so
    depth 30 on a square state runs the k = 2 and k = 3 enumerations, meets
    the same ensembles as depth 3 and reports the depth it was asked."""
    omega = fixture_library().state("square_iso")
    shallow = decide_steering(omega, 3)
    calls = []
    splittings = steering._splittings

    def counted(*args):
        calls.append(args[-1])
        return splittings(*args)

    monkeypatch.setattr(steering, "_splittings", counted)
    deep = decide_steering(omega, 30)
    assert calls == [2, 3]
    assert deep.depth == 30 and deep.lifted == shallow.lifted and deep.status == shallow.status
    # The bound itself, on the uncut enumeration: every vertex of a deeper
    # splitting polytope of a fixture marginal has at most dim B nonzero parts.
    monkeypatch.undo()
    for fixture in fixture_library().states.values():
        space, target = fixture.space_b, marginal_b(fixture).vector
        verts, _ = steering._splittings(space.cone, target, space.dim + 2)
        assert verts and all(sum(map(any, parts)) <= space.dim for parts in verts)


def test_ensemble_polytope_vertices_split_the_target():
    bit = simplex_space(2)
    target = (F(1, 2), F(1, 2))
    splittings = ensemble_polytope_vertices(bit, target, 2)
    # The raw list keeps part order, so each splitting shows up once per
    # ordering; deduplicate by sorted parts.
    assert sorted(set(tuple(sorted(s)) for s in splittings)) == [
        ((F(0), F(0)), (F(1, 2), F(1, 2))),
        ((F(0), F(1, 2)), (F(1, 2), F(0))),
    ]
    for parts in splittings:
        total = (F(0), F(0))
        for p in parts:
            total = tuple(a + b for a, b in zip(total, p))
        assert total == target


def test_one_part_splitting_is_the_target_itself():
    """The one-part splitting polytope is the point (target,); fewer parts
    split nothing."""
    for space, target in ((simplex_space(2), (F(1, 2), F(1, 3))), (square_space(), (0, 1, 1))):
        assert ensemble_polytope_vertices(space, target, 1) == [(as_vector(target),)]
        for k in (0, -1):
            with pytest.raises(ValueError, match="at least one part"):
                ensemble_polytope_vertices(space, target, k)


def test_ensemble_polytope_target_must_be_in_cone():
    with pytest.raises(ValueError, match="split target"):
        ensemble_polytope_vertices(square_space(), (2, 0, 1), 2)


# ---------------------------------------------------------------------------
# Affine sections


def test_correlated_square_section_is_unique():
    omega = correlated_square_state()
    search = affine_section_search(omega)
    assert search
    assert search.dimension == 0
    assert search.alternate is None
    section = search.section
    assert section.base_points == (
        (F(-1, 2), F(1, 2), F(1, 2)),
        (F(0), F(0), F(0)),
        (F(0), F(1), F(1)),
    )
    assert section.images == (
        (F(-1, 2), F(0), F(1, 2)),
        (F(0), F(0), F(0)),
        (F(0), F(0), F(1)),
    )
    assert section.verify(omega)
    # The fourth interval vertex is reconstructed affinely.
    assert section.apply((F(1, 2), F(1, 2), F(1, 2))) == (F(1, 2), F(0), F(1, 2))


def test_twisted_square_sections_form_a_line():
    omega = twisted_square_state()
    search = affine_section_search(omega)
    assert search
    assert search.dimension == 1
    assert search.alternate is not None
    assert search.alternate.images != search.section.images
    assert search.section.verify(omega)
    assert search.alternate.verify(omega)


def test_cube_to_hexagon_has_no_section_despite_steering():
    omega = cube_to_hexagon_state()
    search = affine_section_search(omega)
    assert not search
    assert search.section is None
    assert search.farkas is not None
    assert decide_steering(omega, depth=2)


def test_table_state_has_no_section():
    search = affine_section_search(table_state())
    assert not search
    assert search.farkas is not None


@pytest.mark.parametrize(
    "make", [table_state, cube_to_hexagon_state, rank_one_bit_state, sheared_bit_state]
)
def test_negative_search_farkas_refutes_the_section_program(make):
    omega = make()
    search = affine_section_search(omega)
    assert not search
    program, _ = section_program(omega)
    assert LPOutcome.infeasible(search.farkas).check(program)


@pytest.mark.parametrize(
    "make,full",
    [
        (cube_to_hexagon_state, False),
        (rank_one_bit_state, True),
        (sheared_bit_state, True),
    ],
)
def test_section_program_falls_back_to_the_full_parametrization(make, full):
    # Only the full parametrization carries the value constraints as rows.
    program, _ = section_program(make())
    assert bool(program.eq) == full


def test_trivial_kernel_candidate_gives_the_empty_program():
    omega = classical_pair()
    program, decode = section_program(omega)
    assert program.n_vars == 0
    assert program.row_count() == 0
    assert decode(()) == affine_section_search(omega).section


def test_dimension_counts_independent_gaps():
    # Triangle {x <= 0, y <= 2x, y >= x - 1} with vertices (0, 0), (0, -1)
    # and (-1, -2): optimizing x and then y in both directions can give the
    # gap (1, 2) twice, so a walk over the coordinates alone sees one
    # direction.
    triangle = LinearProgram(2, ge=[((-1, 0), 0, 1), ((2, -1), 0, 1), ((-1, 1), -1, 1)])
    dimension, (lo, hi) = _polytope_dimension(triangle)
    assert dimension == 2
    assert lo != hi
    # The segment x = y = z in [0, 1]: one gap, then two constant functionals.
    segment = LinearProgram(
        3,
        eq=[((1, -1, 0), 0, 1), ((0, 1, -1), 0, 1)],
        ge=[((1, 0, 0), 0, 1), ((-1, 0, 0), -1, 1)],
    )
    assert _polytope_dimension(segment)[0] == 1
    point = LinearProgram(2, eq=[((1, 0), 1, 1), ((0, 1), 2, 1)])
    assert _polytope_dimension(point) == (0, None)


@pytest.fixture(scope="module")
def hull_states(criterion_8_sequence):
    """The fixture states and the first 100 states of criterion 8's sequence."""
    lib = fixture_library()
    return [lib.states[name] for name in lib.states] + list(criterion_8_sequence(100))


def test_image_interval_matches_the_lp_hull_reference(hull_states, simplex_count):
    computed = [image_interval(omega) for omega in hull_states]
    assert simplex_count[0] == 0
    assert computed == [reference_lp_loops.image_interval(omega) for omega in hull_states]


def test_affine_coordinates_match_a_solve_per_point(hull_states):
    """One elimination per frame gives every point the coordinates that
    solving [basisᵀ; 1] lam = (y, 1) on its own gives, and refuses the
    points that solve has no solution for."""
    rng = random.Random(28)
    refused = 0
    for omega in hull_states:
        target = marginal_b(omega).vector
        verts = order_interval_vertices(omega.space_b.cone, target)
        frame = AffineSection(tuple(verts[i] for i in _affine_basis(verts)), ())
        system = mat_transpose(frame.base_points) + ((1,) * len(frame.base_points),)
        face_rays = face_of(omega.space_b.cone, target).rays()
        stray = [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in target) for _ in range(3)]
        for y in [*verts, vec_zero(len(target)), *face_rays, *stray]:
            expected = solve_linear(system, (*y, 1))
            if expected is None:
                refused += 1
                with pytest.raises(ValueError, match="outside the section's affine hull"):
                    frame.coordinates(y)
            else:
                assert frame.coordinates(y) == expected
    assert refused > 0


# The integer products against the Fraction arithmetic they replaced:
# BipartiteState.apply, AffineSection.apply and StateSpace.is_effect read
# integer rows kept beside the rational values, and these references read
# the rational values themselves.


def fraction_mat_vec(m, v):
    return tuple(sum((F(a) * F(x) for a, x in zip(row, v, strict=True)), F(0)) for row in m)


def fraction_is_effect(space, f):
    """0 <= f.r and 0 <= (unit - f).r on every ray, in Fractions."""
    rest = tuple(F(u) - F(x) for u, x in zip(space.unit, f, strict=True))
    return all(min(fraction_mat_vec((f, rest), r)) >= 0 for r in space.cone.rays)


def random_points(rng, dim, count):
    return [
        tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)) for _ in range(count)
    ]


def hull_combinations(rng, verts, count):
    """Seeded affine combinations of verts, which lie on their hull."""
    out = []
    for _ in range(count):
        c = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in verts[1:]]
        c.insert(0, 1 - sum(c))
        out.append(tuple(sum(ci * v[k] for ci, v in zip(c, verts)) for k in range(len(verts[0]))))
    return out


def test_state_apply_equals_the_fraction_product(hull_states):
    rng = random.Random(29)
    for omega in hull_states:
        a = omega.space_a
        points = [*effects_interval(a).vertices, *a.cone.rays, *a.cone.facets, a.unit]
        for x in points + random_points(rng, a.dim, 5):
            assert omega.apply(x) == fraction_mat_vec(omega.matrix, x)
        with pytest.raises(ValueError):
            omega.apply((0,) * (a.dim + 1))


def test_section_apply_equals_the_fraction_product(hull_states):
    """On any images, apply is the images combined by the point's affine
    coordinates, and it refuses the points coordinates refuses."""
    rng = random.Random(29)
    refused = 0
    for omega in hull_states:
        target = marginal_b(omega).vector
        verts = order_interval_vertices(omega.space_b.cone, target)
        basis = tuple(verts[i] for i in _affine_basis(verts))
        images = tuple(random_points(rng, omega.space_a.dim, len(basis)))
        section = AffineSection(basis, images)
        face_rays = face_of(omega.space_b.cone, target).rays()
        on_hull = [*verts, vec_zero(len(target)), *face_rays, *hull_combinations(rng, verts, 4)]
        for y in on_hull:
            want = fraction_mat_vec(mat_transpose(images), section.coordinates(y))
            assert section.apply(y) == want
        for y in random_points(rng, len(target), 3):
            try:
                coords = section.coordinates(y)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match="point is outside the section's affine hull"):
                    section.apply(y)
            else:
                assert section.apply(y) == fraction_mat_vec(mat_transpose(images), coords)
    assert refused > 0


def test_is_effect_equals_the_fraction_test(hull_states):
    """On the effect interval's vertices, points just inside and just
    outside it, the images of found sections and seeded points."""
    rng = random.Random(29)
    eps = F(1, 10**9)
    seen = {True: 0, False: 0}
    sections = {}
    for omega in hull_states[:8]:
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        found = affine_section_search(omega).section
        if found is not None:
            sections.setdefault(omega.space_a, []).extend(found.apply(y) for y in verts)
    spaces = dict.fromkeys(s for omega in hull_states for s in (omega.space_a, omega.space_b))
    for space in spaces:
        verts = effects_interval(space).vertices
        nudged = [
            tuple(x + eps * d for x, d in zip(v, step))
            for v in verts
            for step in random_points(rng, space.dim, 2)
        ]
        scaled = [tuple(c * u for u in space.unit) for c in (1 + eps, 1 - eps, eps, -eps)]
        points = [*verts, *nudged, *scaled, *sections.get(space, ())]
        points += random_points(rng, space.dim, 5)
        for f in points:
            want = fraction_is_effect(space, f)
            assert space.is_effect(f) == want
            seen[want] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_integer_rows_take_no_part_in_equality_hash_or_repr(hull_states):
    for omega in hull_states:
        twin = BipartiteState(omega.space_a, omega.space_b, [list(row) for row in omega.matrix])
        assert twin == omega
        assert hash(twin) == hash(omega) == hash((omega.space_a, omega.space_b, omega.matrix))
        assert repr(twin) == repr(omega) and "_rows" not in repr(omega)
        doubled = tuple(tuple(2 * x for x in row) for row in omega.matrix)
        assert BipartiteState(omega.space_a, omega.space_b, doubled) != omega
        space = omega.space_a
        same = StateSpace(space.cone, list(space.unit))
        assert same == space and hash(same) == hash(space) == hash((space.cone, space.unit))
        assert repr(same) == repr(space) and "_unit_on_rays" not in repr(space)
        assert StateSpace(space.cone, tuple(2 * u for u in space.unit)) != space
    assert [f.name for f in dataclasses.fields(BipartiteState)] == ["space_a", "space_b", "matrix"]
    assert [f.name for f in dataclasses.fields(StateSpace)] == ["cone", "unit"]


def test_integer_products_run_no_fraction_arithmetic(monkeypatch):
    """No Fraction is added, subtracted or multiplied inside the three
    integer products on the fixture states; one deliberate sum shows the
    counter counts."""
    lib = fixture_library()
    work = []
    for name in lib.states:
        omega = lib.states[name]
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        basis = tuple(verts[i] for i in _affine_basis(verts))
        effects = effects_interval(omega.space_a).vertices
        section = AffineSection(basis, (omega.space_a.unit,) * len(basis))
        found = affine_section_search(omega).section
        work.append((omega, verts, effects, [section] + ([found] if found else [])))
    calls = []
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        real = getattr(F, op)
        monkeypatch.setattr(F, op, lambda a, b, real=real, op=op: calls.append(op) or real(a, b))
    for omega, verts, effects, sections in work:
        for f in effects:
            omega.apply(f)
            omega.space_a.is_effect(f)
        for section in sections:
            for y in verts:
                omega.space_a.is_effect(section.apply(y))
    assert calls == []
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert calls == ["__add__"]


def assert_dimension_matches_the_lp_loop(programs, simplex_count):
    """_polytope_dimension gives the loop's (dimension, pair) on every
    program, solving exactly two LPs when the dimension is positive and
    none when it is 0. Returns the dimensions."""
    dimensions = []
    for program in programs:
        before = simplex_count[0]
        got = _polytope_dimension(program)
        assert simplex_count[0] - before == (2 if got[0] else 0)
        assert got == reference_lp_loops.polytope_dimension(program)
        dimensions.append(got[0])
    return dimensions


def test_polytope_dimension_matches_the_lp_loop_on_section_programs(hull_states, simplex_count):
    programs = [section_program(omega)[0] for omega in hull_states]
    feasible = [p for p in programs if lp_feasible(p).status == "feasible"]
    assert len(feasible) == 31
    assert 1 in assert_dimension_matches_the_lp_loop(feasible, simplex_count)


def random_bounded_programs(seed, count):
    """Programs over n <= 4 unknowns around a random point x0: a box of
    width 0 to 4 in each coordinate, some rows through or near x0, and
    some eq rows through x0. A box side of width 0, and rows through x0
    from either side, cut lower-dimensional polytopes without eq rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        x0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        eq = [integer_row(g, vec_dot(g, x0)) for g in rows[: rng.choice((0, 0, 1, n))]]
        ge = [integer_row(g, vec_dot(g, x0) - rng.randint(0, 1)) for g in rows]
        for i in range(n):
            e = [int(j == i) for j in range(n)]
            ge.append(integer_row(e, x0[i] - rng.randint(0, 2)))
            ge.append(integer_row([-x for x in e], -x0[i] - rng.randint(0, 2)))
        yield LinearProgram(n, eq=eq, ge=ge)


def test_polytope_dimension_matches_the_lp_loop_on_random_polytopes(simplex_count):
    programs = list(random_bounded_programs(27, 200))
    dimensions = assert_dimension_matches_the_lp_loop(programs, simplex_count)
    assert set(dimensions) == {0, 1, 2, 3, 4}
    flat = [p for p, d in zip(programs, dimensions) if 0 < d < p.n_vars]
    assert any(p.eq for p in flat) and any(not p.eq for p in flat)


def test_classical_pair_section_is_the_inverse_map():
    omega = classical_pair()
    search = affine_section_search(omega)
    assert search
    assert search.dimension == 0
    assert search.section.verify(omega)
    # The map halves both coordinates, so the section doubles them.
    assert search.section.apply((F(1, 4), F(1, 4))) == (F(1, 2), F(1, 2))


def test_iso_state_has_a_unique_section():
    omega = square_iso_state()
    assert is_isomorphism_state(omega) is not None
    search = affine_section_search(omega)
    assert search
    assert search.dimension == 0
    assert search.section.verify(omega)


def test_section_found_implies_steering():
    for omega in (
        correlated_square_state(),
        twisted_square_state(),
        classical_pair(),
        square_iso_state(),
    ):
        assert affine_section_search(omega)
        assert decide_steering(omega, depth=2)
        assert decide_steering(omega, depth=3)


def test_section_apply_rejects_points_off_the_hull():
    # The interval's hull for this state is the plane y = z.
    section = affine_section_search(correlated_square_state()).section
    with pytest.raises(ValueError, match="affine hull"):
        section.apply((0, 1, 0))


def test_section_verify_rejects_tampered_images():
    omega = correlated_square_state()
    good = affine_section_search(omega).section
    swapped = AffineSection(good.base_points, good.images[::-1])
    assert not swapped.verify(omega)
    # Shifting one image along the map's kernel keeps the values correct but
    # leaves the effect interval, so verification still fails.
    shifted = AffineSection(
        good.base_points,
        good.images[:2] + ((F(0), F(1), F(0)),),
    )
    assert omega.apply(shifted.images[2]) == (0, 1, 1)
    assert not shifted.verify(omega)
    # An appended pair, or two base points swapped with their images,
    # describes the same affine map over another basis than the program's.
    points, images = good.base_points, good.images
    appended = AffineSection(points + points[:1], images + ((F(7),) * 3,))
    swapped = AffineSection(
        (points[1], points[0]) + points[2:], (images[1], images[0]) + images[2:]
    )
    for other in (appended, swapped):
        assert other.apply((0, 1, 1)) == good.apply((0, 1, 1))
        assert not other.verify(omega)


# ---------------------------------------------------------------------------
# Both directions, adjoints, and the isomorphism cross-check


def test_adjoint_state_transposes_the_pairing():
    omega = cube_to_hexagon_state()
    adj = adjoint_state(omega)
    assert adjoint_state(adj).matrix == omega.matrix
    a = (1, 0, -1, 1)
    b = (0, 1, 1)
    assert adj.pairing(b, a) == omega.pairing(a, b)


def test_cube_to_hexagon_steers_only_one_way():
    omega = cube_to_hexagon_state()
    toward_a, toward_b = bisteering(omega, depth=2)
    assert toward_b.status == "steering_up_to"
    assert toward_a.status == "not_steering"
    # The failed direction carries its own re-checkable counterexample.
    assert not lift_ensemble(adjoint_state(omega), toward_a.counterexample)


def test_classical_pair_steers_both_ways():
    toward_a, toward_b = bisteering(classical_pair(), depth=2)
    assert toward_a and toward_b


def test_injective_steering_cross_check():
    assert injective_steering_implies_iso(classical_pair(), depth=2)
    assert injective_steering_implies_iso(square_iso_state(), depth=2)
    with pytest.raises(ValueError, match="injective"):
        injective_steering_implies_iso(table_state())
    boundary = BipartiteState(
        simplex_space(2), simplex_space(3), ((1, 0), (0, 1), (0, 0))
    )
    with pytest.raises(ValueError, match="interior marginal"):
        injective_steering_implies_iso(boundary)


# ---------------------------------------------------------------------------
# Self-steering scans


def test_trit_scan_steers_everywhere_and_matches_the_prediction():
    trit = simplex_space(3)
    grid = [
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(1, 5), F(2, 5), F(2, 5)),
    ]
    report = universal_self_steering_scan(trit, grid, depth=2)
    assert [e.status for e in report.entries] == ["steered"] * 4
    assert report.homogeneous.status == "yes"
    assert report.weakly_self_dual
    assert report.predicted_universal
    assert report.all_steered
    assert report.consistent


def test_square_scan_reports_missing_purifications():
    sq = square_space()
    grid = [
        (F(0), F(0), F(1)),
        (F(1, 2), F(0), F(1)),
        (F(1), F(1), F(1)),
        (F(1, 2), F(1, 2), F(1)),
    ]
    report = universal_self_steering_scan(sq, grid, depth=2)
    assert [e.status for e in report.entries] == [
        "steered",
        "no_purification",
        "steered",
        "no_purification",
    ]
    assert report.homogeneous.status == "no"
    assert report.weakly_self_dual
    assert not report.predicted_universal
    assert not report.all_steered
    assert report.consistent


def test_scan_rejects_unnormalized_grid_entries():
    with pytest.raises(ValueError, match="normalized states"):
        universal_self_steering_scan(simplex_space(2), [(1, 1)])


# ---------------------------------------------------------------------------
# Randomized coherence checks


def random_interior_state_pair(rng, space_a, space_b):
    """A random bipartite state built from products, so it is always valid."""
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


def test_random_states_respect_the_implication_chain():
    # section exists => steering up to every depth => face condition holds
    rng = random.Random(20240915)
    spaces = [simplex_space(2), simplex_space(3), square_space()]
    for _ in range(12):
        omega = random_interior_state_pair(
            rng, rng.choice(spaces), rng.choice(spaces)
        )
        verdict = decide_steering(omega, depth=2)
        if verdict:
            assert face_condition(omega)
        search = affine_section_search(omega)
        if search:
            assert search.section.verify(omega)
            assert verdict
            assert decide_steering(omega, depth=3)
        elif verdict:
            assert search.farkas is not None
