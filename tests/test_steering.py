"""Ensemble lifting, steering verdicts, and affine sections.

Oracles: the interval vertices, image intervals, counterexample ensembles,
and section values here were derived by hand from the map convention
omega-hat(a) = M a and frozen. Solver-produced witnesses (observables and
sections) are re-verified structurally instead of frozen where several
witnesses would be equally valid: effects must be observables that map onto
the claimed parts, and sections must invert the map on every interval vertex
while preserving the order.
"""

import random
from fractions import Fraction

import pytest

from polysteer.cone import cone_from_rays
from polysteer.composite import BipartiteState, is_isomorphism_state, marginal_b
from polysteer.ratlin import LinearProgram, LPOutcome, as_vector
from polysteer.space import StateSpace, effects_interval
from polysteer.steering import (
    AffineSection,
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
