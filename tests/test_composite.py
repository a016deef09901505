"""Tensor cones, bipartite states, purity, factorization, purification.

Oracles: the worked bipartite states here are small enough that every
matrix, marginal, and conditional was derived by hand from the map
convention omega-hat(a) = M a before being frozen. Extremality witnesses
are re-verified structurally (both parts positive, witness not a multiple
of the map) rather than frozen, since any valid decomposition certifies
non-extremality equally well.
"""

from fractions import Fraction

import pytest

from polysteer.cone import cone_from_facets, cone_from_rays, dual_cone
from polysteer.composite import (
    BipartiteState,
    _match_rays_bijectively,
    conditional_state,
    decomposition_program,
    factors_isomorphically_through,
    intermediate_tensor,
    is_isomorphism_state,
    is_pure_in_max,
    kron_vec,
    map_is_extremal,
    marginal_a,
    marginal_b,
    max_tensor,
    min_tensor,
    purify,
)
from polysteer.ratlin import LPOutcome, as_matrix, as_vector, mat_mul, mat_vec, rank, vec_dot
from polysteer.space import (
    Effect,
    Observable,
    StateSpace,
    diamond_dual,
    is_homogeneous,
    is_weakly_self_dual,
    order_isomorphisms,
)

SQUARE_RAYS = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
PENT_RAYS = [(2, 0, 1), (3, 5, 4), (-1, 1, 2), (-1, -1, 2), (3, -5, 4)]
HEX_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]

# Perfectly correlated mixture of two square vertex states that share their
# second coordinate, written as the matrix of the induced map.
CORRELATED_SQUARE_MATRIX = ((1, 0, 0), (0, 1, 1), (0, 1, 1))

# Three-outcome measurement on a classical trit read out into a classical
# bit: the three columns are the subnormalized outcome states.
TABLE_MATRIX = (
    (Fraction(1, 4), 0, Fraction(1, 4)),
    (0, Fraction(1, 4), Fraction(1, 4)),
)


def simplex_space(n):
    rays = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return StateSpace(cone_from_rays(rays, n), (1,) * n)


def square_space():
    return StateSpace(cone_from_rays(SQUARE_RAYS, 3), (0, 0, 1))


def pentagon_space():
    return StateSpace(cone_from_rays(PENT_RAYS, 3), (0, 0, 1))


def hexagon_space():
    return StateSpace(cone_from_rays(HEX_RAYS, 3), (0, 0, 1))


def correlated_square_state():
    sq = square_space()
    return BipartiteState(sq, sq, CORRELATED_SQUARE_MATRIX)


def table_state():
    return BipartiteState(simplex_space(3), simplex_space(2), TABLE_MATRIX)


def assert_decomposition(phi, witness, source, target):
    """witness and phi - witness are positive maps and witness is not a
    scalar multiple of phi: a valid non-extremality certificate."""
    phi, witness = as_matrix(phi), as_matrix(witness)
    remainder = tuple(
        tuple(p - w for p, w in zip(prow, wrow))
        for prow, wrow in zip(phi, witness)
    )
    for part in (witness, remainder):
        for r in source.rays:
            assert target.contains(mat_vec(part, as_vector(r)))
    j0, i0 = next(
        (j, i)
        for j in range(len(phi))
        for i in range(len(phi[0]))
        if phi[j][i] != 0
    )
    lam = Fraction(witness[j0][i0], 1) / phi[j0][i0]
    scaled = tuple(tuple(lam * x for x in row) for row in phi)
    assert witness != scaled


def test_kron_vec_convention():
    assert kron_vec((1, 2), (3, 4, 5)) == (3, 4, 5, 6, 8, 10)
    assert kron_vec((Fraction(1, 2),), (2, 4)) == (1, 2)


def test_bit_composite_is_the_four_state_classical_cone():
    bit = simplex_space(2)
    mx, mn = max_tensor(bit, bit), min_tensor(bit, bit)
    basis = {tuple(int(j == i) for j in range(4)) for i in range(4)}
    assert set(mx.cone.rays) == basis
    assert mx.cone == mn.cone
    assert mx.unit == mn.unit == (1, 1, 1, 1)
    assert (mx.kind, mn.kind) == ("max", "min")


def test_square_composites_differ():
    sq = square_space()
    mx, mn = max_tensor(sq, sq), min_tensor(sq, sq)
    assert len(mx.cone.rays) == 24
    assert len(mn.cone.rays) == 16
    assert all(mx.cone.contains(r) for r in mn.cone.rays)
    outside = [r for r in mx.cone.rays if not mn.cone.contains(r)]
    assert len(outside) == 8
    assert mx.unit == kron_vec(sq.unit, sq.unit)
    composite = mx.state_space()
    assert composite.dim == 9 and composite.unit == mx.unit


def test_min_inside_max_on_mixed_factors():
    pairs = [
        (simplex_space(2), square_space()),
        (square_space(), pentagon_space()),
    ]
    for a, b in pairs:
        mx, mn = max_tensor(a, b), min_tensor(a, b)
        assert all(mx.cone.contains(r) for r in mn.cone.rays)


@pytest.mark.parametrize(
    "factors,min_counts",
    [
        ((pentagon_space, pentagon_space), (25, 183)),
        ((square_space, hexagon_space), (24, 144)),
    ],
    ids=["pentagon-pentagon", "square-hexagon"],
)
@pytest.mark.parametrize("kind", ["min", "max"])
def test_polygon_tensor_cones(factors, min_counts, kind):
    a, b = factors[0](), factors[1]()
    t = (min_tensor if kind == "min" else max_tensor)(a, b)
    c = t.cone
    d = c.ambient_dim
    counts = min_counts if kind == "min" else min_counts[::-1]
    assert (len(c.rays), len(c.facets)) == counts
    assert all(c.contains(kron_vec(r, s)) for r in a.cone.rays for s in b.cone.rays)
    dual = dual_cone(c)
    assert all(
        dual.contains(kron_vec(f, g)) for f in a.cone.facets for g in b.cone.facets
    )
    for gens, duals in ((c.rays, c.facets), (c.facets, c.rays)):
        for g in gens:
            tight = [h for h in duals if vec_dot(h, g) == 0]
            assert rank(tight) == d - 1
    assert cone_from_rays(c.rays, d) == c == cone_from_facets(c.facets, d)


def test_intermediate_tensor_sandwich():
    sq = square_space()
    mx, mn = max_tensor(sq, sq), min_tensor(sq, sq)
    extra = next(r for r in mx.cone.rays if not mn.cone.contains(r))
    mid = intermediate_tensor(sq, sq, list(mn.cone.rays) + [extra])
    assert mid.kind == "custom"
    assert mid.cone.contains(extra)
    assert all(mid.cone.contains(r) for r in mn.cone.rays)
    too_big = [(1,) + (0,) * 8]
    with pytest.raises(ValueError, match="outside the largest"):
        intermediate_tensor(sq, sq, list(mn.cone.rays) + too_big)
    missing_one_product = list(mn.cone.rays)[1:] + [extra]
    with pytest.raises(ValueError, match="all product states"):
        intermediate_tensor(sq, sq, missing_one_product)
    with pytest.raises(ValueError, match="vector has 3 entries, the cone lives in 9"):
        intermediate_tensor(sq, sq, list(mn.cone.rays) + [(1, 0, 0)])


def test_bipartite_state_validation():
    bit = simplex_space(2)
    with pytest.raises(ValueError, match="shape"):
        BipartiteState(bit, bit, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="not positive"):
        BipartiteState(bit, bit, ((1, 0), (0, -1)))


def test_tensor_vector_round_trip():
    omega = correlated_square_state()
    flat = omega.as_tensor_vector()
    sq = square_space()
    assert len(flat) == 9
    assert max_tensor(sq, sq).cone.contains(flat)
    back = BipartiteState.from_tensor_vector(sq, sq, flat)
    assert back.matrix == omega.matrix
    with pytest.raises(ValueError, match="length"):
        BipartiteState.from_tensor_vector(sq, sq, flat[:-1])


def test_correlated_square_state_from_products():
    sq = square_space()
    half = Fraction(1, 2)
    omega = BipartiteState.from_products(
        sq, sq, [(half, (1, 1, 1), (1, 1, 1)), (half, (-1, 1, 1), (-1, 1, 1))]
    )
    assert omega.matrix == as_matrix(CORRELATED_SQUARE_MATRIX)
    assert omega.normalization == 1
    assert marginal_b(omega).vector == (0, 1, 1)
    assert marginal_a(omega).vector == (0, 1, 1)


def test_product_state_marginals():
    trit, bit = simplex_space(3), simplex_space(2)
    alpha = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    beta = (Fraction(1, 3), Fraction(2, 3))
    omega = BipartiteState.from_products(trit, bit, [(Fraction(1), alpha, beta)])
    assert marginal_b(omega).vector == beta
    assert marginal_a(omega).vector == alpha
    assert omega.normalization == 1
    assert is_isomorphism_state(omega) is None


def test_table_state_marginals():
    omega = table_state()
    assert omega.normalization == 1
    assert marginal_b(omega).vector == (Fraction(1, 2), Fraction(1, 2))
    assert marginal_a(omega).vector == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
    )
    assert is_isomorphism_state(omega) is None


def test_table_state_conditionals():
    omega = table_state()
    first = conditional_state(omega, (1, 0, 0))
    assert first.vector == (1, 0)
    unit = conditional_state(omega, (1, 1, 1))
    assert unit.vector == (Fraction(1, 2), Fraction(1, 2))
    assert conditional_state(omega, (0, 0, 0)) is None
    with pytest.raises(ValueError, match="effect"):
        conditional_state(omega, (2, 0, 0))


def test_marginal_consistency():
    states = [
        table_state(),
        correlated_square_state(),
        purify(simplex_space(3), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
    ]
    for omega in states:
        total_b = vec_dot(omega.space_b.unit, marginal_b(omega).vector)
        total_a = vec_dot(omega.space_a.unit, marginal_a(omega).vector)
        assert total_b == total_a == omega.normalization


def test_observable_images_sum_to_marginal():
    omega = table_state()
    trit = omega.space_a
    obs = Observable(
        trit,
        tuple(Effect(trit, f) for f in ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    )
    images = [omega.apply(e.functional) for e in obs.effects]
    total = tuple(sum(col) for col in zip(*images))
    assert total == marginal_b(omega).vector

    sq = square_space()
    corr = correlated_square_state()
    half = Fraction(1, 2)
    pair = Observable(
        sq,
        (
            Effect(sq, tuple(half * x for x in (1, 0, 1))),
            Effect(sq, tuple(half * x for x in (-1, 0, 1))),
        ),
    )
    images = [corr.apply(e.functional) for e in pair.effects]
    total = tuple(sum(col) for col in zip(*images))
    assert total == marginal_b(corr).vector


def test_identity_on_dual_pair_is_isomorphism_state():
    sq = square_space()
    dia = diamond_dual(sq, sq.barycenter())
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    omega = BipartiteState(dia, sq, ident)
    witness = is_isomorphism_state(omega)
    assert witness is not None
    assert witness.matrix == as_matrix(ident)
    assert all(s > 0 for s in witness.scales)


def test_ray_matching_by_primitive_lookup():
    # Each image is looked up by its primitive form among the stored rays.
    targets = [(1, 0), (0, 1)]
    f = Fraction
    assert _match_rays_bijectively([(f(0), f(3)), (f(1, 2), f(0))], targets) == (
        (1, 0), (f(3), f(1, 2))
    )
    # A map sending two rays onto one target ray, a zero image, a negative
    # multiple, or counts that differ pair nothing.
    assert _match_rays_bijectively([(f(2), f(0)), (f(1), f(0))], targets) is None
    assert _match_rays_bijectively([(f(0), f(0)), (f(1), f(0))], targets) is None
    assert _match_rays_bijectively([(f(-1), f(0)), (f(0), f(1))], targets) is None
    assert _match_rays_bijectively([(f(1), f(0))], targets) is None


def test_doubling_map_is_not_extremal():
    bit = simplex_space(2)
    chi = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    result = map_is_extremal(chi, bit.cone, bit.cone)
    assert not result
    assert result.witness is not None
    assert_decomposition(chi, result.witness, bit.cone, bit.cone)
    # The textbook split into equal-rate and boosted parts checks out too.
    psi = ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    mu = ((Fraction(3, 2), 0), (0, Fraction(1, 2)))
    assert_decomposition(chi, psi, bit.cone, bit.cone)
    total = tuple(
        tuple(p + m for p, m in zip(prow, mrow)) for prow, mrow in zip(psi, mu)
    )
    assert total == as_matrix(chi)


def test_identity_on_square_cone_is_extremal():
    sq = square_space()
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert map_is_extremal(ident, sq.cone, sq.cone)


def test_rank_one_map_is_extremal():
    sq = square_space()
    ray, facet = (1, 1, 1), (1, 0, 1)
    phi = tuple(tuple(Fraction(ray[j] * facet[i]) for i in range(3)) for j in range(3))
    assert map_is_extremal(phi, sq.cone, sq.cone)


def test_map_extremality_rejects_bad_input():
    bit, sq = simplex_space(2), square_space()
    with pytest.raises(ValueError, match="shape"):
        map_is_extremal(((1, 0), (0, 1)), sq.cone, sq.cone)
    with pytest.raises(ValueError, match="not positive"):
        map_is_extremal(((1, 0), (0, -1)), bit.cone, bit.cone)
    assert map_is_extremal(((0, 0), (0, 0)), bit.cone, bit.cone).extremal is False


def test_square_automorphisms_are_extremal():
    sq = square_space()
    count = 0
    for witness in order_isomorphisms(sq.cone, sq.cone):
        assert map_is_extremal(witness.matrix, sq.cone, sq.cone)
        count += 1
    assert count == 8


def test_correlated_square_state_is_not_pure():
    omega = correlated_square_state()
    assert is_isomorphism_state(omega) is None
    result = is_pure_in_max(omega)
    assert not result
    assert_decomposition(
        omega.matrix,
        result.witness,
        dual_cone(omega.space_a.cone),
        omega.space_b.cone,
    )


def test_decomposition_program_holds_exactly_the_summands():
    omega = correlated_square_state()
    phi = omega.matrix
    source, target = dual_cone(omega.space_a.cone), omega.space_b.cone
    program = decomposition_program(phi, source, target)
    assert program.n_vars == 9 and not program.eq
    assert len(program.ge) == 2 * len(source.rays) * len(target.facets)

    def holds(psi):
        return LPOutcome.feasible([x for row in psi for x in row]).check(program)

    witness = is_pure_in_max(omega).witness
    assert_decomposition(phi, witness, source, target)
    assert holds(witness)
    assert holds(phi) and holds([[0] * 3] * 3)
    # Past phi the complement leaves the cone; below 0 the part does.
    assert not holds([[2 * x for x in row] for row in phi])
    assert not holds([[-x for x in row] for row in witness])


def test_purified_square_state_is_pure():
    sq = square_space()
    omega = purify(sq, (0, 0, 1))
    assert omega is not None
    assert is_isomorphism_state(omega) is not None
    assert is_pure_in_max(omega)


def test_correlated_square_state_has_no_face_factorization():
    omega = correlated_square_state()
    source = dual_cone(omega.space_a.cone)
    assert (
        factors_isomorphically_through(omega.matrix, source, omega.space_b.cone)
        is None
    )


def test_order_isomorphism_factors_through_whole_cone():
    sq = square_space()
    eta = is_weakly_self_dual(sq)
    assert eta is not None
    source = dual_cone(sq.cone)
    fac = factors_isomorphically_through(eta.matrix, source, sq.cone)
    assert fac is not None
    assert fac.face.ray_indices == tuple(range(len(source.rays)))
    assert fac.target_face.ray_indices == tuple(range(len(sq.cone.rays)))
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert fac.idempotent == ident
    assert all(s > 0 for s in fac.scales)


def test_rank_one_map_factors_through_a_ray():
    sq = square_space()
    ray, facet = (1, 1, 1), (1, 0, 1)
    phi = tuple(tuple(Fraction(ray[j] * facet[i]) for i in range(3)) for j in range(3))
    fac = factors_isomorphically_through(phi, sq.cone, sq.cone)
    assert fac is not None
    assert fac.face.span_dim() == 1
    assert fac.target_face.rays() == [(1, 1, 1)]
    p = as_matrix(fac.idempotent)
    assert mat_mul(p, p) == p
    for r in sq.cone.rays:
        assert fac.face.contains(mat_vec(p, as_vector(r)))
    source_ray = as_vector(fac.face.rays()[0])
    assert mat_vec(phi, source_ray) == tuple(
        fac.scales[0] * x for x in (1, 1, 1)
    )


def test_purify_classical_bit():
    bit = simplex_space(2)
    omega = purify(bit, (Fraction(1, 2), Fraction(1, 2)))
    assert omega.matrix == (
        (Fraction(1, 2), 0),
        (0, Fraction(1, 2)),
    )
    assert marginal_b(omega).vector == (Fraction(1, 2), Fraction(1, 2))
    assert is_isomorphism_state(omega) is not None


def test_purify_classical_trit():
    trit = simplex_space(3)
    target = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    omega = purify(trit, target)
    assert omega.matrix == (
        (Fraction(1, 2), 0, 0),
        (0, Fraction(1, 4), 0),
        (0, 0, Fraction(1, 4)),
    )
    assert marginal_b(omega).vector == target
    assert is_isomorphism_state(omega) is not None


def test_classical_purifications_are_not_pure():
    # Isomorphism states over a reducible cone can decompose: the perfectly
    # correlated classical state is a mixture of product states even though
    # its map is an order isomorphism.
    bit = simplex_space(2)
    omega = purify(bit, (Fraction(1, 2), Fraction(1, 2)))
    result = is_pure_in_max(omega)
    assert not result
    assert_decomposition(
        omega.matrix,
        result.witness,
        dual_cone(bit.cone),
        bit.cone,
    )


def test_purify_square_requires_central_marginal():
    sq = square_space()
    omega = purify(sq, (0, 0, 1))
    assert omega is not None
    assert marginal_b(omega).vector == (0, 0, 1)
    assert purify(sq, (Fraction(1, 2), 0, 1)) is None
    with pytest.raises(ValueError, match="interior"):
        purify(sq, (1, 0, 1))
    with pytest.raises(ValueError, match="normalized"):
        purify(sq, (0, 0, 2))


def test_purification_grid_matches_homogeneity():
    for n in (2, 3):
        space = simplex_space(n)
        assert is_homogeneous(space).status == "yes"
        grid = []
        for k in range(1, 4):
            weights = [Fraction(k, 10)] + [
                Fraction(10 - k, 10 * (n - 1))
            ] * (n - 1)
            grid.append(tuple(weights))
        for alpha in grid:
            omega = purify(space, alpha)
            assert omega is not None
            assert marginal_b(omega).vector == alpha
            assert is_isomorphism_state(omega) is not None

    sq = square_space()
    assert is_homogeneous(sq).status == "no"
    missed = [
        alpha
        for alpha in [(Fraction(1, 2), 0, 1), (0, Fraction(1, 3), 1)]
        if purify(sq, alpha) is None
    ]
    assert missed
