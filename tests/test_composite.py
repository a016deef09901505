"""Tensor cones, bipartite states, purity, factorization, purification.

Oracles: the worked bipartite states here are small enough that every
matrix, marginal, and conditional was derived by hand from the map
convention omega-hat(a) = M a before being frozen. Extremality witnesses
are re-verified structurally (both parts positive, witness not a multiple
of the map) rather than frozen, since any valid decomposition certifies
non-extremality equally well.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from polysteer import composite
from polysteer.cone import cone_from_facets, cone_from_rays, dual_cone
from polysteer.composite import (
    BipartiteState,
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
from polysteer.dd import int_dot
from polysteer.fixtures import fixture_library
from polysteer.ratlin import (
    LPOutcome,
    as_matrix,
    as_vector,
    invert,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    vec_dot,
    vec_scale,
)
from polysteer.space import (
    Effect,
    Observable,
    OrderIsoWitness,
    StateSpace,
    diamond_dual,
    is_homogeneous,
    is_weakly_self_dual,
    order_isomorphisms,
    pair_ray_images,
)
import reference_lp_loops
from test_space import ungated_transport

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
    """Two all-int factors, as a tuple, a list or an iterator, give ints."""
    for x, y in (((1, 2), (3, 4, 5)), ([1, 2], iter((3, 4, 5)))):
        got = kron_vec(x, y)
        assert got == (3, 4, 5, 6, 8, 10)
        assert all(type(v) is int for v in got)
    assert kron_vec((Fraction(1, 2),), (2, 4)) == (1, 2)


@pytest.mark.parametrize("entry", [Fraction(3, 2), Fraction(4), "3/2", "-7", True, False])
@pytest.mark.parametrize("side", ["x", "y"])
def test_kron_vec_widens_any_other_entry_to_fractions(entry, side):
    """A Fraction, string or bool entry in either factor gives the
    Fractions of the two factors read as Fraction vectors."""
    x, y = [2, -1, 0], [3, 5]
    (x if side == "x" else y)[1] = entry
    got = kron_vec(x, y)
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    assert got == tuple(a * b for a in fx for b in fy)
    assert all(type(v) is Fraction for v in got)


def test_products_are_kron_vec_over_the_pairs():
    lib = fixture_library()
    for name_a, name_b in [("square_space", "cube_space"), ("simplex_3", "pentagon_space")]:
        a, b = lib.space(name_a).cone, lib.space(name_b).cone
        for fs, gs in ((a.rays, b.rays), (a.facets, b.facets)):
            products = composite._products(fs, gs)
            assert products == [kron_vec(f, g) for f in fs for g in gs]
            assert all(type(v) is int for p in products for v in p)


def test_product_membership_builds_no_fraction(monkeypatch):
    """Every product state lies in, and every product effect is
    nonnegative on, the min and max square (x) cube composites, checked
    as the benchmark's tensor check does, with no Fraction built."""
    lib = fixture_library()
    a, b = lib.space("square_space"), lib.space("cube_space")
    tensors = [min_tensor(a, b), max_tensor(a, b)]
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: built.append(1) or real(*args, **kw))
    for t in tensors:
        dual = dual_cone(t.cone)
        assert all(t.cone.contains(kron_vec(r, s)) for r in a.cone.rays for s in b.cone.rays)
        assert all(dual.contains(kron_vec(f, g)) for f in a.cone.facets for g in b.cone.facets)
    assert built == []
    assert Fraction(1, 2) and built == [1]


def test_bit_composite_is_the_four_state_classical_cone():
    bit = simplex_space(2)
    mx, mn = max_tensor(bit, bit), min_tensor(bit, bit)
    basis = {tuple(int(j == i) for j in range(4)) for i in range(4)}
    assert set(mx.cone.rays) == basis
    assert mx.cone == mn.cone
    assert mx.unit == mn.unit == (1, 1, 1, 1)
    assert all(type(v) is Fraction for v in mx.unit + mn.unit)
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


# sha256 of repr((rays, facets)) of min cube², as inserting the most
# cutting row first computes it, in about 20 s.
CUBE_SQUARED_MIN_SHA256 = "b86a5b9b23775da009380a150e38c8dc1adbf09a4f582ab92d1f78410f2819ab"


def test_cube_squared_tensor_cones_in_block_order():
    """min cube² in the block order gives the cone the most-cutting order
    gave, and max octahedron² is its dual, as the fixture octahedron is the
    fixture cube's dual cone."""
    lib = fixture_library()
    cube, octahedron = lib.space("cube_space"), lib.space("octahedron_space")
    assert octahedron.cone == dual_cone(cube.cone)
    c = min_tensor(cube, cube).cone
    assert (len(c.rays), len(c.facets)) == (64, 684)
    digest = hashlib.sha256(repr((c.rays, c.facets)).encode()).hexdigest()
    assert digest == CUBE_SQUARED_MIN_SHA256
    assert max_tensor(octahedron, octahedron).cone == dual_cone(c)


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


@pytest.mark.parametrize("alpha, beta", [((1, 1, 1, 0), (1, 1, 1)), ((1, 1), (1, 1, 1)),
                                         ((1, 1, 1), (1, 1, 1, 0)), ((1, 1, 1), (1, 1))])
def test_product_term_lengths_must_match_the_factors(alpha, beta):
    """A term's alpha and beta must have the factors' dimensions: a longer
    one is not truncated, a shorter one is not an IndexError."""
    sq = square_space()
    terms = [(Fraction(1, 2), (1, 1, 1), (1, 1, 1)), (Fraction(1, 2), alpha, beta)]
    with pytest.raises(ValueError, match=r"product term 1 has lengths"):
        BipartiteState.from_products(sq, sq, terms)


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
    # Each image under the integer rows over q is looked up by its primitive
    # form among the stored rays, at scale gcd / q. Over q = 2 these rows
    # send e_1 to (0, 3) and e_2 to (1/2, 0).
    rays, targets = [(1, 0), (0, 1)], [(1, 0), (0, 1)]
    f = Fraction
    assert pair_ray_images([[0, 1], [6, 0]], 2, rays, targets) == (
        (1, 0), (f(3), f(1, 2))
    )
    # A map sending two rays onto one target ray, a zero image, a negative
    # multiple, or counts that differ pair nothing.
    assert pair_ray_images([[2, 1], [0, 0]], 1, rays, targets) is None
    assert pair_ray_images([[0, 1], [0, 0]], 1, rays, targets) is None
    assert pair_ray_images([[-1, 0], [0, 1]], 1, rays, targets) is None
    assert pair_ray_images([[1, 0], [0, 1]], 1, rays[:1], targets) is None
    # A map that is not square, as a face factorization passes: two rays of
    # the plane onto two rays of space, over q = 3.
    wide = [[1, 0], [0, 1], [1, 1]]
    assert pair_ray_images(wide, 3, rays, [(0, 1, 1), (1, 0, 1)]) == (
        (1, 0), (f(1, 3), f(1, 3))
    )


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


def extremality_corpus(states):
    """(phi, source, target) triples: the maps A* -> B of the fixture states
    and of the given states, every automorphism and every order isomorphism
    from the dual cone onto the cone of each fixture space, and 48 seeded
    sums of one to three weighted products of a B ray (negated one time in
    three, so that some sums are not positive) and an A facet."""
    lib = fixture_library()
    omegas = [lib.state(name) for name in lib.states] + list(states)
    corpus = [(o.matrix, dual_cone(o.space_a.cone), o.space_b.cone) for o in omegas]
    for name in lib.spaces:
        cone = lib.space(name).cone
        for source in (cone, dual_cone(cone)):
            corpus += [(w.matrix, source, cone) for w in order_isomorphisms(source, cone)]
    rng = random.Random(39)
    names = list(lib.spaces)
    for _ in range(48):
        a, b = lib.space(rng.choice(names)), lib.space(rng.choice(names))
        phi = [[Fraction(0)] * a.dim for _ in range(b.dim)]
        for _ in range(rng.randint(1, 3)):
            f, g, w = rng.choice(a.cone.facets), rng.choice(b.cone.rays), rng.randint(1, 4)
            if rng.random() < 1 / 3:
                w = -w
            for j in range(b.dim):
                for i in range(a.dim):
                    phi[j][i] += w * g[j] * f[i]
        corpus.append((phi, dual_cone(a.cone), b.cone))
    return corpus


def extremality_outcome(decide, phi, source, target):
    try:
        result = decide(phi, source, target)
    except ValueError as exc:
        return str(exc)
    return result.extremal, result.witness


def counted_lps(monkeypatch):
    """The lp_optimize calls composite makes while the test runs."""
    calls = []
    real = composite.lp_optimize
    monkeypatch.setattr(composite, "lp_optimize", lambda lp: calls.append(1) or real(lp))
    return calls


def test_map_is_extremal_matches_the_lp_loop_reference(monkeypatch, criterion_8_sequence):
    corpus = extremality_corpus(criterion_8_sequence(100))
    assert len(corpus) == 8 + 100 + 150 + 54 + 48
    lps = counted_lps(monkeypatch)
    tally = {"extremal": 0, "refuted": 0, "refuted by one LP": 0, "error": 0}
    for phi, source, target in corpus:
        lps.clear()
        got = extremality_outcome(map_is_extremal, phi, source, target)
        assert got == extremality_outcome(reference_lp_loops.map_is_extremal, phi, source, target)
        if isinstance(got, str):
            tally["error"] += 1
        elif got[0]:
            assert lps == []
            tally["extremal"] += 1
        else:
            assert len(lps) <= 1
            tally["refuted"] += 1
            tally["refuted by one LP"] += len(lps)
    assert tally == {"extremal": 156, "refuted": 174, "refuted by one LP": 84, "error": 30}


# Extreme-ray counts of the largest composites whose purity census tier-1 runs.
MAX_TENSOR_RAYS = {
    ("square_space", "square_space"): 24,
    ("square_space", "pentagon_space"): 60,
    ("pentagon_space", "pentagon_space"): 183,
    ("hexagon_space", "hexagon_space"): 552,
    ("cube_space", "octahedron_space"): 384,
}


@pytest.mark.parametrize("names", list(MAX_TENSOR_RAYS), ids="-".join)
def test_extreme_rays_of_the_largest_composite_are_pure_with_no_lp(monkeypatch, names):
    a, b = (fixture_library().space(name) for name in names)
    rays = max_tensor(a, b).cone.rays
    assert len(rays) == MAX_TENSOR_RAYS[names]
    lps = counted_lps(monkeypatch)
    assert all(is_pure_in_max(BipartiteState.from_tensor_vector(a, b, r)) for r in rays)
    assert lps == []


@pytest.mark.parametrize("name", ["square_space", "pentagon_space"])
def test_sums_of_two_extreme_rays_are_refuted(monkeypatch, name):
    space = fixture_library().space(name)
    source, target = dual_cone(space.cone), space.cone
    rays = max_tensor(space, space).cone.rays
    rng = random.Random(39)
    lps = counted_lps(monkeypatch)
    for _ in range(12):
        r, s = rng.sample(rays, 2)
        omega = BipartiteState.from_tensor_vector(space, space, [x + y for x, y in zip(r, s)])
        lps.clear()
        result = is_pure_in_max(omega)
        assert not result and len(lps) <= 1
        phi = [x for row in omega.matrix for x in row]
        psi = [x for row in result.witness for x in row]
        assert rank([phi, psi]) == 2
        assert LPOutcome.feasible(psi).check(decomposition_program(omega.matrix, source, target))


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


# --- One pinned search and one matcher against what they replaced ----------
#
# The references are the code as it ran before: purify chained a
# self-duality search, a normalisation and a transport search, and the
# isomorphism-state and factorization tests paired ray images with a
# Fraction matcher. Witnesses must agree entry for entry.


def fraction_match_rays(images, targets):
    """Pair each image with a distinct target ray it is a positive multiple of."""
    if len(images) != len(targets):
        return None
    index = {tuple(t): j for j, t in enumerate(targets)}
    bijection, scales = [], []
    for img in images:
        j = index.get(primitive(img)) if any(img) else None
        if j is None or j in bijection:
            return None
        t = targets[j]
        k0 = next(k for k, v in enumerate(t) if v)
        bijection.append(j)
        scales.append(img[k0] / t[k0])
    return tuple(bijection), tuple(scales)


def fraction_is_isomorphism_state(omega):
    source = dual_cone(omega.space_a.cone)
    target = omega.space_b.cone
    if source.ambient_dim != target.ambient_dim:
        return None
    if invert(omega.matrix) is None:
        return None
    match = fraction_match_rays([omega.apply(r) for r in source.rays], target.rays)
    if match is None:
        return None
    witness = OrderIsoWitness(omega.matrix, match[0], match[1])
    return witness if witness.verify(source, target) else None


def two_search_purify(space, alpha):
    """The purification matrix by a self-duality witness eta, normalised,
    then an automorphism carrying eta(u) to alpha; None when either fails.
    The transport is the pinned search alone, without the invariant gate that
    purify's own search runs behind."""
    v = as_vector(alpha)
    eta = is_weakly_self_dual(space)
    if eta is None:
        return None
    alpha0 = mat_vec(eta.matrix, space.unit)
    scale = vec_dot(space.unit, alpha0)
    eta_m = tuple(tuple(x / scale for x in row) for row in eta.matrix)
    alpha0 = vec_scale(Fraction(1) / scale, alpha0)
    if alpha0 == v:
        return eta_m
    tau = ungated_transport(space.cone, alpha0, v)
    return None if tau is None else mat_mul(tau, eta_m)


def purify_grid():
    """(name, space, alpha) for every fixture space at its barycentre and at
    (1 - 1/k) bary + (1/k) v for k = 2, 3 over its vertex states v."""
    for name, sp in fixture_library().spaces.items():
        bary = sp.barycenter()
        yield name, sp, bary
        for k in (2, 3):
            t = Fraction(1, k)
            for vert in sp.vertex_states():
                yield name, sp, tuple((1 - t) * b + t * x for b, x in zip(bary, vert))


def positive_compositions(n, m):
    """Every n-tuple of positive integers summing to m, over m, in
    lexicographic order: acceptance criterion 4's simplex grids."""
    if n == 1:
        yield (Fraction(1),)
        return
    for i in range(1, m - n + 2):
        for rest in positive_compositions(n - 1, m - i):
            yield (Fraction(i, m), *(x * (m - i) / m for x in rest))


def test_purify_matches_the_two_search_reference():
    lib = fixture_library().spaces
    cases = [(sp, alpha) for _, sp, alpha in purify_grid()]
    assert len(cases) == 84
    for name, m in (("simplex_2", 12), ("simplex_3", 6), ("simplex_4", 7)):
        cases += [(lib[name], alpha) for alpha in positive_compositions(lib[name].dim, m)]
    assert len(cases) == 84 + 41
    found = 0
    for sp, alpha in cases:
        omega = purify(sp, alpha)
        want = two_search_purify(sp, alpha)
        assert (omega is None) == (want is None), alpha
        if omega is not None:
            # repr tells a Fraction from an int of the same value.
            assert repr(omega.matrix) == repr(as_matrix(want)), alpha
            found += 1
    assert found == 23 + 41


def isomorphism_test_states():
    """The fixture states, and the square's and the hexagon's isomorphism
    states composed with each automorphism of the square or hexagon."""
    lib = fixture_library()
    states = list(lib.states.values())
    for name in ("square_space", "hexagon_space"):
        sp = lib.spaces[name]
        eta = is_weakly_self_dual(sp).matrix
        states += [
            BipartiteState(sp, sp, mat_mul(aut.matrix, eta))
            for aut in order_isomorphisms(sp.cone, sp.cone)
        ]
    return states


def witness_fields(w):
    return None if w is None else repr((w.matrix, w.ray_bijection, w.scales))


def test_isomorphism_state_witnesses_match_the_fraction_matcher():
    states = isomorphism_test_states()
    assert len(states) == 8 + 8 + 12
    found = 0
    for omega in states:
        got = is_isomorphism_state(omega)
        assert witness_fields(got) == witness_fields(fraction_is_isomorphism_state(omega))
        found += got is not None
    # square_iso, the classical correlated pair and triple, the doubling map
    # and every composed state.
    assert found == 4 + 8 + 12


def test_factorization_witnesses_match_the_fraction_matcher(monkeypatch):
    def factors(omega):
        fac = factors_isomorphically_through(
            omega.matrix, dual_cone(omega.space_a.cone), omega.space_b.cone
        )
        return None if fac is None else repr(fac)

    states = isomorphism_test_states()
    got = [factors(omega) for omega in states]

    def fraction_pairing(rows, q, rays, targets):
        images = [tuple(Fraction(int_dot(row, r), q) for row in rows) for r in rays]
        return fraction_match_rays(images, targets)

    monkeypatch.setattr(composite, "pair_ray_images", fraction_pairing)
    assert got == [factors(omega) for omega in states]
    # All but two_squares_correlated and cube_to_hexagon factor.
    assert sum(g is not None for g in got) == len(states) - 2


# --- The paper's interior self-steered set ----------------------------------
#
# A state on two copies of A steers an interior alpha exactly when its map is
# an order isomorphism eta: A* -> A with eta(u_A) = alpha, so the interior
# self-steered states are the normalised eta(u_A), and purify succeeds at an
# interior state exactly when the state is one of them.


def interior_self_steered(space):
    points = set()
    for w in order_isomorphisms(dual_cone(space.cone), space.cone):
        image = mat_vec(w.matrix, space.unit)
        points.add(vec_scale(1 / vec_dot(space.unit, image), image))
    return points


def test_purify_succeeds_exactly_on_the_interior_self_steered_set():
    lib = fixture_library().spaces
    centre = {(0, 0, 1)}
    want = {
        "square_space": centre,
        "pentagon_space": centre,
        "hexagon_space": centre,
        "cube_space": set(),
        "octahedron_space": set(),
    }
    grid = {}
    for name, _, alpha in purify_grid():
        grid.setdefault(name, []).append(alpha)
    for name, points in want.items():
        sp = lib[name]
        assert interior_self_steered(sp) == points, name
        purified = {a for a in grid[name] + list(points) if purify(sp, a) is not None}
        assert purified == points, name
    # The pentagon's centre of symmetry is not its barycentre.
    polygons = ("square_space", "pentagon_space", "hexagon_space")
    assert [n for n in polygons if purify(lib[n], lib[n].barycenter())] == [
        "square_space", "hexagon_space"
    ]
    # A simplex is homogeneous: every interior state purifies.
    for name in ("simplex_2", "simplex_3", "simplex_4"):
        assert all(purify(lib[name], alpha) is not None for alpha in grid[name]), name
