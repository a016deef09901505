"""Cone construction, duality, faces, decomposition, and vertex enumeration.

Independent oracles used here:

* LP membership: x lies in cone(R) iff some nonnegative combination of R
  equals x, decided by the certified simplex solver.
* Bipartition enumeration: the finest direct-sum splitting is recovered by
  checking rank additivity over every bipartition of the ray set.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from polysteer.cone import (
    ConeError,
    PolyhedralCone,
    _extreme_generators,
    all_faces,
    cone_from_facets,
    cone_from_rays,
    dual_cone,
    face_of,
    irreducible_components,
    irreducible_partition,
    is_extremal,
    ordered_direct_sum,
    pinned_slack,
)
from polysteer.composite import _products, kron_vec, max_tensor, min_tensor
from polysteer.dd import extreme_rays, int_dot, polytope_vertices
from polysteer.fixtures import fixture_library
from polysteer.ratlin import (
    LinearProgram,
    format_rational,
    integer_row,
    lp_feasible,
    primitive,
    rank,
)
from reference_dd import extreme_rays as third_ray_scan_extreme_rays

SQUARE_RAYS = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
SQUARE_FACETS = [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)]

CUBE_RAYS = sorted(
    (s1, s2, s3, 1) for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)
)
OCT_RAYS = sorted(
    tuple(s if k == i else 0 for k in range(3)) + (1,)
    for i in range(3)
    for s in (-1, 1)
)


def halfline():
    return cone_from_rays([(1,)], 1)


def quadrant():
    return cone_from_rays([(1, 0), (0, 1)], 2)


def orthant(d):
    return cone_from_rays([tuple(int(j == i) for j in range(d)) for i in range(d)], d)


def square_cone():
    return cone_from_rays(SQUARE_RAYS, 3)


def in_cone_lp(rays, x):
    n = len(rays)
    eq = [integer_row([r[k] for r in rays], x[k]) for k in range(len(x))]
    ge = [(tuple(int(j == i) for j in range(n)), 0, 1) for i in range(n)]
    return lp_feasible(LinearProgram(n, eq=eq, ge=ge)).status == "feasible"


def bipartition_oracle(rays, dim):
    k = len(rays)
    separated = [[False] * k for _ in range(k)]
    for bits in range(2 ** (k - 1)):
        s = [0] + [i + 1 for i in range(k - 1) if bits >> i & 1]
        if len(s) == k:
            continue
        in_s = set(s)
        t = [j for j in range(k) if j not in in_s]
        if rank([rays[i] for i in s]) + rank([rays[j] for j in t]) == dim:
            for i in s:
                for j in t:
                    separated[i][j] = separated[j][i] = True
    groups = []
    assigned = [False] * k
    for i in range(k):
        if assigned[i]:
            continue
        g = tuple(j for j in range(k) if not separated[i][j])
        for j in g:
            assigned[j] = True
        groups.append(g)
    return sorted(groups)


def random_rows(rng, dim):
    """dim to dim + 4 random rays of a polytope's cone that span the space."""
    while True:
        m = rng.randint(dim, dim + 4)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (1,) for _ in range(m)
        ]
        if rank(rows) == dim:
            return rows


def random_cone(rng, dim):
    rows = random_rows(rng, dim)
    return rows, cone_from_rays(rows, dim)


def test_quadrant_representation():
    c = quadrant()
    assert c.rays == ((0, 1), (1, 0))
    assert c.facets == ((0, 1), (1, 0))
    assert c.is_simplicial()


def test_square_cone_hand_values():
    c = square_cone()
    assert c.rays == tuple(SQUARE_RAYS)
    assert c.facets == tuple(SQUARE_FACETS)
    assert not c.is_simplicial()


def test_cube_octahedron_duality():
    cube = cone_from_rays(CUBE_RAYS, 4)
    octa = cone_from_rays(OCT_RAYS, 4)
    assert cube.facets == tuple(OCT_RAYS)
    assert octa.facets == tuple(CUBE_RAYS)
    assert dual_cone(cube) == octa
    assert dual_cone(octa) == cube


def test_redundant_and_scaled_input():
    rays = [(2, 2, 2), (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1), (0, 0, 5)]
    assert cone_from_rays(rays, 3) == square_cone()
    facets = [f for f in SQUARE_FACETS] + [(0, 0, 1), (-2, 0, 2)]
    assert cone_from_facets(facets, 3) == square_cone()


def cone_error(build, generators, dim):
    with pytest.raises(ConeError) as caught:
        build(generators, dim)
    return str(caught.value)


def test_from_rays_not_generating():
    assert (
        cone_error(cone_from_rays, [(1, 0), (2, 0)], 2)
        == "not generating: rays span 1 of 2 dimensions"
    )


def test_from_rays_not_pointed():
    assert (
        cone_error(cone_from_rays, [(1, 0), (-1, 0), (0, 1)], 2)
        == "not pointed: cone contains the line through (1, 0)"
    )


def test_from_facets_errors():
    assert (
        cone_error(cone_from_facets, [(1, 0)], 2)
        == "not pointed: cone contains the line through (0, 1)"
    )
    assert (
        cone_error(cone_from_facets, [(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
        == "not generating: facet cone spans 0 of 2 dimensions"
    )


def test_generators_must_have_the_ambient_length():
    long = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ConeError, match="vector has 3 entries, the cone lives in 2"):
        cone_from_rays(long, 2)
    with pytest.raises(ConeError, match="vector has 3 entries, the cone lives in 2"):
        cone_from_facets(long, 2)


def test_zero_generators_are_named():
    message = "generator 1 is the zero vector; rays and facet normals must be nonzero"
    assert cone_error(cone_from_rays, [(1, 0), (0, 0), (0, 1)], 2) == message
    assert cone_error(cone_from_facets, [(1, 0), (0, 0), (0, 1)], 2) == message
    assert cone_error(cone_from_rays, [(0, 0, 0), (1, 0, 0)], 3).startswith("generator 0 ")


def test_extreme_rays_filters_non_extremal_generators():
    # Each ray comes with the rows tight on it: (0, 1) on row 0, (1, 0) on
    # row 1; row 2 is never inserted and is tight on neither.
    pairs = extreme_rays([(1, 0), (0, 1), (1, 1)], 2)
    assert pairs == [((0, 1), 0b001), ((1, 0), 0b010)]


def test_extreme_rays_rejects_rows_of_the_wrong_width():
    with pytest.raises(ValueError, match="row 2 has 3 entries, expected 2"):
        extreme_rays([(1, 0), (0, 1), (1, 1, 0)], 2)
    with pytest.raises(ValueError, match="row 0 has 1 entries, expected 2"):
        extreme_rays([(1,), (0, 1), (1, 0)], 2)


def exact_pairs(rows, dim):
    """extreme_rays(rows, dim), after checking every mask against the rows
    tight on its ray by integer dot products, and that no ray repeats."""
    pairs = extreme_rays(rows, dim)
    for ray, mask in pairs:
        assert mask == sum(1 << i for i, h in enumerate(rows) if int_dot(h, ray) == 0)
    # perfbench's dd.rays_out reads len(out): one pair per distinct ray.
    assert len(pairs) == len({r for r, _ in pairs})
    return pairs


def test_extreme_rays_masks_are_the_tight_rows():
    rng = random.Random(11)
    for trial in range(40):
        dim = 1 + trial % 5
        rows, c = random_cone(rng, dim)
        # Duplicates, positive multiples and interior points, unreduced.
        gens = with_redundant_generators(rng, rows)
        facets = [f for f, _ in exact_pairs(gens, dim)]
        assert facets == list(c.facets)
        assert [r for r, _ in exact_pairs(facets, dim)] == list(c.rays)
    for kind, sa, sb in tensor_pairs(TENSOR_PAIRS):
        gens, dim = tensor_generators(kind, sa, sb)
        exact_pairs(gens, dim)


def test_double_description_random():
    rng = random.Random(20260814)
    for _ in range(15):
        dim = rng.randint(2, 4)
        rows, c = random_cone(rng, dim)
        assert set(c.rays) <= {primitive(r) for r in rows}
        assert cone_from_facets(c.facets, dim) == c
        assert cone_from_rays(c.facets, dim) == dual_cone(c)
        for f in c.facets:
            dots = [sum(a * b for a, b in zip(f, r)) for r in c.rays]
            assert all(v >= 0 for v in dots)
            tight = [r for r, v in zip(c.rays, dots) if v == 0]
            assert rank(tight) == dim - 1
        for r in c.rays:
            assert is_extremal(c, r)
        for _ in range(6):
            x = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert c.contains(x) == in_cone_lp(rows, x)


def dd_rays(rows, dim):
    return [r for r, _ in extreme_rays(rows, dim)]


def two_pass_from_rays(rays, dim):
    """The reference canonicalization: DD forward, then DD back."""
    facets = dd_rays(rays, dim)
    return PolyhedralCone(dim, tuple(dd_rays(facets, dim)), tuple(facets))


def two_pass_from_facets(facets, dim):
    rays = dd_rays(facets, dim)
    return PolyhedralCone(dim, tuple(rays), tuple(dd_rays(rays, dim)))


# The tensor pairs the benchmark runs, and two more: each of their tensor
# conversions takes tens of milliseconds, but the two-pass reference's back
# pass on them is the slow many-rows direction (about 1.5 s for pentagon²).
TENSOR_PAIRS = [
    ("square_space", "square_space"),
    ("square_space", "pentagon_space"),
    ("simplex_3", "cube_space"),
    ("square_space", "cube_space"),
]
LARGER_TENSOR_PAIRS = [
    ("square_space", "hexagon_space"),
    ("pentagon_space", "pentagon_space"),
    # The first factor has more rays and facets (8 and 6 against 4), so the
    # block order puts the second factor outer.
    ("cube_space", "square_space"),
]


def tensor_pairs(pairs):
    lib = fixture_library()
    for a, b in pairs:
        for kind in ("min", "max"):
            yield kind, lib.space(a), lib.space(b)


def tensor_factors(kind, sa, sb):
    """The vectors a min (max) tensor multiplies: the rays (facets)."""
    if kind == "min":
        return sa.cone.rays, sb.cone.rays
    return sa.cone.facets, sb.cone.facets


def tensor_generators(kind, sa, sb):
    """The rows a min (max) tensor converts, and their dimension."""
    fs, gs = tensor_factors(kind, sa, sb)
    return [tuple(x * y for x in f for y in g) for f in fs for g in gs], sa.dim * sb.dim


def test_one_pass_canonicalization_matches_two_passes():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(2, 5)
        rows, _ = random_cone(rng, dim)
        gens = with_redundant_generators(rng, rows)
        assert cone_from_rays(gens, dim) == two_pass_from_rays(gens, dim)
        assert cone_from_facets(gens, dim) == two_pass_from_facets(gens, dim)

    for kind, sa, sb in tensor_pairs(TENSOR_PAIRS + LARGER_TENSOR_PAIRS):
        gens, dim = tensor_generators(kind, sa, sb)
        # Products of primitive vectors are primitive: gcd(f_i g_j) = gcd(f) gcd(g).
        assert all(row == primitive(row) for row in gens)
        fs, gs = tensor_factors(kind, sa, sb)
        assert gens == [kron_vec(f, g) for f in fs for g in gs]
        if kind == "min":
            want = two_pass_from_rays(gens, dim)
            assert min_tensor(sa, sb).cone == want == cone_from_rays(gens, dim)
        else:
            want = two_pass_from_facets(gens, dim)
            assert max_tensor(sa, sb).cone == want == cone_from_facets(gens, dim)


def pinned_pairs(rows, dim, in_order=False):
    """extreme_rays(rows, dim, in_order=in_order), after checking it returns
    the third-ray scan reference's (ray, mask) pairs, in the same order."""
    pairs = extreme_rays(rows, dim, in_order=in_order)
    assert pairs == third_ray_scan_extreme_rays(rows, dim)
    return pairs


def test_extreme_rays_matches_the_third_ray_scan_on_tensor_cones():
    # The benchmark's tensor conversions both ways, and the larger pairs in
    # the direction their tensor cones run, from the product rows; then
    # every pair's product rows in `_products`' block order, inserted in
    # that order as the tensor cones insert them.
    for kind, sa, sb in tensor_pairs(TENSOR_PAIRS):
        gens, dim = tensor_generators(kind, sa, sb)
        duals = [r for r, _ in pinned_pairs(gens, dim)]
        pinned_pairs(duals, dim)
    for kind, sa, sb in tensor_pairs(LARGER_TENSOR_PAIRS):
        pinned_pairs(*tensor_generators(kind, sa, sb))
    for kind, sa, sb in tensor_pairs(TENSOR_PAIRS + LARGER_TENSOR_PAIRS):
        blocks = _products(*tensor_factors(kind, sa, sb))
        pinned_pairs(blocks, sa.dim * sb.dim, in_order=True)


def with_zero_rows(rng, rows):
    """rows with one or two zero rows put in at random places."""
    rows = list(rows)
    for _ in range(rng.randint(1, 2)):
        rows.insert(rng.randint(0, len(rows)), (0,) * len(rows[0]))
    return rows


def test_extreme_rays_matches_the_third_ray_scan_on_random_cones():
    rng = random.Random(24)
    for trial in range(60):
        dim = 1 + trial % 6
        rows = random_rows(rng, dim)
        gens = with_zero_rows(rng, with_redundant_generators(rng, rows))
        duals = [r for r, _ in pinned_pairs(gens, dim)]
        pinned_pairs(with_zero_rows(rng, with_redundant_generators(rng, duals)), dim)


def rank_rule(generators, duals, dim):
    """The earlier canonicalisation: g is extreme iff its tight duals have rank dim - 1."""
    return sorted(
        g
        for g in {primitive(g) for g in generators}
        if rank([h for h in duals if sum(a * b for a, b in zip(h, g)) == 0]) == dim - 1
    )


def dot_product_rule(generators, duals):
    """The replaced mask rule: each distinct primitive generator's mask over
    the duals by integer dot products; g is extreme iff no other generator's
    mask contains g's."""
    gens = sorted(set(generators))
    masks = [sum(1 << k for k, h in enumerate(duals) if int_dot(h, g) == 0) for g in gens]
    return [g for g, z in zip(gens, masks) if len([x for x in masks if x & z == z]) == 1]


def with_redundant_generators(rng, rows):
    """rows plus duplicates, positive multiples, sums of two and the sum of all."""
    k = rng.randint(2, 3)
    gens = rows + [rng.choice(rows) for _ in range(2)]
    gens += [tuple(k * a for a in rng.choice(rows))]
    gens += [tuple(a + b for a, b in zip(rng.choice(rows), rng.choice(rows)))]
    gens += [tuple(sum(col) for col in zip(*rows))]
    rng.shuffle(gens)
    return gens


def test_incidence_containment_matches_rank_rule():
    rng = random.Random(7)
    cases = []
    for trial in range(50):
        dim = 1 + trial % 5
        rows, _ = random_cone(rng, dim)
        cases.append((with_redundant_generators(rng, rows), dim))
    for dim in range(1, 6):
        while True:
            rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
            if rank(rows) == dim:
                break
        cases.append((with_redundant_generators(rng, rows), dim))
    cases += [tensor_generators(*pair) for pair in tensor_pairs(TENSOR_PAIRS)]
    for gens, dim in cases:
        # _extreme_generators takes the generators made primitive and
        # distinct, in first-occurrence order, with the DD pairs over them,
        # as the conversions hand them on.
        prim = list(dict.fromkeys(primitive(g) for g in gens))
        by_masks = _extreme_generators(prim, extreme_rays(prim, dim))
        c = cone_from_rays(gens, dim)
        assert by_masks == rank_rule(gens, c.facets, dim)
        assert by_masks == dot_product_rule(prim, c.facets)
        assert by_masks == list(c.rays)
        c = cone_from_facets(gens, dim)
        assert by_masks == rank_rule(gens, c.rays, dim)
        assert by_masks == dot_product_rule(prim, c.rays)
        assert by_masks == list(c.facets)


def test_contains_and_interior():
    c = square_cone()
    assert c.contains((0, 0, 1)) and c.interior_contains((0, 0, 1))
    assert c.contains((1, 1, 1)) and not c.interior_contains((1, 1, 1))
    assert not c.contains((2, 0, 1))
    assert c.contains((0, 0, 0)) and not c.interior_contains((0, 0, 0))
    third = Fraction(1, 3)
    assert c.contains((third, -third, third))
    assert not c.interior_contains((third, -third, third))
    assert c.interior_contains(("1/2", "-1/3", "5/6"))
    assert not c.contains(("1/2", "0", "1/3"))
    assert face_of(c, (0, 2, 2)).contains((0, Fraction(1, 7), Fraction(1, 7)))
    with pytest.raises(ValueError, match="entries"):
        c.contains((0, 1))


def point_on(rng, rays):
    """A seeded positive combination of the given integer rays."""
    weights = [rng.randint(1, 9) for _ in rays]
    return [sum(map(mul, weights, column)) for column in zip(*rays)]


def number_types(x):
    """The rational point x as Fractions, as integers over a positive scale,
    as ints and Fractions mixed, and as "p/q" strings."""
    fr = tuple(map(Fraction, x))
    scale = math.lcm(*(v.denominator for v in fr))
    ints = tuple(int(v * scale) for v in fr)
    mixed = tuple(Fraction(v) if i % 2 else v for i, v in enumerate(ints))
    return [fr, ints, mixed, tuple(format_rational(v) for v in fr)]


def membership_oracle(c, x):
    """(contains, interior_contains, the facets vanishing on x), each facet
    evaluated by a plain Fraction sum."""
    dots = [sum(Fraction(a) * b for a, b in zip(f, x)) for f in c.facets]
    zero = {k for k, v in enumerate(dots) if v == 0}
    return min(dots) >= 0, min(dots) > 0, zero


def test_membership_tests_agree_on_every_number_type():
    """contains, interior_contains and Face.contains match a Fraction
    oracle on int, Fraction, mixed and string points of every fixture cone
    and its dual: on each facet, just inside it and just outside it."""
    rng = random.Random(31)
    checked = 0
    for sp in fixture_library().spaces.values():
        for c in (sp.cone, dual_cone(sp.cone)):
            centre = point_on(rng, c.rays)
            for k, f in enumerate(c.facets):
                on = point_on(rng, [r for r in c.rays if int_dot(f, r) == 0])
                face = face_of(c, on)
                assert face.active_facets == (k,)
                step = Fraction(1, rng.randint(2, 9))
                for t in (Fraction(0), step, -step):
                    scale = rng.randint(1, 5)
                    x = [(a + t * (b - a)) / scale for a, b in zip(on, centre)]
                    inside, interior, zero = membership_oracle(c, x)
                    assert (inside, interior, zero == {k}) == (t >= 0, t > 0, t == 0)
                    for y in number_types(x):
                        assert c.contains(y) is inside
                        assert c.interior_contains(y) is interior
                        assert face.contains(y) is (inside and k in zero)
                        checked += 1
    assert checked > 800


def test_membership_tests_check_the_length():
    c = square_cone()
    edge = face_of(c, (0, 2, 2))
    for test in (c.contains, c.interior_contains, edge.contains):
        for x in ((0, 1), (Fraction(1, 2), 0, 1, 1), ("1/2",)):
            with pytest.raises(ValueError) as err:
                test(x)
            assert str(err.value) == f"vector has {len(x)} entries, the cone lives in 3"


def test_is_extremal_and_face_of():
    c = square_cone()
    assert is_extremal(c, (2, 2, 2))
    assert not is_extremal(c, (0, 0, 1))
    edge = face_of(c, (0, 2, 2))
    assert edge.ray_indices == (1, 3)
    assert edge.active_facets == (1,)
    assert edge.span_dim() == 2
    assert edge.contains((0, 1, 1)) and not edge.contains((0, 0, 1))
    assert not is_extremal(c, (0, 2, 2))
    vertex = face_of(c, (3, 3, 3))
    assert vertex.ray_indices == (3,)
    assert vertex.span_dim() == 1


def test_face_of_zero_and_outside():
    c = square_cone()
    zero = face_of(c, (0, 0, 0))
    assert zero.ray_indices == ()
    assert zero.active_facets == (0, 1, 2, 3)
    assert zero.span_dim() == 0
    assert not is_extremal(c, (0, 0, 0))
    with pytest.raises(ValueError, match="outside"):
        face_of(c, (2, 0, 1))
    with pytest.raises(ValueError, match="outside"):
        is_extremal(c, (-1, 0, 0))


def test_all_faces_counts():
    assert len(all_faces(quadrant())) == 4
    assert len(all_faces(orthant(3))) == 8
    faces = all_faces(square_cone())
    assert [len(f.ray_indices) for f in faces] == [0, 1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert len(all_faces(cone_from_rays(OCT_RAYS, 4))) == 28


def test_ordered_direct_sum():
    assert ordered_direct_sum(halfline(), halfline()) == quadrant()
    s = ordered_direct_sum(square_cone(), halfline())
    assert s.ambient_dim == 4
    assert len(s.rays) == 5 and len(s.facets) == 5
    assert irreducible_partition(s) == [(0, 1, 3, 4), (2,)]


def test_partition_on_fixtures():
    sq = square_cone()
    assert irreducible_partition(sq) == [(0, 1, 2, 3)]
    assert irreducible_partition(sq) == bipartition_oracle(sq.rays, 3)
    assert irreducible_partition(orthant(3)) == [(0,), (1,), (2,)]
    octa = cone_from_rays(OCT_RAYS, 4)
    assert irreducible_partition(octa) == [tuple(range(6))]
    assert irreducible_partition(octa) == bipartition_oracle(octa.rays, 4)
    two = ordered_direct_sum(square_cone(), square_cone())
    assert irreducible_partition(two) == bipartition_oracle(two.rays, 6)
    assert [len(g) for g in irreducible_partition(two)] == [4, 4]


def test_partition_random_vs_oracle():
    rng = random.Random(77001)
    checked = 0
    while checked < 12:
        dim = rng.randint(2, 4)
        _, c = random_cone(rng, dim)
        if len(c.rays) > 7:
            continue
        if rng.random() < 0.5:
            c = ordered_direct_sum(c, halfline())
            dim += 1
        if len(c.rays) > 7:
            continue
        assert irreducible_partition(c) == bipartition_oracle(c.rays, dim)
        checked += 1


def test_irreducible_components():
    assert irreducible_components(orthant(3)) == [halfline()] * 3
    comps = irreducible_components(ordered_direct_sum(square_cone(), square_cone()))
    assert len(comps) == 2
    for comp in comps:
        assert comp.ambient_dim == 3
        assert len(comp.rays) == 4 and len(comp.facets) == 4
        assert len(all_faces(comp)) == 10
    solo = irreducible_components(square_cone())
    assert len(solo) == 1 and len(solo[0].rays) == 4


def test_polytope_unit_square():
    ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
    vs = polytope_vertices(ineqs, 2)
    assert vs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_polytope_implicit_equality_segment():
    # x + y >= 1 and -x - y >= -1 together say x + y = 1, which no row states.
    ineqs = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((-1, -1), -1)]
    assert polytope_vertices(ineqs, 2) == [(0, 1), (1, 0)]


def test_polytope_equality_rows():
    # The equality x + y = 1 written as a pair of opposite rows, inside the
    # box [0, 1]^2 whose rows meet it only at its end points.
    ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 1), 1), ((-1, -1), -1)]
    assert polytope_vertices(ineqs, 2) == [(0, 1), (1, 0)]


def test_polytope_single_point():
    eqs = [((1, 0), Fraction(1, 3)), ((0, 1), -2)]
    ineqs = [((1, 1), -10)] + [r for g, h in eqs for r in ((g, h), (tuple(-c for c in g), -h))]
    assert polytope_vertices(ineqs, 2) == [(Fraction(1, 3), -2)]


def test_polytope_vertices_are_sorted_by_value():
    # The rays (x, t) come out of double description sorted as integer
    # tuples, (1, 2) before (2, 1); the vertices 1/2 and 2 sort by value.
    assert polytope_vertices([((2,), 1), ((-1,), -2)], 1) == [(Fraction(1, 2),), (2,)]


def test_polytope_empty_is_no_vertices():
    assert polytope_vertices([((1,), 1), ((-1,), 0)], 1) == []
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
    assert polytope_vertices(square + [((1, 1), 3)], 2) == []


def test_polytope_rejects_rows_of_the_wrong_width():
    # The stray -2 must not be read as the right-hand side of y >= 1.
    ineqs = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1, -2), -1)]
    with pytest.raises(ValueError, match="row 3 has 3 coefficients, but dim is 2"):
        polytope_vertices(ineqs, 2)
    with pytest.raises(ValueError, match="row 0 has 1 coefficients"):
        polytope_vertices([((1,), 0), ((0, 1), 0)], 2)


def test_polytope_unbounded_raises():
    with pytest.raises(ValueError, match="unbounded"):
        polytope_vertices([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(ValueError, match="unbounded"):
        polytope_vertices([((1, 0), 0)], 2)
    # A half-line: the homogenization is pointed, but a ray lies at t = 0.
    with pytest.raises(ValueError, match="unbounded"):
        polytope_vertices([((1,), 0)], 1)


def test_polytope_octahedron():
    ineqs = [
        ((s1, s2, s3), -1) for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)
    ]
    vs = polytope_vertices(ineqs, 3)
    expected = sorted(
        tuple(s if k == i else 0 for k in range(3)) for i in range(3) for s in (-1, 1)
    )
    assert vs == [tuple(map(Fraction, v)) for v in expected]


def test_polytope_lower_dimensional_triangle():
    # z = 2 written as a pair of opposite rows.
    ineqs = [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1), ((0, 0, 1), 2), ((0, 0, -1), -2)]
    vs = polytope_vertices(ineqs, 3)
    assert vs == [(0, 0, 2), (0, 1, 2), (1, 0, 2)]


# --- The pinned slack matrix ---------------------------------------------------


def interior_point(rng, c):
    """A seeded positive combination of all of c's rays: an interior point."""
    x = [0] * c.ambient_dim
    for r in c.rays:
        w = rng.randint(1, 1000)
        x = [a + w * b for a, b in zip(x, r)]
    return tuple(x)


def sample_cones():
    """Each fixture cone and its dual, square + square, and 20 seeded random
    cones of dimension 2 to 5."""
    rng = random.Random(11)
    cones = []
    for sp in fixture_library().spaces.values():
        cones += [sp.cone, dual_cone(sp.cone)]
    cones.append(ordered_direct_sum(square_cone(), square_cone()))
    for trial in range(20):
        cones.append(random_cone(rng, 2 + trial % 4)[1])
    return cones


def test_pinned_slack_is_constant_on_simplicial_cones():
    # Every interior point of a simplicial cone is carried to every other by
    # a diagonal scaling in ray coordinates, and ray i meets only facet i.
    rng = random.Random(13)
    lib = fixture_library().spaces
    cones = [lib[name].cone for name in ("simplex_2", "simplex_3", "simplex_4")]
    while len(cones) < 23:
        d = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d)]
        if rank(rows) == d:
            cones.append(cone_from_rays(rows, d))
    for c in cones:
        assert c.is_simplicial()
        d = c.ambient_dim
        for _ in range(3):
            assert pinned_slack(c, interior_point(rng, c)) == [(0,) * (d - 1) + (1,)] * d


def unimodular(rng, d):
    """A seeded integer matrix of determinant +-1: shears, then a row sign."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    k = rng.randrange(d)
    m[k] = [-x for x in m[k]]
    return m


def test_pinned_slack_under_unimodular_changes():
    # U x pins UA as x pins A. U permutes the sorted rays and facets, so the
    # rows and columns of the slack matrix come in another order; the
    # sorted rows must not change.
    rng = random.Random(14)
    reordered = 0
    for c in sample_cones():
        d = c.ambient_dim
        u = unimodular(rng, d)
        image = cone_from_rays([[int_dot(row, r) for row in u] for r in c.rays], d)
        moved = sorted(tuple(int_dot(row, r) for row in u) for r in c.rays)
        assert list(image.rays) == moved
        reordered += [tuple(int_dot(row, r) for row in u) for r in c.rays] != moved
        x = interior_point(rng, c)
        ux = [int_dot(row, x) for row in u]
        assert pinned_slack(image, ux) == pinned_slack(c, x)
    assert reordered > 20


def test_pinned_slack_needs_an_interior_point():
    c = square_cone()
    for x in [(1, 0, 1), (2, 0, 1), (0, 0, 0)]:
        with pytest.raises(ValueError, match="interior"):
            pinned_slack(c, x)
    with pytest.raises(ValueError, match="2 entries"):
        pinned_slack(c, (0, 1))
