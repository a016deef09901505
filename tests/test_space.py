"""State spaces, effects, order isomorphisms, self-duality, homogeneity.

Oracles: dihedral symmetry counts for the square/hexagon/pentagon cones are
known in closed form (8, 12, and 2 for the mirror-but-not-rotation lattice
pentagon), and effect-interval vertex lists are derived by hand from the
facet description before being frozen here.
"""

import random
from fractions import Fraction
from itertools import count, islice

import pytest

from polysteer.cone import (
    cone_from_rays,
    dual_cone,
    irreducible_partition,
    ordered_direct_sum,
    pinned_slack,
)
from polysteer.composite import max_tensor, min_tensor
from polysteer.fixtures import fixture_library
from polysteer.ratlin import (
    as_vector,
    independent_rows,
    integral,
    invert,
    mat_mul,
    mat_transpose,
    mat_vec,
    primitive,
    rank,
    solve_linear,
    vec_dot,
    vec_scale,
)
from polysteer.ratlin import gauss
from polysteer.space import (
    Effect,
    Observable,
    OrderIsoWitness,
    State,
    StateSpace,
    diamond_dual,
    effects_interval,
    is_homogeneous,
    isomorphism_carrying,
    is_weakly_self_dual,
    order_iso_search,
    order_isomorphisms,
    space_direct_sum,
    _frame,
    _isomorphisms,
    _ray_permutations,
    transport_automorphism,
)
from strict_lp import strict_witness

SQUARE_RAYS = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
HEX_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]
PENT_RAYS = [(2, 0, 1), (3, 5, 4), (-1, 1, 2), (-1, -1, 2), (3, -5, 4)]


def bit_space():
    return StateSpace(cone_from_rays([(1, 0), (0, 1)], 2), (1, 1))


def orthant_space(d):
    rays = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    return StateSpace(cone_from_rays(rays, d), (1,) * d)


def square_space():
    return StateSpace(cone_from_rays(SQUARE_RAYS, 3), (0, 0, 1))


def hexagon_space():
    return StateSpace(cone_from_rays(HEX_RAYS, 3), (0, 0, 1))


def pentagon_space():
    return StateSpace(cone_from_rays(PENT_RAYS, 3), (0, 0, 1))


def test_state_space_validation():
    quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError, match="strictly positive"):
        StateSpace(quadrant, (1, 0))
    with pytest.raises(ValueError, match="strictly positive"):
        StateSpace(quadrant, (1, -1))
    with pytest.raises(ValueError, match="dimension"):
        StateSpace(quadrant, (1, 1, 1))


def test_states_and_normalization():
    a = bit_space()
    s = State(a, (Fraction(1, 4), Fraction(3, 4)))
    assert s.normalization == 1 and s.is_normalized()
    assert State(a, (1, 2)).normalization == 3
    with pytest.raises(ValueError, match="outside"):
        State(a, (-1, 2))
    assert a.is_interior_state((1, 1)) and not a.is_interior_state((0, 1))
    assert a.vertex_states() == [(0, 1), (1, 0)]
    assert a.barycenter() == (Fraction(1, 2), Fraction(1, 2))


def test_effects_and_observables():
    a = bit_space()
    e = Effect(a, (Fraction(1, 3), Fraction(2, 3)))
    assert e.value_on((1, 0)) == Fraction(1, 3)
    with pytest.raises(ValueError, match="interval"):
        Effect(a, (2, 0))
    with pytest.raises(ValueError, match="interval"):
        Effect(a, (Fraction(-1, 2), 0))
    obs = Observable(a, (e, Effect(a, (Fraction(2, 3), Fraction(1, 3)))))
    for eff in obs.effects:
        for v in a.vertex_states():
            assert 0 <= eff.value_on(v) <= 1
    with pytest.raises(ValueError, match="sum"):
        Observable(a, (e, e))
    with pytest.raises(ValueError, match="at least one"):
        Observable(a, ())


def test_is_effect_matches_the_rational_definition():
    # 0 <= f.r <= u.r on every ray, read in Fractions, against the integer
    # reading; the unit is rescaled so that it is not integral.
    rng = random.Random(7)
    for space in (bit_space(), square_space(), orthant_space(3)):
        space = StateSpace(space.cone, vec_scale(Fraction(2, 3), space.unit))
        hits = 0
        for _ in range(200):
            t = Fraction(rng.randint(-1, 7), 6)
            f = tuple(t * u + Fraction(rng.randint(-2, 2), 9) for u in space.unit)
            want = all(0 <= vec_dot(f, r) <= vec_dot(space.unit, r) for r in space.cone.rays)
            assert space.is_effect(f) == want
            hits += want
        assert 0 < hits < 200, hits
        assert space.is_effect(space.unit) and space.is_effect((0,) * space.dim)
        with pytest.raises(ValueError):
            space.is_effect((0,) * (space.dim + 1))


def test_effects_interval_classical_bit():
    ivl = effects_interval(bit_space())
    assert ivl.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert ivl.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not ivl.contains((2, 0))


def test_effects_interval_three_outcome_classical():
    ivl = effects_interval(orthant_space(3))
    assert len(ivl.vertices) == 8
    assert set(ivl.vertices) == {
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    }


def test_effects_interval_square_space():
    h = Fraction(1, 2)
    ivl = effects_interval(square_space())
    assert ivl.vertices == (
        (-h, 0, h),
        (0, -h, h),
        (0, 0, 0),
        (0, 0, 1),
        (0, h, h),
        (h, 0, h),
    )


def test_diamond_dual_classical_bit():
    a = bit_space()
    d = diamond_dual(a, (Fraction(1, 2), Fraction(1, 2)))
    assert d.unit == (Fraction(1, 2), Fraction(1, 2))
    assert d.cone == a.cone
    with pytest.raises(ValueError, match="interior"):
        diamond_dual(a, (1, 0))


def test_diamond_dual_square_is_square_shaped():
    a = square_space()
    d = diamond_dual(a, a.barycenter())
    w = order_iso_search(d.cone, a.cone)
    assert w is not None and w.verify(d.cone, a.cone)


def test_order_iso_identity_on_simplex():
    c = orthant_space(3).cone
    w = order_iso_search(c, c)
    eye = tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    assert w.matrix == eye
    assert w.ray_bijection == (0, 1, 2)
    assert w.scales == (1, 1, 1)


def test_order_iso_ray_count_mismatch():
    assert order_iso_search(orthant_space(3).cone, square_space().cone) is None


def test_order_iso_square_to_dual():
    sq = square_space().cone
    w = order_iso_search(dual_cone(sq), sq)
    assert w is not None and w.verify(dual_cone(sq), sq)


def test_witness_of_another_width_does_not_verify():
    # d rows of another width, or ragged rows, answer False instead of
    # raising from the inverse.
    sq = square_space().cone
    w = is_weakly_self_dual(sq)
    m = w.matrix
    for bad in (
        tuple(row + (Fraction(0),) for row in m),
        (m[0] + (Fraction(0),),) + m[1:],
        (m[0][:2],) + m[1:],
    ):
        assert OrderIsoWitness(bad, w.ray_bijection, w.scales).verify(dual_cone(sq), sq) is False


def test_square_automorphism_group():
    sq = square_space().cone
    auts = list(order_isomorphisms(sq, sq))
    assert len(auts) == 8
    bary = square_space().barycenter()
    for w in auts:
        assert w.verify(sq, sq)
        assert mat_vec(w.matrix, bary) == bary


def test_hexagon_automorphism_group():
    hx = hexagon_space().cone
    auts = list(order_isomorphisms(hx, hx))
    assert len(auts) == 12
    assert all(w.verify(hx, hx) for w in auts)


def test_pentagon_self_polar_and_automorphisms():
    pent = pentagon_space().cone
    assert set(pent.rays) == set(pent.facets)
    auts = list(order_isomorphisms(pent, pent))
    assert len(auts) == 2


def test_weak_self_duality_fixtures():
    for sp in (bit_space(), orthant_space(3), square_space(), hexagon_space(),
               pentagon_space()):
        w = is_weakly_self_dual(sp)
        assert w is not None
        assert w.verify(dual_cone(sp.cone), sp.cone)


def test_wsd_symmetric_under_dualization():
    for sp in (bit_space(), square_space(), pentagon_space()):
        dual_sp = diamond_dual(sp, sp.barycenter())
        assert (is_weakly_self_dual(sp) is None) == (
            is_weakly_self_dual(dual_sp) is None
        )


def test_direct_sum_block_witness():
    a, b = square_space(), bit_space()
    wa, wb = is_weakly_self_dual(a), is_weakly_self_dual(b)
    s = space_direct_sum(a, b)
    da, db = a.dim, b.dim
    block = tuple(
        tuple(
            (wa.matrix[r][c] if r < da and c < da else
             wb.matrix[r - da][c - da] if r >= da and c >= da else Fraction(0))
            for c in range(da + db)
        )
        for r in range(da + db)
    )
    source = dual_cone(s.cone)
    bijection = []
    scales = []
    for ray in source.rays:
        image = mat_vec(block, [Fraction(x) for x in ray])
        hit = None
        for j, t in enumerate(s.cone.rays):
            k0 = next(k for k, v in enumerate(t) if v != 0)
            lam = image[k0] / t[k0]
            if lam > 0 and image == tuple(lam * v for v in t):
                hit = (j, lam)
                break
        assert hit is not None
        bijection.append(hit[0])
        scales.append(hit[1])
    w = OrderIsoWitness(block, tuple(bijection), tuple(scales))
    assert w.verify(source, s.cone)
    assert is_weakly_self_dual(s) is not None


def test_homogeneous_simplex():
    for sp in (bit_space(), orthant_space(3),
               StateSpace(cone_from_rays([(1, 0), (1, 2)], 2), (1, 0))):
        verdict = is_homogeneous(sp)
        assert verdict.status == "yes" and bool(verdict)
        d = sp.dim
        gens = verdict.generators
        assert len(gens) == d
        eye = tuple(
            tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
        )
        total = tuple(
            tuple(sum(g[r][c] for g in gens) for c in range(d)) for r in range(d)
        )
        assert total == eye
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                prod = mat_mul(gi, gj)
                assert prod == (gi if i == j else tuple(
                    tuple(Fraction(0) for _ in range(d)) for _ in range(d)
                ))


def test_transport_on_simplex_interior_pairs():
    rng = random.Random(4096)
    sp = orthant_space(3)
    for _ in range(5):
        a = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        b = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        m = transport_automorphism(sp, a, b)
        assert m is not None
        assert mat_vec(m, a) == b
        assert invert(m) is not None


def test_transport_identity_pair():
    sp = square_space()
    bary = sp.barycenter()
    m = transport_automorphism(sp, bary, bary)
    assert m is not None and mat_vec(m, bary) == bary


def test_transport_rejects_boundary():
    sp = square_space()
    with pytest.raises(ValueError, match="interior"):
        transport_automorphism(sp, (1, 1, 1), (0, 0, 1))


def test_square_not_homogeneous():
    verdict = is_homogeneous(square_space())
    assert verdict.status == "no" and not bool(verdict)
    alpha, beta = verdict.failed_pair
    sp = square_space()
    assert sp.is_interior_state(alpha) and sp.is_interior_state(beta)
    assert transport_automorphism(sp, alpha, beta) is None


def test_non_homogeneous_pair_past_a_reachable_first_candidate():
    # A ray summed with the square: the first candidate, halfway from the
    # barycentre to the ray's vertex state, only rescales the square part,
    # so the walk must go on to a candidate no automorphism reaches.
    ray = StateSpace(cone_from_rays([(-1,)], 1), (-1,))
    sp = space_direct_sum(ray, square_space())
    bary = sp.barycenter()
    first = tuple((b + v) / 2 for b, v in zip(bary, sp.vertex_states()[0]))
    assert transport_automorphism(sp, bary, first) is not None
    verdict = is_homogeneous(sp)
    assert verdict.status == "no" and not bool(verdict)
    alpha, beta = verdict.failed_pair
    assert alpha == bary and beta != first
    assert sp.is_interior_state(beta)
    assert transport_automorphism(sp, alpha, beta) is None


def test_hexagon_not_homogeneous():
    assert is_homogeneous(hexagon_space()).status == "no"


def test_transport_square_barycenter_off_orbit():
    sp = square_space()
    assert transport_automorphism(sp, (0, 0, 1), (Fraction(1, 2), 0, 1)) is None


# --- The exact solve against the strict LP it replaced -----------------------
#
# The reference is the scale search as a strict LP: one unknown scale per
# source ray, an equation row for each coordinate of each ray off a basis
# (it must land on its scaled partner), a strict row s_i > 0 per ray, and the
# pins as equations. Under one pin per irreducible component of the source,
# or M alpha = beta, a positive solution is unique, so the LP's witness is
# the solve's.


def lp_isomorphisms(source, target, pins):
    """(pairing, scales, matrix) for every pairing whose LP is feasible;
    pins(perm, images) gives equation rows over the scales, where
    images(x)[k] is row k of M x as coefficients over the scales."""
    n, d = len(source.rays), source.ambient_dim
    if len(target.rays) != n:
        return
    basis = independent_rows(source.rays)
    columns = mat_transpose([source.rays[b] for b in basis])
    for perm in _ray_permutations(source, target):

        def images(x):
            cf = solve_linear(columns, x)
            rows = []
            for k in range(d):
                row = [Fraction(0)] * n
                for pos, b in enumerate(basis):
                    row[b] += cf[pos] * target.rays[perm[b]][k]
                rows.append(row)
            return rows

        eq = list(pins(perm, images))
        for j, r in enumerate(source.rays):
            if j not in basis:
                for k, row in enumerate(images(r)):
                    row[j] -= target.rays[perm[j]][k]
                    eq.append((tuple(row), Fraction(0)))
        gt = [(tuple(Fraction(int(j == i)) for j in range(n)), Fraction(0)) for i in range(n)]
        s = strict_witness(n, eq=eq, gt=gt)
        if s is not None:
            # M sends each basis ray to its scaled partner.
            image_cols = [vec_scale(s[b], target.rays[perm[b]]) for b in basis]
            matrix = mat_mul(mat_transpose(image_cols), invert(columns))
            yield perm, s, matrix


def component_pins(source):
    firsts = [group[0] for group in irreducible_partition(source)]
    n = len(source.rays)
    return lambda perm, images: [
        (tuple(Fraction(int(j == i)) for j in range(n)), Fraction(1)) for i in firsts
    ]


def transport_pins(alpha, beta):
    return lambda perm, images: [
        (tuple(row), Fraction(y)) for row, y in zip(images(alpha), beta)
    ]


def coordinate_change(d, seed):
    """A seeded integer matrix of determinant 2: shears, then one row doubled.

    A unimodular change keeps primitive rays primitive, which leaves every
    scale at 1; this one sends some primitive rays to twice a primitive ray.
    """
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    k = rng.randrange(d)
    m[k] = [2 * x for x in m[k]]
    return m


SUMS = [("square_space", "simplex_2"), ("square_space", "square_space"),
        ("pentagon_space", "simplex_3"), ("simplex_2", "simplex_3")]


def reference_pairs():
    """(label, source, target): every fixture space onto itself and from its
    dual, four direct sums onto themselves, and seeded coordinate changes of
    three polygons to and from the polygon and from its dual."""
    lib = fixture_library().spaces
    pairs = []
    for name, sp in lib.items():
        pairs.append((name, sp.cone, sp.cone))
        pairs.append((name + "*", dual_cone(sp.cone), sp.cone))
    for a, b in SUMS:
        c = ordered_direct_sum(lib[a].cone, lib[b].cone)
        pairs.append((f"{a}+{b}", c, c))
    for name in ("square_space", "pentagon_space", "hexagon_space"):
        base = lib[name].cone
        for seed in range(2):
            u = coordinate_change(3, seed)
            c = cone_from_rays([mat_vec(u, r) for r in base.rays], 3)
            label = f"{name}@{seed}"
            pairs += [(label, c, base), (label + "^-1", base, c),
                      (label + "*", dual_cone(base), c)]
    return pairs


def test_isomorphisms_match_the_strict_lp_reference():
    counts, scales = {}, set()
    for label, s, t in reference_pairs():
        got = [
            (w.ray_bijection, w.scales, w.matrix) for w in order_isomorphisms(s, t)
        ]
        assert got == list(lp_isomorphisms(s, t, component_pins(s))), label
        counts[label] = len(got)
        scales.update(x for _, sc, _ in got for x in sc)
    # The coordinate changes leave scales other than 1 to solve for.
    assert scales > {1}
    assert [counts[f"{a}+{b}"] for a, b in SUMS] == [16, 128, 12, 120]
    assert counts["cube_space*"] == counts["octahedron_space*"] == 0


def transport_cases():
    lib = fixture_library().spaces
    for name in ("simplex_3", "square_space", "hexagon_space"):
        sp = lib[name]
        bary = sp.barycenter()
        for vert in sp.vertex_states()[:3]:
            cand = tuple((bary[k] + vert[k]) / 2 for k in range(sp.dim))
            yield sp.cone, bary, cand
            yield sp.cone, cand, bary
        # The barycentre onto itself: the whole stabiliser is a candidate.
        yield sp.cone, bary, bary
    # Component scalings of a direct sum transport; a scaling inside one
    # polygon component does not.
    for a, b in [("square_space", "simplex_2"), ("pentagon_space", "simplex_3")]:
        sp = space_direct_sum(lib[a], lib[b])
        bary = sp.barycenter()
        da = lib[a].dim
        for fa, fb in [(2, 1), (Fraction(1, 3), Fraction(5, 7))]:
            yield sp.cone, bary, tuple(x * (fa if k < da else fb) for k, x in enumerate(bary))
        yield sp.cone, bary, tuple(x * (2 if k == 0 else 1) for k, x in enumerate(bary))


def test_transport_matches_the_strict_lp_reference():
    found = missing = 0
    for cone, alpha, beta in transport_cases():
        got = transport_automorphism(cone, alpha, beta)
        want = next(lp_isomorphisms(cone, cone, transport_pins(alpha, beta)), None)
        assert got == (None if want is None else want[2])
        found += got is not None
        missing += got is None
    assert found and missing


# --- The frame search against the full-pairing search it replaced -----------
#
# The reference is the search as it ran before the frame: it pairs every ray,
# then solves one Fraction system in all n ray scales, with pins as rows over
# those scales. The frame search must return the same witnesses, entry for
# entry and type for type, in the same order.


def greedy_ray_basis(c):
    """The greedy ray basis as the search chose it before the frame read
    ``cone.ray_circuits``: a ray joins when it raises the rank."""
    chosen: list[int] = []
    current = 0
    for i in range(len(c.rays)):
        if rank([c.rays[j] for j in chosen] + [c.rays[i]]) > current:
            chosen.append(i)
            current += 1
            if current == c.ambient_dim:
                break
    return chosen


def full_pairing_isomorphisms(source, target, pins):
    n = len(source.rays)
    basis = greedy_ray_basis(source)
    base_inv = invert(mat_transpose([source.rays[b] for b in basis]))
    coeffs = {
        j: mat_vec(base_inv, r) for j, r in enumerate(source.rays) if j not in basis
    }
    for perm in _ray_permutations(source, target):
        eqs = list(pins(perm))
        for j, cf in coeffs.items():
            for k in range(source.ambient_dim):
                row = [Fraction(0)] * n
                for pos, b in enumerate(basis):
                    row[b] = cf[pos] * target.rays[perm[b]][k]
                row[j] = -target.rays[perm[j]][k]
                eqs.append((tuple(row), Fraction(0)))
        s = solve_linear([row for row, _ in eqs], [y for _, y in eqs])
        if s is None or any(x <= 0 for x in s):
            continue
        images = mat_transpose([vec_scale(s[b], target.rays[perm[b]]) for b in basis])
        witness = OrderIsoWitness(mat_mul(images, base_inv), perm, s)
        if witness.verify(source, target):
            yield witness


def full_pairing_order_isomorphisms(s, t):
    if s.ambient_dim != t.ambient_dim:
        return
    if len(s.rays) != len(t.rays) or len(s.facets) != len(t.facets):
        return
    n = len(s.rays)
    pinned = [
        (tuple(Fraction(int(j == group[0])) for j in range(n)), Fraction(1))
        for group in irreducible_partition(s)
    ]
    yield from full_pairing_isomorphisms(s, t, lambda perm: pinned)


def full_pairing_transport(c, a, b):
    weights = solve_linear(mat_transpose(c.rays), a)

    def pins(perm):
        return [
            (tuple(w * c.rays[perm[i]][k] for i, w in enumerate(weights)), b[k])
            for k in range(c.ambient_dim)
        ]

    witness = next(full_pairing_isomorphisms(c, c, pins), None)
    return None if witness is None else witness.matrix


def test_frame_search_matches_the_full_pairing_search():
    for label, s, t in reference_pairs():
        got = [(w.ray_bijection, w.scales, w.matrix) for w in order_isomorphisms(s, t)]
        want = [
            (w.ray_bijection, w.scales, w.matrix)
            for w in full_pairing_order_isomorphisms(s, t)
        ]
        # repr tells a Fraction from an int of the same value.
        assert repr(got) == repr(want), label


def walk_candidates(space):
    """is_homogeneous's candidates (1 - 1/k) bary + (1/k) v, in its order."""
    bary, verts = space.barycenter(), space.vertex_states()
    for k in count(2):
        t = Fraction(1, k)
        for vert in verts:
            yield tuple((1 - t) * b + t * v for b, v in zip(bary, vert))


def homogeneity_pairs(space):
    """The pairs is_homogeneous transports between on a non-simplicial
    space, in its order, up to the pair it reports."""
    failed = is_homogeneous(space).failed_pair
    bary = space.barycenter()
    for cand in walk_candidates(space):
        yield bary, cand
        if (bary, cand) == failed:
            return


def test_frame_transport_matches_the_full_pairing_transport():
    cases = list(transport_cases())
    for sp in fixture_library().spaces.values():
        if not sp.cone.is_simplicial():
            cases += [(sp.cone, a, b) for a, b in homogeneity_pairs(sp)]
    found = missing = 0
    for cone, alpha, beta in cases:
        got = transport_automorphism(cone, alpha, beta)
        assert repr(got) == repr(full_pairing_transport(cone, alpha, beta))
        found += got is not None
        missing += got is None
    assert found and missing


def test_frame_lengths():
    # (frame length, ray count) of each fixture cone and its dual. A frame
    # holds the greedy ray basis and the rays that link each component's
    # basis rays. The octahedron's two rays off its basis each miss one basis
    # ray, so both are needed and its frame is the whole list.
    lib = fixture_library().spaces
    got = {
        name: [(_frame(c).length, len(c.rays)) for c in (sp.cone, dual_cone(sp.cone))]
        for name, sp in lib.items()
    }
    assert got == {
        "simplex_2": [(2, 2), (2, 2)],
        "simplex_3": [(3, 3), (3, 3)],
        "simplex_4": [(4, 4), (4, 4)],
        "square_space": [(4, 4), (4, 4)],
        "pentagon_space": [(4, 5), (4, 5)],
        "hexagon_space": [(4, 6), (4, 6)],
        "cube_space": [(6, 8), (6, 6)],
        "octahedron_space": [(6, 6), (6, 8)],
    }
    sums = [_frame(ordered_direct_sum(lib[a].cone, lib[b].cone)) for a, b in SUMS]
    assert [f.length for f in sums] == [6, 8, 7, 5]
    # The first ray of each irreducible component is a basis ray.
    for (a, b), f in zip(SUMS, sums):
        c = ordered_direct_sum(lib[a].cone, lib[b].cone)
        assert f.firsts == [g[0] for g in irreducible_partition(c)]
        assert set(f.firsts) <= set(f.basis)


# --- The frame and the irreducible partition against their old computation ---
#
# Before both read cone.ray_circuits, the frame took its basis from the
# greedy rank loop and the partition came from its own elimination. The
# reference recomputes both from that loop and a Fraction solve over the
# basis, joining each ray off the basis with the basis rays its coordinates
# hold, as sets.


def reference_frame(c):
    """(basis, inverse, extras, firsts, length) and the partition of c."""
    basis = greedy_ray_basis(c)
    base_inv = invert(mat_transpose([c.rays[b] for b in basis]))
    coeffs = {j: mat_vec(base_inv, r) for j, r in enumerate(c.rays) if j not in basis}

    def classes(off_basis):
        groups = [{b} for b in basis]
        for j in off_basis:
            linked = {j} | {basis[pos] for pos, x in enumerate(coeffs[j]) if x}
            touching = [g for g in groups if g & linked]
            groups = [g for g in groups if not g & linked] + [linked.union(*touching)]
        return sorted(tuple(sorted(g)) for g in groups)

    partition = classes(coeffs)
    length = next(
        n for n in range(basis[-1] + 1, len(c.rays) + 1)
        if len(classes([j for j in coeffs if j < n])) == len(partition)
    )
    extras = {j: primitive((*cf, -1)) for j, cf in coeffs.items() if j < length}
    firsts = [g[0] for g in partition]
    return (basis, base_inv, extras, firsts, length), partition


def frame_pin_cones():
    """The fixture cones and their duals, the min and max tensor cones of
    the benchmark's four pairs, and the direct sums of the first five
    fixture spaces: 49 cones."""
    lib = fixture_library().spaces
    cones = [c for sp in lib.values() for c in (sp.cone, dual_cone(sp.cone))]
    for a, b in (("square_space", "square_space"), ("square_space", "pentagon_space"),
                 ("simplex_3", "cube_space"), ("square_space", "cube_space")):
        cones += [tensor(lib[a], lib[b]).cone for tensor in (min_tensor, max_tensor)]
    first = list(lib.values())[:5]
    cones += [ordered_direct_sum(a.cone, b.cone) for a in first for b in first]
    return cones


def test_frame_and_partition_match_the_rank_loop_reference():
    cones = frame_pin_cones()
    assert len(cones) == 49
    for c in cones:
        frame = _frame(c)
        want, partition = reference_frame(c)
        rows, q = frame.inverse
        got_inverse = tuple(tuple(Fraction(x, q) for x in row) for row in rows)
        got = (frame.basis, got_inverse, frame.extras, frame.firsts, frame.length)
        assert got == want
        assert irreducible_partition(c) == partition


def test_frame_runs_two_eliminations(monkeypatch):
    calls = []
    eliminate = gauss._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(gauss, "_eliminate", counted)
    for c in frame_pin_cones():
        calls.clear()
        _frame(c)
        assert len(calls) <= 2, len(c.rays)


def cross_polytope_cone(d):
    """The cone over the d-dimensional cross-polytope, rays (+-e_i, 1)."""
    rays = [tuple(s * int(j == i) for j in range(d)) + (1,) for i in range(d) for s in (1, -1)]
    return cone_from_rays(rays, d + 1)


def cell_24_cone():
    """The cone over the 24-cell: rays (v, 1) for the 24 points of R^4 with
    two coordinates +-1 and two 0."""
    rays = [
        tuple(x if k == i else y if k == j else 0 for k in range(4)) + (1,)
        for i in range(4) for j in range(i + 1, 4) for x in (1, -1) for y in (1, -1)
    ]
    return cone_from_rays(rays, 5)


def test_hyperoctahedral_census():
    # The cone over the 4-cross-polytope and its dual, the cone over the
    # 4-cube, each have the 2^4 4! = 384 automorphisms of the 4-cube. The
    # cross-polytope's frame is its whole ray list; the cube's is 10 of 16.
    cross = cross_polytope_cone(4)
    for c, length in ((cross, 8), (dual_cone(cross), 10)):
        assert _frame(c).length == length
        auts = list(order_isomorphisms(c, c))
        assert len({w.ray_bijection for w in auts}) == len(auts) == 384


# --- The pinned slack matrix ---------------------------------------------------


def seeded_interior_point(rng, rays):
    """A seeded positive combination of all the given rays."""
    x = [0] * len(rays[0])
    for r in rays:
        w = rng.randint(1, 50)
        x = [a + w * b for a, b in zip(x, r)]
    return tuple(x)


def test_pinned_slack_is_constant_on_automorphism_orbits():
    rng = random.Random(15)
    for name, sp in fixture_library().spaces.items():
        c = sp.cone
        x = seeded_interior_point(rng, c.rays)
        rows = pinned_slack(c, x)
        orbit = {mat_vec(w.matrix, x) for w in order_isomorphisms(c, c)}
        assert len(orbit) > 1, name
        assert all(pinned_slack(c, y) == rows for y in orbit), name


def test_pinned_slack_follows_the_self_duality_witness():
    # eta maps the dual cone onto the cone and y to eta y, so the slack
    # matrix of A at eta y is that of A* at y, rows and columns permuted.
    rng = random.Random(16)
    witnessed = 0
    for name, sp in fixture_library().spaces.items():
        eta = is_weakly_self_dual(sp)
        if eta is None:
            continue
        witnessed += 1
        dual = dual_cone(sp.cone)
        for _ in range(3):
            y = seeded_interior_point(rng, dual.rays)
            assert pinned_slack(sp.cone, mat_vec(eta.matrix, y)) == (
                pinned_slack(dual, y)
            ), name
    assert witnessed == 6


def test_pinned_slack_separates_the_reported_pairs():
    # At the barycentre every ray meets its facets at one value; halfway to
    # a vertex the rays through that vertex's facets weigh 3 against 1.
    lib = fixture_library().spaces
    rows = {}
    for name in ("square_space", "cube_space"):
        sp = lib[name]
        bary, cand = is_homogeneous(sp).failed_pair
        rows[name] = (pinned_slack(sp.cone, bary), pinned_slack(sp.cone, cand))
    assert rows == {
        "square_space": ([(0, 0, 1, 1)] * 4, [(0, 0, 1, 1)] * 2 + [(0, 0, 1, 3)] * 2),
        "cube_space": (
            [(0, 0, 0, 1, 1, 1)] * 8,
            [(0, 0, 0, 1, 1, 1)] * 2 + [(0, 0, 0, 1, 1, 3)] * 3 + [(0, 0, 0, 1, 3, 3)] * 3,
        ),
    }


# --- The invariant gate against the search it skips ---------------------------
#
# The reference is isomorphism_carrying as it ran before the gate: the pinned
# search alone, on the original _isomorphisms. The gate may only spare that
# search, so gated and ungated must agree on every input.


def ungated_isomorphism_carrying(s, t, alpha, beta):
    weights = solve_linear(mat_transpose(s.rays), as_vector(alpha))
    ints = integral((*weights, *as_vector(beta)))
    w, rhs = ints[:len(weights)], ints[len(weights):]

    def pins(frame, head):
        return [
            (tuple(x * t.rays[j][k] for x, j in zip(w, head)), y)
            for k, y in enumerate(rhs)
        ]

    return next(_isomorphisms(s, t, pins), None)


def ungated_transport(c, alpha, beta):
    witness = ungated_isomorphism_carrying(c, c, alpha, beta)
    return None if witness is None else witness.matrix


def ungated_failed_pair(space):
    bary = space.barycenter()
    for cand in walk_candidates(space):
        if ungated_transport(space.cone, bary, cand) is None:
            return bary, cand


def cone_space(c):
    return StateSpace(c, (0,) * (c.ambient_dim - 1) + (1,))


def test_is_homogeneous_refutes_without_a_search(monkeypatch):
    spaces = {
        name: sp for name, sp in fixture_library().spaces.items()
        if not sp.cone.is_simplicial()
    }
    spaces["cross_4"] = cone_space(cross_polytope_cone(4))
    spaces["cube_4"] = cone_space(dual_cone(cross_polytope_cone(4)))
    want = {name: ungated_failed_pair(sp) for name, sp in spaces.items()}
    # The ungated walk takes over 10 s on the 5-cube, so its answer is pinned
    # as it returned it: the barycentre and the first candidate, halfway to
    # the first vertex state (-1, ..., -1, 1).
    spaces["cube_5"] = cone_space(dual_cone(cross_polytope_cone(5)))
    half = Fraction(-1, 2)
    want["cube_5"] = ((Fraction(0),) * 5 + (Fraction(1),), (half,) * 5 + (Fraction(1),))
    # The 24-cell is pinned the same way: halfway to its first vertex state
    # (-1, -1, 0, 0, 1).
    spaces["cell_24"] = cone_space(cell_24_cone())
    zero = Fraction(0)
    want["cell_24"] = ((zero,) * 4 + (Fraction(1),), (half, half, zero, zero, Fraction(1)))
    searches = []

    def counted(*args):
        searches.append(args)
        return _isomorphisms(*args)

    monkeypatch.setattr("polysteer.space._isomorphisms", counted)
    got = {name: is_homogeneous(sp).failed_pair for name, sp in spaces.items()}
    assert searches == []
    # repr tells a Fraction from an int of the same value.
    assert repr(got) == repr(want)


def test_isomorphism_carrying_is_total_off_the_interior():
    lib = fixture_library().spaces
    sq, cube = lib["square_space"].cone, lib["cube_space"].cone
    bary = lib["square_space"].barycenter()
    cases = [
        (sq, sq, bary, (1, 0, 1)),  # beta on the target's boundary
        (sq, sq, (1, 0, 1), bary),  # alpha on the source's boundary
        (sq, cube, bary, (0, 0, 0, 1)),  # a target of another dimension
    ]
    for case in cases:
        assert ungated_isomorphism_carrying(*case) is None
        assert isomorphism_carrying(*case) is None


@pytest.mark.parametrize(
    "alpha,beta,message",
    [
        (None, (0, 0, 0, 1), "beta has 4 coordinates, expected 3"),
        (None, (0, 1), "beta has 2 coordinates, expected 3"),
        ((0, 0, 1, 1), None, "alpha has 4 coordinates, expected 3"),
    ],
)
def test_isomorphism_carrying_rejects_wrong_lengths(alpha, beta, message):
    """A beta too long, a beta too short and an alpha of the wrong length
    raise one ValueError naming the expected dimension."""
    sq = fixture_library().spaces["square_space"]
    bary = sq.barycenter()
    with pytest.raises(ValueError, match=message):
        isomorphism_carrying(sq.cone, sq.cone, alpha or bary, beta or bary)


def gate_cases():
    """(source, target, alpha, beta): on each fixture space and three direct
    sums, transports from the barycentre to is_homogeneous's candidates for
    k = 2, and purifications of the barycentre and those candidates.
    square + square is left out: the ungated search through its 128
    automorphisms would take most of a second and a half."""
    lib = fixture_library().spaces
    sums = [space_direct_sum(lib[a], lib[b]) for a, b in SUMS if a != b]
    spaces = list(lib.values()) + sums
    for sp in spaces:
        bary = sp.barycenter()
        cands = list(islice(walk_candidates(sp), len(sp.vertex_states())))
        dual = dual_cone(sp.cone)
        for cand in cands:
            yield sp.cone, sp.cone, bary, cand
        for alpha in [bary, *cands]:
            yield dual, sp.cone, sp.unit, alpha


def test_gate_agrees_with_the_ungated_search():
    refuted = found = total = 0
    for s, t, alpha, beta in gate_cases():
        got = isomorphism_carrying(s, t, alpha, beta)
        want = ungated_isomorphism_carrying(s, t, alpha, beta)
        assert repr(got) == repr(want)
        total += 1
        found += want is not None
        if pinned_slack(s, alpha) != pinned_slack(t, beta):
            refuted += 1
            assert want is None
    # On these pairs the pinned slack rows are also complete: each pair they
    # do not refute has an isomorphism.
    assert (total, refuted, found) == (125, 83, 42)
