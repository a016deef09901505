"""Maps that carry extreme rays onto extreme rays: face factorization,
witness verification and the irreducible summands, pinned against the
Fraction-row and per-ray references of ``reference_factorization``.

Each input must give the same repr, or the same error, at both ends.
"""

import random
from itertools import islice, product

import pytest

from polysteer import cone
from polysteer.composite import factors_isomorphically_through, is_isomorphism_state
from polysteer.cone import dual_cone, irreducible_components, ordered_direct_sum
from polysteer.fixtures import fixture_library
from polysteer.ratlin import gauss
from polysteer.space import OrderIsoWitness, order_isomorphisms, pair_ray_images
import reference_factorization as ref


def outcome(f, *args):
    """repr of f(*args), or the type and message of the error it raises."""
    try:
        return repr(f(*args))
    except ValueError as e:
        return type(e), str(e)


def ray_facet_sum(rng, rays, facets):
    """A sum of one to three products r f^T, each with weight 1 to 3: a
    positive map onto the cone of `rays` from the cone `facets` cut out."""
    d, e = len(rays[0]), len(facets[0])
    m = [[0] * e for _ in range(d)]
    for _ in range(rng.randint(1, 3)):
        r, f, w = rng.choice(rays), rng.choice(facets), rng.randint(1, 3)
        for i in range(d):
            for j in range(e):
                m[i][j] += w * r[i] * f[j]
    return tuple(map(tuple, m))


def factorization_inputs():
    """(phi, source, target): every fixture state, up to six automorphisms of
    each fixture space, and twelve seeded ray (x) facet sums per space, read
    dual -> cone and cone -> cone."""
    lib = fixture_library()
    out = [
        (om.matrix, dual_cone(om.space_a.cone), om.space_b.cone) for om in lib.states.values()
    ]
    rng = random.Random(20261022)
    for sp in lib.spaces.values():
        c, dual = sp.cone, dual_cone(sp.cone)
        out += [(w.matrix, c, c) for w in islice(order_isomorphisms(c, c), 6)]
        for _ in range(12):
            out.append((ray_facet_sum(rng, c.rays, c.rays), dual, c))
            out.append((ray_facet_sum(rng, c.rays, c.facets), c, c))
    return out


def test_factorization_matches_the_fraction_reference():
    inputs = factorization_inputs()
    found = 0
    for phi, source, target in inputs:
        got = outcome(factors_isomorphically_through, phi, source, target)
        assert got == outcome(ref.factors_isomorphically_through, phi, source, target)
        found += got != "None"
    assert (len(inputs), found) == (240, 162)
    # A map negative somewhere on the source raises the same error at both.
    for phi, source, target in inputs[::7]:
        neg = tuple(tuple(-x for x in row) for row in phi)
        got = outcome(factors_isomorphically_through, neg, source, target)
        assert got == outcome(ref.factors_isomorphically_through, neg, source, target)
        assert got == (ValueError, "map is not positive on the source cone")


def test_factorization_refuses_a_map_of_the_wrong_shape():
    sq = fixture_library().spaces["square_space"].cone
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    for phi in (eye[:2], tuple(row[:2] for row in eye), eye + ((0, 0, 1),)):
        with pytest.raises(ValueError, match="matrix shape does not match the cones"):
            factors_isomorphically_through(phi, sq, sq)


def count_eliminations(monkeypatch):
    calls = []
    eliminate = gauss._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(gauss, "_eliminate", counted)
    return calls


def test_factorization_eliminations(monkeypatch):
    # One nullspace, one independent_rows per face with at least rk rays and
    # one solver per face of dimension rk: 44 and 13 with a rank of every
    # face, a Fraction inverse per candidate and a rank of each target face.
    states = fixture_library().states
    calls = count_eliminations(monkeypatch)
    for name, bound in (("cube_to_hexagon", 18), ("square_iso", 3)):
        om = states[name]
        calls.clear()
        factors_isomorphically_through(om.matrix, dual_cone(om.space_a.cone), om.space_b.cone)
        assert len(calls) <= bound, name


def tampered(w, target):
    """The witness as found and nine altered copies: one matrix entry
    moved, two pairings swapped, a scale negated or doubled, the pairing or
    the scales one short, the matrix doubled or a row short, and the
    identity pairing."""
    m, pi, s = w.matrix, list(w.ray_bijection), list(w.scales)
    bumped = (tuple(x + (k == 0) for k, x in enumerate(m[0])), *m[1:])
    swapped = [pi[1], pi[0], *pi[2:]]
    return [
        w,
        OrderIsoWitness(bumped, w.ray_bijection, w.scales),
        OrderIsoWitness(m, tuple(swapped), w.scales),
        OrderIsoWitness(m, w.ray_bijection, (-s[0], *s[1:])),
        OrderIsoWitness(m, w.ray_bijection, (2 * s[0], *s[1:])),
        OrderIsoWitness(m, tuple(pi[:-1]), w.scales),
        OrderIsoWitness(m, w.ray_bijection, tuple(s[:-1])),
        OrderIsoWitness(tuple(tuple(2 * x for x in row) for row in m), w.ray_bijection, w.scales),
        OrderIsoWitness(m[:-1], w.ray_bijection, w.scales),
        OrderIsoWitness(m, tuple(range(len(target.rays))), w.scales),
    ]


def test_verify_matches_the_per_ray_reference():
    lib = fixture_library()
    pairs = []
    for sp in lib.spaces.values():
        c, dual = sp.cone, dual_cone(sp.cone)
        pairs += [(c, c), (dual, c), (c, dual)]
    pairs += [
        (dual_cone(om.space_a.cone), om.space_b.cone) for om in lib.states.values()
    ]
    checked = held = 0
    for source, target in pairs:
        for w in islice(order_isomorphisms(source, target), 8):
            for t in tampered(w, target):
                got = t.verify(source, target)
                assert got is ref.witness_verify(t, source, target)
                checked += 1
                held += got
    assert (checked, held) == (1520, 178)


def test_every_found_witness_verifies():
    # The search yields the witness its ray lookup built, with no check of
    # its own; each must pass the checker `verify` runs and the per-ray one.
    cones = [c for sp in fixture_library().spaces.values() for c in (sp.cone, dual_cone(sp.cone))]
    cube = cone.cone_from_rays([(*signs, 1) for signs in product((1, -1), repeat=4)], 5)
    pairs = [(a, b) for a in cones for b in cones] + [(cube, cube)]
    found = []
    for source, target in pairs:
        for w in order_isomorphisms(source, target):
            assert w.verify(source, target) and ref.witness_verify(w, source, target)
            found.append(w)
    assert len(pairs) == 257 and sum(len(w.matrix) == 5 for w in found) == 384
    assert len(found) == 984


def test_a_pairing_of_another_width_is_no_isomorphism_state():
    # The 3 x 4 map of cube_to_hexagon pairs the 6 rays of the octahedron
    # cone with the hexagon's 6; only verify's d x d shape check refuses it.
    om = fixture_library().states["cube_to_hexagon"]
    rows, q = om._rows
    source, target = dual_cone(om.space_a.cone), om.space_b.cone
    assert pair_ray_images(rows, q, source.rays, target.rays) is not None
    assert is_isomorphism_state(om) is None


def component_cones():
    """The fixture cones and their duals, the 25 direct sums of the first
    five fixture spaces and nine three-term direct sums: 50 cones."""
    spaces = list(fixture_library().spaces.values())
    cones = [c for sp in spaces for c in (sp.cone, dual_cone(sp.cone))]
    first = [sp.cone for sp in spaces[:5]]
    cones += [ordered_direct_sum(a, b) for a in first for b in first]
    cones += [
        ordered_direct_sum(ordered_direct_sum(a, first[3]), b)
        for a in first[:3] for b in first[2:5]
    ]
    return cones


def test_components_match_the_reference():
    cones = component_cones()
    assert len(cones) == 50
    for c in cones:
        assert repr(irreducible_components(c)) == repr(ref.irreducible_components(c))


def test_components_eliminate_the_rays_twice(monkeypatch):
    # ray_circuits' basis and solver, and nothing more besides the summands'
    # own cone_from_rays, simplicial cones included.
    calls = count_eliminations(monkeypatch)
    build = cone.cone_from_rays

    def uncounted(*args):
        n = len(calls)
        out = build(*args)
        del calls[n:]
        return out

    monkeypatch.setattr(cone, "cone_from_rays", uncounted)
    for c in component_cones():
        calls.clear()
        irreducible_components(c)
        assert len(calls) == 2
