"""The start that tensor cones hand to double description.

``composite._seeded_products`` writes a tensor cone's product rows and the
cone that the outer factor's independent rows' blocks cut out: a direct sum
of copies of the inner factor's cone (or of its dual, for a min tensor). The
first test checks that start against the rows alone, on every ordered pair
of fixture spaces, with no conversion; the second checks that double
description from it ends where it ends from its own elimination start.
"""

from __future__ import annotations

import pytest

from polysteer.composite import _products, _seeded_products, max_tensor, min_tensor
from polysteer.cone import _extreme_generators
from polysteer.dd import extreme_rays, int_dot, simplicial_start
from polysteer.fixtures import fixture_library
from polysteer.ratlin import rank

LIB = fixture_library()
NAMES = list(LIB.spaces)


def factors(kind, a, b):
    """(fs, gs, f_duals, g_duals) of a min (max) tensor: the rows it
    multiplies, its rays (facets), and the other representation of each."""
    ca, cb = LIB.space(a).cone, LIB.space(b).cone
    if kind == "min":
        return ca.rays, cb.rays, ca.facets, cb.facets
    return ca.facets, cb.facets, ca.rays, cb.rays


@pytest.mark.parametrize("kind", ["min", "max"])
def test_seed_is_the_cone_of_its_inserted_rows(kind):
    for a, b in ((a, b) for a in NAMES for b in NAMES):
        fs, gs, f_duals, g_duals = factors(kind, a, b)
        dim = len(fs[0]) * len(gs[0])
        rows, (inserted, rays, masks) = _seeded_products(fs, gs, f_duals, g_duals)
        assert rows == _products(fs, gs)
        outer, inner_duals = (gs, f_duals) if len(gs) < len(fs) else (fs, g_duals)
        outer_dim = len(outer[0])
        assert len(inserted) == outer_dim * len(rows) // len(outer)
        assert len(rays) == len(masks) == outer_dim * len(inner_duals)
        assert len(set(rays)) == len(rays)
        for r, m in zip(rays, masks):
            dots = {i: int_dot(rows[i], r) for i in inserted}
            assert min(dots.values()) >= 0, (kind, a, b, r)
            assert m == sum(1 << i for i, v in dots.items() if v == 0), (kind, a, b, r)
            assert rank([rows[i] for i, v in dots.items() if v == 0]) == dim - 1
        if len(outer) == outer_dim:
            # A simplicial outer factor leaves no row to insert.
            assert sorted(inserted) == list(range(len(rows)))


def unseeded_cone(kind, rows, dim):
    """A tensor cone's (rays, facets) from its product rows, through double
    description in input order from its own elimination start."""
    pairs = extreme_rays(rows, dim, in_order=True)
    duals = sorted(v for v, _ in pairs)
    gens = _extreme_generators(rows, pairs)
    return (gens, duals) if kind == "min" else (duals, gens)


SEEDED_CASES = [
    # The benchmark's four pairs; simplex_3 is simplicial and outer.
    ("square_space", "square_space"),
    ("square_space", "pentagon_space"),
    ("simplex_3", "cube_space"),
    ("square_space", "cube_space"),
    # The first factor has more rows, so the second is outer: simplicial
    # for cube (x) simplex_3, not for pentagon (x) square.
    ("cube_space", "simplex_3"),
    ("pentagon_space", "square_space"),
]


@pytest.mark.parametrize("kind", ["min", "max"])
@pytest.mark.parametrize("a, b", SEEDED_CASES)
def test_seeded_conversion_equals_the_elimination_start(kind, a, b):
    fs, gs, f_duals, g_duals = factors(kind, a, b)
    dim = len(fs[0]) * len(gs[0])
    rows, start = _seeded_products(fs, gs, f_duals, g_duals)
    assert extreme_rays(rows, dim, start, in_order=True) == extreme_rays(rows, dim, in_order=True)
    tensor = (min_tensor if kind == "min" else max_tensor)(LIB.space(a), LIB.space(b))
    assert (list(tensor.cone.rays), list(tensor.cone.facets)) == unseeded_cone(kind, rows, dim)


def test_seeded_conversion_from_a_base_that_is_not_a_prefix():
    """The cube's rays and the octahedron's facets list four coplanar
    vectors first, so the outer factor's base skips its fourth row."""
    cube, octahedron = LIB.space("cube_space").cone, LIB.space("octahedron_space").cone
    assert simplicial_start(cube.rays, 4)[0] == [0, 1, 2, 4]
    assert simplicial_start(octahedron.facets, 4)[0] == [0, 1, 2, 4]
    rows, start = _seeded_products(cube.rays, cube.rays, cube.facets, cube.facets)
    assert sorted(start[0]) != list(range(len(start[0])))
    tensor = min_tensor(LIB.space("cube_space"), LIB.space("cube_space"))
    assert (list(tensor.cone.rays), list(tensor.cone.facets)) == unseeded_cone("min", rows, 16)
