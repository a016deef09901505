"""The packed membership test against the loop it replaced.

`cone.PackedRows` packs a cone's rows column by column into wide ints and
decides f.x >= floor for every row f with one multiply-add per coordinate.
`reference_membership` keeps the loop of one dot product per row. The two
must agree on seeded rows of up to 40 rows in up to 8 coordinates, with
entries up to 2^200 and points up to 2^300, on points built to sit exactly
on a row (f.x in {-1, 0, 1}), on rows and points at the slot width's bound,
on blocks of up to 320 rows, and when a wider point arrives after a
narrower one.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import reference_membership
from polysteer.composite import max_tensor
from polysteer.cone import Face, PackedRows, PolyhedralCone, all_faces, dual_cone
from polysteer.fixtures import fixture_library
from polysteer.space import StateSpace, effects_interval


@pytest.fixture(scope="module")
def lib():
    # Built by the tests that use it, so that a broken packed test fails
    # them rather than the whole module's collection.
    return fixture_library()


@pytest.fixture(scope="module")
def spaces(lib):
    return [lib.space(name) for name in lib.spaces]


def random_int(rng: random.Random, bits: int) -> int:
    return rng.choice((-1, 1)) * rng.getrandbits(bits) if bits else 0


def on_the_boundary(rng: random.Random, d: int, n: int, targets) -> tuple[list, list]:
    """A point x with an entry of +-1 at a random coordinate j and the
    others up to 2^300, and n rows with entries up to 2^200 off j: the
    first rows meet f.x = target, one per target, by their entry at j,
    and the rest are turned to f.x >= 2."""
    j = rng.randrange(d)
    x = [random_int(rng, rng.choice((1, 40, 300))) for _ in range(d)]
    x[j] = rng.choice((-1, 1))
    rows = []
    for k in range(n):
        f = [random_int(rng, rng.choice((1, 30, 200))) for _ in range(d)]
        f[j] = 0
        rest = sum(a * b for a, b in zip(f, x))
        if k < len(targets):
            f[j] = x[j] * (targets[k] - rest)
        else:
            f[j] = x[j] * (rng.randrange(2, 1 << 40) - rest)
        rows.append(tuple(f))
    rng.shuffle(rows)
    return rows, x


def test_packed_test_matches_the_loop_on_seeded_rows():
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        d, n = rng.randint(1, 8), rng.randint(0, 40)
        row_bits, x_bits = rng.choice((1, 3, 8, 64, 200)), rng.choice((0, 1, 5, 64, 300))
        x = [random_int(rng, x_bits) for _ in range(d)]
        rows = []
        for _ in range(n):
            f = [random_int(rng, row_bits) for _ in range(d)]
            # Most rows are turned to be nonnegative on x, so that many
            # blocks hold and those that fail fail on few rows.
            if rng.random() < 0.97 and sum(a * b for a, b in zip(f, x)) < 0:
                f = [-a for a in f]
            rows.append(tuple(f))
        packed = PackedRows(rows)
        for floor in (0, 1):
            want = reference_membership.holds(rows, x, floor)
            assert packed.holds(x, floor) == want, (rows, x, floor)
            seen[want] += 1
    assert seen[True] > 500 and seen[False] > 500, seen


@pytest.mark.parametrize("targets", [(0,), (1,), (-1,), (0, 1), (1, 1, 0), (1, -1), (0, 0, -1)])
def test_rows_that_meet_the_point_exactly(targets):
    rng = random.Random(str(targets))
    for _ in range(60):
        d = rng.randint(1, 8)
        rows, x = on_the_boundary(rng, d, rng.randint(len(targets), 40), targets)
        assert sorted(sum(a * b for a, b in zip(f, x)) for f in rows)[0] == min(targets)
        packed = PackedRows(rows)
        for floor in (0, 1):
            want = min(targets) >= floor
            assert reference_membership.holds(rows, x, floor) == want
            assert packed.holds(x, floor) == want


@pytest.mark.parametrize("a", [1, 2, 5, 200])
@pytest.mark.parametrize("b", [0, 1, 2, 7, 64, 300])
def test_rows_and_points_at_the_width_bound(a, b):
    """f.x = +-L X at the largest row 1-norm L = 2^a - 1 and the largest
    entry X = 2^b - 1, in a block packed for b-bit points, where a slot one
    bit narrower than the width PackedRows takes would overflow; and the
    same point in a block it packs itself."""
    rng = random.Random(a * 1000 + b)
    big = (1 << a) - 1
    for d in range(1, 9):
        signs = [rng.choice((-1, 1)) for _ in range(d)]
        x = [s * ((1 << b) - 1) for s in signs]
        cut = sorted(rng.randint(0, big) for _ in range(d - 1))
        parts = [hi - lo for lo, hi in zip([0, *cut], [*cut, big])]
        f = tuple(s * p for s, p in zip(signs, parts))
        g = tuple(-c for c in f)
        for rows in ([f], [g], [f, g], [g, f], [f, f]):
            tight = PackedRows(rows)
            tight._pack(b)
            for floor in (0, 1):
                want = reference_membership.holds(rows, x, floor)
                assert tight.holds(x, floor) == want, (rows, x, floor)
                assert PackedRows(rows).holds(x, floor) == want, (rows, x, floor)
            assert tight._bits == b


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200, 320])
def test_blocks_of_many_rows(n):
    rng = random.Random(n)
    for targets in ((0, 1), (1, 1), (1, -1)):
        rows, x = on_the_boundary(rng, rng.randint(1, 8), n, targets)
        packed = PackedRows(rows)
        for floor in (0, 1):
            want = min(targets) >= floor
            assert reference_membership.holds(rows, x, floor) == want
            assert packed.holds(x, floor) == want


def test_a_wider_point_widens_the_block():
    """A block is packed for twice the bits of the point that packs it: a
    point up to that wide reuses it, and a wider one packs it again."""
    rng = random.Random(41)
    for _ in range(40):
        d = rng.randint(1, 8)
        rows, x = on_the_boundary(rng, d, rng.randint(1, 40), (rng.choice((-1, 0, 1)),))
        small = [rng.randint(-1, 1) for _ in range(d)]
        wide = [c << 2 * max(map(abs, x)).bit_length() + 1 for c in x]
        packed = PackedRows(rows)
        for point in (small, x, small, wide, x):
            before = packed._bits
            for floor in (0, 1):
                assert packed.holds(point, floor) == reference_membership.holds(rows, point, floor)
            bits = max(map(abs, point)).bit_length()
            assert packed._bits == (before if bits <= before else 2 * bits)
        assert packed._bits == 2 * max(map(abs, wide)).bit_length()


def test_cones_test_membership_as_the_loop_does(lib, spaces):
    rng = random.Random(43)
    tensor = max_tensor(lib.space("square_space"), lib.space("cube_space"))
    cones = [*(s.cone for s in spaces), dual_cone(tensor.cone)]
    assert len(cones[-1].facets) == 128
    for c in cones:
        d = c.ambient_dim
        inside = [sum(col) for col in zip(*c.rays)]
        points = [inside, [0] * d, *c.rays, *c.facets]
        points += [[rng.randint(-3, 3) for _ in range(d)] for _ in range(30)]
        points += [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)] for _ in range(10)]
        points += [[random_int(rng, 300) for _ in range(d)] for _ in range(5)]
        for p in points:
            ints = [int(v * 2520) for v in p]
            assert c.contains(p) == reference_membership.holds(c.facets, ints, 0)
            assert c.interior_contains(p) == reference_membership.holds(c.facets, ints, 1)
            assert c.dual_contains(p) == reference_membership.holds(c.rays, ints, 0)
            assert c.dual_contains(p) == dual_cone(c).contains(p)


def test_faces_test_membership_as_the_loop_does(spaces):
    rng = random.Random(47)
    for c in (s.cone for s in spaces):
        d = c.ambient_dim
        for face in all_faces(c):
            inside = [sum(col) for col in zip(*face.rays())] if face.ray_indices else [0] * d
            points = [inside, [0] * d, *c.rays]
            points += [[a + b for a, b in zip(inside, r)] for r in c.rays]
            points += [[rng.randint(-2, 2) for _ in range(d)] for _ in range(10)]
            points += [[Fraction(v, 7) for v in inside]]
            for p in points:
                assert face.contains(p) == reference_membership.face_contains(face, p)
            assert face.contains(inside)


def test_effects_at_both_bounds(spaces):
    """0, the unit and the effect interval's vertices reach 0 or U_r on
    every ray; a step past either bound leaves the interval."""
    eps = Fraction(1, 10**30)
    seen = {True: 0, False: 0}
    for space in spaces:
        fresh = StateSpace(space.cone, space.unit)
        verts = effects_interval(space).vertices
        unit = space.unit
        points = [[0] * space.dim, unit, *verts]
        points += [[c * u for u in unit] for c in (1 + eps, -eps, eps, 1 - eps)]
        points += [[v + eps * (i == k) for i, v in enumerate(vert)] for vert in verts for k in (0, 1)]
        points += [[v - eps * (i == k) for i, v in enumerate(vert)] for vert in verts for k in (0, 1)]
        for f in points:
            want = reference_membership.is_effect(space, f)
            assert space.is_effect(f) == want and fresh.is_effect(f) == want
            seen[want] += 1
        assert all(space.is_effect(v) for v in [[0] * space.dim, unit, *verts])
    assert seen[True] > 50 and seen[False] > 50, seen


def test_wrong_lengths_raise_as_before(lib):
    space = lib.space("square_space")
    c = space.cone
    face = all_faces(c)[-1]
    tests = (c.contains, c.interior_contains, c.dual_contains, face.contains)
    for test in tests:
        test([1, 1, 1])  # the packed blocks are built first
    space.is_effect([0, 0, 0])
    for x in ([1, 1], [1, 1, 1, 1, 1]):
        for test in tests:
            with pytest.raises(ValueError, match=f"vector has {len(x)} entries, the cone lives in 3"):
                test(x)
        with pytest.raises(ValueError, match="effect length does not match the dimension"):
            space.is_effect(x)


def test_kept_blocks_take_no_part_in_equality_hash_or_repr(spaces):
    for space in spaces:
        c = space.cone
        twin = PolyhedralCone(c.ambient_dim, c.rays, c.facets)
        before = (repr(c), hash(c))
        inside = [sum(col) for col in zip(*c.rays)]
        c.contains(inside), c.interior_contains(inside), c.dual_contains(inside)
        space.is_effect(space.unit)
        face = all_faces(c)[1]
        face.contains(inside)
        assert c == twin and hash(c) == hash(twin) and (repr(c), hash(c)) == before
        assert repr(twin) == repr(c) and "packed" not in repr(c)
        assert face == Face(twin, face.ray_indices, face.active_facets)
        assert repr(face) == repr(Face(twin, face.ray_indices, face.active_facets))
        same = StateSpace(twin, space.unit)
        assert same == space and hash(same) == hash(space) and repr(same) == repr(space)
    assert [f.name for f in dataclasses.fields(PolyhedralCone)] == ["ambient_dim", "rays", "facets"]
    assert [f.name for f in dataclasses.fields(Face)] == ["parent", "ray_indices", "active_facets"]
