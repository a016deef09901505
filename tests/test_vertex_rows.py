"""The integer vertex core against the `Fraction` enumeration it replaced.

`dd._vertex_rows` returns a polytope's vertices as integer rows over one
common scale, sorted as integer tuples, and `steering` keeps the splitting
polytopes' parts in those rows, dropping zero parts and repeats on integer
keys. `tests/reference_vertices.py` keeps the `Fraction` versions; every
public function must give their output, in their order and with `Fraction`
entries, on the fixture states and the first 100 criterion-8 states.
"""

from fractions import Fraction

import pytest

import polysteer.space
import polysteer.steering
import reference_vertices
from polysteer import fixtures
from polysteer.composite import marginal_b
from polysteer.dd import _vertex_rows, polytope_vertices
from polysteer.steering import decide_steering, ensemble_polytope_vertices, extremal_ensembles

LIB = fixtures.fixture_library()


@pytest.fixture(scope="module")
def states(criterion_8_sequence):
    return [LIB.states[name] for name in LIB.states] + criterion_8_sequence(100)


def all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_extremal_ensembles_match_the_fraction_reference(states, depth):
    for omega in states:
        target = marginal_b(omega).vector
        got = [(k, e.parts) for k, e in extremal_ensembles(omega.space_b, target, depth)]
        want = [
            (k, e.parts)
            for k, e in reference_vertices.extremal_ensembles(omega.space_b, target, depth)
        ]
        assert got == want
        assert all(all_fractions(parts) for _, parts in got)
        splittings = ensemble_polytope_vertices(omega.space_b, target, depth)
        assert splittings == reference_vertices.ensemble_polytope_vertices(
            omega.space_b, target, depth
        )
        assert all(all_fractions(parts) for parts in splittings)


def test_decide_steering_matches_the_fraction_reference(states, monkeypatch):
    got = [decide_steering(omega, depth=3) for omega in states]
    monkeypatch.setattr(
        polysteer.steering, "extremal_ensembles", reference_vertices.extremal_ensembles
    )
    want = [decide_steering(omega, depth=3) for omega in states]
    assert got == want
    assert {v.status for v in got} == {"steering_up_to", "not_steering"}


def test_polytope_vertices_match_the_fraction_reference(monkeypatch):
    # Every enumeration the LP-probe oracle is compared on that goes
    # through the public function, or through the integer core from the
    # order and effect intervals, recorded and then rerun. A core call's
    # rows (G, -H) are the inequalities G.x >= H.
    from test_vertex_oracle import CASES

    cases = []

    def recorded(ineqs, dim):
        cases.append((ineqs, dim, None))
        return polytope_vertices(ineqs, dim)

    def recorded_rows(rows, dim):
        out = _vertex_rows(rows, dim)
        cases.append(([(r[:dim], -r[dim]) for r in rows], dim, out))
        return out

    monkeypatch.setattr(polysteer.steering, "polytope_vertices", recorded)
    monkeypatch.setattr(polysteer.space, "_vertex_rows", recorded_rows)
    for _, run in CASES:
        run()
    assert sum(core is None for *_, core in cases) > 10
    assert len(cases) > 100
    for ineqs, dim, core in cases:
        got = polytope_vertices(ineqs, dim)
        want = reference_vertices.polytope_vertices(ineqs, dim)
        assert got == want
        assert all_fractions(got)
        if core is not None:
            verts, scale = core
            assert [tuple(Fraction(x, scale) for x in v) for v in verts] == want
