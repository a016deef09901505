"""The section check at the interval's ends, lazy effect vertices, and
affine bases of lifted points, against the code they replaced.

`AffineSection._holds` checks a section at 0 and at the marginal, where the
per-vertex loop kept in `reference_sections` checked every vertex of
[0, marginal]; the two must agree on found sections and on tamperings of
them. `_affine_basis` and `_polytope_dimension` read the rows (p, 1) where
the references read the differences p - p_0. A state keeps the section
frame its first search derives, so tests that count enumerations run on
fresh copies of the states.
"""

import random
from dataclasses import fields
from fractions import Fraction

import pytest

from polysteer import space as space_module
from polysteer import steering
from polysteer.composite import BipartiteState, marginal_b
from polysteer.cone import dual_cone
from polysteer.fixtures import fixture_library
from polysteer.ratlin import (
    LinearProgram,
    integer_row,
    integer_rows,
    lp_feasible,
    nullspace,
    solve_linear,
    vec_dot,
    vec_zero,
)
from polysteer.space import effects_interval
from polysteer.steering import (
    AffineSection,
    _affine_basis,
    _polytope_dimension,
    affine_section_search,
    order_interval_vertices,
    section_program,
)
import reference_sections

F = Fraction


def fixture_states():
    lib = fixture_library()
    return [lib.states[name] for name in lib.states]


@pytest.fixture(scope="module")
def end_check_states(criterion_8_sequence):
    """The fixture states and the first 60 states of criterion 8's sequence."""
    return fixture_states() + list(criterion_8_sequence(60))


def interval_of(omega):
    return order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)


def tamperings(omega, section, rng):
    """Seeded tamperings of a section, each (kind, section): one image
    shifted along the kernel of omega-hat, by a little and by a lot; one
    entry perturbed; one image rescaled."""
    images = tuple(section.images)
    kernel = nullspace(omega.matrix, ncols=omega.space_a.dim)

    def changed(i, image):
        return AffineSection(section.base_points, images[:i] + (tuple(image),) + images[i + 1:])

    out = []
    for k in kernel:
        for t in (F(rng.choice((-1, 1)), 1000), F(rng.choice((-1, 1)))):
            i = rng.randrange(len(images))
            out.append(("shift", changed(i, [x + t * c for x, c in zip(images[i], k)])))
    i, j = rng.randrange(len(images)), rng.randrange(omega.space_a.dim)
    perturbed = list(images[i])
    perturbed[j] += F(rng.choice((-1, 1)), rng.randint(1, 1000))
    out.append(("perturb", changed(i, perturbed)))
    i, c = rng.randrange(len(images)), rng.choice((F(1, 2), F(3, 4), F(5, 4), 2))
    out.append(("rescale", changed(i, [x * c for x in images[i]])))
    return out


def candidate_sections(omega, rng, rounds=5):
    """(kind, section) pairs over the program's basis: the found section
    and its alternate, the candidate of particular preimages when every
    base point has one, and `rounds` rounds of tamperings of each."""
    verts = interval_of(omega)
    basis = tuple(verts[i] for i in _affine_basis(verts))
    search = affine_section_search(omega)
    sections = [("found", s) for s in (search.section, search.alternate) if s is not None]
    preimages = [solve_linear(omega.matrix, p) for p in basis]
    if None not in preimages:
        sections.append(("preimages", AffineSection(basis, tuple(preimages))))
    tampered = [t for _, s in sections for _ in range(rounds) for t in tamperings(omega, s, rng)]
    return sections + tampered


def test_end_check_agrees_with_the_per_vertex_loop(end_check_states):
    """_holds and verify give the per-vertex loop's verdict on every
    candidate. A perturbed entry breaks the values; a shift along the
    kernel keeps them, and only some shifts and rescalings keep the
    section in the effects."""
    rng = random.Random(32)
    verdicts = {}
    for omega in end_check_states:
        verts = interval_of(omega)
        for kind, section in candidate_sections(omega, rng):
            want = reference_sections.holds_on(section, omega, verts)
            assert section._holds(omega) == want, (kind, section)
            assert section.verify(omega) == want, (kind, section)
            verdicts.setdefault(kind, []).append(want)
    assert set(verdicts) == {"found", "preimages", "shift", "perturb", "rescale"}
    assert all(verdicts["found"])
    assert not any(verdicts["perturb"])
    for kind in ("preimages", "shift", "rescale"):
        assert True in verdicts[kind] and False in verdicts[kind], kind
    assert sum(map(len, verdicts.values())) > 700


def test_end_check_refuses_ragged_images_before_any_check():
    """A ragged image list raises as apply does, not a quiet False."""
    omega = fixture_library().state("square_iso")
    good = affine_section_search(omega).section
    ragged = AffineSection(good.base_points, ((F(9),) * 2,) + good.images[1:])
    with pytest.raises(ValueError, match="zip"):
        ragged._holds(omega)


def counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_effect_membership_enumerates_no_vertices(monkeypatch):
    lib = fixture_library()
    calls = counted(monkeypatch, space_module, "order_interval_vertices")
    for name in lib.spaces:
        space = lib.space(name)
        interval = effects_interval(space)
        assert interval.contains(space.unit) and interval.contains(vec_zero(space.dim))
        assert not interval.contains(tuple(2 * u for u in space.unit))
        assert calls == []
        assert interval.vertices is interval.vertices
        assert len(calls) == 1
        assert interval.vertices == order_interval_vertices(dual_cone(space.cone), space.unit)
        calls.clear()


def test_image_intervals_of_one_space_enumerate_its_vertices_once(monkeypatch):
    omega = fixture_library().state("square_iso")
    calls = counted(monkeypatch, space_module, "order_interval_vertices")
    first = steering.image_interval(omega)
    assert steering.image_interval(omega) == first
    assert len(calls) == 1


def fresh(omega):
    """A new state equal to omega, with nothing kept on it yet."""
    return BipartiteState(omega.space_a, omega.space_b, omega.matrix)


def test_section_search_and_verify_enumerate_the_interval_once(monkeypatch, end_check_states):
    """On a fresh copy of each state, the search and the verify calls of its
    section and alternate enumerate [0, marginal] once between them: the
    search keeps the state's section frame, and verify reads it and runs no
    program enumeration."""
    intervals = counted(monkeypatch, steering, "order_interval_vertices")
    vertices = counted(monkeypatch, space_module, "_vertex_rows")
    programs = counted(monkeypatch, steering, "polytope_vertices")
    found = 0
    for state in end_check_states:
        omega = fresh(state)
        for calls in (intervals, vertices):
            calls.clear()
        search = affine_section_search(omega)
        programs.clear()
        for section in (search.section, search.alternate):
            if section is not None:
                assert section.verify(omega)
        assert (len(intervals), len(vertices), len(programs)) == (1, 1, 0)
        found += bool(search)
    assert found > 20


def test_a_second_search_falls_back_as_the_first(monkeypatch, criterion_8_states):
    """A search on a state that keeps its frame gives the same result and
    calls _section_search_full exactly when the first search did: on 14 of
    the 20 states random_batch draws."""
    full = counted(monkeypatch, steering, "_section_search_full")
    fallbacks = 0
    for state in criterion_8_states:
        omega = fresh(state)
        first = affine_section_search(omega)
        calls = len(full)
        assert affine_section_search(omega) == first
        assert len(full) == 2 * calls
        fallbacks += calls
        full.clear()
    assert fallbacks == 14


def test_kept_attributes_are_invisible_to_equality(criterion_8_states):
    """The integer rows, the solver and the section frame are kept on a
    state, not fields: once all three are built, the state compares equal,
    hashes and reprs as a fresh copy of itself."""
    assert [f.name for f in fields(BipartiteState)] == ["space_a", "space_b", "matrix"]
    for state in criterion_8_states:
        omega = fresh(state)
        affine_section_search(omega)
        omega.solver()
        copy = fresh(omega)
        assert None not in (omega._rows, omega._solver, omega._frame)
        assert (copy._solver, copy._frame) == (None, None)
        assert omega == copy and hash(omega) == hash(copy) and repr(omega) == repr(copy)


def interval_program(cone, top):
    """The rows g.y >= 0 and -g.y >= -g.top of each facet g, as an LP."""
    ge = []
    for g in cone.facets:
        ge.append(integer_row(g, 0))
        ge.append(integer_row([-c for c in g], -vec_dot(g, top)))
    return LinearProgram(len(top), ge=ge)


def program_vertices(lp):
    """The vertices of lp's polytope, enumerated as _polytope_dimension
    enumerates them."""
    rows = [(a, b) for a, b, _ in lp.ge]
    rows += [r for a, b, _ in lp.eq for r in ((a, b), (tuple(-x for x in a), -b))]
    return steering.polytope_vertices(rows, lp.n_vars)


def test_lifted_rows_match_the_difference_vectors(criterion_8_sequence):
    """On every fixture and criterion-8 order interval, every fixture effect
    interval and every feasible section program's polytope, the affine
    basis and the dimension are the differences' ones."""
    states = fixture_states() + list(criterion_8_sequence(100))
    polytopes = [
        interval_program(omega.space_b.cone, marginal_b(omega).vector) for omega in states
    ]
    spaces = dict.fromkeys(s for omega in fixture_states() for s in (omega.space_a, omega.space_b))
    polytopes += [interval_program(dual_cone(s.cone), s.unit) for s in spaces]
    programs = [section_program(omega)[0] for omega in states]
    polytopes += [p for p in programs if lp_feasible(p).status == "feasible"]
    dimensions = set()
    for lp in polytopes:
        verts = program_vertices(lp)
        basis = [verts[i] for i in _affine_basis(verts)]
        assert basis == reference_sections.affine_basis(verts)
        assert _affine_basis(integer_rows(verts)[0]) == _affine_basis(verts)
        dimension = _polytope_dimension(lp)[0]
        assert dimension == reference_sections.affine_dimension(verts)
        dimensions.add(dimension)
    assert len(polytopes) > 130 and len(dimensions) > 3
