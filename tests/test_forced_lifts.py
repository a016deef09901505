"""Forced lifts against the LP-only lift they replaced.

When the state's map is injective, `steering.lift_ensemble` reads each
part's lift off one elimination, and runs the lift LP only when a part has
no preimage or a preimage is negative on an A ray; a map with a kernel
runs the LP as before. `reference_lp_loops.lift_ensemble` runs the LP for
every ensemble. On every ensemble of the fixture states and the first 100
states of acceptance criterion 8, up to 4 parts, the two must return the
same effects as Fractions, or the same Farkas vector.
"""

from collections import Counter
from fractions import Fraction

import pytest

import reference_lp_loops
from polysteer import fixtures, steering
from polysteer.composite import marginal_b
from polysteer.dd import int_dot
from polysteer.ratlin import integral, nullspace, solve_linear
from polysteer.steering import decide_steering, extremal_ensembles, lift_ensemble

LIB = fixtures.fixture_library()


@pytest.fixture(scope="module")
def states(criterion_8_sequence):
    return [LIB.state(name) for name in LIB.states] + criterion_8_sequence(100)


def injective(omega) -> bool:
    return not nullspace(omega.matrix, ncols=omega.space_a.dim)


def case_of(omega, e) -> str:
    """Which branch of lift_ensemble the ensemble takes, found without it."""
    if not injective(omega):
        return "kernel"
    preimages = [solve_linear(omega.matrix, p) for p in e.parts]
    if None in preimages:
        return "outside range"
    rays = omega.space_a.cone.rays
    if any(int_dot(integral(x), r) < 0 for x in preimages for r in rays):
        return "negative"
    return "forced"


def test_forced_lifts_match_the_lp_only_lift(states):
    cases = Counter()
    outside = Counter()
    for i, omega in enumerate(states):
        target = marginal_b(omega).vector
        for _, e in extremal_ensembles(omega.space_b, target, 4):
            got = lift_ensemble(omega, e)
            want = reference_lp_loops.lift_ensemble(omega, e)
            assert got == want
            if got:
                effects = [f.functional for f in got.observable.effects]
                assert all(type(x) is Fraction for f in effects for x in f)
            else:
                assert all(type(x) is Fraction for x in got.farkas)
            case = case_of(omega, e)
            cases[case, bool(got)] += 1
            if case == "outside range":
                outside[i] += 1
    assert set(cases) == {
        ("forced", True),
        ("outside range", False),
        ("negative", False),
        ("kernel", True),
        ("kernel", False),
    }, cases
    # Criterion-8 states 02, 08, 12 and 14 map a 2-dimensional A into a
    # 3-dimensional B injectively, and some of their parts leave the range.
    for k in (2, 8, 12, 14):
        omega = states[len(LIB.states) + k]
        assert (omega.space_a.dim, omega.space_b.dim) == (2, 3) and injective(omega)
        assert outside[len(LIB.states) + k] > 0, k
    assert sum(cases.values()) > 400


def test_injective_states_run_the_lp_only_to_refute(states, monkeypatch):
    """decide_steering on an injective state runs no LP when it steers and
    exactly one, the refuting one, when it does not; its verdict is the
    LP-only path's, Farkas vector and all."""
    calls = []
    lp = steering.lp_feasible
    monkeypatch.setattr(steering, "lp_feasible", lambda *a: calls.append(1) or lp(*a))
    verdicts = Counter()
    got = []
    for omega in filter(injective, states):
        calls.clear()
        verdict = decide_steering(omega, 3)
        assert len(calls) == (0 if verdict else 1), (verdict.status, len(calls))
        verdicts[verdict.status] += 1
        got.append((omega, verdict))
    assert verdicts["steering_up_to"] > 20 and verdicts["not_steering"] > 20, verdicts
    monkeypatch.setattr(steering, "lift_ensemble", reference_lp_loops.lift_ensemble)
    for omega, verdict in got:
        assert decide_steering(omega, 3) == verdict
