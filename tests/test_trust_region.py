import numpy as np
import pytest

from kramers.trust_region import COST_RTOL, MAX_EVALUATIONS, STEP_TOL, _bounded_step, _unbounded_step, minimize


def model(H, grad, p):
    return grad @ p + 0.5 * p @ H @ p


def test_positive_semidefinite_step_solves_the_shifted_system():
    # Gauss-Newton models H = J^T J, one of them singular, at radii from
    # tight to loose: the step solves (H + lambda) p = -grad and keeps to
    # the radius within the solver's 10% tolerance
    rng = np.random.default_rng(7)
    J = rng.normal(size=(6, 8, 4))
    J[0, :, 3] = 0.0
    r = rng.normal(size=(6, 8))
    H, grad = J.swapaxes(1, 2) @ J, np.einsum("bnp,bn->bp", J, r)
    radius = np.array([0.01, 0.1, 1.0, 10.0, 100.0, 1e4])
    p, lam = _unbounded_step(H, J, r, radius)
    for k in range(6):
        ref = -np.linalg.lstsq(H[k] + lam[k] * np.eye(4), grad[k], rcond=1e-12)[0]
        np.testing.assert_allclose(p[k], ref, rtol=1e-9, atol=1e-12 * np.linalg.norm(ref))
        norm = np.linalg.norm(p[k])
        assert norm <= 1.1 * radius[k]
        assert lam[k] >= 0.0 and (lam[k] == 0.0 or norm >= radius[k] * (1.0 - 1e-12))
    assert lam[-1] == 0.0 and lam[0] > 0.0


def test_hard_case_step_reaches_the_radius():
    # indefinite H whose least-curvature direction has no gradient part: the
    # shifted step alone falls short, and that direction fills the radius
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    H = q @ np.diag([-2.0, 1.0, 3.0]) @ q.T
    grad = q @ np.array([0.0, 0.3, -0.4])
    radius = 2.0
    p, lam = _unbounded_step(H[None], np.eye(3)[None], grad[None], np.array([radius]))
    p = p[0]
    assert np.linalg.norm(p) == pytest.approx(radius, rel=1e-12)
    assert lam[0] == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose((H + lam[0] * np.eye(3)) @ p, -grad, atol=1e-12)
    # no worse than the Cauchy point, the model's least along -grad
    direction = -grad / np.linalg.norm(grad)
    curvature = direction @ H @ direction
    along = radius if curvature <= 0 else min(np.linalg.norm(grad) / curvature, radius)
    assert model(H, grad, p) <= model(H, grad, along * direction)


def test_indefinite_step_shift_leaves_no_negative_curvature():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(50, 3, 3))
    H, grad = A + A.swapaxes(1, 2), rng.normal(size=(50, 3))
    radius = rng.uniform(0.05, 5.0, 50)
    p, lam = _unbounded_step(H, np.broadcast_to(np.eye(3), H.shape), grad, radius)
    assert np.all(lam >= -np.linalg.eigvalsh(H)[:, 0])
    assert np.all(np.linalg.norm(p, axis=1) <= 1.1 * radius)
    np.testing.assert_allclose(np.einsum("bpq,bq->bp", H, p) + lam[:, None] * p, -grad, atol=1e-9)


def test_bounded_step_keeps_to_the_box():
    # a coordinate the step would carry past a bound stays on it, and the
    # others minimize the model with it held there
    J, r = np.diag([1.0, np.sqrt(2.0), 2.0])[None], np.array([[-3.0, 1.0 / np.sqrt(2.0), -1.0]])
    lower, upper = np.array([[-1.0, -1.0]]), np.array([[1.0, 0.25]])
    p, lam = _bounded_step(J.swapaxes(1, 2) @ J, J, r, np.array([100.0]), lower, upper)
    np.testing.assert_allclose(p[0], [3.0, -0.5, 0.25])
    assert lam[0] == 0.0


def test_bounded_step_holds_the_pinned_part_in_a_coupled_model():
    # a coupled Gauss-Newton model: the step pins the first coordinate, and
    # the rest minimize the model with it held there, so their part of the
    # gradient J^T (r + J p) vanishes
    J = np.array([[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]])
    r = np.array([[-4.0, 0.0, 1.0, 0.5]])
    lower, upper = np.array([[-1.0, -1e3, -1e3]]), np.array([[1.0, 1e3, 1e3]])
    p, lam = _bounded_step(J.swapaxes(1, 2) @ J, J, r, np.array([100.0]), lower, upper)
    assert p[0, 0] == 1.0 and lam[0] == 0.0
    np.testing.assert_allclose((J[0].T @ (r[0] + J[0] @ p[0]))[1:], 0.0, atol=1e-12)


def square(x):
    """The toy model's state rows and cost at points x: cost x^2."""
    return (x, -x), x * x


def test_minimize_never_proposes_to_a_start_that_cannot_run():
    # cost 0, an infinite or NaN cost, and a zero radius stop before any
    # step; the last start runs to its minimum at 0
    proposed = []

    def propose(a, radius):
        proposed.extend(a.tolist())
        p = np.clip(-x[a], -radius, radius)
        return (x[a] + p,), x[a] ** 2 - (x[a] + p) ** 2, np.abs(p), np.abs(p), np.zeros(a.size)

    state, cost = square(np.array([0.0, np.inf, np.nan, 1.0, 3.0]))
    x = state[0]
    run = minimize(state, cost, np.array([1.0, 1.0, 1.0, 0.0, 1.0]), propose, square)
    assert set(proposed) == {4}
    assert run.iterations.tolist() == [0, 0, 0, 0, 2] and run.evaluations.tolist() == [1, 1, 1, 1, 3]
    assert run.cost[4] == 0.0 and x[4] == 0.0 and run.state[1][4] == 0.0


def test_minimize_does_not_evaluate_a_step_that_changes_little():
    # start 0's step predicts a fall of COST_RTOL of its cost and start 1's
    # is STEP_TOL long: both have converged; start 2's predicts a little
    # more than start 0's and is evaluated
    evaluated = []

    def propose(a, radius):
        fall = np.array([COST_RTOL, 0.5, 2.0 * COST_RTOL])[a] * cost[a]
        length = np.array([1.0, STEP_TOL, 1.0])[a]
        return (x[a] - 1.0,), fall, length, length, np.zeros(a.size)

    def evaluate(x):
        evaluated.append(x.copy())
        return (x, -x), np.full(x.size, np.inf)  # rejected: start 2 runs on until the cap

    state, cost = square(np.array([2.0, 2.0, 2.0]))
    x = state[0]
    run = minimize(state, cost, np.ones(3), propose, evaluate)
    assert all(e.size == 1 for e in evaluated)
    assert run.evaluations.tolist() == [1, 1, MAX_EVALUATIONS] and run.iterations.tolist() == [0, 0, 0]


def test_minimize_rejected_step_leaves_its_start_alone():
    # one round: start 0's cost falls by 1e-5 of the predicted fall
    # (rejected), start 1's as predicted (accepted), and start 2's step
    # predicts no fall (not evaluated)
    rounds = []

    def propose(a, radius):
        rounds.append(a)
        trial = np.array([np.sqrt(4.0 - 1e-5), 1.0, 2.5])[a]
        predicted = np.array([1.0, 3.0, 0.0])[a] if len(rounds) == 1 else np.zeros(a.size)
        return (trial,), predicted, np.ones(a.size), np.full(a.size, 3.0), np.zeros(a.size)

    state, cost = square(np.array([2.0, 2.0, 2.0]))
    x, y = state
    radius = np.array([5.0, 5.0, 5.0])
    run = minimize(state, cost, radius, propose, square)
    assert len(rounds) == 2
    np.testing.assert_array_equal(x, [2.0, 1.0, 2.0])
    np.testing.assert_array_equal(y, [-2.0, -1.0, -2.0])
    np.testing.assert_array_equal(run.cost, [4.0, 1.0, 4.0])
    # a quarter of the rejected step, twice the accepted one, and untouched
    np.testing.assert_array_equal(radius, [0.75, 6.0, 5.0])
    assert run.iterations.tolist() == [0, 1, 0] and run.evaluations.tolist() == [2, 2, 1]


def test_minimize_stops_at_the_evaluation_cap():
    # every step halves x and is accepted, and its length never shrinks:
    # only the cap stops the start
    def propose(a, radius):
        return (x[a] / 2,), 0.75 * cost[a], np.ones(a.size), np.ones(a.size), np.zeros(a.size)

    state, cost = square(np.array([1.0]))
    x = state[0]
    run = minimize(state, cost, np.ones(1), propose, square)
    assert run.evaluations.tolist() == [MAX_EVALUATIONS]
    assert run.iterations.tolist() == [MAX_EVALUATIONS - 1]
    assert x[0] == 0.5 ** (MAX_EVALUATIONS - 1)
