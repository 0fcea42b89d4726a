import numpy as np
import pytest

from kramers.trust_region import _bounded_step, _unbounded_step


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
