"""The trust-region step shared by the tensor fit and the ZEFOZ descent.

Both minimize a sum of squares from a batch of starting points in
lockstep, with Moré's (1978) trust region: ``_unbounded_step`` solves for
the step within a radius, ``_trust_radius`` updates the radius from the
cost fall a step achieved, and a start stops by the same rules in both
(a predicted relative cost change below COST_RTOL, a step below STEP_TOL,
or MAX_EVALUATIONS evaluations).
"""

from __future__ import annotations

import numpy as np

# the evaluations one start may spend, and its stopping rules (a relative
# cost change, or a step in the caller's scaled coordinates)
MAX_EVALUATIONS = 250
COST_RTOL = 1e-12
STEP_TOL = 1e-6


def _trust_radius(radius, ratio, size, lam) -> np.ndarray:
    """Moré's radius after a step of length ``size`` whose cost fell ``ratio`` times the predicted fall."""
    return np.where(ratio < 0.25, 0.25 * size, np.where((ratio > 0.75) | (lam == 0), np.maximum(radius, 2.0 * size), radius))


def _unbounded_step(J: np.ndarray, r: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, lambda): the least ||r + J p|| with ||p|| <= radius, for a batch.

    From the eigensystem of J^T J: the minimum-norm Gauss-Newton step when
    it fits (lambda = 0), else the lambda of (J^T J + lambda) p = -J^T r
    that brings ||p|| within 10% of the radius, by Newton steps on
    1/||p(lambda)||, which approach it from below (Hebden; Moré 1978).
    """
    curv, q = np.linalg.eigh(J.swapaxes(1, 2) @ J)
    # directions flat to rounding are dropped, as a pseudo-inverse drops them
    c = np.where(curv > 1e-14 * curv[:, -1:], np.einsum("bpi,bnp,bn->bi", q, J, r), 0.0)

    def step(lam):
        denominator = np.where(c != 0, curv + lam[:, None], 1.0)
        t = c / denominator
        return t, np.linalg.norm(t, axis=1), np.sum(t * t / denominator, axis=1)

    lam = np.zeros(len(r))
    t, norm, slope = step(lam)
    outside = norm > radius
    lam[outside] = np.maximum(np.linalg.norm(c, axis=1) / radius - curv[:, -1], 0.0)[outside]
    for _ in range(20):
        t, norm, slope = step(lam)
        far = outside & (norm > 1.1 * radius)
        if not far.any():
            break
        lam[far] += ((norm / radius - 1.0) * norm**2 / slope)[far]
    return -np.einsum("bpi,bi->bp", q, t), lam
