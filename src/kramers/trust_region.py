"""The trust-region minimization shared by the tensor fit and the ZEFOZ descent.

Both minimize a sum of squares |r|^2 / 2 from a batch of starting points
in lockstep, with Moré's (1978) trust region on a quadratic model of it,
the gradient J^T r and a symmetric Hessian H: the fit's is Gauss-Newton,
H = J^T J, the ZEFOZ descent's exact Newton, which may be indefinite.
``minimize`` is the one loop, with the stopping, acceptance and radius
rules; a caller gives it its model, whose step ``_unbounded_step`` solves
within a radius and ``_bounded_step`` with coordinates kept in a box.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# the evaluations one start may spend, and its stopping rules (a relative
# cost change, or a step length in the caller's coordinates)
MAX_EVALUATIONS = 250
COST_RTOL = 1e-12
STEP_TOL = 1e-6


def _unbounded_step(H: np.ndarray, J: np.ndarray, r: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, lambda): the least r.J p + p.H.p / 2 with ||p|| <= radius, for a
    batch of symmetric H (B, P, P), Jacobians J (B, N, P) and residuals
    r (B, N).

    From the eigensystem of H, with lambda >= 0 making H + lambda positive
    semi-definite (Moré & Sorensen 1983): the minimum-norm Newton step when
    H is so and the step fits (lambda = 0), else the lambda of
    (H + lambda) p = -J^T r that brings ||p|| within 10% of the radius, by
    Newton steps on 1/||p(lambda)||, which approach it from below (Hebden;
    Moré 1978).  In the hard case, where J^T r has no part along the least
    curvature and the step at the least lambda falls short of the radius,
    that direction makes up the rest of the radius.
    """
    curv, q = np.linalg.eigh(H)
    # directions flat to rounding are dropped, as a pseudo-inverse drops them
    flat = np.abs(curv) <= 1e-14 * np.abs(curv).max(axis=1, keepdims=True)
    c, curv = np.where(flat, 0.0, np.einsum("bpi,bnp,bn->bi", q, J, r)), np.where(flat, 0.0, curv)

    def step(lam):
        # a direction with no shifted curvature takes no part: its c is 0, or
        # too small to move lambda past the least curvature
        shifted = curv + lam[:, None]
        denominator = np.where((c != 0) & (shifted > 0), shifted, np.inf)
        t = c / denominator
        return t, np.linalg.norm(t, axis=1), np.sum(t * t / denominator, axis=1)

    least = np.maximum(-curv[:, 0], 0.0)
    # a part c of J^T r along the least curvature puts lambda past it by |c| / radius or more
    lam = least + np.where(curv + least[:, None] <= 0, np.abs(c), 0.0).max(axis=1) / radius
    t, norm, slope = step(lam)
    outside = (lam > least) | (norm > radius)
    lam[outside] = np.maximum(np.linalg.norm(c, axis=1) / radius - curv[:, -1], lam)[outside]
    for _ in range(20):
        t, norm, slope = step(lam)
        far = outside & (norm > 1.1 * radius)
        if not far.any():
            break
        lam[far] += (norm[far] / radius[far] - 1.0) * norm[far] ** 2 / slope[far]
    hard = np.where(~outside & (least > 0), np.sqrt(np.maximum(radius**2 - norm**2, 0.0)), 0.0)
    return q[:, :, 0] * hard[:, None] - np.einsum("bpi,bi->bp", q, t), lam


def _bounded_step(H, J, r, radius, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(p, lambda): ``_unbounded_step`` with the last coordinates of p kept
    within [lower, upper], for a batch.

    A coordinate that the step carries past a bound is put on that bound,
    and the step is solved again for the coordinates still free, until none
    is past its bound.  The pinned part moves the residuals to r + J p; a
    Newton model's H - J^T J would couple it to the free part too, so a
    Newton caller pins only where a bound is 0.
    """
    B, P = H.shape[:2]
    first = P - lower.shape[1]
    fixed = np.zeros((B, P), dtype=bool)
    pinned = np.zeros((B, P))
    for _ in range(P - first + 1):
        free_h = np.where(fixed[:, :, None] | fixed[:, None, :], 0.0, H)
        free_j = np.where(fixed[:, None, :], 0.0, J)
        p, lam = _unbounded_step(free_h, free_j, r + np.einsum("bnp,bp->bn", J, pinned), radius)
        p = np.where(fixed, pinned, p)
        tail = p[:, first:]
        past = ~fixed[:, first:] & ((tail < lower) | (tail > upper))
        if not past.any():
            break
        pinned[:, first:] = np.where(past, np.clip(tail, lower, upper), pinned[:, first:])
        fixed[:, first:] |= past
    return p, lam


class Run(NamedTuple):
    """Where the starts of a ``minimize`` ended, and what each spent."""

    state: tuple
    cost: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray


def minimize(state: tuple, cost: np.ndarray, radius: np.ndarray, propose, evaluate) -> Run:
    """Advance a batch of starts in lockstep until each stops; ``state``
    (arrays of one row per start), ``cost`` and ``radius`` change in place.

    Each round, ``propose(a, radius[a])`` gives the active starts ``a``
    their trial points (a tuple of row arrays), predicted cost fall, step
    length, scaled step length and lambda.  A step predicted to fall by at
    most COST_RTOL of the cost, or no longer than STEP_TOL, has converged
    and is not evaluated; at the others ``evaluate(*trial)`` gives the
    state rows and costs, and a step whose fall exceeds 1e-4 of the
    predicted one is accepted (an iteration).  A start runs from a finite
    cost above 0 and a radius above 0, and stops at cost 0 or after
    MAX_EVALUATIONS evaluations, the first one included.
    """
    iterations, evaluations = np.zeros(len(cost), dtype=int), np.ones(len(cost), dtype=int)
    active = np.isfinite(cost) & (cost > 0) & (radius > 0)
    while active.any():
        a = np.flatnonzero(active)
        trial, predicted, length, scaled, lam = propose(a, radius[a])
        # converged: the step would change little, so it is not evaluated
        go = (predicted > COST_RTOL * cost[a]) & (length > STEP_TOL)
        active[a[~go]] = False
        a = a[go]
        if not a.size:
            break

        rows, cost_t = evaluate(*(t[go] for t in trial))
        evaluations[a] += 1
        ratio = np.where(np.isfinite(cost_t), (cost[a] - cost_t) / predicted[go], -np.inf)
        # Moré's radius: a quarter of a step that fell short, at least twice one that did well or was unshifted
        size, lam = scaled[go], lam[go]
        radius[a] = np.where(ratio < 0.25, 0.25 * size,
                             np.where((ratio > 0.75) | (lam == 0), np.maximum(radius[a], 2.0 * size), radius[a]))
        accept = ratio > 1e-4
        ok = a[accept]
        for rows_all, rows_t in zip(state, rows):
            rows_all[ok] = rows_t[accept]
        cost[ok] = cost_t[accept]
        iterations[ok] += 1
        active[a[(cost[a] == 0) | (evaluations[a] >= MAX_EVALUATIONS)]] = False
    return Run(state, cost, iterations, evaluations)
