"""Search for field points where a transition's first-order Zeeman
sensitivity vanishes (ZEFOZ) or is locally minimal.

The gradient g(B) is Hellmann-Feynman (``hamiltonian.field_gradients``);
the curvature, its Jacobian, and the curvature's own field derivative are
second- and third-order perturbation theory (``hamiltonian.field_hessians``),
all from one ``eigh`` per field.  A scan of |g| over the region, SCAN_CHUNK
points per ``eigh``, picks seeds for a lockstep trust-region Newton descent
of |g|^2 / 2 with its exact Hessian, which keeps to the region: a box's
faces as the fit keeps to its bounds, a ball's sphere by steps in its
tangent plane.  Minima are deduplicated and ranked by |g|.  Kramers
symmetry makes candidates come in +/-B pairs; only the canonical
half-space representative is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    SpinSystem,
    degenerate_levels,
    field_gradients,
    field_hessians,
    hamiltonian_batch,
    transition_gradients,
)
from .trust_region import COST_RTOL, MAX_EVALUATIONS, STEP_TOL, _bounded_step, _trust_radius, _unbounded_step

DEFAULT_REGION_RADIUS_MT = 100.0
DEFAULT_REFINE_TOL_MHZ_PER_MT = 1e-3
DEDUP_DISTANCE_MT = 0.1
SCAN_CHUNK = 4096  # scan points per stacked eigh
# the relative curvature error a point may carry: the descent's cost test
# (COST_RTOL) needs its Jacobian to about the square root of it
CURVATURE_RTOL = np.sqrt(COST_RTOL)

EXACT = "exact-ZEFOZ"
NEAR = "near-ZEFOZ"

_MARGINS = DEDUP_DISTANCE_MT * np.concatenate([np.eye(3), -np.eye(3)])


def _derivatives(sys: SpinSystem, fields: np.ndarray, i: int, j: int):
    """(gradient MHz/mT, curvature MHz/mT^2, third derivative MHz/mT^3,
    unresolved) at the fields (..., 3), from one stacked ``eigh``.  A point
    is unresolved when level i or j is degenerate, or when the curvature's
    rounding bound exceeds CURVATURE_RTOL of its norm."""
    fields = np.asarray(fields, dtype=float)
    w, v = np.linalg.eigh(hamiltonian_batch(sys, fields.reshape(-1, 3)))
    grads = field_gradients(v, sys.g.matrix, sys.g_n, sys.mu_b, sys.mu_n)
    hessians, rounding, thirds = field_hessians(w, v, sys.zeeman_derivatives)
    curv = (hessians[:, j] - hessians[:, i]) * 1e3
    unresolved = degenerate_levels(w)[:, [i, j]].any(axis=1) | (
        (rounding[:, i] + rounding[:, j]) * 1e3 > CURVATURE_RTOL * np.linalg.norm(curv, axis=(1, 2)))
    return ((grads[:, j] - grads[:, i]).reshape(fields.shape) * 1e3, curv.reshape(fields.shape + (3,)),
            ((thirds[:, j] - thirds[:, i]) * 1e3).reshape(fields.shape + (3, 3)),
            unresolved.reshape(fields.shape[:-1]))


def sensitivity(sys: SpinSystem, B, i: int, j: int):
    """(gradient MHz/mT, curvature matrix MHz/mT^2) of transition (i, j) at
    a field B (3,) or at each of a stack (..., 3).

    The gradient is Hellmann-Feynman and the curvature second-order
    perturbation theory, exact for a Hamiltonian linear in B.  A field where
    level i or j is degenerate, or so nearly so that the curvature is not
    resolved to CURVATURE_RTOL, raises ValueError.
    """
    grad, curv, _, unresolved = _derivatives(sys, B, i, j)
    if unresolved.any():
        raise ValueError(f"levels {i} or {j} are degenerate near this field: no resolved curvature")
    return grad, curv


@dataclass(frozen=True)
class ZefozCandidate:
    field_mt: tuple[float, float, float]
    transition: tuple[int, int]
    grad_norm_mhz_per_mt: float
    curvature_eigs_mhz_per_mt2: tuple[float, float, float]
    classification: str
    stationary: bool = True


def fibonacci_directions(n: int) -> np.ndarray:
    """n roughly uniform unit vectors on the sphere (golden-angle spiral)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _region(region, grid):
    """(count, points, bounds) for a ball or box region: the number of scan
    points, the scan points at given indices (n,) -> (n, 3), and the
    region's bounds, a ball radius or a (3, 2) box of (lower, upper)."""
    if region is None:
        region = DEFAULT_REGION_RADIUS_MT
    if np.isscalar(region):
        radius = float(region)
        if not 0.0 <= radius < np.inf:
            raise ValueError(f"region radius must be finite and non-negative, not {radius:g}")
        n_dir, n_mag = grid if isinstance(grid, tuple) else (int(grid), 11)
        dirs = fibonacci_directions(max(1, n_dir))
        mags = np.linspace(0.0, radius, n_mag)
        mags = np.concatenate([[0.0], mags[mags != 0.0]])

        def points(idx):  # B = 0, then every direction at each magnitude
            m, d = np.divmod(idx + len(dirs) - 1, len(dirs))
            return mags[m][:, None] * dirs[d]

        return 1 + (mags.size - 1) * len(dirs), points, radius

    box = np.asarray(region, dtype=float).reshape(3, 2)
    if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
        raise ValueError("region box bounds must be finite, each lower bound at most its upper")
    counts = [int(g) for g in grid] if isinstance(grid, tuple) else [int(grid)] * 3
    axes = [np.linspace(lo, hi, max(1, n)) if hi > lo else np.array([lo]) for (lo, hi), n in zip(box, counts)]
    shape = tuple(a.size for a in axes)

    def points(idx):  # the grid in x-major order
        return np.column_stack([a[k] for a, k in zip(axes, np.unravel_index(idx, shape))])

    return int(np.prod(shape)), points, box


def _canonical_half_space(b: np.ndarray) -> np.ndarray:
    """Each field (K, 3) or its reverse, whichever has its first component beyond 1e-9 positive; 0 if none."""
    lead = np.take_along_axis(b, np.argmax(np.abs(b) > 1e-9, axis=1)[:, None], axis=1)
    return np.where(np.abs(lead) > 1e-9, np.where(lead < 0, -b, b), 0.0)


def _seeds(sys: SpinSystem, i: int, j: int, count: int, points, n: int) -> np.ndarray:
    """The n scan points of least gradient norm (ties to the earlier point),
    without the degenerate ones; the scan goes SCAN_CHUNK points at a time."""
    norms, idx = np.zeros(0), np.zeros(0, dtype=int)
    for start in range(0, count, SCAN_CHUNK):
        chunk = np.arange(start, min(start + SCAN_CHUNK, count))
        grad, degenerate = transition_gradients(sys, points(chunk), i, j)
        norms = np.append(norms, np.where(degenerate, np.inf, np.linalg.norm(grad, axis=1)))
        idx = np.append(idx, chunk)
        best = np.lexsort((idx, norms))[:n]
        norms, idx = norms[best], idx[best]
    return points(idx[np.isfinite(norms)])


def _ball_step(b, hess, J, g, delta, radius):
    """(trial, step, Hessian, lambda) of the model of |g|^2 / 2 with Hessian
    hess and gradient J^T g from the fields b (K, 3) in the ball of the
    given radius.

    The trust-region Newton step, cut where it leaves the ball.  From the
    sphere (where the cut step is below STEP_TOL), the Newton step in its
    tangent plane instead, with the sphere's curvature as the Lagrange term
    -(J^T g . B/|B|) / |B| on the Hessian (Absil, Mahony & Sepulchre 2008,
    ch. 5-6), carried back onto the sphere.
    """
    p, lam = _unbounded_step(hess, J, g, delta)
    out = np.flatnonzero(np.linalg.norm(b + p, axis=1) > radius)
    # the fraction of the step up to the sphere, in units of the radius (its
    # cancellation costs the cut point no more than rounding of the radius)
    u, v = b[out] / radius, p[out] / radius
    uv, vv, uu = (np.einsum("kc,kc->k", x, y) for x, y in ((u, v), (v, v), (u, u)))
    p[out] *= ((np.sqrt(uv * uv + vv * np.maximum(1.0 - uu, 0.0)) - uv) / vv)[:, None]

    on = out[np.linalg.norm(p[out], axis=1) <= STEP_TOL]
    norm = np.linalg.norm(b[on], axis=1)
    plane = np.eye(3) - b[on, :, None] * b[on, None, :] / (norm**2)[:, None, None]
    mu = np.einsum("kc,kcd,kd->k", g[on], J[on], b[on]) / norm**2
    hess[on] = plane @ (hess[on] - mu[:, None, None] * np.eye(3)) @ plane
    p[on], lam[on] = _unbounded_step(hess[on], J[on] @ plane, g[on], delta[on])
    trial = b + p
    trial[on] *= (radius / np.linalg.norm(trial[on], axis=1))[:, None]
    return trial, p, hess, lam


def _descend(sys: SpinSystem, i: int, j: int, b: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(end points, evaluations per seed) of trust-region Newton on
    |g(B)|^2 / 2 from the seeds b (K, 3) in lockstep, with the exact Hessian
    J^T J + sum_c g_c T_c (J the curvature, T its derivative).  In a box,
    a step is cut where it first meets a face, and a coordinate on a face
    stays there if the gradient pushes it out or the step would carry it out
    (``_bounded_step``, which keeps the fit to its box); in a ball, as
    ``_ball_step`` says.  The first trust radius is the region's diameter.
    Seeds stop as the fit's restarts do (COST_RTOL, STEP_TOL,
    MAX_EVALUATIONS).
    """
    g, J, T, bad = _derivatives(sys, b, i, j)
    cost = np.where(bad, np.inf, 0.5 * np.einsum("kc,kc->k", g, g))
    ball = np.ndim(bounds) == 0
    radius = np.full(len(b), 2.0 * bounds if ball else np.linalg.norm(bounds[:, 1] - bounds[:, 0]))
    evaluations = np.ones(len(b), dtype=int)
    active = np.isfinite(cost) & (cost > 0) & (radius > 0)
    while active.any():
        a = np.flatnonzero(active)
        grad = np.einsum("kcd,kc->kd", J[a], g[a])
        hess = np.einsum("kcd,kce->kde", J[a], J[a]) + np.einsum("kc,kcde->kde", g[a], T[a])
        if ball:
            trial, p, hess, lam = _ball_step(b[a], hess, J[a], g[a], radius[a], bounds)
        else:
            lo, hi = b[a] == bounds[:, 0], b[a] == bounds[:, 1]
            # a coordinate on a face that the gradient pushes out stays there,
            # and one that the step would carry out is pinned to it
            free = ~((lo & (grad > 0)) | (hi & (grad < 0)))
            p, lam = _bounded_step(hess * (free[:, :, None] & free[:, None, :]), J[a] * free[:, None, :], g[a], radius[a],
                                   np.where(lo, 0.0, -np.inf), np.where(hi, 0.0, np.inf))
            # the step is cut where it first meets a face, and puts that coordinate on it
            face = np.where(p < 0, bounds[:, 0], bounds[:, 1])
            reach = np.divide(face - b[a], p, out=np.full_like(p, np.inf), where=p != 0)
            cut = np.minimum(reach.min(axis=1, keepdims=True), 1.0)
            trial = np.where(reach <= cut, face, np.clip(b[a] + cut * p, bounds[:, 0], bounds[:, 1]))
            p = trial - b[a]
        predicted = -np.einsum("kc,kc->k", grad, p) - 0.5 * np.einsum("kc,kcd,kd->k", p, hess, p)
        size = np.linalg.norm(trial - b[a], axis=1)
        # converged: the step would change little, so it is not evaluated
        go = (predicted > COST_RTOL * cost[a]) & (size > STEP_TOL)
        active[a[~go]] = False
        a, lam, predicted, size, trial = a[go], lam[go], predicted[go], size[go], trial[go]
        if not a.size:
            break

        g_t, J_t, T_t, bad_t = _derivatives(sys, trial, i, j)
        evaluations[a] += 1
        cost_t = np.where(bad_t, np.inf, 0.5 * np.einsum("kc,kc->k", g_t, g_t))
        ratio = np.where(np.isfinite(cost_t), (cost[a] - cost_t) / predicted, -np.inf)
        radius[a] = _trust_radius(radius[a], ratio, size, lam)
        accept = ratio > 1e-4
        ok = a[accept]
        b[ok], g[ok], J[ok], T[ok], cost[ok] = trial[accept], g_t[accept], J_t[accept], T_t[accept], cost_t[accept]
        active[a[(cost[a] == 0) | (evaluations[a] >= MAX_EVALUATIONS)]] = False
    return b, evaluations


def zefoz_search(
    sys: SpinSystem,
    transition: tuple[int, int],
    region=None,
    grid=(64, 11),
    refine_tol_mhz_per_mt: float = DEFAULT_REFINE_TOL_MHZ_PER_MT,
    n_seeds: int = 12,
) -> list[ZefozCandidate]:
    """Ranked ZEFOZ candidates of one transition inside a field region.

    ``region`` is a ball radius in mT (default 100), a 3x2 box of field
    bounds, or None for the default ball; a negative or non-finite radius,
    and a box bound that is not finite or whose lower bound exceeds its
    upper, raise ValueError.  The ``n_seeds`` scan points with
    the smallest gradient norm start local descents; refined minima are
    deduplicated within DEDUP_DISTANCE_MT and ranked by ascending gradient
    norm.  A candidate is ``stationary`` when it is exact, or when the
    region holds every point DEDUP_DISTANCE_MT away from it along the axes.
    """
    i, j = transition
    count, points, bounds = _region(region, grid)
    seeds = _seeds(sys, i, j, count, points, max(1, n_seeds))
    minima = _canonical_half_space(_descend(sys, i, j, seeds, bounds)[0])
    grad, curv, _, degenerate = _derivatives(sys, minima, i, j)
    norms = np.linalg.norm(grad, axis=1)
    kept: list[int] = []
    for k in sorted(np.flatnonzero(~degenerate), key=lambda k: (norms[k], tuple(minima[k]))):
        if all(np.linalg.norm(minima[k] - minima[q]) > DEDUP_DISTANCE_MT for q in kept):
            kept.append(k)

    exact = norms < refine_tol_mhz_per_mt
    near = minima[:, None] + _MARGINS
    inside = (np.linalg.norm(near, axis=-1, keepdims=True) <= bounds if np.ndim(bounds) == 0
              else np.clip(near, *bounds.T) == near)
    interior = inside.all(axis=(1, 2))
    return [ZefozCandidate(tuple(float(x) for x in minima[k]), (i, j), float(norms[k]),
                           tuple(float(x) for x in np.linalg.eigvalsh(curv[k])),
                           EXACT if exact[k] else NEAR, bool(exact[k] or interior[k])) for k in kept]
