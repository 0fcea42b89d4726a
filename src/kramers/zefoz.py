"""Search for field points where a transition's first-order Zeeman
sensitivity vanishes (ZEFOZ) or is locally minimal.

The gradient g(B) is Hellmann-Feynman (``hamiltonian.field_gradients``)
and the curvature, its Jacobian, is second-order perturbation theory
(``hamiltonian.field_hessians``), both from one ``eigh`` per field.  A
scan of |g| over the region, SCAN_CHUNK points per ``eigh``, picks seeds
for a lockstep Levenberg-Marquardt on g(B) with the curvature as Jacobian,
its trial points projected onto the region.  Minima are deduplicated and
ranked by |g|.  Kramers symmetry makes candidates come in +/-B pairs; only
the canonical half-space representative is reported.
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
from .trust_region import COST_RTOL, MAX_EVALUATIONS, STEP_TOL, _trust_radius, _unbounded_step

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
    """(gradient MHz/mT, curvature MHz/mT^2, unresolved) at the fields
    (..., 3), from one stacked ``eigh``.  A point is unresolved when level i
    or j is degenerate, or when the curvature's rounding bound exceeds
    CURVATURE_RTOL of its norm."""
    fields = np.asarray(fields, dtype=float)
    w, v = np.linalg.eigh(hamiltonian_batch(sys, fields.reshape(-1, 3)))
    grads = field_gradients(v, sys.g.matrix, sys.g_n, sys.mu_b, sys.mu_n)
    hessians, rounding = field_hessians(w, v, sys.zeeman_derivatives)
    curv = (hessians[:, j] - hessians[:, i]) * 1e3
    unresolved = degenerate_levels(w)[:, [i, j]].any(axis=1) | (
        (rounding[:, i] + rounding[:, j]) * 1e3 > CURVATURE_RTOL * np.linalg.norm(curv, axis=(1, 2)))
    return ((grads[:, j] - grads[:, i]).reshape(fields.shape) * 1e3, curv.reshape(fields.shape + (3,)),
            unresolved.reshape(fields.shape[:-1]))


def sensitivity(sys: SpinSystem, B, i: int, j: int):
    """(gradient MHz/mT, curvature matrix MHz/mT^2) of transition (i, j) at
    a field B (3,) or at each of a stack (..., 3).

    The gradient is Hellmann-Feynman and the curvature second-order
    perturbation theory, exact for a Hamiltonian linear in B.  A field where
    level i or j is degenerate, or so nearly so that the curvature is not
    resolved to CURVATURE_RTOL, raises ValueError.
    """
    grad, curv, unresolved = _derivatives(sys, B, i, j)
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
    """(count, points, project) for a ball or box region: the number of scan
    points, the scan points at given indices (n,) -> (n, 3), and the
    projection of fields (..., 3) onto the region."""
    if region is None:
        region = DEFAULT_REGION_RADIUS_MT
    if np.isscalar(region):
        radius = float(region)
        n_dir, n_mag = grid if isinstance(grid, tuple) else (int(grid), 11)
        dirs = fibonacci_directions(max(1, n_dir))
        mags = np.linspace(0.0, radius, n_mag)
        mags = np.concatenate([[0.0], mags[mags != 0.0]])

        def points(idx):  # B = 0, then every direction at each magnitude
            m, d = np.divmod(idx + len(dirs) - 1, len(dirs))
            return mags[m][:, None] * dirs[d]

        def project(b):
            norm = np.linalg.norm(b, axis=-1, keepdims=True)
            return b * np.divide(radius, norm, out=np.ones_like(norm), where=norm > radius)

        return 1 + (mags.size - 1) * len(dirs), points, project

    box = np.asarray(region, dtype=float).reshape(3, 2)
    counts = [int(g) for g in grid] if isinstance(grid, tuple) else [int(grid)] * 3
    axes = [np.linspace(lo, hi, max(1, n)) if hi > lo else np.array([lo]) for (lo, hi), n in zip(box, counts)]
    shape = tuple(a.size for a in axes)

    def points(idx):  # the grid in x-major order
        return np.column_stack([a[k] for a, k in zip(axes, np.unravel_index(idx, shape))])

    return int(np.prod(shape)), points, lambda b: np.clip(b, box[:, 0], box[:, 1])


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


def _descend(sys: SpinSystem, i: int, j: int, b: np.ndarray, project) -> np.ndarray:
    """Minimize |g(B)| from the seeds b (K, 3) in lockstep: the fit's
    trust-region step (the first Gauss-Newton), projected onto the region,
    with the cost fall predicted for the projected step.  Seeds stop as the
    fit's restarts do (COST_RTOL, STEP_TOL, MAX_EVALUATIONS)."""
    g, J, bad = _derivatives(sys, b, i, j)
    cost = np.where(bad, np.inf, np.einsum("kc,kc->k", g, g))
    radius, evaluations = np.full(len(b), np.inf), np.ones(len(b), dtype=int)
    active = np.isfinite(cost) & (cost > 0)
    while active.any():
        a = np.flatnonzero(active)
        p, lam = _unbounded_step(J[a], g[a], radius[a])
        trial = project(b[a] + p)
        lin = g[a] + np.einsum("kcd,kd->kc", J[a], trial - b[a])
        predicted = cost[a] - np.einsum("kc,kc->k", lin, lin)
        size = np.linalg.norm(trial - b[a], axis=1)
        active[a[size <= STEP_TOL]] = False
        # no fall predicted (the projection bent the step, or the minimum is
        # near): a shorter step is tried instead of evaluating this one.  A
        # seed stops when rounding keeps its radius from shrinking
        short = predicted <= COST_RTOL * cost[a]
        shorter = 0.25 * size[short]
        active[a[short][~(shorter < radius[a[short]])]] = False
        radius[a[short]] = shorter
        go = (size > STEP_TOL) & ~short
        a, lam, predicted, size, trial = a[go], lam[go], predicted[go], size[go], trial[go]
        if not a.size:
            continue

        g_t, J_t, bad_t = _derivatives(sys, trial, i, j)
        evaluations[a] += 1
        cost_t = np.where(bad_t, np.inf, np.einsum("kc,kc->k", g_t, g_t))
        ratio = np.where(np.isfinite(cost_t), (cost[a] - cost_t) / predicted, -np.inf)
        radius[a] = _trust_radius(radius[a], ratio, size, lam)
        accept = ratio > 1e-4
        ok = a[accept]
        b[ok], g[ok], J[ok], cost[ok] = trial[accept], g_t[accept], J_t[accept], cost_t[accept]
        active[a[(cost[a] == 0) | (evaluations[a] >= MAX_EVALUATIONS)]] = False
    return b


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
    bounds, or None for the default ball.  The ``n_seeds`` scan points with
    the smallest gradient norm start local descents; refined minima are
    deduplicated within DEDUP_DISTANCE_MT and ranked by ascending gradient
    norm.  A candidate is ``stationary`` when it is exact, or when the
    region holds every point DEDUP_DISTANCE_MT away from it along the axes.
    """
    i, j = transition
    count, points, project = _region(region, grid)
    seeds = _seeds(sys, i, j, count, points, max(1, n_seeds))
    minima = _canonical_half_space(_descend(sys, i, j, seeds, project))
    grad, curv, degenerate = _derivatives(sys, minima, i, j)
    norms = np.linalg.norm(grad, axis=1)
    kept: list[int] = []
    for k in sorted(np.flatnonzero(~degenerate), key=lambda k: (norms[k], tuple(minima[k]))):
        if all(np.linalg.norm(minima[k] - minima[q]) > DEDUP_DISTANCE_MT for q in kept):
            kept.append(k)

    exact = norms < refine_tol_mhz_per_mt
    interior = np.all(project(minima[:, None] + _MARGINS) == minima[:, None] + _MARGINS, axis=(1, 2))
    return [ZefozCandidate(tuple(float(x) for x in minima[k]), (i, j), float(norms[k]),
                           tuple(float(x) for x in np.linalg.eigvalsh(curv[k])),
                           EXACT if exact[k] else NEAR, bool(exact[k] or interior[k])) for k in kept]
