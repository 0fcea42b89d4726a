"""Search for field points where a transition's first-order Zeeman
sensitivity vanishes (ZEFOZ) or is locally minimal.

The gradient is the Hellmann-Feynman expression; the curvature is a
Richardson-refined central difference of that gradient.  Candidates are
found by a coarse scan of the gradient norm over the requested region,
local descent from the most promising scan points, deduplication and
ranking by gradient norm.  Kramers symmetry makes candidates come in +/-B
pairs; only the canonical half-space representative is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpinSystem, zeeman_gradient
from .lazy import SciPyFunction

minimize = SciPyFunction("scipy.optimize", "minimize")

DEFAULT_REGION_RADIUS_MT = 100.0
DEFAULT_REFINE_TOL_MHZ_PER_MT = 1e-3
DEDUP_DISTANCE_MT = 0.1
CURVATURE_STEP_MT = 0.1

EXACT = "exact-ZEFOZ"
NEAR = "near-ZEFOZ"


def sensitivity(sys: SpinSystem, B, i: int, j: int):
    """(gradient MHz/mT, curvature matrix MHz/mT^2) of transition (i, j).

    Curvature is computed from central differences of the analytic gradient
    (steps CURVATURE_STEP_MT and half of it) with one step of Richardson
    extrapolation and symmetrized.
    """
    B = np.asarray(B, dtype=float).reshape(3)
    grad = zeeman_gradient(sys, B, i, j) * 1e3

    def curv_fd(h: float) -> np.ndarray:
        cols = []
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            gp = zeeman_gradient(sys, B + e, i, j)
            gm = zeeman_gradient(sys, B - e, i, j)
            cols.append((gp - gm) / (2.0 * h))
        return np.column_stack(cols) * 1e3

    c1 = curv_fd(CURVATURE_STEP_MT)
    c2 = curv_fd(CURVATURE_STEP_MT / 2.0)
    curv = (4.0 * c2 - c1) / 3.0
    return grad, 0.5 * (curv + curv.T)


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


def _scan_points(region, grid) -> tuple[np.ndarray, object]:
    """(points, inside-region predicate) for a ball or box region."""
    if region is None:
        region = DEFAULT_REGION_RADIUS_MT
    if np.isscalar(region):
        radius = float(region)
        n_dir, n_mag = grid if isinstance(grid, tuple) else (int(grid), 11)
        dirs = fibonacci_directions(max(1, n_dir))
        mags = np.linspace(0.0, radius, n_mag)
        pts = [np.zeros(3)]
        for m in mags:
            if m == 0.0:
                continue
            pts.extend(m * d for d in dirs)
        points = np.array(pts)

        def inside(b):
            return np.linalg.norm(b) <= radius + 1e-9

        return points, inside

    box = np.asarray(region, dtype=float).reshape(3, 2)
    if isinstance(grid, tuple):
        counts = [int(g) for g in grid]
    else:
        counts = [int(grid)] * 3
    axes = [
        np.linspace(lo, hi, max(1, n)) if hi > lo else np.array([lo])
        for (lo, hi), n in zip(box, counts)
    ]
    points = np.array([[x, y, z] for x in axes[0] for y in axes[1] for z in axes[2]])

    def inside(b):
        return bool(np.all(b >= box[:, 0] - 1e-9) and np.all(b <= box[:, 1] + 1e-9))

    return points, inside


def _canonical_half_space(b: np.ndarray) -> np.ndarray:
    for x in b:
        if abs(x) > 1e-9:
            return -b if x < 0 else b
    return np.zeros(3)


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
    deduplicated within DEDUP_DISTANCE_MT and ranked by ascending gradient norm.
    """
    i, j = transition
    points, inside = _scan_points(region, grid)
    if points.size == 0:
        return []

    def grad_norm(b) -> float:
        try:
            return float(np.linalg.norm(zeeman_gradient(sys, b, i, j))) * 1e3
        except ValueError:
            return np.inf  # degenerate levels: not a usable candidate

    norms = np.array([grad_norm(b) for b in points])
    order = np.argsort(norms, kind="stable")
    seeds = [points[k] for k in order[: max(1, n_seeds)] if np.isfinite(norms[k])]

    minima: list[np.ndarray] = []
    single_point = len(points) == 1
    for s in seeds:
        if single_point:
            minima.append(s)
            continue

        def penalized(b):
            g = grad_norm(b)
            return g if inside(b) else g + 1e6

        sol = minimize(
            penalized, s, method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400},
        )
        minima.append(np.asarray(sol.x))

    ranked = sorted(
        (_canonical_half_space(m) for m in minima),
        key=lambda b: (grad_norm(b), tuple(b)),
    )
    kept: list[np.ndarray] = []
    for m in ranked:
        if all(np.linalg.norm(m - k) > DEDUP_DISTANCE_MT for k in kept):
            kept.append(m)

    out = []
    for b in kept:
        g = grad_norm(b)
        if not np.isfinite(g):
            continue
        _, curv = sensitivity(sys, b, i, j)
        eigs = tuple(float(x) for x in np.linalg.eigvalsh(curv))
        classification = EXACT if g < refine_tol_mhz_per_mt else NEAR
        stationary = bool(g < refine_tol_mhz_per_mt or _is_interior_min(b, inside, DEDUP_DISTANCE_MT))
        out.append(
            ZefozCandidate(tuple(float(x) for x in b), (i, j), g, eigs, classification, stationary)
        )
    out.sort(key=lambda c: c.grad_norm_mhz_per_mt)
    return out


def _is_interior_min(b: np.ndarray, inside, margin: float) -> bool:
    """A refined point on the region boundary is a constrained, not a
    stationary, minimum."""
    for k in range(3):
        for s in (-1.0, 1.0):
            e = np.zeros(3)
            e[k] = s * margin
            if not inside(b + e):
                return False
    return True
