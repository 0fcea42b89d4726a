"""ODMR line sets and EPR resonance fields / angular maps.

ODMR lines are the six spin-transition frequencies of one manifold with
magnetic-dipole transition moments for an oscillating field along a chosen
axis (default: crystal b, the geometry of the drive coil).  EPR resonances
are the field magnitudes along a fixed direction where any transition
matches the microwave frequency, found by bracketing and bisection on each
transition branch; both magnetic subsites are included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import PAIR_HI, PAIR_LO, PAIRS, SpinSystem, eigensystem, energies_sweep

B_AXIS = (0.0, 0.0, 1.0)
STRONG_MOMENT_FRACTION = 0.01
EPR_FIELD_TOL_MT = 1e-3
EPR_GRID_STEP_MT = 1.0  # field sampling of each ray before bracketing
EPR_HALVING_DEPTH = 8  # halving levels around a sampled branch extremum

PLANES = {
    "D1-D2": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    "b-D1": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    "b-D2": ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
}


@dataclass(frozen=True)
class OdmrLine:
    frequency_mhz: float
    transition: tuple[int, int]
    moment: float
    strong: bool


@dataclass(frozen=True)
class EprResonance:
    field_mt: float
    direction: tuple[float, float, float]
    transition: tuple[int, int]
    subsite: int
    moment: float


def _moment_operator(sys: SpinSystem, ac_axis) -> np.ndarray:
    """Dimensionless magnetic-dipole operator (g.S - (mu_n/mu_B) g_n I) . n_ac."""
    n = np.asarray(ac_axis, dtype=float).reshape(3)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("AC field axis must be nonzero")
    # n . dH/dB, in units of mu_B
    return np.einsum("k,kab->ab", n / norm, sys.zeeman_derivatives) / (sys.mu_b * 1e-3)


def transition_moments(sys: SpinSystem, B, ac_axis=B_AXIS) -> dict[tuple[int, int], float]:
    """|<f| M |i>|^2 for the six transitions at a field."""
    es = eigensystem(sys, B)
    op = _moment_operator(sys, ac_axis)
    return {
        (i, j): float(abs(es.states[:, j].conj() @ op @ es.states[:, i]) ** 2)
        for i, j in PAIRS
    }


def odmr_lines(sys: SpinSystem, B=(0.0, 0.0, 0.0), ac_axis=B_AXIS) -> list[OdmrLine]:
    """Six spin-transition frequencies (MHz) with drive moments.

    Lines with a moment of at least 1% of the strongest at this field are
    flagged ``strong`` (the observability heuristic).
    """
    es = eigensystem(sys, B)
    moments = transition_moments(sys, B, ac_axis)
    max_moment = max(moments.values())
    lines = [
        OdmrLine(
            frequency_mhz=float((es.energies[j] - es.energies[i]) * 1e3),
            transition=(i, j),
            moment=moments[(i, j)],
            strong=bool(max_moment > 0 and moments[(i, j)] >= STRONG_MOMENT_FRACTION * max_moment),
        )
        for i, j in PAIRS
    ]
    lines.sort(key=lambda l: l.frequency_mhz)
    return lines


def _detunings(sys: SpinSystem, direction: np.ndarray, nu_mw_ghz: float,
               mags: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Frequency minus nu_mw of branch ``cols[n]`` at field ``mags[n]``, one sweep for all."""
    e = energies_sweep(sys, mags[:, None] * direction[None, :])
    rows = np.arange(mags.size)
    return e[rows, PAIR_HI[cols]] - e[rows, PAIR_LO[cols]] - nu_mw_ghz


def _sign_brackets(sys, direction, nu_mw_ghz, grid, values):
    """Sign-change brackets on the sampled branches ``values`` (grid x 6).

    A cell brackets a root when its end values differ in sign (<= 0 counts
    as negative).  Both cells next to a sampled local extremum are halved
    level by level (up to EPR_HALVING_DEPTH levels, down to the field
    tolerance) so near-tangent crossings are not missed; each level
    evaluates the midpoints of every pending cell of every branch in one
    sweep.  Returns (lo, hi, flo, col) arrays ordered by branch, then field.
    """
    neg = values <= 0.0
    change = neg[:-1] != neg[1:]  # cell n spans grid[n]..grid[n + 1]
    slopes = np.diff(values, axis=0)
    # local extremum at interior sample n, when cell n brackets no root
    extremum = np.zeros_like(change)
    extremum[1:] = (slopes[:-1] * slopes[1:] < 0) & ~change[1:]
    halve = extremum.copy()
    halve[:-1] |= extremum[1:]
    halve &= ~change

    cell, col = np.nonzero(change)
    found = [(grid[cell], grid[cell + 1], values[cell, col], col)]
    cell, col = np.nonzero(halve)
    lo, hi, flo, fhi = grid[cell], grid[cell + 1], values[cell, col], values[cell + 1, col]
    for _ in range(EPR_HALVING_DEPTH):
        wide = hi - lo > EPR_FIELD_TOL_MT
        lo, hi, flo, fhi, col = lo[wide], hi[wide], flo[wide], fhi[wide], col[wide]
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fmid = _detunings(sys, direction, nu_mw_ghz, mid, col)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        flo, fhi = np.concatenate([flo, fmid]), np.concatenate([fmid, fhi])
        col = np.concatenate([col, col])
        root = (flo <= 0.0) != (fhi <= 0.0)
        found.append((lo[root], hi[root], flo[root], col[root]))
        lo, hi, flo, fhi, col = lo[~root], hi[~root], flo[~root], fhi[~root], col[~root]

    lo, hi, flo, col = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((lo, col))
    return lo[order], hi[order], flo[order], col[order]


def _bisect(sys, direction, nu_mw_ghz, lo, hi, flo, col) -> np.ndarray:
    """Bisect every bracket to EPR_FIELD_TOL_MT; one sweep per step for all of them."""
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    active = hi - lo > EPR_FIELD_TOL_MT
    while active.any():
        a = np.nonzero(active)[0]
        mid = 0.5 * (lo[a] + hi[a])
        fmid = _detunings(sys, direction, nu_mw_ghz, mid, col[a])
        same = (flo[a] <= 0.0) == (fmid <= 0.0)
        lo[a[same]], flo[a[same]] = mid[same], fmid[same]
        hi[a[~same]] = mid[~same]
        active[a] = hi[a] - lo[a] > EPR_FIELD_TOL_MT
    return 0.5 * (lo + hi)


def epr_resonance_fields(
    sys: SpinSystem,
    direction,
    nu_mw_ghz: float,
    b_max_mt: float,
    ac_axis=B_AXIS,
    subsites=(1, 2),
) -> list[EprResonance]:
    """All field magnitudes in (0, b_max] where a transition meets nu_mw.

    Each of the six transition branches of each requested subsite is sampled
    every EPR_GRID_STEP_MT, bracketed, and bisected to EPR_FIELD_TOL_MT.
    """
    if nu_mw_ghz <= 0:
        raise ValueError("microwave frequency must be positive")
    if b_max_mt <= 0:
        raise ValueError("b_max must be positive")
    d = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
    d = d / norm
    mags = np.arange(0.0, b_max_mt + 0.5 * EPR_GRID_STEP_MT, EPR_GRID_STEP_MT)
    if mags[-1] < b_max_mt:
        mags = np.append(mags, b_max_mt)

    results = []
    for subsite in subsites:
        ssys = sys.with_subsite(subsite)
        e = energies_sweep(ssys, mags[:, None] * d[None, :])
        freqs = e[:, PAIR_HI] - e[:, PAIR_LO] - nu_mw_ghz
        lo, hi, flo, cols = _sign_brackets(ssys, d, nu_mw_ghz, mags, freqs)
        for b_res, col in zip(_bisect(ssys, d, nu_mw_ghz, lo, hi, flo, cols), cols):
            if b_res <= 0.0 or b_res > b_max_mt:
                continue
            moment = transition_moments(ssys, b_res * d, ac_axis)[PAIRS[col]]
            results.append(EprResonance(float(b_res), tuple(d), PAIRS[col], subsite, moment))
    results.sort(key=lambda r: (r.field_mt, r.subsite, r.transition))
    return results


def epr_angular_map(
    sys: SpinSystem,
    plane: str,
    angle_step_deg: float,
    nu_mw_ghz: float,
    b_max_mt: float,
    ac_axis=B_AXIS,
) -> list[tuple[float, list[EprResonance]]]:
    """Resonance fields swept over a crystallographic plane.

    ``plane`` is one of D1-D2, b-D1, b-D2; the direction at angle theta is
    cos(theta) e1 + sin(theta) e2.  The output is ordered by angle, then
    field.
    """
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r} (expected one of {sorted(PLANES)})")
    if angle_step_deg <= 0:
        raise ValueError("angle step must be positive")
    e1, e2 = (np.asarray(v) for v in PLANES[plane])
    angles = np.arange(0.0, 180.0 + 0.5 * angle_step_deg, angle_step_deg)

    def at_angle(theta_deg: float):
        t = np.radians(theta_deg)
        direction = np.cos(t) * e1 + np.sin(t) * e2
        return (theta_deg, epr_resonance_fields(sys, direction, nu_mw_ghz, b_max_mt, ac_axis=ac_axis))

    return [at_angle(theta) for theta in angles]
