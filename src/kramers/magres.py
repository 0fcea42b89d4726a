"""ODMR line sets and EPR resonance fields / angular maps.

ODMR lines are the six spin-transition frequencies of one manifold with
magnetic-dipole transition moments for an oscillating field along a chosen
axis (default: crystal b, the geometry of the drive coil).  EPR resonances
are the field magnitudes along a fixed direction where any transition
matches the microwave frequency; both magnetic subsites are included.

One search finds them for every caller (``resonance_search``): it takes a
stack of rays, each an (A, g) pair swept along a unit direction up to its
own b_max; subsite 2 is a ray of its own, with the C2-flipped tensors.
``epr_angular_map`` searches all angles x 2 rays at once, the fit all
restarts x EPR points x 2.  Each branch is sampled on a field grid and its
sign changes bisected; beside a sampled branch extremum, a descent guided
by the Hellmann-Feynman slope d nu/dB catches grazing crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (PAIR_HI, PAIR_LO, PAIRS, EigenSystem, SpinSystem, eigensystem, field_gradients,
                          hyperfine_stack, unit_direction, zeeman_stack)

B_AXIS = (0.0, 0.0, 1.0)
STRONG_MOMENT_FRACTION = 0.01
EPR_FIELD_TOL_MT = 1e-3
EPR_GRID_STEP_MT = 1.0  # field sampling of each ray before bracketing
EPR_HALVING_DEPTH = 8  # halving levels around a sampled branch extremum
RAY_SAMPLES = 1024  # field samples of the rays searched together

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
    # n . dH/dB, in units of mu_B
    return np.einsum("k,kab->ab", unit_direction(ac_axis), sys.zeeman_derivatives) / (sys.mu_b * 1e-3)


def transition_moments(sys: SpinSystem, B, ac_axis=B_AXIS) -> dict[tuple[int, int], float]:
    """|<f| M |i>|^2 for the six transitions at a field."""
    return _moments(sys, eigensystem(sys, B), ac_axis)


def _moments(sys: SpinSystem, es: EigenSystem, ac_axis) -> dict[tuple[int, int], float]:
    """``transition_moments`` from the eigensystem at the field."""
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
    moments = _moments(sys, es, ac_axis)
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


def resonance_search(A, g, directions, b_max, nu_mw_ghz: float, g_n: float, mu_b: float,
                     mu_n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every resonance on a stack of rays, as (ray, field_mt, col) arrays.

    A ray is a system with tensors A and g (..., 3, 3) swept along a unit
    direction (..., 3) over (0, b_max] mT (...); the four broadcast to the
    ray shape, and ``ray`` is a flat index into it.  Branch ``col`` (of
    PAIRS) meets nu_mw at ``field_mt``.  Each ray's branches are sampled
    every EPR_GRID_STEP_MT, bracketed (``_brackets``) and bisected to
    EPR_FIELD_TOL_MT.  Rays go through in groups of about RAY_SAMPLES field
    samples, so memory does not grow with the number of rays, and a long
    ray keeps its branch values but not its Hamiltonians.  Results come ray
    by ray, then by branch and field.
    """
    shape = np.broadcast_shapes(np.shape(A)[:-2], np.shape(g)[:-2], np.shape(directions)[:-1],
                                np.shape(b_max))
    # the hyperfine term of each ray, built once and gathered per field sample
    h0 = np.broadcast_to(hyperfine_stack(np.asarray(A, dtype=float)), shape + (4, 4))
    g = np.broadcast_to(g, shape + (3, 3))
    directions = np.broadcast_to(directions, shape + (3,))

    def detunings(ray, mags, slopes=False):
        """nu - nu_mw of the six branches (K, 6) of ray ``ray[k]`` at field
        ``mags[k]``; with ``slopes``, also their Hellmann-Feynman d nu/dB."""
        at = np.unravel_index(ray, shape)
        H = zeeman_stack(h0[at], g[at], (mags[:, None] * directions[at])[:, None], g_n, mu_b, mu_n)[:, 0]
        if not slopes:
            e = np.linalg.eigvalsh(H)
            return e[:, PAIR_HI] - e[:, PAIR_LO] - nu_mw_ghz
        e, v = np.linalg.eigh(H)
        s = (field_gradients(v, g[at], g_n, mu_b, mu_n) @ directions[at][..., None])[..., 0]
        return e[:, PAIR_HI] - e[:, PAIR_LO] - nu_mw_ghz, s[:, PAIR_HI] - s[:, PAIR_LO]

    b_max = np.broadcast_to(b_max, shape).ravel()
    found, group, size = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int))], [], 0
    for r, b in enumerate(b_max):
        mags = np.arange(0.0, b + 0.5 * EPR_GRID_STEP_MT, EPR_GRID_STEP_MT)
        group.append((r, np.append(mags, b) if mags[-1] < b else mags))
        size += group[-1][1].size
        if size < RAY_SAMPLES and r < b_max.size - 1:
            continue
        ray = np.concatenate([np.full(m.size, q) for q, m in group])
        mags = np.concatenate([m for _, m in group])
        values = np.concatenate([detunings(ray[n : n + RAY_SAMPLES], mags[n : n + RAY_SAMPLES])
                                 for n in range(0, mags.size, RAY_SAMPLES)])
        lo, hi, flo, col, ray = _brackets(detunings, ray, mags, values)
        fields = _bisect(detunings, ray, lo, hi, flo, col)
        keep = (fields > 0.0) & (fields <= b_max[ray])
        found.append((ray[keep], fields[keep], col[keep]))
        group, size = [], 0
    ray, fields, col = (np.concatenate(parts) for parts in zip(*found))
    return ray, fields, col


def _brackets(detunings, ray, mags, values):
    """Sign-change brackets on the sampled branches ``values`` (S x 6) of
    rays ``ray`` at fields ``mags``, as (lo, hi, flo, col, ray) arrays
    ordered by ray, branch, then field.

    A cell between two samples of one ray brackets a root when its end
    values differ in sign (<= 0 counts as negative).  A cell beside a
    sampled local extremum may hide a grazing crossing, so a descent halves
    it level by level (up to EPR_HALVING_DEPTH levels, down to the field
    tolerance): each level evaluates the midpoint of the part that holds
    the extremum and keeps the half its Hellmann-Feynman slope points to.
    When the midpoint changes sign, both halves are brackets: those that
    halving every half would find, where the cell holds one extremum.
    """
    same = (ray[:-1] == ray[1:])[:, None]  # cell n spans samples n, n + 1 of one ray
    neg = values <= 0.0
    change = (neg[:-1] != neg[1:]) & same
    slopes = np.diff(values, axis=0)
    # local extremum at interior sample n, when cell n brackets no root
    extremum = np.zeros_like(change)
    extremum[1:] = (slopes[:-1] * slopes[1:] < 0) & ~change[1:] & same[:-1] & same[1:]
    halve = extremum.copy()
    halve[:-1] |= extremum[1:]
    halve &= ~change

    cell, col = np.nonzero(change)
    found = [(mags[cell], mags[cell + 1], values[cell, col], col, ray[cell])]
    cell, col = np.nonzero(halve)
    lo, hi, flo, ray = mags[cell], mags[cell + 1], values[cell, col], ray[cell]
    for _ in range(EPR_HALVING_DEPTH):
        wide = hi - lo > EPR_FIELD_TOL_MT
        lo, hi, flo, col, ray = lo[wide], hi[wide], flo[wide], col[wide], ray[wide]
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fmid, slope = (x[np.arange(col.size), col] for x in detunings(ray, mid, slopes=True))
        root = (flo <= 0.0) != (fmid <= 0.0)
        found.append((lo[root], mid[root], flo[root], col[root], ray[root]))
        found.append((mid[root], hi[root], fmid[root], col[root], ray[root]))
        # the extremum lies left of mid where the branch climbs away from zero
        left = (fmid > 0.0) == (slope > 0.0)
        lo, hi, flo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fmid)
        lo, hi, flo, col, ray = lo[~root], hi[~root], flo[~root], col[~root], ray[~root]

    lo, hi, flo, col, ray = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((lo, col, ray))
    return lo[order], hi[order], flo[order], col[order], ray[order]


def _bisect(detunings, ray, lo, hi, flo, col) -> np.ndarray:
    """Bisect every bracket to EPR_FIELD_TOL_MT; one evaluation per step for all of them."""
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    active = hi - lo > EPR_FIELD_TOL_MT
    while active.any():
        a = np.nonzero(active)[0]
        mid = 0.5 * (lo[a] + hi[a])
        fmid = detunings(ray[a], mid)[np.arange(a.size), col[a]]
        same = (flo[a] <= 0.0) == (fmid <= 0.0)
        lo[a[same]], flo[a[same]] = mid[same], fmid[same]
        hi[a[~same]] = mid[~same]
        active[a] = hi[a] - lo[a] > EPR_FIELD_TOL_MT
    return 0.5 * (lo + hi)


def _resonances(sys: SpinSystem, directions, nu_mw_ghz: float, b_max_mt: float) -> list[list[EprResonance]]:
    """The resonances of both subsites of ``sys`` along each direction: one
    ``resonance_search`` over directions x 2 rays, one sorted list each."""
    if not 0 < nu_mw_ghz < np.inf:
        raise ValueError("microwave frequency must be positive")
    if not 0 < b_max_mt < np.inf:
        raise ValueError("b_max must be positive")
    directions = np.array([unit_direction(d) for d in directions])
    systems = (sys.with_subsite(1), sys.with_subsite(2))
    ray, fields, cols = resonance_search(
        np.stack([s.A.matrix for s in systems]), np.stack([s.g.matrix for s in systems]),
        directions[:, None], b_max_mt, nu_mw_ghz, sys.g_n, sys.mu_b, sys.mu_n,
    )
    out = [[] for _ in directions]
    for r, b_res, col in zip(ray, fields, cols):
        n, s = divmod(int(r), 2)
        moment = transition_moments(systems[s], b_res * directions[n])[PAIRS[col]]
        out[n].append(EprResonance(float(b_res), tuple(directions[n]), PAIRS[col], s + 1, moment))
    for resonances in out:
        resonances.sort(key=lambda r: (r.field_mt, r.subsite, r.transition))
    return out


def epr_resonance_fields(sys: SpinSystem, direction, nu_mw_ghz: float, b_max_mt: float) -> list[EprResonance]:
    """All field magnitudes in (0, b_max] where a transition of either
    subsite meets nu_mw, ordered by field, subsite, then transition, with
    the moments of a drive along b (``transition_moments``)."""
    return _resonances(sys, [direction], nu_mw_ghz, b_max_mt)[0]


def epr_angular_map(
    sys: SpinSystem,
    plane: str,
    angle_step_deg: float,
    nu_mw_ghz: float,
    b_max_mt: float,
) -> list[tuple[float, list[EprResonance]]]:
    """Resonance fields swept over a crystallographic plane.

    ``plane`` is one of D1-D2, b-D1, b-D2; the direction at angle theta is
    cos(theta) e1 + sin(theta) e2.  The output is ordered by angle, then
    as ``epr_resonance_fields``.
    """
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r} (expected one of {sorted(PLANES)})")
    if angle_step_deg <= 0:
        raise ValueError("angle step must be positive")
    e1, e2 = (np.asarray(v) for v in PLANES[plane])
    angles = np.arange(0.0, 180.0 + 0.5 * angle_step_deg, angle_step_deg)
    directions = [np.cos(t) * e1 + np.sin(t) * e2 for t in np.radians(angles)]
    return list(zip(angles, _resonances(sys, directions, nu_mw_ghz, b_max_mt)))
