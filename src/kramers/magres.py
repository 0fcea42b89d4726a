"""ODMR line sets and EPR resonance fields / angular maps.

ODMR lines are the six spin-transition frequencies of one manifold with
magnetic-dipole transition moments for an oscillating field along a chosen
axis (default: crystal b, the geometry of the drive coil).  EPR resonances
are the field magnitudes along a fixed direction where any transition
matches the microwave frequency; both magnetic subsites are included.

One search finds them for every caller (``resonance_search``): it takes a
stack of rays, each an (A, g) pair swept along a unit direction up to its
own b_max.  Subsite 2 is a ray of its own: subsite 1's tensors along the
C2 image of the direction, as its levels at B are subsite 1's at C2 B.
``epr_angular_map`` searches all angles x 2 rays at once, the fit all
restarts x EPR points x 2.  The search is the eigenfield method: the
resonances of a ray are the real eigenvalues of one 16 x 16 problem in
Liouville space, taken at a shifted field that is not itself a resonance,
and one ``eigh`` at the roots labels each from its eigenvector |b><a|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (PAIR_HI, PAIR_LO, PAIRS, SpinSystem, eigensystem, hamiltonian_stack, hyperfine_stack,
                          unit_direction, zeeman_stack)
from .output import FLOAT_FORMAT
from .tensors import _C2

B_AXIS = (0.0, 0.0, 1.0)
STRONG_MOMENT_FRACTION = 0.01
EPR_FIELD_TOL_MT = 1e-3  # a root nearer the real axis is real, one nearer zero field is at B = 0
# roots of one ray closer than this x b_max are one field where branches cross:
# rounding splits such roots by ~1e-14 of it, a grazing double root by ~1e-8
CROSSING_TOL = 1e-10
RAY_CHUNK = 64  # rays solved together
SHIFTS = np.linspace(0.0, -1.0, 17)  # candidate pencil shifts, in units of b_max

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


def transition_moments(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|<j| op |i>|^2 of the six transitions (i, j) of PAIRS: operators
    (..., 4, 4) and eigenvector columns (..., 4, 4) -> (..., 6)."""
    m = np.swapaxes(states, -1, -2).conj() @ op @ states
    return np.abs(m[..., PAIR_HI, PAIR_LO]) ** 2


def odmr_lines(sys: SpinSystem, B=(0.0, 0.0, 0.0), ac_axis=B_AXIS) -> list[OdmrLine]:
    """Six spin-transition frequencies (MHz) with drive moments.

    Lines with a moment of at least 1% of the strongest at this field are
    flagged ``strong`` (the observability heuristic).
    """
    es = eigensystem(sys, B)
    moments = transition_moments(_moment_operator(sys, ac_axis), es.states).tolist()
    max_moment = max(moments)
    lines = [
        OdmrLine(
            frequency_mhz=float((es.energies[j] - es.energies[i]) * 1e3),
            transition=(i, j),
            moment=moment,
            strong=bool(max_moment > 0 and moment >= STRONG_MOMENT_FRACTION * max_moment),
        )
        for (i, j), moment in zip(PAIRS, moments)
    ]
    lines.sort(key=lambda l: l.frequency_mhz)
    return lines


def resonance_search(A, g, directions, b_max, nu_mw_ghz: float, g_n: float, mu_b: float,
                     mu_n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every resonance on a stack of rays, as (ray, field_mt, col) arrays.

    A ray is a system with tensors A and g (..., 3, 3) swept along a unit
    direction (..., 3) over (EPR_FIELD_TOL_MT, b_max] mT (...); the four
    broadcast to the ray shape, and ``ray`` is a flat index into it.
    Branch ``col`` (of PAIRS) meets nu_mw at ``field_mt``.

    Along a ray H(B) = F + B G, and E_b - E_a = nu_mw exactly when
    rho = |b><a| solves (nu_mw - F^x) rho = B G^x rho, with the commutator
    superoperators X^x of ``_liouville`` (Belford, Belford & Burkhalter,
    J. Magn. Reson. 11, 251, 1973).  Shifted to B = B0 + 1/mu, the fields
    are the real eigenvalues mu of (nu_mw - F^x - B0 G^x)^-1 G^x: one
    16 x 16 ``solve`` and ``eig`` per ray, whatever its length.  The shift
    B0 is the one of SHIFTS x b_max whose transitions lie farthest from
    nu_mw; that distance is the least singular value of the shifted
    matrix, and it is not zero because the pencil has at most 16
    eigenvalues.  A root within EPR_FIELD_TOL_MT of the real axis is real
    (a grazing double root comes out as a pair), one within it of zero
    field is the root at B = 0 that a zero-field gap equal to nu_mw leaves.

    One ``eigh`` at all roots labels each root's transition from its
    eigenvector rho: in the eigenbasis there, |b><a| is the element (b, a).
    Branches crossing at a root share one field, and the pairs of such a
    cluster of roots go to its roots by their summed weight.  Rays go
    through RAY_CHUNK at a time, so memory grows with neither the number
    nor the length of the rays.  Results come ray by ray, then by branch
    and field.
    """
    shape = np.broadcast_shapes(np.shape(A)[:-2], np.shape(g)[:-2], np.shape(directions)[:-1],
                                np.shape(b_max))
    A, g = (np.broadcast_to(x, shape + (3, 3)) for x in (A, g))
    directions, b_max = np.broadcast_to(directions, shape + (3,)), np.broadcast_to(b_max, shape)
    found = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int))]
    for start in range(0, b_max.size, RAY_CHUNK):
        ray = np.arange(start, min(start + RAY_CHUNK, b_max.size))
        at = np.unravel_index(ray, shape)
        k, fields, col = _eigenfields(A[at], g[at], directions[at], b_max[at], nu_mw_ghz, g_n, mu_b, mu_n)
        found.append((ray[k], fields, col))
    ray, fields, col = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((fields, col, ray))
    return ray[order], fields[order], col[order]


def _liouville(X: np.ndarray) -> np.ndarray:
    """The commutator superoperators X^x = X (x) I - I (x) X^T (..., 16, 16)
    of X (..., 4, 4): X^x vec(rho) = vec(X rho - rho X), rows of rho end to end."""
    eye = np.eye(4)
    return (np.einsum("...ac,bd->...abcd", X, eye)
            - np.einsum("ac,...db->...abcd", eye, X)).reshape(X.shape[:-2] + (16, 16))


def _eigenfields(A, g, directions, b_max, nu_mw_ghz, g_n, mu_b, mu_n):
    """``resonance_search`` on rays (R,): (ray, field_mt, col) arrays, unordered."""
    F = hyperfine_stack(A)
    G = zeeman_stack(np.zeros_like(F), g, directions[:, None], g_n, mu_b, mu_n)[:, 0]  # dH/dB
    shifts = b_max[:, None] * SHIFTS
    e = np.linalg.eigvalsh(F[:, None] + shifts[..., None, None] * G[:, None])
    distance = np.abs(e[..., PAIR_HI] - e[..., PAIR_LO] - nu_mw_ghz).min(axis=-1)
    b0 = shifts[np.arange(b_max.size), np.argmax(distance, axis=1)]
    shifted = nu_mw_ghz * np.eye(16) - _liouville(F + b0[:, None, None] * G)
    mu, rho = np.linalg.eig(np.linalg.solve(shifted, _liouville(G)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # mu (near) 0: a root at infinite field
        roots = b0[:, None] + 1.0 / mu
    ray, n = np.nonzero((np.abs(roots.imag) <= EPR_FIELD_TOL_MT) & (roots.real > EPR_FIELD_TOL_MT)
                        & (roots.real <= b_max[:, None]))
    if not ray.size:
        return ray, np.zeros(0), ray
    roots, fields = roots[ray, n], roots.real[ray, n]
    _, states = np.linalg.eigh(F[ray] + fields[:, None, None] * G[ray])
    rho = np.einsum("kab,kac,kcd->kbd", states.conj(), rho[ray, :, n].reshape(-1, 4, 4), states)
    weight = np.abs(rho[:, PAIR_HI, PAIR_LO]) ** 2
    # a cluster: roots of one ray that agree to rounding, where branches cross
    order = np.lexsort((fields, ray))
    ray, roots, fields, weight = ray[order], roots[order], fields[order], weight[order]
    new = np.ones(ray.size, dtype=bool)
    new[1:] = (ray[1:] != ray[:-1]) | (np.abs(np.diff(roots)) > CROSSING_TOL * b_max[ray[1:]])
    first, cluster = np.flatnonzero(new), np.cumsum(new) - 1
    ranked = np.argsort(-np.add.reduceat(weight, first, axis=0), axis=1, kind="stable")
    rank = np.minimum(np.arange(ray.size) - first[cluster], len(PAIRS) - 1)
    return ray, fields, ranked[cluster, rank]


def _resonances(sys: SpinSystem, directions, nu_mw_ghz: float, b_max_mt: float) -> list[list[EprResonance]]:
    """The resonances of both subsites of ``sys`` along each direction: one
    ``resonance_search`` over directions x 2 rays, subsite 1's tensors along
    each direction d and its C2 image, one sorted list each.  The moments
    are subsite 1's along the ray, as the drive along b is its own C2 image."""
    if not 0 < nu_mw_ghz < np.inf:
        raise ValueError("microwave frequency must be positive and finite")
    if not 0 < b_max_mt < np.inf:
        raise ValueError("b_max must be positive and finite")
    directions = np.array([unit_direction(d) for d in directions])
    rays = np.stack([directions, directions * _C2], axis=1)
    sys = sys.with_subsite(1)
    A, g = sys.A.matrix, sys.g.matrix
    ray, fields, cols = resonance_search(A, g, rays, b_max_mt, nu_mw_ghz, sys.g_n, sys.mu_b, sys.mu_n)
    n, s = np.divmod(ray, 2)
    _, states = np.linalg.eigh(hamiltonian_stack(A, g, (fields[:, None] * rays[n, s])[:, None],
                                                 sys.g_n, sys.mu_b, sys.mu_n)[:, 0])
    moments = transition_moments(_moment_operator(sys, B_AXIS), states)[np.arange(cols.size), cols]
    out = [[] for _ in directions]
    for k, b_res, col, sub, moment in zip(n.tolist(), fields.tolist(), cols.tolist(), s.tolist(), moments.tolist()):
        out[k].append(EprResonance(b_res, tuple(directions[k]), PAIRS[col], sub + 1, moment))
    for resonances in out:
        # fields equal as the CSV prints them, as subsites' are on a symmetry
        # plane up to rounding, order by subsite
        resonances.sort(key=lambda r: (float(format(r.field_mt, FLOAT_FORMAT)), r.subsite, r.transition))
    return out


def epr_resonance_fields(sys: SpinSystem, direction, nu_mw_ghz: float, b_max_mt: float) -> list[EprResonance]:
    """All field magnitudes in (EPR_FIELD_TOL_MT, b_max] where a transition
    of either subsite meets nu_mw, ordered by field (at the CSV's
    precision), subsite, then transition, with the moments of a drive along b
    (``transition_moments``)."""
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
