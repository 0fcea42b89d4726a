"""Least-squares fitting of hyperfine-tensor orientations to transition data.

The g tensors and the A eigenvalue magnitudes (obtained analytically from
zero-field splittings) stay fixed; the free parameters are the orientation
of the ground and/or excited A tensor, optionally a small lab-misalignment
rotation and eigenvalue refinements.  Restarts begin at the problem's own
angles and at uniformly sampled Euler triples, and one Levenberg-Marquardt
with Moré's (1978) column scaling advances a chunk of them in lockstep:
each iteration diagonalizes (restarts x distinct fields x 2 subsites) in
one stacked ``eigh``, and searches (restarts x EPR points x 2 subsites)
in one ``magres.resonance_search`` per state, whose eigenfield roots are
exact: one ``eigh`` at them gives the EPR slopes.  An orientation is a
rotation R, stepped by a body-frame rotation vector and re-anchored after
every accepted step (Absil, Mahony & Sepulchre 2008, ch. 4), so it has no
Euler box and no double cover.  Every Jacobian column comes from the eigenvectors of that
same ``eigh`` by Hellmann-Feynman.  Misalignment and eigenvalue shifts
stay in their box.  The best optimum is reported as canonical Euler
angles, with the restart spread and a covariance over small body-frame
rotations (inf for a coordinate the data do not depend on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hamiltonian import (
    PAIR_HI,
    PAIR_LO,
    field_gradients,
    hamiltonian_stack,
    invert_zero_field,
    reconstruct_levels,
    spin_expectations,
    unit_direction,
)
from .magres import resonance_search
from .spectra import SiteModel
from .tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    decompose_tensor,
    principal_axes_orientation,
    rotation_matrix,
    rx,
    ry,
    rz,
    subsite_matrices,
    subsite_transform,
    _C2,
)
from .trust_region import COST_RTOL, MAX_EVALUATIONS, STEP_TOL, _bounded_step, _trust_radius

KINDS = ("shb", "odmr", "epr")
STATES = ("ground", "excited")

DEFAULT_SIGMA_GHZ = {"shb": 2e-3, "odmr": 0.5e-3}
DEFAULT_SIGMA_MT = 0.5

# a residual is clipped at its gate: a frequency point at GATE_FREQ_GHZ, an
# EPR point at GATE_FIELD_MT
GATE_FREQ_GHZ = 0.5
GATE_FIELD_MT = 50.0
MISALIGNMENT_BOUND_DEG = 5.0
EIGENVALUE_BOUND_GHZ = 0.05

# Levenberg-Marquardt restarts advanced together (a chunk's arrays grow
# with restarts x points x parameters; 32 restarts of a 600-point fit of
# one orientation peak near 15 MB); a restart stops by the rules of
# ``trust_region``, its steps measured in degrees or GHz
RESTART_CHUNK = 32

# each 3-wide block of a fit parameter vector, by kind: the name suffixes of
# its entries, those of its covariance coordinates, and the +/- bound on
# them (for angles, only the box the restart seeds are drawn from)
_BLOCK_KINDS = {
    "angles": (("alpha", "beta", "gamma"), ("rot1", "rot2", "rot3"), 180.0),
    "misalignment": (("x", "y", "z"), ("x", "y", "z"), MISALIGNMENT_BOUND_DEG),
    "deltas": (("dA1", "dA2", "dA3"), ("dA1", "dA2", "dA3"), EIGENVALUE_BOUND_GHZ),
}

_DEG = np.pi / 180.0
# generators of the rotations about x, y, z: rx(t) = exp(t K_x) for t in radians
_GENERATORS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])


@dataclass(frozen=True)
class DataPoint:
    """One measured transition frequency (GHz) or EPR resonance field (mT).

    For shb/odmr points ``field_mt`` is the applied field vector and
    ``value`` the transition frequency; for epr points ``field_mt`` fixes
    the sweep direction (its magnitude is ignored) and ``value`` is the
    observed resonance field magnitude.
    """

    kind: str
    state: str
    field_mt: tuple[float, float, float]
    value: float
    sigma: float
    label: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.state not in STATES:
            raise ValueError(f"unknown state tag {self.state!r}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "field_mt", tuple(float(x) for x in self.field_mt))


@dataclass(frozen=True)
class FitProblem:
    """Free-parameter selection for one fitting run.

    The parameter vector is, in order and only where enabled: ground A
    Euler angles (deg), excited A Euler angles (deg), misalignment xyz
    rotations (deg, bounded to +/-5), ground eigenvalue deltas (GHz),
    excited eigenvalue deltas (GHz).  ``blocks`` lays it out once, and
    the names, starting values and bounds read it; ``realized_site`` is
    the fit's own realization (``_realize``) at one parameter vector.
    The fit moves each orientation by a rotation vector instead, whose
    coordinates ``covariance_names`` lists.
    """

    site: SiteModel
    fit_ground: bool = True
    fit_excited: bool = False
    fit_misalignment: bool = False
    refine_eigenvalues: bool = False
    nu_mw_ghz: float = 9.7

    @cached_property
    def blocks(self) -> tuple[tuple[str, str], ...]:
        """The parameter vector as (kind, owner) blocks of three, in order.

        The owner of an angle or delta block is the state whose A it sets;
        that of the misalignment block is "mis".  Angle blocks come first.
        """
        states = [state for state, on in zip(STATES, (self.fit_ground, self.fit_excited)) if on]
        blocks = [("angles", state) for state in states]
        if self.fit_misalignment:
            blocks.append(("misalignment", "mis"))
        if self.refine_eigenvalues:
            blocks += [("deltas", state) for state in states]
        return tuple(blocks)

    @cached_property
    def base_principal(self) -> dict[str, PrincipalTensor]:
        """The decomposed A of each state of the base site."""
        return {state: decompose_tensor(getattr(self.site, state).A) for state in STATES}

    def parameter_names(self) -> list[str]:
        return [f"{owner}_{suffix}" for kind, owner in self.blocks for suffix in _BLOCK_KINDS[kind][0]]

    def covariance_names(self) -> list[str]:
        """Names of the covariance coordinates: an orientation's are small
        rotations (deg) about the principal axes of its A, ``<state>_rotK``
        about the axis of A_K; the others are the parameters themselves."""
        return [f"{owner}_{suffix}" for kind, owner in self.blocks for suffix in _BLOCK_KINDS[kind][1]]

    def initial_parameters(self) -> np.ndarray:
        x = [
            self.base_principal[owner].orientation.as_tuple() if kind == "angles" else (0.0, 0.0, 0.0)
            for kind, owner in self.blocks
        ]
        return np.array(x, dtype=float).reshape(-1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The box restart seeds are drawn from; the fit keeps all but the angles in it."""
        hi = np.repeat([_BLOCK_KINDS[kind][2] for kind, _ in self.blocks], 3)
        return -hi, hi

    def realized_site(self, params: np.ndarray) -> SiteModel:
        """The base site with a parameter vector applied: the A and g
        tensors the residuals at ``params`` see (``_realize``)."""
        realized = _realize(self, *_points(self, np.asarray(params, dtype=float)[None]), jac=False)
        return replace(self.site, **{
            state: replace(getattr(self.site, state), A=SymmetricTensor3(A[0]), g=SymmetricTensor3(g[0]))
            for state, (A, g, _, _) in realized.items()
        })


@dataclass(frozen=True, eq=False)
class _StateRows:
    """The shb/odmr points of one electronic state, as index arrays.

    ``idx`` are the points' positions in the data list; ``inverse[r, s]``
    is the row of ``fields`` whose levels are those of point r on subsite
    s + 1 (``fields`` holds each distinct field and C2 image, up to sign,
    once, so each is diagonalized once).  ``labeled``/``unlabeled`` are
    positions within ``idx``; ``lower``/``upper`` are the level labels of
    the labeled ones.
    """

    state: str
    idx: np.ndarray
    fields: np.ndarray
    inverse: np.ndarray
    values: np.ndarray
    labeled: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    unlabeled: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledData:
    """A data list in the array form ``evaluate`` works on.

    ``fit`` compiles its data once instead of on every evaluation; ``epr``
    holds each EPR point's position, its unit sweep direction, and that
    direction as the resonance search normalizes it (once more, which can
    move the last bit).
    ``gates`` and ``weights`` (1/sigma, 0 for an infinite sigma) have one
    entry per point.
    """

    points: tuple[DataPoint, ...]
    states: tuple[_StateRows, ...]
    epr: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    is_epr: np.ndarray
    gates: np.ndarray
    weights: np.ndarray


def compile_data(data) -> CompiledData:
    """Validate a list of DataPoints and precompute the arrays of ``evaluate``."""
    points = tuple(data)
    if not points:
        raise ValueError("no data points")
    states = []
    for state in STATES:
        idx = np.array(
            [n for n, p in enumerate(points) if p.kind != "epr" and p.state == state], dtype=int
        )
        if idx.size == 0:
            continue
        fields = np.array([points[n].field_mt for n in idx], dtype=float)
        images = np.concatenate([fields, fields * _C2])
        # the levels at -B are those at B (time reversal), and so are the
        # derivatives: keep each field with its first nonzero component positive
        first = images[np.arange(len(images)), np.argmax(images != 0, axis=1)]
        uniq, inverse = np.unique(images * np.where(first < 0, -1.0, 1.0)[:, None] + 0.0, axis=0,
                                  return_inverse=True)
        labels = [points[n].label for n in idx]
        labeled = np.array([r for r, l in enumerate(labels) if l is not None], dtype=int)
        states.append(_StateRows(
            state=state,
            idx=idx,
            fields=uniq,
            inverse=inverse.reshape(2, -1).T,
            values=np.array([points[n].value for n in idx]),
            labeled=labeled,
            lower=np.array([labels[r][0] for r in labeled], dtype=int),
            upper=np.array([labels[r][1] for r in labeled], dtype=int),
            unlabeled=np.array([r for r, l in enumerate(labels) if l is None], dtype=int),
        ))
    epr = []
    for n, p in enumerate(points):
        if p.kind != "epr":
            continue
        direction = np.asarray(p.field_mt, dtype=float)
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ValueError("EPR point needs a nonzero direction")
        if not p.value > 0:
            raise ValueError("EPR resonance field must be positive")
        direction = direction / norm
        epr.append((n, direction, unit_direction(direction)))
    is_epr = np.array([p.kind == "epr" for p in points])
    sigmas = np.array([p.sigma for p in points], dtype=float)
    return CompiledData(
        points, tuple(states), tuple(epr), is_epr,
        gates=np.where(is_epr, GATE_FIELD_MT, GATE_FREQ_GHZ),
        weights=np.where(np.isfinite(sigmas), 1.0 / sigmas, 0.0),
    )


def _rotations(omega: np.ndarray) -> np.ndarray:
    """exp([omega]x) for rotation vectors (..., 3) in radians, by Rodrigues' formula."""
    theta = np.linalg.norm(omega, axis=-1)[..., None, None]
    k = np.einsum("...i,ijk->...jk", omega, _GENERATORS)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(theta > 0, np.sin(theta) / theta, 1.0)
        b = np.where(theta > 0, (1.0 - np.cos(theta)) / theta**2, 0.5)
    return np.eye(3) + a * k + b * (k @ k)


def _points(problem: FitProblem, params) -> tuple[np.ndarray, np.ndarray]:
    """A (B, P) stack of parameter vectors as the fit's points: the
    rotation of each angle block, (B, n_angle_blocks, 3, 3), and the
    other coordinates, (B, P - 3 n_angle_blocks)."""
    x = np.asarray(params, dtype=float).reshape(len(params), -1, 3)
    n_angles = sum(kind == "angles" for kind, _ in problem.blocks)
    rotations = np.array([
        [rotation_matrix(EulerAngles(*angles)) for angles in row[:n_angles]] for row in x
    ]).reshape(len(x), n_angles, 3, 3)
    return rotations, x[:, n_angles:].reshape(len(x), -1)


def _parameters(problem: FitProblem, rotations: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Parameter vectors (B, P) of fit points: canonical Euler angles of each rotation."""
    angles = [[principal_axes_orientation(r).as_tuple() for r in row] for row in rotations]
    return np.concatenate([np.array(angles, dtype=float).reshape(len(flat), -1), flat], axis=1)


def _realize(problem: FitProblem, rotations: np.ndarray, flat: np.ndarray, jac: bool) -> dict:
    """Each state's realized (A, g) for a batch of points, (B, 3, 3) each,
    with dA and dg (B, P, 3, 3) over the tangent coordinates when ``jac``.

    A fitted orientation is R diag(a + delta) R^T; moving R to R exp([w]x)
    gives dA/dw_k = R [K_k, diag] R^T, and dA/d delta_i = r_i r_i^T for the
    axis r_i.  The misalignment M = rx ry rz turns A into M A M^T and g
    into M g M^T; dM/d theta_i = Omega_i M, so the derivatives are the
    commutators [Omega_i, A] and [Omega_i, g].  Angles are in degrees.
    A and M are built with the arithmetic of ``tensors.assemble_tensor``
    and ``rx``/``ry``/``rz``, and every realized tensor is made symmetric
    as ``SymmetricTensor3`` makes it, so at Euler angles the realized
    tensors are those of the tensors module bit for bit.
    """
    B, P = len(flat), 3 * len(problem.blocks)
    n_angles = rotations.shape[1]
    where = {(kind, owner): n for n, (kind, owner) in enumerate(problem.blocks)}

    def coords(n):
        return flat[:, 3 * (n - n_angles) : 3 * (n - n_angles) + 3]

    mis = where.get(("misalignment", "mis"))
    if mis is not None:
        # rx, ry, rz of each point, (B, 3, 3, 3)
        steps = np.array([[turn(t) for turn, t in zip((rx, ry, rz), row)] for row in coords(mis)])
        steps = steps.reshape(B, 3, 3, 3)
        M = steps[:, 0] @ steps[:, 1] @ steps[:, 2]
        axes = [np.broadcast_to(np.eye(3)[0], (B, 3)), steps[:, 0, :, 1], (steps[:, 0] @ steps[:, 1])[:, :, 2]]
        omegas = [np.einsum("bi,ijk->bjk", a, _GENERATORS) * _DEG for a in axes]

    out = {}
    for state in STATES:
        base = getattr(problem.site, state)
        dA = np.zeros((B, P, 3, 3)) if jac else None
        dg = None
        if ("angles", state) in where:
            n = where[("angles", state)]
            R, Rt = rotations[:, n], rotations[:, n].swapaxes(1, 2)
            d = np.array(problem.base_principal[state].values)
            if ("deltas", state) in where:
                d = d + coords(where[("deltas", state)])
            d = np.broadcast_to(d, (B, 3))
            A = _symmetric((R * d[:, None, :]) @ Rt)
            if jac:
                # [K_k, diag(d)]_ij = (K_k)_ij (d_j - d_i)
                comm = _GENERATORS * (d[:, None, None, :] - d[:, None, :, None])
                dA[:, 3 * n : 3 * n + 3] = R[:, None] @ comm @ Rt[:, None] * _DEG
                if ("deltas", state) in where:
                    m = where[("deltas", state)]
                    dA[:, 3 * m : 3 * m + 3] = Rt[:, :, :, None] * Rt[:, :, None, :]
        else:
            A = np.broadcast_to(base.A.matrix, (B, 3, 3))
        g = np.broadcast_to(base.g.matrix, (B, 3, 3))
        if mis is not None:
            Mt = M.swapaxes(1, 2)
            A, g = _symmetric(M @ A @ Mt), _symmetric(M @ g @ Mt)
            if jac:
                dA = M[:, None] @ dA @ Mt[:, None]
                dg = np.zeros((B, P, 3, 3))
                for k, om in enumerate(omegas):
                    dA[:, 3 * mis + k] = om @ A - A @ om
                    dg[:, 3 * mis + k] = om @ g - g @ om
        out[state] = (A, g, dA, dg)
    return out


def _symmetric(m: np.ndarray) -> np.ndarray:
    """A stack of matrices rebuilt from their upper triangles, as ``SymmetricTensor3`` does."""
    return np.triu(m) + np.triu(m, 1).swapaxes(-1, -2)


def _derivative_mix(fields: np.ndarray, dA: np.ndarray, dg, mu_b: float) -> np.ndarray:
    """dH/d theta in the basis of SPIN_OPERATORS, (B, F, 15, P) for fields (F, 3) or (B, F, 3).

    dH/dA_kl = I_k S_l and dH/dg_kl = mu_B B_k S_l; without dg, F is 1.
    """
    B, P = dA.shape[:2]
    mix = np.zeros((B, 1 if dg is None else fields.shape[-2], 15, P))
    mix[..., :9, :] = dA.reshape(B, 1, P, 9).swapaxes(-1, -2)
    if dg is not None:
        fields = np.broadcast_to(fields, (B,) + fields.shape[-2:]) * (mu_b * 1e-3)
        mix[..., 9:12, :] = np.einsum("bfk,bpkl->bflp", fields, dg)
    return mix


class Evaluation(NamedTuple):
    """Residuals of a batch of B fit points over N data points.

    ``residuals`` (B, N) are observed minus model, clipped at the gates;
    ``model`` is NaN where a point has no model value; ``gated`` flags
    the points beyond their gates.  ``jacobian`` (B, N, P), when asked
    for, is d residual / d tangent coordinate, zero on a gated row.
    """

    residuals: np.ndarray
    model: np.ndarray
    gated: np.ndarray
    jacobian: np.ndarray | None = None


def evaluate(problem: FitProblem, rotations, flat, data: CompiledData, jac: bool = False) -> Evaluation:
    """Residuals (and their Jacobian) at a batch of fit points.

    Labeled points compare against their own transition on the nearer of
    the two magnetic subsites; unlabeled points against the nearest of all
    twelve subsite transitions.  EPR points compare against the nearest
    resonance field at nu_mw, searched up to value + GATE_FIELD_MT; a
    point with no resonance there is beyond its gate.  Each residual is
    clipped to +/- its gate.  All shb/odmr levels of all points come from
    one stacked ``eigh`` per state, and
    the Jacobian from its eigenvectors: an EPR field moves by
    dB/d theta = -(d nu/d theta) / (d nu/dB) at the resonance.
    """
    rotations, flat = np.asarray(rotations, dtype=float), np.asarray(flat, dtype=float)
    B, N, P = len(flat), len(data.points), 3 * len(problem.blocks)
    tensors = _realize(problem, rotations, flat, jac)
    raw = np.full((B, N), np.inf)
    model = np.full((B, N), np.nan)
    J = np.zeros((B, N, P)) if jac else None
    batch = np.arange(B)[:, None]

    for rows in data.states:
        A, g, dA, dg = tensors[rows.state]
        base = getattr(problem.site, rows.state)
        H = hamiltonian_stack(A, g, rows.fields, base.g_n, base.mu_b, base.mu_n)
        if jac:
            w, v = np.linalg.eigh(H)
        else:
            w = np.linalg.eigvalsh(H)
        values = rows.values
        # the chosen (field row, upper, lower) of every point of this state
        row = np.empty((B, rows.idx.size), dtype=int)
        upper, lower = np.empty_like(row), np.empty_like(row)
        if rows.labeled.size:
            lab = rows.labeled
            u = rows.inverse[lab]
            cands = w[:, u, rows.upper[:, None]] - w[:, u, rows.lower[:, None]]
            k = np.argmin(np.abs(cands - values[lab, None]), axis=2)
            row[:, lab], upper[:, lab], lower[:, lab] = u[np.arange(lab.size), k], rows.upper, rows.lower
        if rows.unlabeled.size:
            un = rows.unlabeled
            u = rows.inverse[un]
            e = w[:, u]
            cands = (e[..., PAIR_HI] - e[..., PAIR_LO]).reshape(B, un.size, 12)
            subsite, pair = np.divmod(np.argmin(np.abs(cands - values[un, None]), axis=2), 6)
            row[:, un], upper[:, un], lower[:, un] = u[np.arange(un.size), subsite], PAIR_HI[pair], PAIR_LO[pair]
        model[:, rows.idx] = w[batch, row, upper] - w[batch, row, lower]
        raw[:, rows.idx] = values - model[:, rows.idx]
        if jac:
            dE = spin_expectations(v, _derivative_mix(rows.fields, dA, dg, base.mu_b))
            J[:, rows.idx] = dE[batch, row, lower] - dE[batch, row, upper]

    if data.epr:
        _epr_residuals(problem, tensors, data, raw, model, J)
    res = np.clip(raw, -data.gates, data.gates)
    gated = ~(np.abs(raw) <= data.gates)
    if jac:
        J[gated] = 0.0
    return Evaluation(res, model, gated, J)


def _epr_residuals(problem: FitProblem, tensors: dict, data: CompiledData, raw, model, J) -> None:
    """Fill the EPR points' entries of ``raw``, ``model`` and ``J`` in place.

    One ``resonance_search`` per state covers its points x restarts x both
    subsites; each point takes the resonance nearest its value (of its own
    transition, when labeled), ties going to the lower field, then subsite 1.
    """
    for state in STATES:
        epr = [entry for entry in data.epr if data.points[entry[0]].state == state]
        if not epr:
            continue
        idx, directions, rays = (np.array(c) for c in zip(*epr))
        values = np.array([data.points[n].value for n in idx])
        lower, upper = np.array([data.points[n].label or (-1, -1) for n in idx]).T
        A, g, dA, dg = tensors[state]
        base = getattr(problem.site, state)
        # ray (point, restart, subsite); subsite 2 has the C2-flipped tensors
        ray, field, col = resonance_search(
            np.stack([A, subsite_matrices(A)], axis=1), np.stack([g, subsite_matrices(g)], axis=1),
            rays[:, None, None], (values + GATE_FIELD_MT)[:, None, None],
            problem.nu_mw_ghz, base.g_n, base.mu_b, base.mu_n,
        )
        point, bs, sub = np.unravel_index(ray, (idx.size, len(A), 2))
        keep = (lower[point] < 0) | ((PAIR_LO[col] == lower[point]) & (PAIR_HI[col] == upper[point]))
        if not keep.any():
            continue
        point, bs, sub, field, col = point[keep], bs[keep], sub[keep], field[keep], col[keep]
        order = np.lexsort((PAIR_HI[col], PAIR_LO[col], sub, field, np.abs(field - values[point]), bs, point))
        _, first = np.unique((point * len(A) + bs)[order], return_index=True)
        point, bs, sub, fields, col = (x[order[first]] for x in (point, bs, sub, field, col))
        img = np.where(sub[:, None] == 0, directions[point], directions[point] * _C2)
        pts, up, lo, k = idx[point], PAIR_HI[col], PAIR_LO[col], np.arange(point.size)
        model[bs, pts] = fields
        raw[bs, pts] = values[point] - fields
        if J is not None:
            at = (fields[:, None] * img)[:, None]
            _, v = np.linalg.eigh(hamiltonian_stack(A[bs], g[bs], at, base.g_n, base.mu_b, base.mu_n)[:, 0])
            slopes = (field_gradients(v, g[bs], base.g_n, base.mu_b, base.mu_n) @ img[..., None])[..., 0]
            slope = slopes[k, up] - slopes[k, lo]
            mix = _derivative_mix(at, dA[bs], None if dg is None else dg[bs], base.mu_b)
            dE = spin_expectations(v, mix[:, 0])
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = (dE[k, up] - dE[k, lo]) / slope[:, None]
            J[bs, pts] = np.where(np.isfinite(rows), rows, 0.0)


def residuals(problem: FitProblem, params, data, full: bool = False):
    """Observed-minus-model residuals for every data point, clipped at the gates.

    ``evaluate`` at one parameter vector (see there for the model).  A
    gated point costs a constant (gate/sigma)^2, so discarding data never
    lowers the cost.  ``data`` is a list of DataPoints or its
    ``compile_data`` form.  With ``full`` it returns (residuals, model
    values, sorted indices of the gated points); a point without a model
    value has NaN.
    """
    if not isinstance(data, CompiledData):
        data = compile_data(data)
    ev = evaluate(problem, *_points(problem, np.asarray(params, dtype=float)[None]), data)
    if full:
        return ev.residuals[0], ev.model[0], np.flatnonzero(ev.gated[0]).tolist()
    return ev.residuals[0]


class _Run(NamedTuple):
    """Where the restarts of one chunk ended, and what each spent."""

    rotations: np.ndarray
    flat: np.ndarray
    cost: np.ndarray
    residuals: np.ndarray
    gated: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray


def _levenberg_marquardt(problem: FitProblem, data: CompiledData, rotations, flat) -> _Run:
    """Minimize the weighted cost from a batch of starting points, in lockstep.

    Moré's (1978) trust-region form: D holds the largest column norms of
    J seen so far (one per rotation block, so a turn is measured by its
    angle), and each step solves (J^T J + lambda D^2) p = -J^T r with
    lambda = 0 (Gauss-Newton) when that step stays within the radius, else
    the lambda that puts ||D p|| on it; the first radius is ||r||.  All
    trial points of a chunk are evaluated in one ``evaluate``.  A step
    rotates each orientation by exp([w]x) in its body frame and keeps the
    other coordinates in their box: a coordinate it would carry past a
    bound is put on the bound and the step is solved again for the rest,
    so a restart that stops on a bound stops at a minimum there.  A
    restart stops when its next step would change its cost by less than
    COST_RTOL (relative, as predicted), when that step is below STEP_TOL,
    or after MAX_EVALUATIONS evaluations.
    """
    rotations, flat = np.array(rotations, dtype=float), np.array(flat, dtype=float)
    B, P, n_angles = len(flat), 3 * len(problem.blocks), rotations.shape[1]
    lo, hi = (bound[3 * n_angles :] for bound in problem.bounds())
    weights = data.weights

    ev = evaluate(problem, rotations, flat, data, jac=True)
    r, J = ev.residuals * weights, ev.jacobian * weights[:, None]
    cost = np.einsum("bn,bn->b", r, r)
    res, gated = ev.residuals, ev.gated
    scale = np.zeros((B, P))
    radius = np.full(B, np.nan)
    iterations, evaluations = np.zeros(B, dtype=int), np.ones(B, dtype=int)
    active = cost > 0
    while active.any():
        a = np.flatnonzero(active)
        Ja, ra = J[a], r[a]
        scale[a] = np.maximum(scale[a], np.linalg.norm(Ja, axis=1))
        turns = scale[a, : 3 * n_angles].reshape(a.size, n_angles, 3)
        d = np.concatenate([np.repeat(turns.max(axis=2), 3, axis=1), scale[a, 3 * n_angles :]], axis=1)
        d = np.where(d > 0, d, 1.0)
        radius[a] = np.where(np.isnan(radius[a]), np.sqrt(cost[a]), radius[a])
        scaled_bounds = ((bound - flat[a]) * d[:, 3 * n_angles :] for bound in (lo, hi))
        Js = Ja / d[:, None, :]
        scaled_step, lam = _bounded_step(Js.swapaxes(1, 2) @ Js, Js, ra, radius[a], *scaled_bounds)
        step = scaled_step / d

        # the step already keeps to the box; the clip only absorbs rounding
        trial_flat = np.clip(flat[a] + step[:, 3 * n_angles :], lo, hi)
        taken = np.concatenate([step[:, : 3 * n_angles], trial_flat - flat[a]], axis=1)
        lin = ra + np.einsum("bnp,bp->bn", Ja, taken)
        predicted = cost[a] - np.einsum("bn,bn->b", lin, lin)
        # converged: the step would change little, so it is not evaluated
        go = (predicted > COST_RTOL * cost[a]) & (np.linalg.norm(taken, axis=1) > STEP_TOL)
        active[a[~go]] = False
        a, d, lam, predicted, taken, trial_flat = a[go], d[go], lam[go], predicted[go], taken[go], trial_flat[go]
        if not a.size:
            break

        turn = _rotations(taken[:, : 3 * n_angles].reshape(a.size, n_angles, 3) * _DEG)
        trial_rot = rotations[a] @ turn
        trial = evaluate(problem, trial_rot, trial_flat, data, jac=True)
        evaluations[a] += 1
        r_t = trial.residuals * weights
        cost_t = np.einsum("bn,bn->b", r_t, r_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.isfinite(cost_t), (cost[a] - cost_t) / predicted, -np.inf)
        radius[a] = _trust_radius(radius[a], ratio, np.linalg.norm(taken * d, axis=1), lam)

        accept = ratio > 1e-4
        ok = a[accept]
        rotations[ok], flat[ok] = trial_rot[accept], trial_flat[accept]
        r[ok], J[ok], cost[ok] = r_t[accept], trial.jacobian[accept] * weights[:, None], cost_t[accept]
        res[ok], gated[ok] = trial.residuals[accept], trial.gated[accept]
        iterations[ok] += 1
        active[a[(cost[a] == 0) | (evaluations[a] >= MAX_EVALUATIONS)]] = False
    return _Run(rotations, flat, cost, res, gated, iterations, evaluations)


def canonical_orientation(tensor: SymmetricTensor3) -> tuple[EulerAngles, int]:
    """Angles of the subsite representative with the smaller Euler triple.

    The two magnetic subsites are physically equivalent labellings, so a
    fitted tensor is reported for the subsite whose decomposed (alpha,
    beta, gamma) sorts lexicographically smaller.  Returns (angles, subsite).
    """
    a1 = decompose_tensor(tensor).orientation
    a2 = decompose_tensor(subsite_transform(tensor)).orientation
    if a2.as_tuple() < a1.as_tuple():
        return a2, 2
    return a1, 1


@dataclass(frozen=True)
class FitResult:
    success: bool
    message: str
    parameter_names: tuple[str, ...]
    parameters: np.ndarray
    canonical_angles: dict
    rms_mhz: float
    rms_field_mt: float | None
    residuals: np.ndarray
    model_values: np.ndarray
    excluded: tuple[int, ...]
    covariance_names: tuple[str, ...]
    covariance: np.ndarray
    restart_rms_mhz: tuple[float, ...]   # one per restart, ascending
    # LM iterations (accepted steps) and evaluations, one per restart in seed order
    restart_iterations: tuple[int, ...] = ()
    restart_evaluations: tuple[int, ...] = ()

    @property
    def iterations(self) -> int:
        return sum(self.restart_iterations)

    @property
    def evaluations(self) -> int:
        return sum(self.restart_evaluations)


def fit(problem: FitProblem, data, restarts: int = 64, seed: int = 0) -> FitResult:
    """Multistart weighted least squares over the problem's free parameters.

    Restart seeds are the problem's own starting angles plus uniformly
    sampled parameter vectors, drawn one chunk of RESTART_CHUNK at a time
    (the same stream as one at a time); each chunk is refined by
    ``_levenberg_marquardt`` and the best local optimum wins (ties broken by
    lexicographically smaller parameters).  The result is a success when
    at most half of the points are gated.
    """
    compiled = compile_data(data)
    total = len(compiled.points)
    names = problem.parameter_names()
    x0 = problem.initial_parameters()

    if len(names) == 0:
        res, model, excl = residuals(problem, x0, compiled, full=True)
        rms, rms_field = _split_rms(compiled, res, excl)
        return FitResult(
            *_status(len(excl), total), tuple(names), x0,
            _canonical_report(problem, x0), rms, rms_field,
            res, model, tuple(excl), (), np.zeros((0, 0)), (rms,), (0,), (1,),
        )

    if total < len(names):
        raise ValueError(f"{total} points cannot determine {len(names)} parameters")

    lo, hi = problem.bounds()
    rng = np.random.default_rng(seed)
    best = None
    restart_rms_list, iterations, evaluations = [], [], []
    restarts = max(1, restarts)
    for first in range(0, restarts, RESTART_CHUNK):
        count = min(RESTART_CHUNK, restarts - first)
        # only one chunk of seeds at a time: memory does not grow with ``restarts``
        seeds = rng.uniform(lo, hi, size=(count - (first == 0), len(names)))
        if first == 0:
            seeds = np.concatenate([x0[None], seeds])
        run = _levenberg_marquardt(problem, compiled, *_points(problem, seeds))
        for m, x in enumerate(_parameters(problem, run.rotations, run.flat)):
            restart_rms_list.append(_split_rms(compiled, run.residuals[m], run.gated[m])[0])
            if best is None or (run.cost[m], tuple(x)) < best:
                best = (run.cost[m], tuple(x))
        iterations += run.iterations.tolist()
        evaluations += run.evaluations.tolist()

    x = np.array(best[1])
    ev = evaluate(problem, *_points(problem, x[None]), compiled, jac=True)
    res, model, gated = ev.residuals[0], ev.model[0], ev.gated[0]
    excl = np.flatnonzero(gated).tolist()
    rms, rms_field = _split_rms(compiled, res, excl)

    # covariance from the SVD of the weighted Jacobian at the optimum (J^T J
    # would square its condition number), scaled by the chi-square of the
    # points that are not gated (a gated point's constant cost says nothing
    # about the scatter).  A coordinate the data do not depend on (a zero
    # column) is undetermined; any other direction with a singular value
    # zero to rounding is left out by the pseudo-inverse.
    jac = ev.jacobian[0] * compiled.weights[:, None]
    weighted = res * compiled.weights
    chi2 = weighted @ weighted - np.sum(np.square(compiled.weights * compiled.gates)[excl])
    dof = max(1, total - len(excl) - len(names))
    cov = _scaled_inverse(jac, chi2 / dof)
    unconstrained = ~np.any(jac, axis=0)
    cov[unconstrained, unconstrained] = np.inf

    return FitResult(
        *_status(len(excl), total), tuple(names), x,
        _canonical_report(problem, x), rms, rms_field,
        res, model, tuple(excl), tuple(problem.covariance_names()), cov,
        tuple(sorted(restart_rms_list)), tuple(iterations), tuple(evaluations),
    )


def _scaled_inverse(jac: np.ndarray, scale: float) -> np.ndarray:
    """scale (J^T J)^+, from the SVD of J.

    A singular value at most max(N, P) eps times the largest is zero.
    """
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    null = s <= max(jac.shape) * np.finfo(float).eps * s.max(initial=0.0)
    inverse = np.where(null, 0.0, 1.0 / np.where(null, 1.0, s * s))
    cov = (vt.T * inverse) @ vt * scale
    return 0.5 * (cov + cov.T)


def _status(gated: int, total: int) -> tuple[bool, str]:
    """(success, message): a fit that gates more than half of its points fails."""
    if 2 * gated <= total:
        return True, f"converged, {gated} of {total} gated"
    return False, f"{gated} of {total} gated: more than half of the points are outliers"


def _split_rms(data: CompiledData, res, excluded) -> tuple[float, float | None]:
    """RMS of the points that are not gated: frequencies in MHz, EPR fields in mT.

    ``excluded`` holds the gated points' indices or a boolean mask of them.
    """
    kept = np.ones(res.size, dtype=bool)
    kept[excluded] = False
    freq = res[kept & ~data.is_epr]
    fld = res[kept & data.is_epr]
    rms = float(np.sqrt(np.mean(np.square(freq)))) * 1e3 if freq.size else 0.0
    rms_field = float(np.sqrt(np.mean(np.square(fld)))) if fld.size else None
    return rms, rms_field


def _canonical_report(problem: FitProblem, params: np.ndarray) -> dict:
    """Each fitted state's A as canonical angles, subsite and principal values."""
    site = problem.realized_site(params)
    report = {}
    for kind, state in problem.blocks:
        if kind == "angles":
            A = getattr(site, state).A
            angles, subsite = canonical_orientation(A)
            report[state] = {"angles_deg": angles.as_tuple(), "subsite": subsite,
                             "values_ghz": decompose_tensor(A).values}
    return report


def invert_and_seed(
    lines_ghz, site: SiteModel, state: str = "ground"
) -> tuple[tuple[float, float, float], FitProblem]:
    """Fix A eigenvalue magnitudes from zero-field lines and seed a fit.

    The analytic zero-field inversion gives the magnitudes; signs follow
    the current ordering hypothesis of the base site.  Returns
    (magnitudes, FitProblem fitting only that state's orientation).
    """
    if state not in STATES:
        raise ValueError(f"unknown state {state!r}")
    levels = reconstruct_levels(lines_ghz)
    mags = invert_zero_field(levels)
    sys = getattr(site, state)
    signs = [1.0 if v >= 0 else -1.0 for v in decompose_tensor(sys.A).values]
    new_sys = sys.with_principal(tuple(s * m for s, m in zip(signs, mags)))
    problem = FitProblem(
        site=replace(site, **{state: new_sys}),
        fit_ground=(state == "ground"),
        fit_excited=(state == "excited"),
    )
    return mags, problem
