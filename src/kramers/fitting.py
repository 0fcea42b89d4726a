"""Least-squares fitting of hyperfine-tensor orientations to transition data.

The g tensors and the A eigenvalue magnitudes (obtained analytically from
zero-field splittings) stay fixed; the free parameters are the Euler angles
of the ground and/or excited A tensor, optionally a small lab-misalignment
rotation and eigenvalue refinements.  A local least-squares refiner is
restarted from uniformly sampled angle seeds and the best optimum is
reported together with the restart spread and a Jacobian-based covariance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .hamiltonian import PAIR_HI, PAIR_LO, PAIRS, energies_sweep, invert_zero_field
from .lazy import SciPyFunction
from .magres import epr_resonance_fields
from .spectra import SiteModel
from .tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    assemble_tensor,
    decompose_tensor,
    rx,
    ry,
    rz,
    subsite_transform,
)

least_squares = SciPyFunction("scipy.optimize", "least_squares")
nnls = SciPyFunction("scipy.optimize", "nnls")

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
# largest RMS misfit (GHz) of the zero-field lines a level ladder may leave
LEVEL_TOL_GHZ = 2e-3

# each 3-wide block of a fit parameter vector, by kind: the name suffixes of
# its entries and the +/- bound on them
_BLOCK_KINDS = {
    "angles": (("alpha", "beta", "gamma"), 180.0),
    "misalignment": (("x", "y", "z"), MISALIGNMENT_BOUND_DEG),
    "deltas": (("dA1", "dA2", "dA3"), EIGENVALUE_BOUND_GHZ),
}


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
    the names, starting values, bounds and realized site all read it.
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
        that of the misalignment block is "mis".
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

    def initial_parameters(self) -> np.ndarray:
        x = [
            self.base_principal[owner].orientation.as_tuple() if kind == "angles" else (0.0, 0.0, 0.0)
            for kind, owner in self.blocks
        ]
        return np.array(x, dtype=float).reshape(-1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        hi = np.repeat([_BLOCK_KINDS[kind][1] for kind, _ in self.blocks], 3)
        return -hi, hi

    def realized_site(self, params: np.ndarray) -> SiteModel:
        """Apply a parameter vector to the base site model."""
        params = np.asarray(params, dtype=float)
        angles, deltas, mis = {}, {}, None
        for n, (kind, owner) in enumerate(self.blocks):
            x = params[3 * n : 3 * n + 3]
            if kind == "angles":
                angles[owner] = x
            elif kind == "deltas":
                deltas[owner] = x
            else:
                mis = rx(x[0]) @ ry(x[1]) @ rz(x[2])
        systems = {}
        for state in STATES:
            sys = getattr(self.site, state)
            if state in angles:
                values = np.array(self.base_principal[state].values) + deltas.get(state, 0.0)
                A = assemble_tensor(PrincipalTensor(tuple(values), EulerAngles(*angles[state])))
                sys = replace(sys, A=A)
            if mis is not None:
                # crystal axes as seen from the misaligned lab frame
                sys = replace(
                    sys,
                    A=SymmetricTensor3(mis @ sys.A.matrix @ mis.T),
                    g=SymmetricTensor3(mis @ sys.g.matrix @ mis.T),
                )
            systems[state] = sys
        return replace(self.site, **systems)


@dataclass(frozen=True, eq=False)
class _StateRows:
    """The shb/odmr points of one electronic state, as index arrays.

    ``idx`` are the points' positions in the data list; ``inverse`` maps
    each point to its row of ``fields`` (the distinct field vectors, so
    each field is diagonalized once).  ``labeled``/``unlabeled`` are
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
    """A data list in the array form ``residuals`` works on.

    ``fit`` compiles its data once instead of on every residual
    evaluation; ``epr`` pairs each EPR point's position with its unit
    sweep direction.  ``gates`` and ``weights`` (1/sigma, 0 for an
    infinite sigma) have one entry per point.
    """

    points: tuple[DataPoint, ...]
    states: tuple[_StateRows, ...]
    epr: tuple[tuple[int, np.ndarray], ...]
    is_epr: np.ndarray
    gates: np.ndarray
    weights: np.ndarray


def compile_data(data) -> CompiledData:
    """Validate a list of DataPoints and precompute the arrays of ``residuals``."""
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
        uniq, inverse = np.unique(fields, axis=0, return_inverse=True)
        labels = [points[n].label for n in idx]
        labeled = np.array([r for r, l in enumerate(labels) if l is not None], dtype=int)
        states.append(_StateRows(
            state=state,
            idx=idx,
            fields=uniq,
            inverse=inverse,
            values=np.array([points[n].value for n in idx]),
            labeled=labeled,
            lower=np.array([labels[r][0] for r in labeled]),
            upper=np.array([labels[r][1] for r in labeled]),
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
        epr.append((n, direction / norm))
    is_epr = np.array([p.kind == "epr" for p in points])
    sigmas = np.array([p.sigma for p in points], dtype=float)
    return CompiledData(
        points, tuple(states), tuple(epr), is_epr,
        gates=np.where(is_epr, GATE_FIELD_MT, GATE_FREQ_GHZ),
        weights=np.where(np.isfinite(sigmas), 1.0 / sigmas, 0.0),
    )


def residuals(problem: FitProblem, params, data, full: bool = False):
    """Observed-minus-model residuals for every data point, clipped at the gates.

    Labeled points compare against their own transition on the nearer of
    the two magnetic subsites; unlabeled points against the nearest of all
    twelve subsite transitions.  EPR points compare against the nearest
    resonance field at nu_mw, searched up to value + GATE_FIELD_MT; a point
    with no resonance there is beyond its gate.  Each residual is clipped
    to +/- its gate (GATE_FREQ_GHZ, or GATE_FIELD_MT for EPR), so a gated
    point costs a constant (gate/sigma)^2 and discarding data never lowers
    the cost.  ``data`` is a list of DataPoints or its ``compile_data``
    form.  With ``full`` it returns (residuals, model values, sorted
    indices of the gated points); a point without a model value has NaN.
    """
    if not isinstance(data, CompiledData):
        data = compile_data(data)
    site = problem.realized_site(np.asarray(params, dtype=float))
    raw = np.full(len(data.points), np.inf)
    model = np.full(len(data.points), np.nan)

    for rows in data.states:
        sys1 = site.ground if rows.state == "ground" else site.excited
        energies = [energies_sweep(sys1, rows.fields), energies_sweep(sys1.with_subsite(2), rows.fields)]
        idx, values = rows.idx, rows.values

        def assign(sel: np.ndarray, cands: np.ndarray):
            k = np.argmin(np.abs(cands - values[sel, None]), axis=1)
            model[idx[sel]] = cands[np.arange(sel.size), k]

        if rows.labeled.size:
            u = rows.inverse[rows.labeled]
            assign(rows.labeled, np.stack([e[u, rows.upper] - e[u, rows.lower] for e in energies], axis=1))
        if rows.unlabeled.size:
            u = rows.inverse[rows.unlabeled]
            cands = np.concatenate([e[u][:, PAIR_HI] - e[u][:, PAIR_LO] for e in energies], axis=1)
            assign(rows.unlabeled, cands)
        raw[idx] = values - model[idx]

    for n, direction in data.epr:
        p = data.points[n]
        sys1 = site.ground if p.state == "ground" else site.excited
        found = epr_resonance_fields(sys1, direction, problem.nu_mw_ghz, p.value + GATE_FIELD_MT)
        if p.label is not None:
            found = [r for r in found if r.transition == tuple(p.label)]
        if found:
            fields = np.array([r.field_mt for r in found])
            model[n] = fields[np.argmin(np.abs(fields - p.value))]
            raw[n] = p.value - model[n]

    res = np.clip(raw, -data.gates, data.gates)
    if full:
        gated = ~(np.abs(raw) <= data.gates)
        return res, model, np.flatnonzero(gated).tolist()
    return res


def closest_subsite_representative(
    tensor: SymmetricTensor3, reference: SymmetricTensor3
) -> SymmetricTensor3:
    """The subsite labelling of ``tensor`` nearest to ``reference``.

    Fits from subsite-degenerate field geometries determine the tensor only
    up to the C2-about-b reflection; comparisons against a known truth pick
    the representative with the smaller elementwise matrix distance.
    """
    flipped = subsite_transform(tensor)
    d_direct = np.abs(tensor.matrix - reference.matrix).max()
    d_flipped = np.abs(flipped.matrix - reference.matrix).max()
    return tensor if d_direct <= d_flipped else flipped


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
    covariance: np.ndarray
    restart_rms_mhz: tuple[float, ...]   # one per completed restart, ascending
    restart_errors: tuple[str, ...] = ()  # one per failed restart, in seed order


def fit(problem: FitProblem, data, restarts: int = 64, seed: int = 0) -> FitResult:
    """Multistart weighted least squares over the problem's free parameters.

    Restart seeds are the problem's own starting angles plus uniformly
    sampled angle triples; each seed is refined locally and the best local
    optimum wins (ties broken by lexicographically smaller parameters).
    The result is a success when at most half of the points are gated.
    """
    compiled = compile_data(data)
    total = len(compiled.points)
    names = problem.parameter_names()
    x0 = problem.initial_parameters()

    def fun(x):
        return residuals(problem, x, compiled) * compiled.weights

    if len(names) == 0:
        res, model, excl = residuals(problem, x0, compiled, full=True)
        rms, rms_field = _split_rms(compiled, res, excl)
        return FitResult(
            *_status(len(excl), total), tuple(names), x0,
            _canonical_report(problem, x0), rms, rms_field,
            res, model, tuple(excl), np.zeros((0, 0)), (rms,),
        )

    if total < len(names):
        raise ValueError(f"{total} points cannot determine {len(names)} parameters")

    lo, hi = problem.bounds()
    rng = np.random.default_rng(seed)
    best = None
    restart_rms_list = []
    errors = []
    for n in range(max(1, restarts)):
        # one seed drawn per restart: memory does not grow with ``restarts``
        x_start = x0 if n == 0 else rng.uniform(lo, hi)
        try:
            sol = least_squares(
                fun, np.clip(x_start, lo, hi), bounds=(lo, hi),
                method="trf", xtol=1e-8, ftol=1e-12, gtol=1e-14, max_nfev=250,
            )
        except Exception as exc:  # a failed restart is counted, and the others go on
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        r, _, ex = residuals(problem, sol.x, compiled, full=True)
        restart_rms_list.append(_split_rms(compiled, r, ex)[0])
        if best is None or (sol.cost, tuple(sol.x)) < (best[0], best[1]):
            best = (sol.cost, tuple(sol.x), sol)

    if best is None:
        raise RuntimeError(f"all {len(errors)} restarts failed (first: {errors[0]})")
    sol = best[2]
    res, model, excl = residuals(problem, sol.x, compiled, full=True)
    rms, rms_field = _split_rms(compiled, res, excl)

    # parameter covariance from the weighted Jacobian at the optimum, scaled
    # by the chi-square of the points that are not gated (a gated point's
    # constant cost says nothing about the scatter); a parameter the data
    # do not depend on (a zero column) is undetermined
    chi2 = 2.0 * sol.cost - np.sum(np.square(compiled.weights * compiled.gates)[excl])
    dof = max(1, total - len(excl) - len(names))
    jtj = sol.jac.T @ sol.jac
    cov = np.linalg.pinv(jtj) * (chi2 / dof)
    cov = 0.5 * (cov + cov.T)
    unconstrained = ~np.any(sol.jac, axis=0)
    cov[unconstrained, unconstrained] = np.inf

    return FitResult(
        *_status(len(excl), total), tuple(names), sol.x,
        _canonical_report(problem, sol.x), rms, rms_field,
        res, model, tuple(excl), cov, tuple(sorted(restart_rms_list)), tuple(errors),
    )


def _status(gated: int, total: int) -> tuple[bool, str]:
    """(success, message): a fit that gates more than half of its points fails."""
    if 2 * gated <= total:
        return True, f"converged, {gated} of {total} gated"
    return False, f"{gated} of {total} gated: more than half of the points are outliers"


def _split_rms(data: CompiledData, res, excluded) -> tuple[float, float | None]:
    """RMS of the points that are not gated: frequencies in MHz, EPR fields in mT."""
    kept = np.ones(res.size, dtype=bool)
    kept[excluded] = False
    freq = res[kept & ~data.is_epr]
    fld = res[kept & data.is_epr]
    rms = float(np.sqrt(np.mean(np.square(freq)))) * 1e3 if freq.size else 0.0
    rms_field = float(np.sqrt(np.mean(np.square(fld)))) if fld.size else None
    return rms, rms_field


def _canonical_report(problem: FitProblem, params: np.ndarray) -> dict:
    site = problem.realized_site(params)
    report = {}
    if problem.fit_ground:
        angles, subsite = canonical_orientation(site.ground.A)
        report["ground"] = {"angles_deg": angles.as_tuple(), "subsite": subsite,
                            "values_ghz": decompose_tensor(site.ground.A).values}
    if problem.fit_excited:
        angles, subsite = canonical_orientation(site.excited.A)
        report["excited"] = {"angles_deg": angles.as_tuple(), "subsite": subsite,
                             "values_ghz": decompose_tensor(site.excited.A).values}
    return report


# the six pairwise differences expressed in the gap basis (d1, d2, d3):
# E_j - E_i spans the gaps d_k with i <= k < j
_GAP_COMBOS = tuple(tuple(int(i <= k < j) for k in range(3)) for i, j in PAIRS)


def reconstruct_levels(lines_ghz) -> np.ndarray:
    """Four zero-field levels (sum 0) consistent with measured splittings.

    Measured lines are assigned injectively to the six pairwise differences
    of an ascending four-level ladder; each assignment is solved for the
    non-negative level gaps by least squares and the best-fitting assignment
    wins.  An incomplete line set can admit several exact ladders; ties are
    broken in favour of the largest central gap (the doublet-dominant
    structure of a large-|A3| hyperfine tensor), then lexicographically.
    Raises if even the best assignment misses by more than LEVEL_TOL_GHZ.
    """
    lines = np.sort(np.asarray(lines_ghz, dtype=float).ravel())
    if lines.size < 3:
        raise ValueError("need at least 3 zero-field splittings")
    if lines.size > 6:
        raise ValueError("a four-level system has at most 6 distinct splittings")
    best = None  # (rms, -central gap, gaps tuple)
    for combo in itertools.permutations(range(6), lines.size):
        C = np.array([_GAP_COMBOS[m] for m in combo], dtype=float)
        d, rnorm = nnls(C, lines)
        rms = rnorm / np.sqrt(lines.size)
        key = (round(rms / 1e-12) * 1e-12, -d[1], tuple(d))
        if best is None or key < best:
            best = key
    assert best is not None
    best_rms, best_d = best[0], np.array(best[2])
    levels = np.cumsum(np.concatenate(([0.0], best_d)))
    levels -= levels.mean()
    if best_rms > LEVEL_TOL_GHZ:
        fitted = np.sort([levels[j] - levels[i] for i, j in PAIRS])
        raise ValueError(
            f"no consistent 4-level solution within {LEVEL_TOL_GHZ * 1e3:.1f} MHz "
            f"(best RMS {best_rms * 1e3:.2f} MHz; closest splittings {fitted})"
        )
    return levels


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
    sys = site.ground if state == "ground" else site.excited
    signs = [1.0 if v >= 0 else -1.0 for v in decompose_tensor(sys.A).values]
    new_sys = sys.with_principal(tuple(s * m for s, m in zip(signs, mags)))
    new_site = replace(
        site,
        ground=new_sys if state == "ground" else site.ground,
        excited=new_sys if state == "excited" else site.excited,
    )
    problem = FitProblem(
        site=new_site,
        fit_ground=(state == "ground"),
        fit_excited=(state == "excited"),
    )
    return mags, problem
