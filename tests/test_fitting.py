import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import closed_form, closest_subsite_representative, eigh_reference
from kramers import fitting, hamiltonian
from kramers.fitting import (
    DataPoint,
    FitProblem,
    canonical_orientation,
    compile_data,
    fit,
    invert_and_seed,
    reconstruct_levels,
    residuals,
)
from kramers.hamiltonian import PAIR_HI, PAIR_LO, energies_sweep, eigensystem, hamiltonian_stack
from kramers.magres import epr_resonance_fields
from kramers.presets import SITE_I, SITE_II
from kramers.tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    assemble_tensor,
    decompose_tensor,
    rx,
    ry,
    rz,
)

PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
TRUTH = decompose_tensor(SITE_I.ground.A)
TRUTH_ANGLES = np.array(TRUTH.orientation.as_tuple())


def ground_data(directions, step_mt=2.0, noise=0.0, seed=0, sigma=2e-3):
    rng = np.random.default_rng(seed)
    data = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        mags = np.arange(step_mt, 150.1, step_mt)
        e = energies_sweep(SITE_I.ground, mags[:, None] * d[None, :])
        for row, m in enumerate(mags):
            for (i, j) in PAIRS:
                nu = e[row, j] - e[row, i] + (rng.normal(0, noise) if noise else 0.0)
                data.append(DataPoint("shb", "ground", tuple(m * d), nu, sigma, (i, j)))
    return data


def perturbed_problem(max_offset_deg, seed):
    rng = np.random.default_rng(seed)
    pert = TRUTH_ANGLES + rng.uniform(-max_offset_deg, max_offset_deg, 3)
    site = replace(
        SITE_I,
        ground=replace(
            SITE_I.ground,
            A=assemble_tensor(PrincipalTensor(TRUTH.values, EulerAngles(*pert))),
        ),
    )
    return FitProblem(site=site)


def angle_errors(problem, result):
    fitted = problem.realized_site(result.parameters).ground.A
    rep = closest_subsite_representative(fitted, SITE_I.ground.A)
    ang = np.array(decompose_tensor(rep).orientation.as_tuple())
    return np.abs((ang - TRUTH_ANGLES + 180.0) % 360.0 - 180.0)


class TestResiduals:
    def test_zero_at_truth(self):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=10.0)
        r = residuals(FitProblem(site=SITE_I), TRUTH_ANGLES, data)
        assert np.abs(r).max() < 1e-9

    def test_zero_field_odmr_points(self):
        # measured zero-field lines against the canonical site-I parameters
        lines_mhz = [2046.0, 2385.0, 2869.0, 3208.0]
        data = [
            DataPoint("odmr", "ground", (0.0, 0.0, 0.0), f * 1e-3, 0.5e-3)
            for f in lines_mhz
        ]
        r = residuals(FitProblem(site=SITE_I), TRUTH_ANGLES, data)
        assert np.abs(r).max() * 1e3 < 1.0

    def test_gate_flags_far_points_without_crash(self):
        rng = np.random.default_rng(50)
        data = ground_data([(1, 0, 0)], step_mt=20.0)
        data.append(DataPoint("shb", "ground", (10.0, 0.0, 0.0), 99.0, 2e-3, (0, 1)))
        for _ in range(5):
            params = rng.uniform(-180, 180, 3)
            r, model, excluded = residuals(FitProblem(site=SITE_I), params, data, full=True)
            assert len(data) - 1 in excluded
            assert r[len(data) - 1] == fitting.GATE_FREQ_GHZ  # clipped, not dropped

    def test_unlabeled_points_use_nearest_transition(self):
        es = eigensystem(SITE_I.ground, (40.0, 0.0, 0.0))
        nu = es.energies[2] - es.energies[1]
        point = DataPoint("shb", "ground", (40.0, 0.0, 0.0), nu + 1e-4, 2e-3, None)
        r = residuals(FitProblem(site=SITE_I), TRUTH_ANGLES, [point])
        assert r[0] == pytest.approx(1e-4, abs=1e-9)

    def test_objective_invariant_under_simultaneous_subsite_transform(self):
        data = ground_data([(1, 0, 0), (0, 0, 1)], step_mt=25.0)
        p1 = FitProblem(site=SITE_I)
        p2 = FitProblem(site=SITE_I.with_subsite(2))
        r1 = residuals(p1, p1.initial_parameters(), data)
        r2 = residuals(p2, p2.initial_parameters(), data)
        assert np.abs(np.sort(np.abs(r1)) - np.sort(np.abs(r2))).max() < 1e-9

    def test_epr_points_compare_resonance_fields(self):
        from kramers.magres import epr_resonance_fields

        found = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 300.0)
        assert found
        res_field = found[0].field_mt
        on = DataPoint("epr", "ground", (1.0, 0.0, 0.0), res_field, 0.5, found[0].transition)
        off = DataPoint("epr", "ground", (1.0, 0.0, 0.0), res_field + 2.0, 0.5, found[0].transition)
        problem = FitProblem(site=SITE_I)
        r = residuals(problem, TRUTH_ANGLES, [on, off])
        assert abs(r[0]) < 2e-3  # matches to the bisection tolerance
        assert r[1] == pytest.approx(2.0, abs=2e-3)

    def test_epr_point_with_no_resonance_excluded(self):
        # 50 MHz is below every splitting: no resonance to compare against
        point = DataPoint("epr", "ground", (1.0, 0.0, 0.0), 100.0, 0.5)
        problem = FitProblem(site=SITE_I, nu_mw_ghz=0.05)
        r, model, excluded = residuals(problem, TRUTH_ANGLES, [point], full=True)
        assert excluded == [0]
        assert r[0] == fitting.GATE_FIELD_MT  # beyond its gate, at the gate's cost

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            residuals(FitProblem(site=SITE_I), TRUTH_ANGLES, [])


def mixed_data():
    """Labeled and unlabeled ground points (shared fields), excited points,
    EPR points with and without a label, and one far outlier."""
    es = eigensystem(SITE_I.ground, (40.0, 0.0, 0.0))
    nu = es.energies[2] - es.energies[1]
    data = ground_data([(1, 0, 1)], step_mt=30.0, noise=1e-3, seed=4)
    data += [
        DataPoint("shb", "ground", (40.0, 0.0, 0.0), nu + 1e-4, 2e-3, None),
        DataPoint("odmr", "ground", (0.0, 0.0, 0.0), 2.046, 0.5e-3),
        DataPoint("odmr", "ground", (0.0, 0.0, 0.0), 40.0, 0.5e-3),  # gated outlier
        DataPoint("shb", "excited", (0.0, 30.0, 5.0), 1.1, 2e-3, (1, 2)),
        DataPoint("shb", "excited", (0.0, 30.0, 5.0), 2.3, 2e-3),
        DataPoint("epr", "ground", (1.0, 0.0, 0.0), 150.0, 0.5),
        DataPoint("epr", "excited", (0.0, 2.0, 1.0), 300.0, 0.5, (0, 3)),
    ]
    return data


class TestCompiledData:
    PROBLEM = FitProblem(site=SITE_I, fit_ground=True, fit_excited=True)

    def assert_same(self, params, data):
        plain = residuals(self.PROBLEM, params, data, full=True)
        compiled = residuals(self.PROBLEM, params, compile_data(data), full=True)
        np.testing.assert_array_equal(plain[0], compiled[0])
        np.testing.assert_array_equal(plain[1], compiled[1])
        assert plain[2] == compiled[2]
        return plain

    def test_mixed_data_bit_identical(self):
        data = mixed_data()
        rng = np.random.default_rng(8)
        x0 = self.PROBLEM.initial_parameters()
        for params in (x0, x0 + rng.uniform(-20, 20, x0.size)):
            res, model, excluded = self.assert_same(params, data)
            assert any(data[n].value == 40.0 for n in excluded)  # the gated outlier
            assert np.isfinite(model[-2])  # the EPR point found a resonance

    def test_single_state_bit_identical(self):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=25.0, noise=1e-3, seed=9)
        self.assert_same(self.PROBLEM.initial_parameters(), data)

    def test_compiled_form_reusable_across_parameters(self):
        compiled = compile_data(mixed_data())
        x0 = self.PROBLEM.initial_parameters()
        first = residuals(self.PROBLEM, x0, compiled)
        residuals(self.PROBLEM, x0 + 5.0, compiled)
        np.testing.assert_array_equal(residuals(self.PROBLEM, x0, compiled), first)

    def test_rejects_empty_data_and_zero_epr_direction(self):
        with pytest.raises(ValueError, match="no data points"):
            compile_data([])
        with pytest.raises(ValueError, match="nonzero direction"):
            compile_data([DataPoint("epr", "ground", (0.0, 0.0, 0.0), 100.0, 0.5)])
        for value in (-100.0, -10.0, 0.0):
            with pytest.raises(ValueError, match="must be positive"):
                compile_data([DataPoint("epr", "ground", (1.0, 0.0, 0.0), value, 0.5)])


def explicit_realized_site(problem, params):
    """The site a parameter vector stands for, built by walking the four
    flags and decomposing each base A on every call: the reference for
    ``FitProblem.realized_site``, which is the fit's own ``_realize`` at
    one parameter vector."""
    params = np.asarray(params, dtype=float)
    states = [s for s, on in (("ground", problem.fit_ground), ("excited", problem.fit_excited)) if on]
    pos, angles, deltas, mis = 0, {}, {}, None
    for state in states:
        angles[state] = params[pos : pos + 3]
        pos += 3
    if problem.fit_misalignment:
        mis = rx(params[pos]) @ ry(params[pos + 1]) @ rz(params[pos + 2])
        pos += 3
    if problem.refine_eigenvalues:
        for state in states:
            deltas[state] = params[pos : pos + 3]
            pos += 3
    systems = {}
    for state in ("ground", "excited"):
        sys1 = getattr(problem.site, state)
        if state in angles:
            p = decompose_tensor(sys1.A)
            values = np.array(p.values) + deltas.get(state, 0.0)
            A = assemble_tensor(PrincipalTensor(tuple(values), EulerAngles(*angles[state])))
            sys1 = replace(sys1, A=A)
        if mis is not None:
            sys1 = replace(
                sys1,
                A=SymmetricTensor3(mis @ sys1.A.matrix @ mis.T),
                g=SymmetricTensor3(mis @ sys1.g.matrix @ mis.T),
            )
        systems[state] = sys1
    return systems


# (fit_ground, fit_excited, fit_misalignment, refine_eigenvalues), with ids
# such as "GE-V" naming the groups that are on
FLAGS = list(itertools.product((False, True), repeat=4))
FLAG_IDS = ["".join(c if on else "-" for c, on in zip("GEMV", f)) for f in FLAGS]


class TestParameterLayout:
    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    def test_realized_site_bit_identical_to_explicit_path(self, site, flags):
        ground, excited, mis, eigen = flags
        problem = FitProblem(site=site, fit_ground=ground, fit_excited=excited,
                             fit_misalignment=mis, refine_eigenvalues=eigen)
        lo, hi = problem.bounds()
        rng = np.random.default_rng(sum(f << k for k, f in enumerate(flags)))
        for x in [problem.initial_parameters()] + [rng.uniform(lo, hi) for _ in range(10)]:
            realized = problem.realized_site(x)
            expected = explicit_realized_site(problem, x)
            for state in ("ground", "excited"):
                got, want = getattr(realized, state), expected[state]
                assert np.array_equal(got.A.matrix, want.A.matrix)
                assert np.array_equal(got.g.matrix, want.g.matrix)

    def test_names_start_and_bounds_follow_the_blocks(self):
        problem = FitProblem(site=SITE_I, fit_ground=True, fit_excited=True,
                             fit_misalignment=True, refine_eigenvalues=True)
        assert problem.parameter_names() == [
            "ground_alpha", "ground_beta", "ground_gamma",
            "excited_alpha", "excited_beta", "excited_gamma",
            "mis_x", "mis_y", "mis_z",
            "ground_dA1", "ground_dA2", "ground_dA3",
            "excited_dA1", "excited_dA2", "excited_dA3",
        ]
        x0 = problem.initial_parameters()
        assert tuple(x0[:3]) == decompose_tensor(SITE_I.ground.A).orientation.as_tuple()
        assert tuple(x0[3:6]) == decompose_tensor(SITE_I.excited.A).orientation.as_tuple()
        assert not x0[6:].any()
        lo, hi = problem.bounds()
        np.testing.assert_array_equal(hi, np.repeat(
            [180.0, 180.0, fitting.MISALIGNMENT_BOUND_DEG, fitting.EIGENVALUE_BOUND_GHZ,
             fitting.EIGENVALUE_BOUND_GHZ], 3))
        np.testing.assert_array_equal(lo, -hi)
        empty = FitProblem(site=SITE_I, fit_ground=False)
        assert empty.parameter_names() == [] and empty.initial_parameters().shape == (0,)

    def test_residuals_make_no_decompose_call(self, monkeypatch):
        problem = FitProblem(site=SITE_I, fit_ground=True, fit_excited=True,
                             fit_misalignment=True, refine_eigenvalues=True)
        data = compile_data(mixed_data())
        x0 = problem.initial_parameters()  # as fit does before its first residual call
        calls = []

        def counting(t):
            calls.append(t)
            return decompose_tensor(t)

        for name, module in list(sys.modules.items()):
            if name.startswith("kramers") and hasattr(module, "decompose_tensor"):
                monkeypatch.setattr(module, "decompose_tensor", counting)
        rng = np.random.default_rng(12)
        for _ in range(5):
            residuals(problem, x0 + rng.uniform(-0.01, 0.01, x0.size), data)
        assert calls == []


class TestFit:
    def test_exact_recovery_property(self):
        # noise-free synthetic data: RMS < 1e-6 GHz
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=2.0)
        problem = perturbed_problem(15.0, seed=7)
        result = fit(problem, data, restarts=4, seed=7)
        assert result.rms_mhz * 1e-3 < 1e-6
        assert result.success

    def test_noise_free_recovery_from_near_start(self):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=2.0)
        problem = perturbed_problem(2.0, seed=11)
        result = fit(problem, data, restarts=1, seed=11)
        assert angle_errors(problem, result).max() < 1e-2

    def test_infinite_sigma_point_leaves_optimum_unchanged(self):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=10.0)
        problem = perturbed_problem(3.0, seed=13)
        base = fit(problem, data, restarts=1, seed=13)
        data_inf = data + [
            DataPoint("shb", "ground", (50.0, 0.0, 0.0), 7.77, np.inf, (0, 3))
        ]
        with_inf = fit(problem, data_inf, restarts=1, seed=13)
        assert np.abs(base.parameters - with_inf.parameters).max() < 1e-8

    def test_zero_free_parameters_returns_input(self):
        data = ground_data([(1, 0, 0)], step_mt=25.0, noise=1e-3, seed=3)
        problem = FitProblem(site=SITE_I, fit_ground=False, fit_excited=False)
        result = fit(problem, data, restarts=8, seed=3)
        assert result.parameters.size == 0
        raw = residuals(problem, np.array([]), data)
        assert result.rms_mhz == pytest.approx(np.sqrt(np.mean(raw**2)) * 1e3)

    def test_single_direction_covariance_larger(self):
        # ill-conditioning shows in the Jacobian covariance.  One field
        # direction leaves one direction of the orientation exactly
        # undetermined: J has a singular value zero to rounding there (it
        # is no zero column, so no sigma is inf), the pseudo-inverse leaves
        # that direction out, and the covariance is PSD of rank 2
        noise, sigma = 1e-3, 1e-3
        problem = FitProblem(site=SITE_I)
        fits = {}
        for n, directions in ((2, [(1, 0, 0), (0, 0, 1)]), (1, [(1, 0, 0)])):
            data = ground_data(directions, step_mt=10.0, noise=noise, seed=5, sigma=sigma)
            fits[n] = fit(problem, data, restarts=1, seed=5)
            jac, r = TestCovarianceAndRestarts.weighted_jacobian(problem, fits[n], data)
            # the scaled pseudo-inverse of J^T J, bit for bit, before any inf
            pinv = TestCovarianceAndRestarts.svd_inverse(jac, (r @ r) / (len(data) - 3))
            assert np.array_equal(fits[n].covariance, pinv)
            fits[n, "svd"] = np.linalg.svd(jac, full_matrices=False)
        var1 = np.diag(fits[1].covariance)
        var2 = np.diag(fits[2].covariance)
        assert var1.max() > var2.max()
        assert np.all(np.isfinite(var1)) and np.all(np.isfinite(var2))
        for cov in (fits[1].covariance, fits[2].covariance):
            assert cov.shape == (3, 3)
            assert np.abs(cov - cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(fits[2].covariance).min() > -1e-12
        s2 = fits[2, "svd"][1]
        assert s2[-1] > 1e-8 * s2[0]  # two directions determine every rotation
        _, s1, vt1 = fits[1, "svd"]
        assert s1[-1] < 1e-13 * s1[0] < s1[1]
        # rank 2: an eigenvalue zero to rounding (1e-12 of the largest) along
        # J's null direction, and the other two positive
        w, v = np.linalg.eigh(fits[1].covariance)
        assert abs(w[0]) < 1e-12 * w[-1] and w[1] > 0
        assert abs(v[:, 0] @ vt1[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_restart_statistics_reported(self):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=20.0, noise=2e-3, seed=9)
        result = fit(perturbed_problem(10.0, seed=9), data, restarts=3, seed=9)
        assert len(result.restart_rms_mhz) == 3
        assert result.restart_rms_mhz[0] <= result.restart_rms_mhz[-1]

    def test_too_few_points_rejected(self):
        data = ground_data([(1, 0, 0)], step_mt=150.0)[:2]
        with pytest.raises(ValueError):
            fit(FitProblem(site=SITE_I), data)

    def test_unmatchable_data_reports_failure(self):
        # values 50+ GHz away from any transition: everything gets gated
        data = [
            DataPoint("shb", "ground", (m, 0.0, 0.0), 50.0 + m, 2e-3, (0, 1))
            for m in (10.0, 20.0, 30.0, 40.0)
        ]
        result = fit(FitProblem(site=SITE_I), data, restarts=2, seed=0)
        assert not result.success
        assert "outliers" in result.message
        assert set(result.excluded) == {0, 1, 2, 3}

    def test_gating_data_never_lowers_the_cost(self):
        # transitions 1-2, 2-3, 3-4 along D1 and b: a fit that gated the
        # whole D1 half once cost less than the true orientation
        rng = np.random.default_rng(0)
        data = []
        for d in (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0])):
            mags = np.arange(25.0, 150.1, 25.0)
            e = energies_sweep(SITE_I.ground, mags[:, None] * d[None, :])
            for row, m in enumerate(mags):
                for (i, j) in ((0, 1), (1, 2), (2, 3)):
                    nu = e[row, j] - e[row, i] + rng.normal(0, 1e-3)
                    data.append(DataPoint("shb", "ground", tuple(m * d), nu, 2e-3, (i, j)))
        for seed in range(4):
            result = fit(FitProblem(site=SITE_I), data, restarts=4, seed=seed)
            assert (result.success, result.message) == (True, "converged, 0 of 36 gated")

    @pytest.mark.parametrize("fit_ground", [True, False], ids=["free", "no-free-parameters"])
    def test_ok_while_at_most_half_gated(self, fit_ground):
        good = ground_data([(1, 0, 0)], step_mt=50.0)
        far = DataPoint("shb", "ground", (10.0, 0.0, 0.0), 50.0, 2e-3, (0, 1))
        problem = FitProblem(site=SITE_I, fit_ground=fit_ground)
        ok = fit(problem, good[:4] + [far] * 4, restarts=1, seed=0)
        assert (ok.success, ok.message) == (True, "converged, 4 of 8 gated")
        failed = fit(problem, good[:3] + [far] * 5, restarts=1, seed=0)
        assert not failed.success
        assert failed.message.startswith("5 of 8 gated") and "outliers" in failed.message

    def test_misalignment_recovery(self):
        # data from a model tilted 2 deg about D1; only the misalignment free
        tilt_problem = FitProblem(site=SITE_I, fit_ground=False, fit_misalignment=True)
        tilted_site = tilt_problem.realized_site(np.array([2.0, 0.0, 0.0]))
        data = []
        for d in (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0])):
            mags = np.arange(20.0, 150.1, 20.0)
            e = energies_sweep(tilted_site.ground, mags[:, None] * d[None, :])
            for row, m in enumerate(mags):
                for (i, j) in PAIRS:
                    data.append(
                        DataPoint("shb", "ground", tuple(m * d), e[row, j] - e[row, i], 2e-3, (i, j))
                    )
        result = fit(tilt_problem, data, restarts=1, seed=2)
        assert result.rms_mhz < 0.1
        assert result.parameters[0] == pytest.approx(2.0, abs=0.05)
        assert np.abs(result.parameters).max() <= 5.0  # bound respected

    @staticmethod
    def model_data(problem, truth):
        """Noise-free labeled ground SHB points of the site ``truth`` realizes,
        along D1, b and (0, 1, 1)/sqrt(2)."""
        site = problem.realized_site(np.array(truth, dtype=float))
        data = []
        for d in (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]), np.array([0.0, 1.0, 1.0]) / np.sqrt(2)):
            mags = np.arange(20.0, 150.1, 20.0)
            e = energies_sweep(site.ground, mags[:, None] * d[None, :])
            for row, m in enumerate(mags):
                for (i, j) in PAIRS:
                    data.append(DataPoint("shb", "ground", tuple(m * d), e[row, j] - e[row, i], 2e-3, (i, j)))
        return data

    BOUNDED = [
        (dict(fit_ground=False, fit_misalignment=True), (0, 0, 0), (5.0, 1.0, -0.5)),
        (dict(fit_ground=False, fit_misalignment=True), (0, 0, 0), (4.9, -2.0, 0.5)),
        (dict(refine_eigenvalues=True), tuple(TRUTH_ANGLES), (0.05, -0.05, 0.02)),
    ]

    @pytest.mark.parametrize("flags, angles, truth", BOUNDED, ids=["mis-at-bound", "mis-near-bound", "deltas-at-bound"])
    def test_recovery_at_and_near_a_bound(self, flags, angles, truth):
        problem = FitProblem(site=SITE_I, **flags)
        truth = np.array([*angles, *truth][-len(problem.parameter_names()):], dtype=float)
        result = fit(problem, self.model_data(problem, truth), restarts=1, seed=2)
        assert result.rms_mhz < 1e-3
        np.testing.assert_allclose(result.parameters[-3:], truth[-3:], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("flags, angles, truth, coordinate", [
        (dict(fit_ground=False, fit_misalignment=True), (0, 0, 0), (6.0, 1.0, -0.5), 0),
        (dict(refine_eigenvalues=True), tuple(TRUTH_ANGLES), (0.05, -0.06, 0.02), 4),
    ], ids=["misalignment", "deltas"])
    def test_fit_past_a_bound_stops_at_the_constrained_minimum(self, flags, angles, truth, coordinate):
        # the truth lies past one bound: the fit must end on that bound, with
        # the cost flat in every other coordinate and falling only outward
        problem = FitProblem(site=SITE_I, **flags)
        truth = np.array([*angles, *truth][-len(problem.parameter_names()):], dtype=float)
        data = compile_data(self.model_data(problem, truth))
        result = fit(problem, data.points, restarts=1, seed=2)
        lo, hi = problem.bounds()
        bound = hi[coordinate] if truth[coordinate] > hi[coordinate] else lo[coordinate]
        assert result.parameters[coordinate] == bound
        ev = fitting.evaluate(problem, *fitting._points(problem, result.parameters[None]), data)
        # half the gradient of the cost; the residuals are observed minus model
        grad = ev.jacobian[0].T @ (ev.residuals[0] * data.weights**2)
        assert np.sign(grad[coordinate]) == -np.sign(bound)
        free = np.arange(grad.size) != coordinate
        assert np.abs(grad[free]).max() < 1e-4 * abs(grad[coordinate])

    def test_parameter_names_and_bounds(self):
        problem = FitProblem(
            site=SITE_I, fit_ground=True, fit_excited=True,
            fit_misalignment=True, refine_eigenvalues=True,
        )
        names = problem.parameter_names()
        assert len(names) == 15
        lo, hi = problem.bounds()
        assert lo.size == 15
        assert hi[names.index("mis_x")] == 5.0
        assert hi[names.index("ground_dA1")] == fitting.EIGENVALUE_BOUND_GHZ

    def test_excited_state_fit(self):
        rng = np.random.default_rng(60)
        data = []
        for d in (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0])):
            mags = np.arange(10.0, 150.1, 10.0)
            e = energies_sweep(SITE_I.excited, mags[:, None] * d[None, :])
            for row, m in enumerate(mags):
                for (i, j) in PAIRS:
                    data.append(
                        DataPoint("shb", "excited", tuple(m * d), e[row, j] - e[row, i], 2e-3, (i, j))
                    )
        problem = FitProblem(site=SITE_I, fit_ground=False, fit_excited=True)
        result = fit(problem, data, restarts=1, seed=1)
        assert result.rms_mhz < 1e-3
        assert "excited" in result.canonical_angles


# every free group on: columns 0-5 turn the ground and excited A about
# their principal axes, 6-8 tilt the lab frame, 9-14 shift the eigenvalues
FULL_FLAGS = dict(fit_ground=True, fit_excited=True, fit_misalignment=True, refine_eigenvalues=True)
SEPARATION_GHZ = 0.02  # levels, and a point's candidate transitions, at least this far apart


def fit_point(site, angles_g, angles_e, mis, deltas):
    """A FitProblem with every group free, and one parameter vector of it."""
    problem = FitProblem(site=site, **FULL_FLAGS)
    return problem, np.array([*angles_g, *angles_e, *mis, *deltas], dtype=float)


def central_differences(problem, x, data, h_deg=1e-3, h_ghz=1e-6):
    """d model / d coordinate by central differences, (N, 15): an angle
    column turns its A by a body-frame rotation (rx, ry, rz about the
    principal axes); the others shift the parameter."""
    rotations, flat = fitting._points(problem, x[None])
    columns = []
    for c in range(3 * len(problem.blocks)):
        h = h_ghz if c >= 9 else h_deg

        def model(step):
            rot, fl = rotations.copy(), flat.copy()
            if c < 6:
                rot[0, c // 3] = rotations[0, c // 3] @ (rx, ry, rz)[c % 3](step)
            else:
                fl[0, c - 6] += step
            return fitting.evaluate(problem, rot, fl, data).model[0]

        columns.append((model(h) - model(-h)) / (2 * h))
    return np.stack(columns, axis=1)


sites = st.sampled_from([SITE_I, SITE_II])
angle = st.floats(-180.0, 180.0)
angles = st.tuples(angle, st.floats(5.0, 175.0), angle)
tilt = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
shifts = st.tuples(*[st.floats(-0.03, 0.03)] * 6)
azimuths = st.floats(-180.0, 180.0)


def unit_vector(azimuth_deg, elevation_deg):
    a, e = np.radians(azimuth_deg), np.radians(elevation_deg)
    return np.array([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)])


# every direction on the sphere
sphere = st.tuples(azimuths, st.floats(-90.0, 90.0)).map(lambda t: unit_vector(*t))
# out of the D1-D2 plane, where the two subsites differ: ``separated_field``
# decides at which fields they differ enough
oblique = st.tuples(azimuths, st.floats(2.0, 90.0), st.sampled_from([1.0, -1.0])).map(
    lambda t: unit_vector(t[0], t[2] * t[1]))
# and exactly in that plane or along b, where they see the same levels
directions = st.one_of(oblique, azimuths.map(lambda a: unit_vector(a, 0.0)),
                       st.sampled_from([np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]))


def separated_field(realized, direction, magnitude, unlabeled_state):
    """The field along ``direction`` nearest ``magnitude`` mT, of it and 5, 10, ...,
    150 mT, where adjacent levels are apart and each point's chosen transition
    is nearer than every other candidate by a margin; with each state's
    (subsite, pair) frequencies there.  None if there is no such field.
    """
    # in the D1-D2 plane or along b the subsites see the same levels
    symmetric = direction[2] == 0 or not direction[:2].any()
    mags = np.unique(np.concatenate([[magnitude], np.arange(5.0, 150.1, 5.0)]))
    mags = mags[np.argsort(np.abs(mags - magnitude), kind="stable")]
    fields = mags[:, None] * direction / np.linalg.norm(direction)
    ok = np.ones(mags.size, dtype=bool)
    freqs = {}
    for state in fitting.STATES:
        sys1 = getattr(realized, state)
        e = np.stack([energies_sweep(sys1.with_subsite(s), fields) for s in (1, 2)], axis=1)
        f = (e[..., PAIR_HI] - e[..., PAIR_LO])[:, :1 if symmetric else 2]  # (field, subsite, pair)
        ok &= f[:, :, [0, 3, 5]].min(axis=(1, 2)) > SEPARATION_GHZ
        ok &= np.all(np.abs(f[:, 1:] - f[:, :1]) > SEPARATION_GHZ, axis=(1, 2))
        if state == unlabeled_state:
            flat = f.reshape(mags.size, -1)
            ok &= np.all(np.abs(flat[:, 1:] - flat[:, :1]) > SEPARATION_GHZ, axis=1)
        freqs[state] = f
    if not ok.any():
        return None
    k = int(np.argmax(ok))
    return tuple(fields[k]), {state: f[k] for state, f in freqs.items()}


class TestAnalyticJacobian:
    """Every Jacobian column against a central difference of the model."""

    @settings(max_examples=30, deadline=None)
    @given(sites, angles, angles, tilt, shifts, directions, st.floats(5.0, 150.0),
           st.sampled_from(fitting.STATES))
    def test_frequency_columns(self, site, angles_g, angles_e, mis, deltas, direction, magnitude, unlabeled_state):
        problem, x = fit_point(site, angles_g, angles_e, mis, deltas)
        separated = separated_field(problem.realized_site(x), direction, magnitude, unlabeled_state)
        assume(separated is not None)
        field, freqs = separated
        data = []
        for state in fitting.STATES:
            for (i, j), f in zip(zip(PAIR_LO, PAIR_HI), freqs[state][0]):
                data.append(DataPoint("shb", state, field, f, 2e-3, (int(i), int(j))))
            if state == unlabeled_state:
                data.append(DataPoint("shb", state, field, freqs[state][0, 0] + 1e-4, 2e-3))
        compiled = compile_data(data)
        ev = fitting.evaluate(problem, *fitting._points(problem, x[None]), compiled)
        assert not ev.gated.any()
        fd = central_differences(problem, x, compiled)
        for c, name in enumerate(problem.covariance_names()):
            # eigenvalues round at ~1e-14 GHz: over the 2e-6 GHz span of an
            # eigenvalue shift that is ~1e-8
            atol = 1e-7 if c >= 9 else 1e-9
            np.testing.assert_allclose(ev.jacobian[0][:, c], -fd[:, c], rtol=1e-5, atol=atol, err_msg=name)

    @settings(max_examples=10, deadline=None)
    @given(sites, angles, angles, tilt, shifts, sphere, st.sampled_from(fitting.STATES), st.data())
    def test_epr_field_columns(self, site, angles_g, angles_e, mis, deltas, direction, state, draw):
        problem, x = fit_point(site, angles_g, angles_e, mis, deltas)
        sys1 = getattr(problem.realized_site(x), state)
        hits = epr_resonance_fields(sys1, direction, problem.nu_mw_ghz, 600.0)
        assume(hits)
        hit = draw.draw(st.sampled_from(hits))
        # the nearest resonance of its transition by a margin, and not at a turning point
        same = [r.field_mt for r in hits if r.transition == hit.transition and r is not hit]
        assume(all(abs(f - hit.field_mt) > 5.0 for f in same) and hit.field_mt > 5.0)
        point = DataPoint("epr", state, tuple(direction), hit.field_mt, 0.5, hit.transition)
        compiled = compile_data([point])
        ev = fitting.evaluate(problem, *fitting._points(problem, x[None]), compiled)
        assert abs(ev.residuals[0, 0]) < fitting.GATE_FIELD_MT / 1e4  # the same resonance
        fd = central_differences(problem, x, compiled)
        for c, name in enumerate(problem.covariance_names()):
            np.testing.assert_allclose(ev.jacobian[0][0, c], -fd[0, c], rtol=1e-4, atol=1e-6, err_msg=name)

    def test_epr_model_is_a_resonance(self):
        # the Newton-refined field meets nu_mw to far better than the bisection tolerance
        problem = FitProblem(site=SITE_I)
        hit = epr_resonance_fields(SITE_I.ground, (1.0, 0.0, 0.0), 9.7, 300.0)[0]
        point = DataPoint("epr", "ground", (1.0, 0.0, 0.0), hit.field_mt, 0.5, hit.transition)
        model = residuals(problem, problem.initial_parameters(), [point], full=True)[1][0]
        sys1 = SITE_I.ground.with_subsite(hit.subsite)
        e = energies_sweep(sys1, np.array([[model, 0.0, 0.0]]))[0]
        i, j = hit.transition
        assert abs(e[j] - e[i] - 9.7) < 1e-9


class TestEprStack:
    """EPR points: one resonance search per state for all restarts, on the fit's own tensors."""

    PROBLEM = FitProblem(site=SITE_I, **FULL_FLAGS)

    @staticmethod
    def epr_data():
        hit = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 300.0)[0]
        excited = epr_resonance_fields(SITE_I.excited, (1, 0, 0), 9.7, 300.0)[2]
        return [
            DataPoint("shb", "ground", (30.0, 0.0, 10.0), 2.6, 2e-3, (0, 1)),
            DataPoint("epr", "ground", (1.0, 0.0, 0.0), hit.field_mt + 0.3, 0.5, hit.transition),
            DataPoint("epr", "ground", (0.0, 1.0, 1.0), 240.0, 0.5),
            # the 1-2 branch stays far below 9.7 GHz up to 55 mT: no resonance
            DataPoint("epr", "ground", (0.0, 0.0, 1.0), 5.0, 0.5, (0, 1)),
            DataPoint("epr", "excited", (2.0, 1.0, 0.5), 200.0, 0.5),
            DataPoint("epr", "excited", (1.0, 0.0, 0.0), excited.field_mt - 0.2, 0.5, excited.transition),
        ]

    def test_stack_equals_single_points_with_one_search_per_state(self, monkeypatch):
        data = compile_data(self.epr_data())
        rng = np.random.default_rng(21)
        x0 = self.PROBLEM.initial_parameters()
        xs = np.array([x0] + [x0 + np.r_[rng.uniform(-20, 20, 6), rng.uniform(-3, 3, 3), rng.uniform(-0.02, 0.02, 6)]
                              for _ in range(4)])
        searches = []

        def counted(*args, **kwargs):
            searches.append((args[0].shape, args[2].shape))
            return search(*args, **kwargs)

        search = fitting.resonance_search
        monkeypatch.setattr(fitting, "resonance_search", counted)
        stack = fitting.evaluate(self.PROBLEM, *fitting._points(self.PROBLEM, xs), data)
        # one per state: the 5 restarts' own tensors along each point's ray and its C2 image, for all points at once
        assert searches == [((5, 1, 3, 3), (3, 1, 2, 3)), ((5, 1, 3, 3), (2, 1, 2, 3))]
        assert stack.gated[:, 3].all() and np.isnan(stack.model[:, 3]).all()
        assert np.isfinite(stack.model[0, [1, 2, 4, 5]]).all()
        for b, x in enumerate(xs):
            one = fitting.evaluate(self.PROBLEM, *fitting._points(self.PROBLEM, x[None]), data)
            for got, want in zip(one, stack):
                np.testing.assert_array_equal(got[0], want[b])
        assert len(searches) == 2 + 2 * len(xs)

    def test_subsite_two_site_refines_and_differentiates_its_own_resonance(self):
        # the fit's tensors are its first subsite whatever the site's subsite tag
        problem = FitProblem(site=SITE_I.with_subsite(2), **FULL_FLAGS)
        x = problem.initial_parameters()
        direction = (0.3, 0.5, 0.8)
        hits = epr_resonance_fields(SITE_I.ground, direction, 9.7, 600.0)
        assert {hits[0].subsite, hits[-1].subsite} == {1, 2}
        for hit in (hits[0], hits[-1]):
            data = compile_data([DataPoint("epr", "ground", direction, hit.field_mt + 0.1, 0.5, hit.transition)])
            ev = fitting.evaluate(problem, *fitting._points(problem, x[None]), data)
            sys1 = SITE_I.ground.with_subsite(hit.subsite)
            e = energies_sweep(sys1, ev.model[0, 0] * np.array([direction]) / np.linalg.norm(direction))[0]
            assert abs(e[hit.transition[1]] - e[hit.transition[0]] - 9.7) < 1e-9
            fd = central_differences(problem, x, data)
            np.testing.assert_allclose(ev.jacobian[0], -fd, rtol=1e-4, atol=1e-6)


def traced_peak(call):
    """The tracemalloc peak (bytes) of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_field_data(n, seed=5):
    """n labeled ground SHB points, each at its own random field (2n field rows)."""
    rng = np.random.default_rng(seed)
    return compile_data([DataPoint("shb", "ground", tuple(rng.uniform(-150.0, 150.0, 3)), 1.0, 2e-3,
                                   PAIRS[k % 6]) for k in range(n)])


class TestHamiltonianBlocks:
    """``evaluate`` solves at most ``hamiltonian.EIGH_BLOCK`` Hamiltonians at a time."""

    @staticmethod
    def pinned_data(tmp_path):
        from kramers.cli import _read_data_csv
        from test_cli import PINNED_FIT_DATA

        (tmp_path / "data.csv").write_text(PINNED_FIT_DATA)
        return compile_data(_read_data_csv(tmp_path / "data.csv"))

    @pytest.mark.parametrize("data, flags", [("pinned", dict()), ("mixed", FULL_FLAGS)])
    def test_bit_identical_at_any_block_size(self, tmp_path, monkeypatch, data, flags):
        # PINNED_FIT_DATA holds EPR points; with misalignment free, dg mixes in the field
        data = self.pinned_data(tmp_path) if data == "pinned" else compile_data(mixed_data())
        problem = FitProblem(site=SITE_I, **flags)
        lo, hi = problem.bounds()
        x = np.concatenate([problem.initial_parameters()[None],
                            np.random.default_rng(2).uniform(lo, hi, (4, lo.size))])
        # per block size, the rows of each block of levels and of EPR Jacobian rows
        runs, sizes = [], []
        closed_form, epr_rows = hamiltonian._closed_form, fitting.hellmann_feynman

        def levels(parts, g, fields, *args):
            sizes[-1][0].append(len(g) * len(fields))
            return closed_form(parts, g, fields, *args)

        def jacobian_rows(A, *args):
            sizes[-1][1].append(len(A))
            return epr_rows(A, *args)

        monkeypatch.setattr(hamiltonian, "_closed_form", levels)
        monkeypatch.setattr(fitting, "hellmann_feynman", jacobian_rows)
        # one block per state, one Hamiltonian per block, and ragged tilings
        # that split one restart's fields (3) or group 2-4 restarts (9)
        blocks = (10**9, 1, 3, 9)
        for block in blocks:
            monkeypatch.setattr(hamiltonian, "EIGH_BLOCK", block)
            sizes.append(([], []))
            runs.append(fitting.evaluate(problem, *fitting._points(problem, x), data))
        fields = [len(rows.fields) for rows in data.states]
        assert max(fields) > 3 and 2 <= 9 // min(fields) < len(x)
        # the patched size reached both tilings: at size 1 every row is a block of its own
        for block, (level_rows, jacobian) in zip(blocks, sizes):
            assert max(level_rows) <= block and max(jacobian) <= block
        assert len(sizes[0][0]) == len(fields) and len(sizes[1][0]) == len(x) * sum(fields)
        assert len(sizes[1][1]) == sum(sizes[0][1]) > 1
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(got, want, equal_nan=True)

    def test_memory_grows_only_by_the_outputs(self):
        # w and dE (B, F, 4, 1 + P), the Jacobian, residuals, model and raw
        # residuals (B, N, P + 3) as float64, and the gated flags (B, N)
        problem = FitProblem(site=SITE_I)
        lo, hi = problem.bounds()
        P = lo.size

        def peak_and_outputs(n, restarts):
            data = random_field_data(n)
            F = len(data.states[0].fields)
            pts = fitting._points(problem, np.random.default_rng(1).uniform(lo, hi, (restarts, P)))
            fitting.evaluate(problem, *pts, data)  # warm caches
            peak = traced_peak(lambda: fitting.evaluate(problem, *pts, data))
            return peak, 8 * restarts * (4 * F * (1 + P) + n * (P + 3)) + restarts * n

        block = hamiltonian.EIGH_BLOCK
        for small, large in [((50, 8), (50, 64)), ((block // 2, 8), (2 * block, 8))]:
            (peak0, out0), (peak1, out1) = peak_and_outputs(*small), peak_and_outputs(*large)
            assert peak1 - peak0 <= 1.1 * (out1 - out0), (small, large, peak0, peak1)

    def test_epr_jacobian_costs_its_size_plus_one_block(self, monkeypatch):
        # J is allocated before the resonance search; past the search, the
        # Jacobian rows add the chosen resonances' index and value arrays and
        # about 4 KB of temporaries per Hamiltonian, for one block of them
        problem = FitProblem(site=SITE_I)
        lo, hi = problem.bounds()
        rng = np.random.default_rng(0)
        data = compile_data([DataPoint("epr", "ground", tuple(rng.normal(size=3)), rng.uniform(50.0, 400.0), 0.5)
                             for _ in range(100)])
        pts = fitting._points(problem, rng.uniform(lo, hi, (32, lo.size)))
        J = fitting.evaluate(problem, *pts, data).jacobian  # warm caches
        assert np.count_nonzero(J.any(axis=2)) > 2 * hamiltonian.EIGH_BLOCK
        search, marks = fitting.resonance_search, []

        def marked_search(*args):
            found = search(*args)
            marks.append((tracemalloc.get_traced_memory()[0], found[0].size))
            tracemalloc.reset_peak()  # from here on the peak is the Jacobian rows'
            return found

        monkeypatch.setattr(fitting, "resonance_search", marked_search)
        peak = traced_peak(lambda: fitting.evaluate(problem, *pts, data))
        (current, resonances), = marks
        assert peak - current <= 80 * resonances + 4096 * hamiltonian.EIGH_BLOCK, (peak, current, resonances)


def crossing_tensors(state):
    """A state's tensors turned to their principal frames, with every parameter's dA and dg a
    random symmetric matrix: along a principal axis, H keeps |uu>, |dd> apart from |ud>, |du>,
    so levels of the two pairs cross."""
    base = getattr(state[0], state[1])
    A = np.diag(decompose_tensor(base.A).values)[None]
    g = np.diag(decompose_tensor(base.g).values)[None]
    d = np.random.default_rng(4).normal(size=(1, 6, 3, 3))
    d = d + d.swapaxes(-1, -2)
    return base, A, g, d[:, :3], d[:, 3:]


def bisect_gap_minimum(gap, lo, hi):
    """The field magnitude in [lo, hi] where a gap with one minimum there is smallest, by
    bisection on the sign of its slope."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        step = max(abs(mid) * 1e-15, 1e-300)
        lo, hi = (lo, mid) if gap(mid + step) > gap(mid - step) else (mid, hi)
    return 0.5 * (lo + hi)


class TestClosedForm:
    """Near level crossings, the rows the fit's closed-form levels (``hamiltonian._closed_form``)
    hold keep to their error bound, and the rest fall back to eigh and Hellmann-Feynman."""

    @pytest.mark.parametrize("state", [(SITE_I, "ground"), (SITE_I, "excited"), (SITE_II, "ground"),
                                       (SITE_II, "excited")], ids=["I-ground", "I-excited", "II-ground", "II-excited"])
    def test_near_degenerate_fields_hold_to_their_bound_or_fall_back(self, state):
        base, A, g, dA, dg = crossing_tensors(state)
        args = (base.g_n, base.mu_b, base.mu_n)
        eps, held_gaps, fell_back = np.finfo(float).eps, [], 0
        for axis, tilt in itertools.product(range(3), (0.0, 1e-9, 1e-6)):
            direction = np.eye(3)[axis] + tilt * np.eye(3)[(axis + 1) % 3]
            direction /= np.linalg.norm(direction)
            mags = np.linspace(0.0, 400.0, 801)
            gaps = np.diff(np.linalg.eigvalsh(hamiltonian_stack(A[0], g[0], mags[:, None] * direction, *args)))
            for k in range(3):
                g_k = gaps[:, k]
                for i in np.flatnonzero((g_k[1:-1] < g_k[:-2]) & (g_k[1:-1] <= g_k[2:])) + 1:
                    def gap(b):
                        return np.diff(np.linalg.eigvalsh(
                            hamiltonian_stack(A[0], g[0], np.array([b * direction]), *args))[0])[k]

                    b0 = bisect_gap_minimum(gap, mags[i - 1], mags[i + 1])
                    fields = (b0 + np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]))[:, None] * direction
                    lam, dlam, holds = closed_form(A, g, dA, dg, fields, base)
                    w, dE = eigh_reference(A, g, dA, dg, fields, base)
                    smallest, scale = np.diff(w, axis=-1).min(axis=-1), np.abs(w).max(axis=-1)
                    # a held row keeps half of the digits of its smallest gap, and so of its derivatives
                    err = np.abs(lam - w).max(axis=-1)
                    assert np.all(~holds | (err <= 1e-13 * scale + np.sqrt(eps) * smallest)), (b0, err, smallest)
                    derr = np.abs(dlam - dE).max(axis=(-1, -2))
                    assert np.all(~holds | (derr <= 4.0 * np.sqrt(eps) * np.abs(dE).max(axis=(-1, -2))))
                    assert not holds[smallest < 1e-12 * scale].any()
                    held_gaps += (smallest / scale)[holds].tolist()
                    fell_back += np.count_nonzero(~holds)
        # the bisection reaches gaps the closed form leaves to eigh, and gaps near them it holds
        assert fell_back and min(held_gaps) < 1e-2


def write_data_csv(path, points):
    """The `fit --data` CSV of labeled shb points."""
    lines = ["kind,state,bx_mt,by_mt,bz_mt,value,sigma,label"]
    for p in points:
        bx, by, bz = p.field_mt
        lines.append(f"{p.kind},{p.state},{bx!r},{by!r},{bz!r},{float(p.value)!r},{p.sigma!r},"
                     f"{p.label[0] + 1}-{p.label[1] + 1}")
    path.write_text("\n".join(lines) + "\n")


class TestCovarianceAndRestarts:
    @staticmethod
    def weighted_jacobian(problem, result, data):
        """The analytic weighted Jacobian (over the covariance coordinates)
        and weighted residuals at the reported parameters."""
        compiled = compile_data(data)
        ev = fitting.evaluate(problem, *fitting._points(problem, result.parameters[None]), compiled)
        return ev.jacobian[0] * compiled.weights[:, None], result.residuals * compiled.weights

    @staticmethod
    def svd_inverse(jac, scale):
        """scale (J^T J)^+ from the SVD of J, singular values zero to rounding dropped."""
        _, s, vt = np.linalg.svd(jac, full_matrices=False)
        kept = s > max(jac.shape) * np.finfo(float).eps * s.max()
        cov = (vt.T * np.where(kept, 1.0 / np.where(kept, s * s, 1.0), 0.0)) @ vt * scale
        return 0.5 * (cov + cov.T)

    @pytest.mark.parametrize("jac, scale", [
        (np.diag([1e-300, 2e-300, 5e-300]), 1.0), (np.full((4, 2), 1e-160), 1.0),
        (np.array([[1e-150, 3e-151], [2e-151, 1e-149], [0.0, 1e-152]]), 1e10),
    ])
    def test_covariance_beyond_the_double_range_is_inf(self, jac, scale):
        # 1 / s^2 or its product with the scale overflows: the covariance is inf there, quietly, never NaN
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = fitting._scaled_inverse(jac, scale)
        assert np.isinf(np.diag(cov)).all() and not np.isnan(cov).any()

    def test_constrained_fit_covariance_unchanged(self):
        # full-rank Jacobian: the scaled inverse of J^T J, bit for bit
        data = ground_data([(1, 0, 0), (0, 0, 1)], step_mt=10.0, noise=1e-3, seed=5, sigma=1e-3)
        problem = FitProblem(site=SITE_I)
        result = fit(problem, data, restarts=2, seed=5)
        jac, r = self.weighted_jacobian(problem, result, data)
        assert np.all(np.any(jac, axis=0))
        assert np.array_equal(result.covariance, self.svd_inverse(jac, (r @ r) / (len(data) - 3)))
        assert np.all(np.isfinite(result.covariance))
        assert result.covariance_names == ("ground_rot1", "ground_rot2", "ground_rot3")

    def test_unconstrained_parameter_has_infinite_variance(self):
        # ground-only data cannot see the excited angles: their Jacobian columns are zero
        data = ground_data([(1, 0, 0), (0, 0, 1)], step_mt=25.0, noise=1e-3, seed=3)
        problem = FitProblem(site=SITE_I, fit_ground=True, fit_excited=True)
        result = fit(problem, data, restarts=1, seed=3)
        var = np.diag(result.covariance)
        assert np.all(np.isinf(var[3:])) and np.all(np.isfinite(var[:3]))
        # the constrained block is what the pseudo-inverse gives for it
        jac, r = self.weighted_jacobian(problem, result, data)
        assert not np.any(jac[:, 3:])
        cov = self.svd_inverse(jac, (r @ r) / (len(data) - 6))
        assert np.array_equal(result.covariance[:3, :3], cov[:3, :3])

    def test_gated_point_leaves_covariance_unchanged(self):
        # a gated point's constant cost is not scatter: it does not scale the covariance
        data = ground_data([(1, 0, 0), (0, 1, 0), (0, 0, 1)], step_mt=25.0, noise=1e-3, seed=5, sigma=1e-3)
        base = fit(FitProblem(site=SITE_I), data, restarts=1, seed=5)
        far = DataPoint("shb", "ground", (10.0, 0.0, 0.0), 50.0, 0.1, (0, 1))
        gated = fit(FitProblem(site=SITE_I), data + [far], restarts=1, seed=5)
        assert gated.excluded == (len(data),)
        np.testing.assert_allclose(gated.parameters, base.parameters, rtol=0, atol=1e-4)
        np.testing.assert_allclose(gated.covariance, base.covariance, rtol=1e-4)

    def test_cli_prints_inf_sigma(self, tmp_path, capsys):
        from kramers.cli import main

        write_data_csv(tmp_path / "data.csv", ground_data([(1, 0, 0), (0, 0, 1)], step_mt=25.0, noise=1e-3, seed=3))
        report = tmp_path / "report.txt"
        main(["fit", "--data", str(tmp_path / "data.csv"), "--free", "excited,ground", "--restarts", "1",
              "--out", str(tmp_path / "r.csv"), "--report", str(report)])
        sigmas = report.read_text().split("parameter sigmas: ")[1]
        assert "excited_rot1=inf, excited_rot2=inf, excited_rot3=inf" in sigmas
        assert "ground_rot1=inf" not in sigmas

    def test_restart_seeds_drawn_one_at_a_time(self, monkeypatch):
        # a huge restart count allocates nothing up front, and the seeds are a normal run's
        class Stop(BaseException):
            pass

        real, calls = fitting._points, []

        def stop(problem, params):
            calls.append(np.array(params))
            raise Stop

        def record(problem, params):
            calls.append(np.array(params))
            return real(problem, params)

        data = ground_data([(1, 0, 0)], step_mt=25.0)
        problem = perturbed_problem(10.0, seed=9)
        monkeypatch.setattr(fitting, "_points", stop)  # the first call gets the first chunk's seeds
        with pytest.raises(Stop):
            fit(problem, data, restarts=10**5, seed=9)
        (first_chunk,) = calls
        calls.clear()
        monkeypatch.setattr(fitting, "_points", record)
        assert len(fit(problem, data, restarts=4, seed=9).restart_rms_mhz) == 4
        assert first_chunk.shape == (fitting.RESTART_CHUNK, 3)
        np.testing.assert_array_equal(first_chunk[:4], calls[0])

        # traced after the calls above, so one-time import and cache costs are paid
        calls.clear()
        monkeypatch.setattr(fitting, "_points", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                fit(problem, data, restarts=10**5, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        assert peak < 1e6

    def test_work_counts_are_positive_and_add_up(self, monkeypatch):
        data = ground_data([(1, 0, 0), (0, 1, 0)], step_mt=20.0, noise=2e-3, seed=9)
        runs = []
        real = fitting._levenberg_marquardt

        def recording(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(fitting, "_levenberg_marquardt", recording)
        monkeypatch.setattr(fitting, "RESTART_CHUNK", 3)  # 5 restarts: two chunks
        result = fit(perturbed_problem(10.0, seed=9), data, restarts=5, seed=9)
        assert len(result.restart_iterations) == len(result.restart_evaluations) == 5
        assert all(n > 0 for n in result.restart_iterations)
        # the initial evaluation, then one per step; an accepted step is an iteration
        assert all(e > i for i, e in zip(result.restart_iterations, result.restart_evaluations))
        assert result.iterations == sum(result.restart_iterations)
        assert result.evaluations == sum(result.restart_evaluations)
        assert [len(r.iterations) for r in runs] == [3, 2]
        assert result.restart_iterations == tuple(int(n) for r in runs for n in r.iterations)
        assert result.restart_evaluations == tuple(int(n) for r in runs for n in r.evaluations)


class TestRestartStream:
    """``fitting._RestartStream`` draws the stream of numpy's ``default_rng(seed).uniform``
    without loading ``numpy.random``."""

    SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1, 2**130 + 17, 10**40]

    def test_draws_equal_numpys_bit_for_bit(self):
        # every block kind's box, in two chunks of seed rows: the stream continues across them
        lo, hi = FitProblem(site=SITE_I, fit_excited=True, fit_misalignment=True, refine_eigenvalues=True).bounds()
        for seed in self.SEEDS:
            rng, stream = np.random.default_rng(seed), fitting._RestartStream(seed)
            for rows in (31, 32):
                want = rng.uniform(lo, hi, size=(rows, lo.size))
                got = stream.uniform(lo, hi, rows)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, rows)

    @pytest.mark.parametrize("seed, first", [
        (0, [0.6369616873214543, 0.2697867137638703, 0.04097352393619469]),
        (2**128 + 1, [0.4757645185899906, 0.6005884039084781, 0.24508622403606528]),
    ])
    def test_first_draws_are_pinned(self, seed, first):
        # the stream itself, whatever a later numpy does
        got = fitting._RestartStream(seed).uniform(np.zeros(3), np.ones(3), 1)
        assert got.tolist() == [first]

    def test_integer_types_and_negative_seed(self):
        lo, hi = FitProblem(site=SITE_I).bounds()
        for seed in (np.int64(7), np.uint64(2**64 - 1)):
            want = np.random.default_rng(seed).uniform(lo, hi, size=(2, 3))
            assert np.array_equal(fitting._RestartStream(seed).uniform(lo, hi, 2), want)
        with pytest.raises(ValueError, match="non-negative"):
            fit(FitProblem(site=SITE_I), ground_data([(1, 0, 0)], step_mt=25.0), restarts=2, seed=-1)
        with pytest.raises(TypeError):
            fitting._RestartStream(1.5)


class TestCanonicalization:
    def test_canonical_orientation_subsite_pick_deterministic(self):
        angles, subsite = canonical_orientation(SITE_I.ground.A)
        assert subsite in (1, 2)
        again, subsite2 = canonical_orientation(SITE_I.ground.A)
        assert angles.as_tuple() == again.as_tuple() and subsite == subsite2

    def test_closest_representative_prefers_untransformed(self):
        rep = closest_subsite_representative(SITE_I.ground.A, SITE_I.ground.A)
        assert np.array_equal(rep.matrix, SITE_I.ground.A.matrix)

    def test_closest_representative_collapses_subsite(self):
        from kramers.tensors import subsite_transform

        flipped = subsite_transform(SITE_I.ground.A)
        rep = closest_subsite_representative(flipped, SITE_I.ground.A)
        assert np.array_equal(rep.matrix, SITE_I.ground.A.matrix)


class TestInvertAndSeed:
    def test_site_i_four_lines(self):
        lines_ghz = np.array([2046.0, 2385.0, 2869.0, 3208.0]) * 1e-3
        mags, problem = invert_and_seed(lines_ghz, SITE_I)
        assert np.abs(np.array(mags) - (0.484, 1.162, 5.254)).max() * 1e3 <= 2.0
        assert problem.fit_ground and not problem.fit_excited
        seeded = decompose_tensor(problem.site.ground.A)
        assert np.array(seeded.values) == pytest.approx(mags, abs=1e-12)

    def test_site_ii_five_lines_overdetermined(self):
        lines_ghz = np.array([528.0, 655.0, 2370.0, 2496.0, 3025.0]) * 1e-3
        mags, problem = invert_and_seed(lines_ghz, SITE_II)
        table = np.abs(np.array([-0.1259, 1.1835, 4.8668]))
        assert np.abs(np.array(mags) - table).max() * 1e3 < 2.0
        # sign hypothesis follows the site's stored ordering (A1 < 0)
        seeded = decompose_tensor(problem.site.ground.A)
        assert seeded.values[0] < 0

    def test_synthetic_exact_lines(self):
        from kramers.hamiltonian import zero_field_levels

        a = (0.3, 1.4, 6.2)
        levels = zero_field_levels(*a).sorted()
        lines = np.sort([levels[j] - levels[i] for i, j in PAIRS])
        mags, _ = invert_and_seed(lines, SITE_I)
        assert np.abs(np.array(mags) - a).max() < 1e-9

    def test_inconsistent_lines_rejected_with_report(self):
        with pytest.raises(ValueError, match="closest"):
            invert_and_seed([0.5, 0.9, 1.7, 2.9], SITE_I)

    def test_reconstruct_needs_three_lines(self):
        with pytest.raises(ValueError):
            reconstruct_levels([1.0, 2.0])

    def test_tied_ladders_break_to_the_least_gaps(self):
        # gaps (0.6, 1.4, 0.75) and (0.15, 1.4, 0.6), and their mirror images,
        # all fit these lines exactly with the same central gap
        levels = reconstruct_levels([2.15, 0.6, 2.0, 1.4])
        np.testing.assert_allclose(np.diff(levels), [0.15, 1.4, 0.6], rtol=0, atol=1e-12)

    @staticmethod
    def scipy_levels(lines_ghz):
        """Levels by one SciPy NNLS per assignment, or None past LEVEL_TOL_GHZ."""
        from scipy.optimize import nnls

        from kramers import hamiltonian

        lines = np.sort(np.asarray(lines_ghz, dtype=float))
        best = None
        for combo in itertools.permutations(range(6), lines.size):
            d, rnorm = nnls(hamiltonian._GAP_COMBOS[list(combo)], lines)
            key = (round(rnorm / np.sqrt(lines.size) / 1e-12) * 1e-12, -d[1], tuple(d))
            best = key if best is None or key < best else best
        levels = np.cumsum([0.0, *best[2]])
        return None if best[0] > hamiltonian.LEVEL_TOL_GHZ else levels - levels.mean()

    def test_levels_match_scipy_nnls(self):
        # every line set the tests, selftest and the CLI examples invert
        from kramers.hamiltonian import zero_field_levels
        from kramers.selftest import ODMR_LINES_SITE_I, ODMR_LINES_SITE_II, ODMR_PSEUDO_SITE_I

        exact = zero_field_levels(0.3, 1.4, 6.2).sorted()
        line_sets = [np.array(ODMR_LINES_SITE_I) * 1e-3, np.array(ODMR_LINES_SITE_II) * 1e-3,
                     np.array([*ODMR_PSEUDO_SITE_I, 1162.0]) * 1e-3, np.array([0.5, 0.9, 1.7, 2.9]),
                     np.sort([exact[j] - exact[i] for i, j in PAIRS])]
        for lines in line_sets:
            reference = self.scipy_levels(lines)
            if reference is None:
                with pytest.raises(ValueError, match="closest"):
                    reconstruct_levels(lines)
            else:
                # measured: equal to 9e-16 GHz, a few units in the last place
                np.testing.assert_allclose(reconstruct_levels(lines), reference, rtol=0, atol=1e-14)


class TestDataPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataPoint("nope", "ground", (0, 0, 0), 1.0, 1.0)
        with pytest.raises(ValueError):
            DataPoint("shb", "middle", (0, 0, 0), 1.0, 1.0)
        with pytest.raises(ValueError):
            DataPoint("shb", "ground", (0, 0, 0), 1.0, 0.0)

    @pytest.mark.parametrize("label", [(1, 0), (0, 7), (0, 0), (-1, 2), (0, 4), (1,)])
    def test_rejects_a_label_outside_the_pairs(self, label):
        # a reversed pair would meet a negative transition and be gated, a level past 4 an IndexError in evaluate
        with pytest.raises(ValueError, match="level pair"):
            DataPoint("shb", "ground", (30.0, 0.0, 0.0), 2.613, 2e-3, label)
