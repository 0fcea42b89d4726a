import tracemalloc

import numpy as np
import pytest

from kramers.hamiltonian import PAIRS, MU_B_GHZ_PER_T, SpinSystem, eigensystem, energies_sweep
from kramers.magres import (
    EPR_FIELD_TOL_MT,
    PLANES,
    EprResonance,
    _moment_operator,
    epr_angular_map,
    epr_resonance_fields,
    odmr_lines,
    transition_moments,
)
from kramers.presets import SITE_I, SITE_II
from kramers.tensors import EulerAngles, PrincipalTensor, SymmetricTensor3, assemble_tensor, rz

ZERO = (0.0, 0.0, 0.0)


class TestOdmrLines:
    def test_site_i_ground_zero_field(self):
        lines = odmr_lines(SITE_I.ground, ZERO)
        freqs = np.array([l.frequency_mhz for l in lines])
        expected = [339.0, 823.0, 2046.0, 2385.0, 2869.0, 3208.0]
        assert np.abs(np.sort(freqs) - expected).max() < 1.0
        observed = {2046.0, 2385.0, 2869.0, 3208.0}
        for l in lines:
            if any(abs(l.frequency_mhz - o) < 1.0 for o in observed):
                assert l.strong

    def test_site_ii_ground_zero_field(self):
        lines = odmr_lines(SITE_II.ground, ZERO)
        freqs = np.array([l.frequency_mhz for l in lines])
        for target in (528.0, 655.0, 2370.0, 2496.0, 3025.0):
            assert np.abs(freqs - target).min() < 2.0
        assert len(lines) == 6  # the unobserved line is reported too

    def test_isotropic_single_nonzero_frequency(self):
        a = 1.7
        sys = SpinSystem(
            A=SymmetricTensor3(a * np.eye(3)), g=SymmetricTensor3(2.0 * np.eye(3))
        )
        freqs = sorted(l.frequency_mhz for l in odmr_lines(sys, ZERO))
        assert np.abs(np.array(freqs[:3])).max() < 1e-6  # triplet degenerate
        assert np.abs(np.array(freqs[3:]) - a * 1e3).max() < 1e-6

    def test_zero_field_frequencies_orientation_independent(self):
        rng = np.random.default_rng(40)
        values = (0.4, 1.3, 5.1)
        base = None
        for _ in range(20):
            angles = EulerAngles(rng.uniform(-180, 180), rng.uniform(0, 180), rng.uniform(-180, 180))
            sys = SpinSystem(
                A=assemble_tensor(PrincipalTensor(values, angles)),
                g=SymmetricTensor3(2.0 * np.eye(3)),
            )
            freqs = np.sort([l.frequency_mhz for l in odmr_lines(sys, ZERO)])
            if base is None:
                base = freqs
            assert np.abs(freqs - base).max() < 1e-6

    def test_moments_nonnegative_and_flagging(self):
        lines = odmr_lines(SITE_I.ground, (25.0, 0.0, 0.0))
        max_moment = max(l.moment for l in lines)
        for l in lines:
            assert l.moment >= 0
            assert l.strong == (l.moment >= 0.01 * max_moment)


_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)
_S = [np.kron(s, np.eye(2)) for s in _HALF]
_I = [np.kron(np.eye(2), s) for s in _HALF]


class TestMomentOperator:
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -1.2, 0.7)],
                             ids=["b", "D1", "oblique"])
    @pytest.mark.parametrize("subsite", [1, 2])
    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    def test_equals_explicit_dipole_formula(self, site, subsite, axis):
        for sys in (site.ground.with_subsite(subsite), site.excited.with_subsite(subsite)):
            n = np.asarray(axis) / np.linalg.norm(axis)
            g = sys.g.matrix
            # sum_kl n_k g_kl S_l - (mu_n / mu_B) g_n n.I
            reference = sum(n[k] * g[k, l] * _S[l] for k in range(3) for l in range(3))
            reference = reference - (sys.mu_n / sys.mu_b) * sys.g_n * sum(n[k] * _I[k] for k in range(3))
            assert np.abs(_moment_operator(sys, axis) - reference).max() < 1e-15


class TestEprResonances:
    def test_frequency_below_all_splittings_empty(self):
        # the smallest site-I ground splitting along D1 is the 184 MHz
        # avoided-crossing gap; 50 MHz is below every branch at every field
        out = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 0.05, 200.0)
        assert out == []

    def test_subsite_degeneracy_in_d1_d2_plane(self):
        direction = np.array([0.6, 0.8, 0.0])
        out = epr_resonance_fields(SITE_I.ground, direction, 9.7, 1000.0)
        assert out
        sub1 = np.sort([r.field_mt for r in out if r.subsite == 1])
        sub2 = np.sort([r.field_mt for r in out if r.subsite == 2])
        assert len(sub1) == len(sub2)
        assert np.abs(sub1 - sub2).max() < 2e-3  # pairwise coincidence

    def test_isotropic_g_zero_hyperfine_closed_form(self):
        g = 2.3
        nu = 9.7
        sys = SpinSystem(
            A=SymmetricTensor3(np.zeros((3, 3))), g=SymmetricTensor3(g * np.eye(3)), g_n=0.987
        )
        out = [r for r in epr_resonance_fields(sys, (0, 0, 1), nu, 500.0) if r.subsite == 1]
        # electron-flip branches resonate at nu/(mu_B g -+ mu_n g_n) and two
        # branches exactly at nu/(mu_B g)
        mu_b_mt = MU_B_GHZ_PER_T * 1e-3
        mu_n_mt = 7.6225932e-6
        expected_center = nu / (mu_b_mt * g)
        fields = np.sort([r.field_mt for r in out])
        electron_like = fields[np.abs(fields - expected_center) < 2.0]
        assert len(electron_like) >= 3
        lo = nu / (mu_b_mt * g + mu_n_mt * 0.987)
        hi = nu / (mu_b_mt * g - mu_n_mt * 0.987)
        assert np.abs(fields - lo).min() < 5e-3
        assert np.abs(fields - hi).min() < 5e-3
        assert np.abs(fields - expected_center).min() < 5e-3

    def test_resonance_frequency_matches_nu_mw(self):
        # refined roots satisfy |nu(B*) - nu_mw| < 1e-4 GHz
        out = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 1000.0)
        assert out
        for r in out:
            sys = SITE_I.ground.with_subsite(r.subsite)
            es = eigensystem(sys, r.field_mt * np.asarray(r.direction))
            nu = es.energies[r.transition[1]] - es.energies[r.transition[0]]
            assert abs(nu - 9.7) < 1e-4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            epr_resonance_fields(SITE_I.ground, (1, 0, 0), -1.0, 100.0)
        with pytest.raises(ValueError):
            epr_resonance_fields(SITE_I.ground, (0, 0, 0), 9.7, 100.0)
        for nu, b_max in [(np.nan, 100.0), (np.inf, 100.0), (9.7, np.nan), (9.7, np.inf), (9.7, 0.0)]:
            with pytest.raises(ValueError, match="must be positive"):
                epr_resonance_fields(SITE_I.ground, (1, 0, 0), nu, b_max)
        for nu, b_max in [(np.nan, 100.0), (np.inf, 100.0), (9.7, np.nan), (9.7, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                epr_resonance_fields(SITE_I.ground, (1, 0, 0), nu, b_max)


def recursive_brackets(freq_at, grid, values, depth=8):
    """Sign-change brackets, recursively halving the cells beside sampled extrema."""
    out = []

    def scan(lo, hi, flo, fhi, d):
        if (flo <= 0.0) != (fhi <= 0.0):
            out.append((lo, hi, flo, fhi))
            return
        if d == 0 or hi - lo <= EPR_FIELD_TOL_MT:
            return
        mid = 0.5 * (lo + hi)
        fmid = freq_at(mid)
        scan(lo, mid, flo, fmid, d - 1)
        scan(mid, hi, fmid, fhi, d - 1)

    slopes = np.diff(values)
    for n in range(len(grid) - 1):
        if (values[n] <= 0.0) != (values[n + 1] <= 0.0):
            out.append((grid[n], grid[n + 1], values[n], values[n + 1]))
        elif 0 < n < len(grid) - 1 and slopes[n - 1] * slopes[n] < 0:
            scan(grid[n - 1], grid[n], values[n - 1], values[n], depth)
            scan(grid[n], grid[n + 1], values[n], values[n + 1], depth)
    uniq = []
    for b in sorted(out):
        if not uniq or b[0] >= uniq[-1][1] - 1e-12:
            uniq.append(b)
    return uniq


def scalar_resonances(sys, direction, nu, b_max):
    """Reference: per-branch recursive bracketing and one-field-at-a-time bisection."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    mags = np.arange(0.0, b_max + 0.5, 1.0)
    if mags[-1] < b_max:
        mags = np.append(mags, b_max)
    out = []
    for subsite in (1, 2):
        ssys = sys.with_subsite(subsite)
        e = energies_sweep(ssys, mags[:, None] * d[None, :])
        for i, j in PAIRS:

            def freq_at(b):
                eb = energies_sweep(ssys, np.array([b * d]))[0]
                return eb[j] - eb[i] - nu

            for lo, hi, flo, _ in recursive_brackets(freq_at, mags, (e[:, j] - e[:, i]) - nu):
                while hi - lo > EPR_FIELD_TOL_MT:
                    mid = 0.5 * (lo + hi)
                    fmid = freq_at(mid)
                    if (flo <= 0.0) == (fmid <= 0.0):
                        lo, flo = mid, fmid
                    else:
                        hi = mid
                b = 0.5 * (lo + hi)
                if 0.0 < b <= b_max:
                    moment = transition_moments(ssys, b * d)[(i, j)]
                    out.append(EprResonance(float(b), tuple(d), (i, j), subsite, moment))
    out.sort(key=lambda r: (r.field_mt, r.subsite, r.transition))
    return out


def tangent_frequency(pair, lo, hi):
    """nu_mw between a D2-ray branch minimum in [lo, hi] mT and its lowest 1 mT sample."""
    d = np.array([0.0, 1.0, 0.0])

    def branch(mags):
        e = energies_sweep(SITE_I.ground, mags[:, None] * d)
        return e[:, pair[1]] - e[:, pair[0]]

    return 0.5 * (branch(np.arange(lo, hi + 1.0)).min() + branch(np.arange(lo, hi, 1e-3)).min())


class TestBatchedBracketing:
    @pytest.mark.parametrize("plane,theta,nu,b_max", [
        ("D1-D2", 30.0, 9.7, 1000.0),
        ("b-D1", 60.0, 2.6612, 700.0),
        ("b-D2", 30.0, 0.7017, 300.0),
    ])
    def test_matches_recursive_reference(self, plane, theta, nu, b_max):
        e1, e2 = (np.asarray(v) for v in PLANES[plane])
        t = np.radians(theta)
        d = np.cos(t) * e1 + np.sin(t) * e2
        for sys in (SITE_I.ground, SITE_II.excited):
            batched = epr_resonance_fields(sys, d, nu, b_max)
            assert batched == scalar_resonances(sys, d, nu, b_max)
        assert {r.subsite for r in batched} == {1, 2}

    # the grazing minimum lies after (60 mT) or before (23 mT) its lowest sample
    @pytest.mark.parametrize("pair,cell", [((1, 2), 60.0), ((0, 2), 22.0)])
    def test_near_tangent_crossing_matches_reference(self, pair, cell):
        nu = tangent_frequency(pair, cell - 10.0, cell + 10.0)
        batched = epr_resonance_fields(SITE_I.ground, (0, 1, 0), nu, 100.0)
        assert batched == scalar_resonances(SITE_I.ground, (0, 1, 0), nu, 100.0)
        # both roots of the grazing branch lie between two grid samples
        grazing = [r.field_mt for r in batched if r.transition == pair and r.subsite == 1]
        assert len(grazing) == 2 and cell < grazing[0] < grazing[1] < cell + 1.0

    # both planes pass D2 at 90 degrees, where the branch grazes nu between two samples
    @pytest.mark.parametrize("plane,pair,cell", [("b-D2", (1, 2), 60.0), ("D1-D2", (0, 2), 22.0)])
    def test_plane_map_matches_reference_at_every_angle(self, plane, pair, cell):
        nu = tangent_frequency(pair, cell - 10.0, cell + 10.0)
        e1, e2 = (np.asarray(v) for v in PLANES[plane])
        swept = epr_angular_map(SITE_I.ground, plane, 15.0, nu, 100.0)
        assert len(swept) == 13
        for theta, batched in swept:
            t = np.radians(theta)
            assert batched == scalar_resonances(SITE_I.ground, np.cos(t) * e1 + np.sin(t) * e2, nu, 100.0)
        grazing = [r.field_mt for r in dict(swept)[90.0] if r.transition == pair and r.subsite == 1]
        assert len(grazing) == 2 and cell < grazing[0] < grazing[1] < cell + 1.0


class TestSearchMemory:
    def test_long_ray_memory_is_bounded(self):
        # a 20,000 mT ray has 20,001 field samples, whose Hamiltonians and
        # eigenvalue work space take about 17 MB at once; the search keeps
        # their branch values and diagonalizes RAY_SAMPLES at a time
        epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 100.0)  # warm caches
        tracemalloc.start()
        try:
            out = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 20000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out
        assert peak < 8e6


class TestAngularMap:
    def test_d1_d2_map_180_periodic(self):
        swept = epr_angular_map(SITE_I.ground, "D1-D2", 45.0, 9.7, 800.0)
        by_angle = dict(swept)
        f0 = np.sort([r.field_mt for r in by_angle[0.0]])
        f180 = np.sort([r.field_mt for r in by_angle[180.0]])
        assert len(f0) == len(f180)
        assert np.abs(f0 - f180).max() < 2e-3

    def test_subsite_branches_merge_at_symmetric_orientations(self):
        swept = epr_angular_map(SITE_I.ground, "b-D1", 90.0, 9.7, 1000.0)
        for angle, resonances in swept:
            if angle in (0.0, 90.0, 180.0):  # b axis or in-plane directions
                sub1 = np.sort([r.field_mt for r in resonances if r.subsite == 1])
                sub2 = np.sort([r.field_mt for r in resonances if r.subsite == 2])
                assert np.abs(sub1 - sub2).max() < 2e-3

    def test_subsite2_map_is_reflected_subsite1(self):
        # Rz(pi) relation: subsite-2 resonances at direction d equal
        # subsite-1 resonances at Rz(pi) d
        c2 = rz(180)
        for theta in (20.0, 55.0):
            t = np.radians(theta)
            d = np.array([np.cos(t), 0.0, np.sin(t)])  # b-D1 plane
            r2 = [r for r in epr_resonance_fields(SITE_I.ground, d, 9.7, 1000.0) if r.subsite == 2]
            r1 = [r for r in epr_resonance_fields(SITE_I.ground, c2 @ d, 9.7, 1000.0) if r.subsite == 1]
            f2 = np.sort([r.field_mt for r in r2])
            f1 = np.sort([r.field_mt for r in r1])
            assert len(f1) == len(f2)
            assert np.abs(f1 - f2).max() < 2e-3

    def test_branch_counts_vary_with_angle(self):
        swept = epr_angular_map(SITE_I.ground, "b-D2", 30.0, 9.7, 1000.0)
        counts = [len(res) for _, res in swept]
        assert max(counts) > 0

    def test_rejects_unknown_plane(self):
        with pytest.raises(ValueError):
            epr_angular_map(SITE_I.ground, "a-b", 10.0, 9.7, 100.0)
