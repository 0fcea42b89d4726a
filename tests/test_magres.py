import tracemalloc

import numpy as np
import pytest

from kramers.hamiltonian import PAIRS, MU_B_GHZ_PER_T, SpinSystem, eigensystem, energies_sweep, zeeman_gradient
from kramers.magres import (
    B_AXIS,
    EPR_FIELD_TOL_MT,
    PLANES,
    RAY_CHUNK,
    EprResonance,
    _moment_operator,
    epr_angular_map,
    epr_resonance_fields,
    odmr_lines,
    resonance_search,
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

    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_results_do_not_depend_on_the_subsite_given(self, site, state):
        # fields, pairs, subsite labels and moments, to the last bit
        sys = getattr(site, state)
        for direction in np.random.default_rng(8).normal(size=(4, 3)):
            got = epr_resonance_fields(sys.with_subsite(2), direction, 9.7, 1000.0)
            assert {r.subsite for r in got} == {1, 2}
            assert repr(got) == repr(epr_resonance_fields(sys, direction, 9.7, 1000.0))

    def test_resonance_frequency_matches_nu_mw(self):
        # the eigenfield roots are exact: |nu(B*) - nu_mw| < 1e-11 GHz
        out = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 1000.0)
        assert out
        for r in out:
            sys = SITE_I.ground.with_subsite(r.subsite)
            es = eigensystem(sys, r.field_mt * np.asarray(r.direction))
            nu = es.energies[r.transition[1]] - es.energies[r.transition[0]]
            assert abs(nu - 9.7) < 1e-11

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


def newton_root(freq_at, slope_at, lo, hi, flo):
    """The root of a branch in its bracket [lo, hi]: bisected to
    EPR_FIELD_TOL_MT, then Newton steps from the midpoint until a step no
    longer shrinks, which is the root to rounding."""
    while hi - lo > EPR_FIELD_TOL_MT:
        mid = 0.5 * (lo + hi)
        fmid = freq_at(mid)
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    b, step = 0.5 * (lo + hi), np.inf
    while b > EPR_FIELD_TOL_MT:
        new = freq_at(b) / slope_at(b)
        if not abs(new) < abs(step):
            break
        b, step = b - new, new
    return b


def scalar_resonances(sys, direction, nu, b_max):
    """Reference: per-branch recursive bracketing on a 1 mT grid and
    Newton to rounding in each bracket, one field at a time.  A root within
    EPR_FIELD_TOL_MT of zero field is the zero-field root and is left out."""
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

            def slope_at(b):
                return zeeman_gradient(ssys, b * d, i, j) @ d

            for lo, hi, flo, _ in recursive_brackets(freq_at, mags, (e[:, j] - e[:, i]) - nu):
                b = newton_root(freq_at, slope_at, lo, hi, flo)
                if EPR_FIELD_TOL_MT < b <= b_max:
                    states = eigensystem(ssys, b * d).states
                    moment = transition_moments(_moment_operator(ssys, B_AXIS), states)[PAIRS.index((i, j))]
                    out.append(EprResonance(float(b), tuple(d), (i, j), subsite, float(moment)))
    out.sort(key=lambda r: (r.field_mt, r.subsite, r.transition))
    return out


def assert_matches_reference(found, reference):
    """The same resonances, subsite and transition as the reference, its
    fields to 1e-6 mT and its moments to 1e-6 of the largest."""
    order = [(float(f"{r.field_mt:.9g}"), r.subsite, r.transition) for r in found]
    assert order == sorted(order)
    key = lambda r: (r.subsite, r.transition, r.field_mt)
    found, reference = sorted(found, key=key), sorted(reference, key=key)
    assert [(r.subsite, r.transition, r.direction) for r in found] == [
        (r.subsite, r.transition, r.direction) for r in reference]
    if found:
        assert np.abs(np.subtract([r.field_mt for r in found], [r.field_mt for r in reference])).max() < 1e-6
        moments = np.array([[r.moment for r in found], [r.moment for r in reference]])
        assert np.abs(moments[0] - moments[1]).max() <= 1e-6 * moments.max()


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
            found = epr_resonance_fields(sys, d, nu, b_max)
            assert_matches_reference(found, scalar_resonances(sys, d, nu, b_max))
        assert {r.subsite for r in found} == {1, 2}

    # the grazing minimum lies after (60 mT) or before (23 mT) its lowest sample
    @pytest.mark.parametrize("pair,cell", [((1, 2), 60.0), ((0, 2), 22.0)])
    def test_near_tangent_crossing_matches_reference(self, pair, cell):
        nu = tangent_frequency(pair, cell - 10.0, cell + 10.0)
        found = epr_resonance_fields(SITE_I.ground, (0, 1, 0), nu, 100.0)
        assert_matches_reference(found, scalar_resonances(SITE_I.ground, (0, 1, 0), nu, 100.0))
        # both roots of the grazing branch lie between two grid samples
        grazing = [r.field_mt for r in found if r.transition == pair and r.subsite == 1]
        assert len(grazing) == 2 and cell < grazing[0] < grazing[1] < cell + 1.0

    # both planes pass D2 at 90 degrees, where the branch grazes nu between two samples
    @pytest.mark.parametrize("plane,pair,cell", [("b-D2", (1, 2), 60.0), ("D1-D2", (0, 2), 22.0)])
    def test_plane_map_matches_reference_at_every_angle(self, plane, pair, cell):
        nu = tangent_frequency(pair, cell - 10.0, cell + 10.0)
        e1, e2 = (np.asarray(v) for v in PLANES[plane])
        swept = epr_angular_map(SITE_I.ground, plane, 15.0, nu, 100.0)
        assert len(swept) == 13
        for theta, found in swept:
            t = np.radians(theta)
            assert_matches_reference(found, scalar_resonances(SITE_I.ground, np.cos(t) * e1 + np.sin(t) * e2, nu, 100.0))
        grazing = [r.field_mt for r in dict(swept)[90.0] if r.transition == pair and r.subsite == 1]
        assert len(grazing) == 2 and cell < grazing[0] < grazing[1] < cell + 1.0

    # nu equal to a zero-field gap makes nu - F^x singular, and puts a root at B = 0
    @pytest.mark.parametrize("gap", [(0, 3), (1, 2)])
    def test_zero_field_gap(self, gap):
        levels = eigensystem(SITE_I.ground, ZERO).energies
        nu = levels[gap[1]] - levels[gap[0]]
        found = epr_resonance_fields(SITE_I.ground, (1, 0, 0), nu, 1000.0)
        assert len(found) == 6 and min(r.field_mt for r in found) > 1.0
        assert_matches_reference(found, scalar_resonances(SITE_I.ground, (1, 0, 0), nu, 1000.0))

    def test_crossing_branches_take_their_own_pairs(self):
        # with no hyperfine the electron flips (0, 2) and (1, 3) meet nu at one
        # field: a double eigenvalue of the pencil, whose eigenvectors may mix
        # the two pairs.  The roots of the crossing still take one pair each
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = assemble_tensor(PrincipalTensor(tuple(rng.uniform(1.0, 6.0, 3)), EulerAngles(*rng.uniform(0.0, 90.0, 3))))
            sys = SpinSystem(A=SymmetricTensor3(np.zeros((3, 3))), g=g)
            d = rng.normal(size=3)
            found = epr_resonance_fields(sys, d, 9.7, 1000.0)
            assert_matches_reference(found, scalar_resonances(sys, d, 9.7, 1000.0))
            flips = [r for r in found if r.transition in ((0, 2), (1, 3))]
            assert len(flips) == 4 and np.ptp([r.field_mt for r in flips if r.subsite == 1]) < 1e-9


class TestSearchMemory:
    def test_long_ray_memory_is_bounded(self):
        # a ray costs one 16 x 16 eigenvalue problem at any length
        epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, 100.0)  # warm caches
        for b_max in (20000.0, 1e6):
            tracemalloc.start()
            try:
                out = epr_resonance_fields(SITE_I.ground, (1, 0, 0), 9.7, b_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out
            assert peak < 8e6

    def test_memory_is_flat_in_the_ray_count(self):
        sys = SITE_I.ground

        def peak(rays):
            t = np.linspace(0.0, np.pi, rays)
            directions = np.stack([np.cos(t), np.zeros_like(t), np.sin(t)], axis=1)
            tracemalloc.start()
            try:
                ray, _, _ = resonance_search(sys.A.matrix, sys.g.matrix, directions, 1000.0, 9.7,
                                             sys.g_n, sys.mu_b, sys.mu_n)
                assert ray.size > 3 * rays
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(RAY_CHUNK)  # warm caches
        assert peak(4 * RAY_CHUNK) < 1.1 * peak(2 * RAY_CHUNK)


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
