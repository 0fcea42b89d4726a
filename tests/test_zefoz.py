import tracemalloc

import numpy as np
import pytest

from conftest import isotropic_system, reference_curvature
from kramers import zefoz
from kramers.hamiltonian import PAIRS, field_hessians, hamiltonian_batch, zeeman_gradient
from kramers.presets import SITE_I, SITE_II
from kramers.trust_region import MAX_EVALUATIONS
from kramers.zefoz import EXACT, NEAR, fibonacci_directions, sensitivity, zefoz_search

PRESET_STATES = (SITE_I.ground, SITE_I.excited, SITE_II.ground, SITE_II.excited)


class TestSensitivity:
    def test_gradient_odd_symmetry_makes_zero_field_stationary(self):
        # nu(B) = nu(-B), so the gradient of every transition vanishes at 0
        for (i, j) in ((0, 1), (0, 3), (1, 2)):
            grad, _ = sensitivity(SITE_I.ground, (0.0, 0.0, 0.0), i, j)
            assert np.linalg.norm(grad) < 1e-9
            gp = zeeman_gradient(SITE_I.ground, (7.0, -3.0, 2.0), i, j)
            gm = zeeman_gradient(SITE_I.ground, (-7.0, 3.0, -2.0), i, j)
            assert np.abs(gp + gm).max() < 1e-10

    def test_curvature_matches_second_difference_of_frequency(self):
        from kramers.hamiltonian import eigensystem

        i, j = 0, 3
        B = np.array([20.0, 5.0, -10.0])
        _, curv = sensitivity(SITE_I.ground, B, i, j)

        def nu(b):
            es = eigensystem(SITE_I.ground, b)
            return (es.energies[j] - es.energies[i]) * 1e3  # MHz

        h = 0.05
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            second = (nu(B + e) - 2 * nu(B) + nu(B - e)) / h**2
            assert curv[k, k] == pytest.approx(second, rel=1e-4, abs=1e-6)

    def test_curvature_matches_reference_stencil(self):
        # the perturbation-theory Hessian against the finite-difference one
        fields = np.random.default_rng(44).uniform(-150.0, 150.0, (50, 3))
        for sys in PRESET_STATES:
            for i, j in PAIRS:
                _, curv = sensitivity(sys, fields, i, j)
                ref = reference_curvature(sys, fields, i, j)
                err = np.abs(curv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
                assert err.max() <= 1e-5, (i, j)

    def test_third_derivative_matches_central_differences(self):
        # the third-order perturbation sum against central differences of
        # the second-order Hessian, for every transition
        fields = np.random.default_rng(46).uniform(-150.0, 150.0, (20, 3))
        h = 1e-3
        for sys in PRESET_STATES:
            def derivatives(f):
                w, v = np.linalg.eigh(hamiltonian_batch(sys, f.reshape(-1, 3)))
                return field_hessians(w, v, sys.zeeman_derivatives)

            thirds = derivatives(fields)[2]
            # (field, step axis, level, 3, 3)
            steps = fields[:, None, :] + h * np.eye(3)
            plus = derivatives(steps)[0].reshape(20, 3, 4, 3, 3)
            minus = derivatives(steps - 2.0 * h * np.eye(3))[0].reshape(20, 3, 4, 3, 3)
            differences = (plus - minus) / (2.0 * h)
            for i, j in PAIRS:
                ref = differences[:, :, j] - differences[:, :, i]
                third = np.moveaxis(thirds[:, j] - thirds[:, i], -1, 1)
                err = np.abs(third - ref).max(axis=(1, 2, 3)) / np.abs(ref).max(axis=(1, 2, 3))
                assert err.max() <= 1e-5, (i, j)

    def test_preset_curvature_always_resolved(self):
        # sensitivity raises where the degeneracy and rounding mask flags a field
        fields = np.random.default_rng(45).uniform(-150.0, 150.0, (5000, 3))
        for sys in PRESET_STATES:
            for i, j in PAIRS:
                sensitivity(sys, fields, i, j)

    def test_isotropic_high_field_gradient_norm(self):
        # closed form: electron-flip slope = mu_B g (nuclear term cancels in
        # the same-nucleus branch); units MHz/mT
        g = 2.0
        sys = isotropic_system(0.05, g)
        grad, _ = sensitivity(sys, (300.0, 0.0, 0.0), 0, 2)
        expected = 13.996245 * g  # MHz/mT
        assert np.linalg.norm(grad) == pytest.approx(expected, rel=1e-3)

    def test_stack_equals_per_point(self):
        fields = np.random.default_rng(43).uniform(-120.0, 120.0, (7, 3))
        for sys in (SITE_I.ground, SITE_I.excited):
            grad, curv = sensitivity(sys, fields, 1, 2)
            assert grad.shape == (7, 3) and curv.shape == (7, 3, 3)
            for n, b in enumerate(fields):
                one_grad, one_curv = sensitivity(sys, b, 1, 2)
                np.testing.assert_array_equal(grad[n], one_grad)
                np.testing.assert_array_equal(curv[n], one_curv)

    def test_degenerate_transition_rejected(self):
        sys = isotropic_system(2.0, 2.0)
        with pytest.raises(ValueError):
            sensitivity(sys, (0.0, 0.0, 0.0), 1, 2)


class TestAnalyticOracle:
    """Isotropic A and g: the singlet <-> triplet-m0 transition has the exact
    closed form nu = sqrt(a^2 + c^2 B^2), c = mu_B g + mu_n g_n."""

    def setup_method(self):
        self.a = 1.2
        self.g = 2.0
        self.sys = isotropic_system(self.a, self.g)
        self.c = (13.996245 * self.g + 7.6225932e-3 * 0.987) * 1e-3  # GHz/mT

    def nu_exact(self, b_mt):
        return np.sqrt(self.a**2 + (self.c * b_mt) ** 2)

    def test_model_matches_oracle(self):
        from kramers.hamiltonian import eigensystem

        for b in (5.0, 20.0, 80.0):
            es = eigensystem(self.sys, (0.0, 0.0, b))
            # singlet is level 0; triplet m0 branch is level 2 at these fields
            nu = es.energies[2] - es.energies[0]
            assert nu == pytest.approx(self.nu_exact(b), rel=1e-10)

    def test_transverse_curvature_at_large_fields(self):
        # the curvature of nu across B is c^2 / nu: at these fields a fixed
        # finite-difference step is lost in the rounding of B itself
        direction = np.array([1.0, -2.0, 2.0]) / 3.0
        for b in (1e5, 1e7, 1e9, 1e12):
            _, curv = sensitivity(self.sys, b * direction, 0, 3)
            expected = 1e3 * self.c**2 / self.nu_exact(b)
            transverse = np.linalg.eigvalsh(curv)[1:]
            assert np.abs(transverse / expected - 1.0).max() <= 1e-12, b

    def test_zefoz_at_zero_with_curvature(self):
        candidates = zefoz_search(
            self.sys, (0, 2), region=30.0, grid=(24, 7), n_seeds=6
        )
        assert candidates
        best = candidates[0]
        assert np.linalg.norm(best.field_mt) < 0.05
        assert best.classification == EXACT
        # curvature of sqrt(a^2 + c^2 B^2) at 0 is (c^2/a) I, in MHz/mT^2
        expected = (self.c**2 / self.a) * 1e3
        assert np.abs(np.array(best.curvature_eigs_mhz_per_mt2) - expected).max() < 1e-6 * expected + 1e-6

    def test_boundary_minimum_on_box_face(self):
        # |grad nu| = c^2 |B| / nu rises with |B|, so on this box the least
        # sensitivity sits on the face B_D1 = 10 mT, at (10, 0, 0)
        box = ((10.0, 30.0), (-5.0, 5.0), (-5.0, 5.0))
        best = zefoz_search(self.sys, (0, 2), region=box, grid=(5, 4, 4))[0]
        assert np.linalg.norm(np.array(best.field_mt) - (10.0, 0.0, 0.0)) < 1e-3
        assert best.classification == NEAR
        assert not best.stationary


class TestSearch:
    def test_site_i_zero_field_candidate(self):
        candidates = zefoz_search(
            SITE_I.ground, (1, 2), region=0.0, grid=(1, 1), n_seeds=1
        )
        assert len(candidates) == 1
        assert candidates[0].field_mt == (0.0, 0.0, 0.0)
        assert candidates[0].classification == EXACT

    def test_ball_search_finds_zero_field(self):
        candidates = zefoz_search(SITE_I.ground, (0, 1), region=50.0, grid=(16, 5), n_seeds=4)
        assert candidates
        assert np.linalg.norm(candidates[0].field_mt) < 0.1
        assert candidates[0].grad_norm_mhz_per_mt < 1e-3

    def test_monotone_branch_boundary_minimum_flagged(self):
        # pure Zeeman system: |grad| is constant and nonzero everywhere, so
        # any minimum sits on the region boundary and is not stationary
        sys = isotropic_system(0.0, 2.0)
        box = ((10.0, 30.0), (0.0, 0.0), (0.0, 0.0))
        candidates = zefoz_search(sys, (0, 3), region=box, grid=(5, 1, 1), n_seeds=3)
        assert candidates
        assert all(c.classification == NEAR for c in candidates)
        assert all(not c.stationary for c in candidates)

    def test_candidates_in_canonical_half_space(self):
        candidates = zefoz_search(SITE_I.ground, (1, 2), region=40.0, grid=(16, 5), n_seeds=8)
        for c in candidates:
            b = np.array(c.field_mt)
            nonzero = b[np.abs(b) > 1e-9]
            if nonzero.size:
                assert nonzero[0] > 0

    def test_ranking_ascending_and_dedup(self):
        candidates = zefoz_search(SITE_I.ground, (0, 2), region=60.0, grid=(24, 5), n_seeds=10)
        norms = [c.grad_norm_mhz_per_mt for c in candidates]
        assert norms == sorted(norms)
        for a in range(len(candidates)):
            for b in range(a + 1, len(candidates)):
                d = np.linalg.norm(np.array(candidates[a].field_mt) - np.array(candidates[b].field_mt))
                assert d > 0.1

    def test_ranking_stable_under_grid_refinement(self):
        coarse = zefoz_search(SITE_I.ground, (1, 2), region=40.0, grid=(16, 5), n_seeds=6)
        fine = zefoz_search(SITE_I.ground, (1, 2), region=40.0, grid=(32, 9), n_seeds=6)
        assert np.linalg.norm(np.array(coarse[0].field_mt) - np.array(fine[0].field_mt)) < 0.1

    def test_degenerate_only_region_returns_empty(self):
        # the isotropic triplet is degenerate at B = 0, so the single-point
        # region holds no usable candidate and the search returns empty
        box = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        candidates = zefoz_search(isotropic_system(1.0, 2.0), (0, 3), region=box, grid=(1, 1, 1))
        assert candidates == []

    def test_single_point_region_nondegenerate(self):
        box = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        candidates = zefoz_search(SITE_I.ground, (0, 3), region=box, grid=(1, 1, 1))
        assert len(candidates) == 1
        assert candidates[0].classification == EXACT

    @pytest.mark.parametrize("region", [
        -50.0, np.nan, np.inf,
        ((30.0, 10.0), (-5.0, 5.0), (-5.0, 5.0)),
        ((np.nan, 10.0), (-5.0, 5.0), (-5.0, 5.0)),
    ])
    def test_invalid_region_rejected(self, region):
        with pytest.raises(ValueError, match="region"):
            zefoz_search(SITE_I.ground, (1, 2), region=region)

    def test_descent_census(self, monkeypatch):
        # every preset state and transition in the default ball: B = 0 comes
        # back exact, every candidate lies in the ball (to rounding), and no
        # seed runs to the evaluation cap
        counts = []
        descend = zefoz._descend

        def recording(*args):
            end, evaluations = descend(*args)
            counts.append(evaluations)
            return end, evaluations

        monkeypatch.setattr(zefoz, "_descend", recording)
        for sys in PRESET_STATES:
            for pair in PAIRS:
                candidates = zefoz_search(sys, pair, region=100.0)
                at_zero = [c for c in candidates if c.field_mt == (0.0, 0.0, 0.0)]
                assert [c.classification for c in at_zero] == [EXACT], pair
                assert all(np.linalg.norm(c.field_mt) <= 100.0 * (1.0 + 1e-12) for c in candidates), pair
                assert counts[-1].max() < MAX_EVALUATIONS, pair

    def test_boundary_valley_gives_one_candidate(self):
        # the (0, 1) gradient is least along one valley on the sphere: its
        # seeds end at one point there, reported once beside B = 0
        candidates = zefoz_search(SITE_I.ground, (0, 1), region=100.0)
        assert len(candidates) == 2
        assert candidates[0].field_mt == (0.0, 0.0, 0.0)
        assert np.linalg.norm(candidates[1].field_mt) == pytest.approx(100.0, rel=1e-12)
        assert candidates[1].classification == NEAR and not candidates[1].stationary

    def test_corner_seed_steps_into_the_box(self):
        # at this corner the gradient points out of the B_D1 and B_b faces
        # and into the box along B_D2, while the Newton step points out along
        # B_D2 and B_b: pinned by the step alone, no coordinate would move
        box = np.array([[30.0, 120.0], [15.0, 70.0], [-90.0, 2.0]])
        end, evaluations = zefoz._descend(SITE_II.ground, 1, 3, np.array([[30.0, 15.0, 2.0]]), box)
        grad, _ = sensitivity(SITE_II.ground, end[0], 1, 3)
        assert evaluations[0] > 1 and np.linalg.norm(grad) < 0.2

    def test_scan_memory_does_not_grow_with_grid(self):
        def peak(grid):
            tracemalloc.start()
            try:
                zefoz_search(SITE_I.ground, (1, 2), 100.0, grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak((2000, 50)) <= 1.5 * peak((200, 50))


class TestDirections:
    def test_fibonacci_unit_and_spread(self):
        d = fibonacci_directions(64)
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12
        # crude isotropy check: mean direction near zero
        assert np.linalg.norm(d.mean(axis=0)) < 0.05
