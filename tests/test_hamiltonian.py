from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kramers
from kramers import fitting, hamiltonian
from kramers.fitting import DataPoint, FitProblem, compile_data
from kramers.hamiltonian import (
    EigenSystem,
    MU_B_GHZ_PER_T,
    MU_N_GHZ_PER_T,
    PAIR_HI,
    PAIR_LO,
    PAIRS,
    SpinSystem,
    basis_overlaps,
    build_hamiltonian,
    degenerate_levels,
    diagonalize,
    eigensystem,
    hamiltonian_batch,
    hamiltonian_stack,
    invert_zero_field,
    level_derivatives,
    physical_constants,
    product_basis,
    transition_frequencies,
    transition_gradients,
    unit_direction,
    zeeman_gradient,
    zero_field_levels,
)
from kramers.presets import SITE_I, SITE_II
from kramers.selftest import adapted_axes
from kramers.tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    assemble_tensor,
    decompose_tensor,
    rz,
)
from conftest import closed_form, eigh_reference, isotropic_system, random_system
from test_fitting import FULL_FLAGS

D1 = np.array([1.0, 0.0, 0.0])


def charpoly_eigenvalues(H):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial from traces, then companion-matrix roots."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(H)
    for k in range(1, n + 1):
        M = H @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(H @ M).real / k)
    return np.sort(np.roots(np.array(coeffs)).real)


class TestConstants:
    def test_values(self):
        mu_b, mu_n = physical_constants()
        assert mu_b == 13.996245
        assert mu_n == 7.6225932e-3

    def test_electron_proton_ratio(self):
        mu_b, mu_n = physical_constants()
        assert mu_b / mu_n == pytest.approx(1836.15, abs=0.1)

    def test_mu_b_rounds_to_14(self):
        assert round(physical_constants()[0]) == 14

    def test_nuclear_zeeman_at_one_tesla(self):
        # direct multiplication oracle: 7.6225932e-3 * 0.987 = 7.5234995e-3
        mu_n = physical_constants()[1]
        shift = mu_n * 0.987 * 1.0
        assert shift == pytest.approx(7.5234995e-3, abs=1e-10)
        assert float(f"{shift:.4g}") == 7.523e-3 or float(f"{shift:.4g}") == 7.524e-3


class TestBuildHamiltonian:
    def test_isotropic_singlet_triplet(self):
        a = 3.7
        H = build_hamiltonian(isotropic_system(a), (0, 0, 0))
        w = np.linalg.eigvalsh(H)
        expected = np.sort([-0.75 * a, 0.25 * a, 0.25 * a, 0.25 * a])
        assert np.abs(w - expected).max() < 1e-12

    def test_traceless_at_zero_field_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            H = build_hamiltonian(random_system(rng), (0, 0, 0))
            assert np.trace(H).real == 0.0

    def test_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            H = build_hamiltonian(random_system(rng), rng.uniform(-300, 300, 3))
            assert np.abs(H - H.conj().T).max() < 1e-14

    def test_against_charpoly_oracle_site_i_100mt(self):
        H = build_hamiltonian(SITE_I.ground, (100.0, 0.0, 0.0))
        assert np.abs(np.linalg.eigvalsh(H) - charpoly_eigenvalues(H)).max() < 1e-10

    def test_against_charpoly_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            H = build_hamiltonian(random_system(rng), rng.uniform(-500, 500, 3))
            scale = max(1.0, np.abs(H).max())
            assert np.abs(np.linalg.eigvalsh(H) - charpoly_eigenvalues(H)).max() < 1e-10 * scale


class TestUnitDirection:
    @pytest.mark.parametrize("extreme, ordinary", [
        ((1e200, 1e200, 0.0), (1.0, 1.0, 0.0)),
        ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((5e-324, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1e308, 1e308, 1e308), (1.0, 1.0, 1.0)),
        ((-1e-160, 0.0, 0.0), (-1.0, 0.0, 0.0)),  # squares subnormal: the plain norm is 1e-5 off
    ])
    def test_extremes_give_their_ordinary_twin(self, extreme, ordinary):
        assert unit_direction(extreme).tobytes() == unit_direction(ordinary).tobytes()

    def test_ordinary_input_is_divided_by_its_norm(self):
        rng = np.random.default_rng(22)
        for d in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            assert unit_direction(d).tobytes() == (d / np.linalg.norm(d)).tobytes()

    @pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0), (np.inf, 0.0, 0.0), (1.0, np.nan, 0.0), (-np.inf, 1.0, 1.0)])
    def test_zero_and_non_finite_raise(self, bad):
        with pytest.raises(ValueError, match="nonzero direction"):
            unit_direction(bad)


_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)
_S = np.stack([np.kron(s, np.eye(2, dtype=complex)) for s in _HALF])
_I = np.stack([np.kron(np.eye(2, dtype=complex), s) for s in _HALF])


def kron_hamiltonians(sys, fields):
    """Reference assembly from Kronecker products, rebuilt on every call."""
    A, g = sys.A.matrix, sys.g.matrix
    h_hf = sum(A[k, l] * (_I[k] @ _S[l]) for k in range(3) for l in range(3))
    h_el = np.einsum("nl,lab->nab", (fields @ g) * (sys.mu_b * 1e-3), _S)
    h_nuc = np.einsum("nk,kab->nab", fields * (sys.mu_n * 1e-3 * sys.g_n), _I)
    return h_hf[None, :, :] + h_el - h_nuc


def kron_derivatives(sys):
    d = np.einsum("kl,lab->kab", sys.g.matrix * (sys.mu_b * 1e-3), _S)
    d -= (sys.mu_n * 1e-3 * sys.g_n) * _I
    return d


class TestCachedKernel:
    FIELDS = np.random.default_rng(21).uniform(-800, 800, (500, 3))

    @pytest.mark.parametrize("subsite", [1, 2])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_batch_equals_kronecker_formula_exactly(self, subsite, state):
        for site in (SITE_I, SITE_II):
            self.assert_matches_reference(getattr(site, state).with_subsite(subsite))

    def assert_matches_reference(self, sys):
        np.testing.assert_array_equal(hamiltonian_batch(sys, self.FIELDS), kron_hamiltonians(sys, self.FIELDS))
        np.testing.assert_array_equal(sys.zeeman_derivatives, kron_derivatives(sys))

    def test_batch_rows_independent_of_batch_size(self):
        fields = self.FIELDS[:50]
        one_by_one = np.concatenate([hamiltonian_batch(SITE_I.ground, f[None, :]) for f in fields])
        np.testing.assert_array_equal(one_by_one, hamiltonian_batch(SITE_I.ground, fields))

    def test_replace_and_subsite_never_see_stale_cache(self):
        sys = SITE_I.ground
        hamiltonian_batch(sys, self.FIELDS)
        sys.zeeman_derivatives  # sys's own matrices come first
        variants = (
            replace(sys, A=SITE_II.ground.A),
            replace(sys, g=SITE_I.excited.g),
            replace(sys, mu_b=14.0, mu_n=7.6e-3, g_n=0.5),
            sys.with_subsite(2),
        )
        for other in (*variants, sys):
            self.assert_matches_reference(other)

    def test_stack_is_the_batch_for_each_system(self):
        # one assembly: a stack of systems gives, row by row, each system's
        # own hamiltonian_batch, bit for bit
        systems = [getattr(site, state).with_subsite(sub) for site in (SITE_I, SITE_II)
                   for state in ("ground", "excited") for sub in (1, 2)]
        A = np.array([s.A.matrix for s in systems])
        g = np.array([s.g.matrix for s in systems])
        sys = systems[0]
        stacked = hamiltonian_stack(A, g, self.FIELDS, sys.g_n, sys.mu_b, sys.mu_n)
        for n, one in enumerate(systems):
            np.testing.assert_array_equal(stacked[n], hamiltonian_batch(one, self.FIELDS))
        # per-system fields broadcast as (..., N, 3)
        per_system = hamiltonian_stack(A, g, self.FIELDS[: len(systems), None], sys.g_n, sys.mu_b, sys.mu_n)
        for n, one in enumerate(systems):
            np.testing.assert_array_equal(per_system[n], hamiltonian_batch(one, self.FIELDS[n : n + 1]))

    def test_pair_table(self):
        assert PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert list(zip(PAIR_LO, PAIR_HI)) == list(PAIRS)

    def test_spin_operators_built_only_in_hamiltonian(self):
        # every other module reaches spin operators through H0 and D
        names = ("np.kron", "S_STACK", "I_STACK", "S_OPS", "I_OPS")
        package = Path(kramers.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert package / "hamiltonian.py" in modules
        for path in modules:
            if path.name != "hamiltonian.py":
                text = path.read_text()
                assert [n for n in names if n in text] == [], path.name


class TestDiagonalize:
    def test_rejects_non_hermitian(self):
        H = np.eye(4, dtype=complex)
        H[0, 1] = 1e-6
        with pytest.raises(ValueError):
            diagonalize(H)

    def test_identity_fourfold_degenerate(self):
        es = diagonalize(np.eye(4, dtype=complex))
        assert degenerate_levels(es.energies).all()

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            H = build_hamiltonian(random_system(rng), rng.uniform(-500, 500, 3))
            es = diagonalize(H)
            scale = max(1.0, np.abs(H).max())
            for n in range(4):
                r = H @ es.states[:, n] - es.energies[n] * es.states[:, n]
                assert np.linalg.norm(r) < 1e-10 * scale
            gram = es.states.conj().T @ es.states
            assert np.abs(gram - np.eye(4)).max() < 1e-10

    def test_energies_ascending_and_sum_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            es = eigensystem(random_system(rng), rng.uniform(-400, 400, 3))
            assert np.all(np.diff(es.energies) >= 0)
            assert abs(es.energies.sum()) < 1e-9


class TestZeroFieldLevels:
    # Eq-form oracle evaluated by hand for the canonical site-I ground values
    def test_site_i_ground_levels(self):
        lv = zero_field_levels(0.484, 1.162, 5.254)
        assert np.abs(lv.sorted() - [-1.725, -0.902, 1.144, 1.483]).max() < 1e-12

    def test_isotropic(self):
        a = 2.0
        lv = zero_field_levels(a, a, a)
        assert np.abs(lv.sorted() - [-1.5, 0.5, 0.5, 0.5]).max() < 1e-12

    def test_matches_numeric_site_i(self):
        numeric = np.linalg.eigvalsh(build_hamiltonian(SITE_I.ground, (0, 0, 0)))
        from kramers.tensors import decompose_tensor

        analytic = zero_field_levels(*decompose_tensor(SITE_I.ground.A).values).sorted()
        assert np.abs(numeric - analytic).max() < 1e-9

    def test_matches_numeric_random_1000(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            values = rng.uniform(-8, 8, 3)
            angles = EulerAngles(rng.uniform(-180, 180), rng.uniform(0, 180), rng.uniform(-180, 180))
            sys = SpinSystem(
                A=assemble_tensor(PrincipalTensor(tuple(values), angles)),
                g=SymmetricTensor3(2.0 * np.eye(3)),
            )
            numeric = np.linalg.eigvalsh(build_hamiltonian(sys, (0, 0, 0)))
            analytic = zero_field_levels(*values).sorted()
            assert np.abs(numeric - analytic).max() < 1e-9

    def test_branch_tags_retained(self):
        lv = zero_field_levels(0.5, 1.0, 5.0)
        assert len(lv.BRANCHES) == 4
        assert lv.energies[0] == 0.25 * (-5.0 - 1.5)
        assert lv.energies[3] == 0.25 * (5.0 + (0.5 - 1.0))


class TestInvertZeroField:
    def test_roundtrip_1000(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            a = np.sort(rng.uniform(0.0, 9.0, 3))
            rec = invert_zero_field(zero_field_levels(*a).sorted())
            assert np.abs(np.array(rec) - a).max() < 1e-12

    def test_isotropic(self):
        rec = invert_zero_field(zero_field_levels(2.0, 2.0, 2.0).sorted())
        assert rec == pytest.approx((2.0, 2.0, 2.0), abs=1e-14)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            invert_zero_field([1.0, -1.0, 0.5, -0.5])

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            invert_zero_field([0.0, 1.0, 2.0, 3.0])


class TestTransitionFrequencies:
    def test_site_i_ground_zero_field(self):
        mhz = np.sort(transition_frequencies(eigensystem(SITE_I.ground, (0, 0, 0)))) * 1e3
        expected = [339.0, 823.0, 2046.0, 2385.0, 2869.0, 3208.0]
        assert np.abs(mhz - expected).max() < 1.0

    def test_site_ii_ground_zero_field(self):
        mhz = transition_frequencies(eigensystem(SITE_II.ground, (0, 0, 0))) * 1e3
        for target in (528.0, 655.0, 2370.0, 2496.0, 3025.0):
            assert np.abs(mhz - target).min() < 2.0

    def test_six_entries_nonnegative_labeled(self):
        es = eigensystem(SITE_I.excited, (37.0, -12.0, 5.0))
        freqs = transition_frequencies(es)
        assert freqs.shape == (6,)
        assert np.all(freqs >= 0)
        # entry n is the (lower, upper) = PAIRS[n] difference
        assert PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert freqs.tolist() == [float(es.energies[j] - es.energies[i]) for i, j in PAIRS]

    def test_degenerate_pair_zero_entry_retained(self):
        es = diagonalize(np.zeros((4, 4), dtype=complex))
        freqs = transition_frequencies(es)
        assert freqs.shape == (6,)
        assert np.all(freqs == 0.0)


class TestBasisOverlaps:
    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            es = eigensystem(random_system(rng), rng.uniform(-200, 200, 3))
            o = basis_overlaps(es)
            assert np.abs(o.sum(axis=0) - 1.0).max() < 1e-10

    def test_bell_structure_in_principal_frame(self):
        # A diagonal in the crystal frame = its own principal frame
        sys = SpinSystem(
            A=SymmetricTensor3(np.diag([0.484, 1.162, 5.254])),
            g=SymmetricTensor3(2.0 * np.eye(3)),
        )
        o = np.sort(basis_overlaps(eigensystem(sys, (0, 0, 0))), axis=0)
        assert np.abs(o[2:, :] - 0.5).max() < 1e-10
        assert np.abs(o[:2, :]).max() < 1e-10

    def test_high_field_product_dominance_adapted_frame(self):
        # high-field limit oracle: perturbation-theory product states along
        # the field-adapted axes dominate each eigenstate at 150 mT
        e_ax, n_ax = adapted_axes(SITE_I.ground, D1)
        es = eigensystem(SITE_I.ground, 150.0 * D1)
        o = basis_overlaps(es, electron_axis=e_ax, nuclear_axis=n_ax)
        assert np.all(o.max(axis=0) > 0.9)

    def test_product_basis_unitary(self):
        b = product_basis((0.3, -0.4, 0.86), (1.0, 2.0, -0.5))
        assert np.abs(b.conj().T @ b - np.eye(4)).max() < 1e-12


class TestZeemanGradient:
    def finite_difference(self, sys, B, i, j, h=0.01):
        B = np.asarray(B, dtype=float)
        grad = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            ep = eigensystem(sys, B + e).energies
            em = eigensystem(sys, B - e).energies
            grad[k] = ((ep[j] - ep[i]) - (em[j] - em[i])) / (2 * h)
        return grad

    def test_matches_finite_differences_site_i(self):
        B = (50.0, 0.0, 0.0)
        for (i, j) in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            g = zeeman_gradient(SITE_I.ground, B, i, j)
            fd = self.finite_difference(SITE_I.ground, B, i, j)
            assert np.abs(g - fd).max() < 1e-6 * max(1.0, np.linalg.norm(g))

    def test_zero_field_gradient_vanishes(self):
        # Kramers symmetry: nu(B) = nu(-B), so every gradient vanishes at 0;
        # the finite-difference oracle agrees
        g = zeeman_gradient(SITE_I.ground, (0.0, 0.0, 0.0), 0, 3)
        fd = self.finite_difference(SITE_I.ground, (0.0, 0.0, 0.0), 0, 3)
        assert np.linalg.norm(g) < 1e-12
        assert np.linalg.norm(fd) < 1e-9

    def test_high_field_isotropic_along_field_only(self):
        sys = isotropic_system(0.1, g=2.0)
        B = (400.0, 0.0, 0.0)
        g = zeeman_gradient(sys, B, 0, 3)  # electron-flip within the manifold
        assert abs(g[1]) < 1e-9 and abs(g[2]) < 1e-9

    def test_degenerate_levels_rejected(self):
        sys = isotropic_system(2.0)
        with pytest.raises(ValueError, match="degenerate at this field"):
            zeeman_gradient(sys, (0.0, 0.0, 0.0), 1, 2)  # triplet degenerate at B=0

    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_stacked_gradient_matches_central_differences(self, site, state):
        sys = getattr(site, state)
        fields = np.random.default_rng(41).uniform(-150.0, 150.0, (20, 3))
        h = 1e-3
        for n, (i, j) in enumerate(PAIRS):
            grad, degenerate = transition_gradients(sys, fields, i, j)
            assert grad.shape == (20, 3) and not degenerate.any()
            for k in range(3):
                nu = [[transition_frequencies(eigensystem(sys, b + s * h * np.eye(3)[k]))[n] for b in fields]
                      for s in (1.0, -1.0)]
                np.testing.assert_allclose(grad[:, k], (np.array(nu[0]) - np.array(nu[1])) / (2 * h),
                                           rtol=0, atol=1e-8)

    def test_degeneracy_mask_matches_value_errors(self):
        # the stacked mask flags exactly the fields where zeeman_gradient raises
        directions = np.random.default_rng(42).normal(size=(3, 3))
        magnitudes = (0.0, 1e-7, 1e-5, 3e-5, 1e-4, 1e-2, 1.0, 50.0)
        fields = np.array([m * d / np.linalg.norm(d) for m in magnitudes for d in directions])
        masks = []
        for sys in (isotropic_system(2.0), isotropic_system(0.0), SITE_I.ground):
            for i, j in PAIRS:
                _, degenerate = transition_gradients(sys, fields, i, j)
                for b, flagged in zip(fields, degenerate):
                    try:
                        zeeman_gradient(sys, b, i, j)
                        raised = False
                    except ValueError:
                        raised = True
                    assert raised == flagged, (b, i, j)
                masks.append(degenerate)
        assert np.any(masks) and not np.all(masks)


class TestSymmetryProperties:
    def test_kramers_field_reversal_1000(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            sys = random_system(rng)
            B = rng.uniform(-500, 500, 3)
            wp = np.linalg.eigvalsh(build_hamiltonian(sys, B))
            wm = np.linalg.eigvalsh(build_hamiltonian(sys, -B))
            assert np.abs(wp - wm).max() < 1e-10 * max(1.0, np.abs(wp).max())

    def test_subsite_spectral_relation_1000(self):
        rng = np.random.default_rng(19)
        c2 = rz(180)
        for _ in range(1000):
            sys = random_system(rng)
            B = rng.uniform(-400, 400, 3)
            w2 = np.linalg.eigvalsh(build_hamiltonian(sys.with_subsite(2), B))
            w1 = np.linalg.eigvalsh(build_hamiltonian(sys, c2 @ B))
            assert np.abs(w2 - w1).max() < 1e-10 * max(1.0, np.abs(w1).max())

    def test_subsites_degenerate_in_mirror_plane_and_along_b(self):
        rng = np.random.default_rng(20)
        sys = random_system(rng)
        for B in [(120.0, -35.0, 0.0), (0.0, 0.0, 87.0)]:
            w1 = np.linalg.eigvalsh(build_hamiltonian(sys, B))
            w2 = np.linalg.eigvalsh(build_hamiltonian(sys.with_subsite(2), B))
            assert np.abs(w1 - w2).max() < 1e-10

    def test_subsite_representation_is_subsite_transform(self):
        from kramers.tensors import subsite_transform

        sys2 = SITE_I.ground.with_subsite(2)
        assert np.array_equal(sys2.A.matrix, subsite_transform(SITE_I.ground.A).matrix)
        assert np.array_equal(sys2.g.matrix, subsite_transform(SITE_I.ground.g).matrix)


@pytest.mark.parametrize("restarts, fields, block", [(5, 7, 1), (5, 7, 13), (3, 40, 16), (64, 100, 512),
                                                      (2, 1, 512), (1, 2048, 512)])
def test_blocks_tile_restarts_by_fields_once(monkeypatch, restarts, fields, block):
    monkeypatch.setattr(hamiltonian, "EIGH_BLOCK", block)
    base = SITE_I.ground
    A, g = (np.broadcast_to(t.matrix, (restarts, 3, 3)) for t in (base.A, base.g))
    points = np.random.default_rng(3).uniform(-100.0, 100.0, (fields, 3))
    seen = np.zeros((restarts, fields), dtype=int)
    for at, levels, derivatives in level_derivatives(A, g, np.zeros((restarts, 1, 3, 3)), None, points,
                                                     base.g_n, base.mu_b, base.mu_n):
        seen[at] += 1
        assert seen[at].size <= block
        assert levels.shape == seen[at].shape + (4,) and derivatives.shape == seen[at].shape + (4, 1)
    assert (seen == 1).all()


def test_one_block_size_reaches_every_tiled_solve(tmp_path, monkeypatch):
    # the ZEFOZ scan, the SHB map, the fit's level kernel and its EPR rows
    from kramers import shb, zefoz
    from kramers.cli import _read_data_csv
    from test_cli import PINNED_FIT_DATA

    (tmp_path / "data.csv").write_text(PINNED_FIT_DATA)
    data = compile_data(_read_data_csv(tmp_path / "data.csv"))
    problem = FitProblem(site=SITE_I)
    lo, hi = problem.bounds()
    x = np.concatenate([problem.initial_parameters()[None], np.random.default_rng(2).uniform(lo, hi, (4, lo.size))])
    sizes = []  # per block size, the Hamiltonians of every stacked solve, by site

    def record(module, name, size):
        call = getattr(module, name)

        def recorded(*args):
            sizes[-1].setdefault(name, []).append(size(*args))
            return call(*args)

        monkeypatch.setattr(module, name, recorded)

    record(zefoz, "transition_gradients", lambda sys, fields, i, j: len(fields))
    record(shb, "_energies", lambda site, fields: len(fields))
    record(hamiltonian, "_closed_form", lambda parts, g, fields, *args: len(g) * len(fields))
    record(fitting, "hellmann_feynman", lambda A, *args: len(A))
    runs, blocks = [], (1, 7, 10**9)
    for block in blocks:
        monkeypatch.setattr(hamiltonian, "EIGH_BLOCK", block)
        sizes.append({})
        runs.append((repr(zefoz.zefoz_search(SITE_I.ground, (1, 2))),
                     shb.shb_field_map(SITE_I, (1.0, 2.0, 2.0), np.linspace(0.0, 150.0, 11), 0.1,
                                       detuning_range_ghz=(-1.0, 1.0), detuning_step_ghz=0.01).amplitudes,
                     *fitting.evaluate(problem, *fitting._points(problem, x), data)))
    # unbounded, each site solves all its Hamiltonians at once: the default scan's 641 points, the 11 fields
    whole = sizes[-1]
    assert whole["transition_gradients"] == [641] and whole["_energies"] == [11]
    assert len(whole["_closed_form"]) == 1 and len(whole["hellmann_feynman"]) == 1
    assert min(n for site in whole.values() for n in site) > 7
    for block, seen in zip(blocks, sizes):
        assert seen.keys() == whole.keys()
        for site, solved in seen.items():
            assert max(solved) <= block and sum(solved) == sum(whole[site]), (block, site)
    for run in runs[:-1]:
        assert run[0] == runs[-1][0]
        for got, want in zip(run[1:], runs[-1][1:]):
            assert np.array_equal(got, want, equal_nan=True)


class TestClosedForm:
    """The levels and derivatives without eigenvectors (``_closed_form``) against eigh and
    Hellmann-Feynman; rows it does not hold for fall back to them in ``level_derivatives``."""

    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_levels_and_derivatives_at_random_fields(self, site, state):
        rng = np.random.default_rng(11)
        problem = FitProblem(site=site, **FULL_FLAGS)
        lo, hi = problem.bounds()
        A, g, dA, dg = fitting._realize(problem, *fitting._points(problem, rng.uniform(lo, hi, (6, lo.size))))[state]
        # magnitudes spread over 0-2000 mT, most of them small
        fields = rng.uniform(-1.0, 1.0, (300, 3)) * 2000.0 * rng.uniform(0.0, 1.0, (300, 1)) ** 3
        base = getattr(site, state)
        lam, dlam, holds = closed_form(A, g, dA, dg, fields, base)
        _, dE = eigh_reference(A, g, dA, dg, fields, base)
        assert holds.all()
        levels = np.linalg.eigvalsh(hamiltonian_stack(A, g, fields, base.g_n, base.mu_b, base.mu_n))
        np.testing.assert_array_less(np.abs(lam - levels).max(axis=-1), 1e-13 * np.abs(levels).max(axis=-1))
        # every column: orientations and deltas through dA, misalignment through dA and dg
        np.testing.assert_array_less(np.abs(dlam - dE).max(axis=(-1, -2)), 1e-10 * np.abs(dE).max(axis=(-1, -2)))

    def test_all_degenerate_tensors_fall_back_quietly(self, recwarn):
        # A of 1e-300 GHz at zero field: every level is 0 to the double range
        base = SITE_I.ground
        A = np.diag([1e-300, 2e-300, 5e-300])[None]
        g = base.g.matrix[None]
        dA = np.eye(3)[None, None] * np.ones((1, 3, 1, 1))
        fields = np.array([[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        _, _, holds = closed_form(A, g, dA, None, fields, base)
        assert not holds.any()
        site = replace(SITE_I, ground=replace(base, A=SymmetricTensor3(A[0])))
        problem = FitProblem(site=site)
        data = compile_data([DataPoint("odmr", "ground", (0.0, 0.0, 0.0), 0.1, 1e-3, (0, 1)),
                             DataPoint("odmr", "ground", (1e-300, 0.0, 0.0), 0.1, 1e-3, (0, 1))])
        ev = fitting.evaluate(problem, *fitting._points(problem, problem.initial_parameters()[None]), data)
        assert np.all(np.isfinite(ev.model)) and np.all(np.isfinite(ev.jacobian))
        assert len(recwarn) == 0


