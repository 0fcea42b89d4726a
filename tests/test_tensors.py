import numpy as np
import pytest

from kramers.tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    assemble_tensor,
    decompose_tensor,
    rotation_matrix,
    rx,
    rz,
    subsite_transform,
)

# published crystal-frame reference matrices (GHz for A, pure numbers for g)
A_I_GROUND_REF = np.array(
    [[4.847, -1.232, -0.244], [-1.232, 1.425, -0.203], [-0.244, -0.203, 0.618]]
)
A_II_GROUND_REF = np.array(
    [[0.686, -0.718, 0.492], [-0.718, 0.509, -0.496], [0.492, -0.496, 4.729]]
)


def random_angles(rng):
    return EulerAngles(rng.uniform(-180, 180), rng.uniform(0, 180), rng.uniform(-180, 180))


class TestRotationMatrix:
    def test_zero_angles_is_identity(self):
        r = rotation_matrix(EulerAngles(0, 0, 0))
        assert np.array_equal(r, np.eye(3))

    def test_alpha_180_is_rz_pi(self):
        r = rotation_matrix(EulerAngles(180, 0, 0))
        # Rz(pi) flips x and y
        assert np.allclose(r, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_orthogonality_of_specific_triple(self):
        r = rotation_matrix(EulerAngles(72.25, 92.11, 63.92))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12

    def test_orthogonality_and_det_1000_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = rotation_matrix(
                EulerAngles(rng.uniform(-360, 360), rng.uniform(-360, 360), rng.uniform(-360, 360))
            )
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_composition_matches_factors(self):
        r = rotation_matrix(EulerAngles(10, 20, 30))
        assert np.allclose(r, rz(10) @ rx(20) @ rz(30), atol=1e-15)


class TestEulerNormalization:
    def test_table_values_representable_unchanged(self):
        for triple in [(72.25, 92.11, 63.92), (45.86, 11.13, 2.97), (51.07, 14.11, -0.67)]:
            a = EulerAngles(*triple)
            assert a.as_tuple() == pytest.approx(triple, abs=0)

    def test_wrapping_preserves_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            raw = rng.uniform(-720, 720, 3)
            wrapped = EulerAngles(*raw)
            assert -180 < wrapped.alpha <= 180
            assert 0 <= wrapped.beta <= 180
            assert -180 < wrapped.gamma <= 180
            m_raw = rz(raw[0]) @ rx(raw[1]) @ rz(raw[2])
            m_norm = rotation_matrix(wrapped)
            assert np.abs(m_raw - m_norm).max() < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EulerAngles(np.nan, 0, 0)


class TestAssembleTensor:
    def test_site_i_ground_reference_matrix(self):
        # ground tolerance 0.01 GHz against the published matrix
        t = assemble_tensor(
            PrincipalTensor((0.481, 1.159, 5.251), EulerAngles(72.25, 92.11, 63.92))
        )
        assert np.abs(t.matrix - A_I_GROUND_REF).max() < 0.01

    def test_site_ii_ground_reference_matrix(self):
        t = assemble_tensor(
            PrincipalTensor((-0.1259, 1.1835, 4.8668), EulerAngles(45.86, 11.13, 2.97))
        )
        assert np.abs(t.matrix - A_II_GROUND_REF).max() < 0.01

    def test_isotropic_is_rotation_invariant(self):
        t = assemble_tensor(PrincipalTensor((2.5, 2.5, 2.5), EulerAngles(33, 71, -12)))
        assert np.abs(t.matrix - 2.5 * np.eye(3)).max() < 1e-12

    def test_eigenvalue_multiset_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            values = tuple(rng.uniform(-8, 8, 3))
            t = assemble_tensor(PrincipalTensor(values, random_angles(rng)))
            scale = max(1.0, np.abs(values).max())
            assert np.abs(np.sort(t.eigenvalues()) - np.sort(values)).max() < 1e-12 * scale


class TestDecomposeTensor:
    def test_reference_matrix_eigenvalues(self):
        p = decompose_tensor(SymmetricTensor3(A_I_GROUND_REF))
        assert np.abs(np.array(p.values) - (0.481, 1.159, 5.251)).max() < 2e-3

    def test_identity_is_ambiguous(self):
        p = decompose_tensor(SymmetricTensor3(np.eye(3)))
        assert p.values == pytest.approx((1.0, 1.0, 1.0))
        assert p.ambiguous

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m = rng.uniform(-5, 5, (3, 3))
            t = SymmetricTensor3((m + m.T) / 2)
            p = decompose_tensor(t)
            back = assemble_tensor(p)
            assert np.abs(back.matrix - t.matrix).max() < 1e-9

    def test_roundtrip_from_params_recovers_angles(self):
        # |values| ascending and distinct -> decomposition must reproduce angles
        rng = np.random.default_rng(4)
        for _ in range(200):
            values = np.sort(rng.uniform(0.2, 8, 3))
            values[1] += 0.3
            values[2] += 0.6
            angles = EulerAngles(rng.uniform(-179, 179), rng.uniform(1, 179), rng.uniform(-179, 179))
            p = decompose_tensor(assemble_tensor(PrincipalTensor(tuple(values), angles)))
            r_in = rotation_matrix(angles)
            r_out = rotation_matrix(p.orientation)
            # orientation equivalent up to axis sign pairs: compare conjugations
            d = np.diag(values)
            assert np.abs(r_in @ d @ r_in.T - r_out @ d @ r_out.T).max() < 1e-9


class TestSubsiteTransform:
    def test_sign_structure(self):
        t = SymmetricTensor3(A_I_GROUND_REF)
        s = subsite_transform(t).matrix
        assert np.array_equal(np.diag(s), np.diag(t.matrix))
        assert s[0, 1] == t.matrix[0, 1]
        assert s[0, 2] == -t.matrix[0, 2]
        assert s[1, 2] == -t.matrix[1, 2]

    def test_matches_rz_pi_conjugation(self):
        t = SymmetricTensor3(A_I_GROUND_REF)
        c2 = rz(180)
        assert np.abs(subsite_transform(t).matrix - c2 @ t.matrix @ c2.T).max() < 1e-12

    def test_diagonal_tensor_unchanged(self):
        t = SymmetricTensor3(np.diag([1.0, 2.0, 3.0]))
        assert np.array_equal(subsite_transform(t).matrix, t.matrix)

    def test_involution_exact(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-4, 4, (3, 3))
        t = SymmetricTensor3((m + m.T) / 2)
        twice = subsite_transform(subsite_transform(t))
        assert np.array_equal(twice.matrix, t.matrix)


class TestValidation:
    def test_symmetric_tensor_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            SymmetricTensor3(m)

    def test_symmetry_exact_by_construction(self):
        m = np.array([[1.0, 0.3, 0.1], [0.3 + 1e-12, 2.0, 0.2], [0.1, 0.2, 3.0]])
        t = SymmetricTensor3(m)
        assert np.array_equal(t.matrix, t.matrix.T)
