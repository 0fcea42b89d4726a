"""Symmetric 3x3 interaction tensors in the crystal (D1, D2, b) frame.

Hyperfine (A) and electronic Zeeman (g) tensors are parametrized by three
signed principal values and zxz Euler angles.

Conventions:
    R(alpha, beta, gamma) = Rz(alpha) @ Rx(beta) @ Rz(gamma)   (active)
    crystal-frame tensor  = R @ diag(v1, v2, v3) @ R.T
    subsite 2             = Rz(180 deg) conjugation (C2 about the b axis)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative eigenvalue spacing below which the principal-axis pairing is
# not unique and decompose_tensor flags the result
_DEGENERACY_RTOL = 1e-8
# Rz(pi), the C2 about b: subsite 2 is the image of subsite 1, so its levels
# at B are those of subsite 1 at C2 B.  Conjugation by it flips the entries
# (1,3) and (2,3) of a tensor
_C2 = np.array([-1.0, -1.0, 1.0])
_C2_SIGNS = np.outer(_C2, _C2)


def _wrap_half_open(angle: float) -> float:
    """Wrap an angle in degrees into (-180, 180]."""
    a = math.fmod(angle, 360.0)
    if a <= -180.0:
        a += 360.0
    elif a > 180.0:
        a -= 360.0
    return a


@dataclass(frozen=True)
class EulerAngles:
    """zxz Euler angles in degrees, normalized on construction.

    Stored ranges: alpha, gamma in (-180, 180], beta in [0, 180].  A
    negative beta is folded using the identity
    R(a, -b, g) = R(a + 180, b, g - 180), which leaves the rotation
    unchanged.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        if not all(math.isfinite(x) for x in (a, b, g)):
            raise ValueError("Euler angles must be finite")
        b = _wrap_half_open(b)
        if b < 0.0:
            a, b, g = a + 180.0, -b, g - 180.0
        object.__setattr__(self, "alpha", _wrap_half_open(a))
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", _wrap_half_open(g))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class PrincipalTensor:
    """Three signed principal values plus the orientation of their axes.

    No ordering is imposed on ``values`` at construction; tensors produced
    by :func:`decompose_tensor` come ordered by ascending absolute value.
    ``ambiguous`` marks orientations extracted from (nearly) degenerate
    tensors, where the axis pairing is not unique.
    """

    values: tuple[float, float, float]
    orientation: EulerAngles
    ambiguous: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 3 or not all(math.isfinite(v) for v in vals):
            raise ValueError("principal values must be three finite reals")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class SymmetricTensor3:
    """A real symmetric 3x3 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        if np.abs(m - m.T).max() > 1e-9 * max(1.0, np.abs(m).max()):
            raise ValueError("matrix is not symmetric")
        # rebuild from the upper triangle so symmetry is exact by construction
        sym = np.triu(m) + np.triu(m, 1).T
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def rz(angle_deg: float) -> np.ndarray:
    """Rotation about the z (crystal b) axis."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rx(angle_deg: float) -> np.ndarray:
    """Rotation about the x (crystal D1) axis."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def ry(angle_deg: float) -> np.ndarray:
    """Rotation about the y (crystal D2) axis."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """Compose the zxz rotation Rz(alpha) @ Rx(beta) @ Rz(gamma)."""
    return rz(angles.alpha) @ rx(angles.beta) @ rz(angles.gamma)


def assemble_tensor(p: PrincipalTensor) -> SymmetricTensor3:
    """Rotate diag(principal values) into the crystal frame."""
    r = rotation_matrix(p.orientation)
    m = r @ np.diag(p.values) @ r.T
    return SymmetricTensor3(m)


def _euler_from_rotation(r: np.ndarray) -> EulerAngles:
    """Extract zxz angles from a proper rotation; gamma = 0 at gimbal lock."""
    cb = min(1.0, max(-1.0, r[2, 2]))
    beta = math.degrees(math.acos(cb))
    if abs(r[2, 2]) > 1.0 - 1e-12:
        # beta ~ 0 or 180: only alpha +/- gamma is determined
        if r[2, 2] > 0:
            alpha = math.degrees(math.atan2(r[1, 0], r[0, 0]))
        else:
            alpha = math.degrees(math.atan2(-r[1, 0], r[0, 0]))
        gamma = 0.0
    else:
        alpha = math.degrees(math.atan2(r[0, 2], -r[1, 2]))
        gamma = math.degrees(math.atan2(r[2, 0], r[2, 1]))
    return EulerAngles(alpha, beta, gamma)


def decompose_tensor(t: SymmetricTensor3) -> PrincipalTensor:
    """Invert :func:`assemble_tensor` deterministically.

    Eigenvalues sorted by ascending absolute value are assigned to axes
    (1, 2, 3).  Eigenvector signs are fixed by making the largest-magnitude
    component of the first two axes positive and choosing the third to give
    det = +1, so the round trip through assemble_tensor is reproducible.
    Degenerate eigenvalues leave the orientation undetermined; the result
    is then flagged ``ambiguous``.
    """
    w, v = np.linalg.eigh(t.matrix)
    order = np.argsort(np.abs(w), kind="stable")
    w, v = w[order], v[:, order]

    scale = max(np.abs(w).max(), 1e-30)
    gaps = np.abs(w[:, None] - w[None, :])[np.triu_indices(3, 1)]
    ambiguous = bool(gaps.min() < _DEGENERACY_RTOL * scale)

    return PrincipalTensor(tuple(w), principal_axes_orientation(v), ambiguous=ambiguous)


def principal_axes_orientation(axes: np.ndarray) -> EulerAngles:
    """zxz angles of orthonormal principal axes (the columns of ``axes``).

    The axes' signs are fixed as in :func:`decompose_tensor`: the
    largest-magnitude component of the first two axes is positive and the
    third gives det = +1.  Axes differing only in sign give the same angles.
    """
    v = np.array(axes, dtype=float)
    for k in range(2):
        if v[np.argmax(np.abs(v[:, k])), k] < 0:
            v[:, k] = -v[:, k]
    if np.linalg.det(v) < 0:
        v[:, 2] = -v[:, 2]
    return _euler_from_rotation(v)


def subsite_matrices(m: np.ndarray) -> np.ndarray:
    """``subsite_transform`` for a stack of symmetric matrices (..., 3, 3), bit for bit."""
    # + 0.0 turns the -0.0 of a flipped zero into the +0.0 SymmetricTensor3 stores
    return np.asarray(m, dtype=float) * _C2_SIGNS + 0.0


def subsite_transform(t: SymmetricTensor3) -> SymmetricTensor3:
    """Conjugate a crystal-frame tensor by the C2 rotation about b.

    Rz(pi) conjugation leaves the diagonal untouched and flips the signs of
    the (1,3) and (2,3) entries; implemented as the exact sign flip so the
    transform is an exact involution.
    """
    return SymmetricTensor3(subsite_matrices(t.matrix))
