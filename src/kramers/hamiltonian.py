"""The 4x4 effective spin Hamiltonian for S = 1/2, I = 1/2 centers.

H = sum_kl A_kl I_k S_l + mu_B sum_kl B_k g_kl S_l - mu_n g_n sum_k B_k I_k

with A in GHz, B in mT (crystal frame D1, D2, b) and spin operators built
from Pauli matrices / 2.  The product basis is {|uu>, |ud>, |du>, |dd>}
(electron x nucleus), quantized along the crystal b axis.

Energies are in GHz throughout; magnetons are in GHz/T and converted to
GHz/mT internally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .tensors import EulerAngles, PrincipalTensor, SymmetricTensor3, assemble_tensor, decompose_tensor, subsite_transform

# CODATA-derived magneton frequencies; the spin Hamiltonian only fixes
# mu_B ~ 14 GHz/T, the precise values are configurable per SpinSystem.
MU_B_GHZ_PER_T = 13.996245
MU_N_GHZ_PER_T = 7.6225932e-3
G_N_DEFAULT = 0.987

# The inclusive range (low, high) of every finite number read from outside the program, by quantity.
# config.number checks each number of argv and the site, rates, fit-data and peaks files, and DataPoint,
# SiteModel and RateMatrix check their own.  The bounds lie far beyond any experiment (100 T is 1e5 mT)
# and keep every square, cube and perturbation sum finite: |B| < 2e5 mT, |A|, |g|, |g_n| <= 1e3 and
# magnetons <= 1e3 GHz/T put each level below 1e9 GHz (its cube in MHz below 1e36) and dH/dB below
# 1e3 GHz/mT, whose cube over two gaps (ZEFOZ's third order) overflows only at gaps under 1e-140 GHz;
# frequencies to 1e5 GHz and widths of 1e-3 to 1e6 MHz keep a Lorentzian's squared distance below 4e18
# and its squared half-width in [2.5e-13, 2.5e5] GHz^2; lines to 1e8 MHz keep invert's RMS / 1e-12
# finite; sigmas from 1e-9 keep the fit's cost, its first squared trust radius, below 1e29 over 1e7
# points; a ZEFOZ radius from 1e-3 mT keeps ||J^T r|| / radius finite (EPR sweeps and microwave
# frequencies share its row); rates to 1e9 /s over 1e6 s take the rate equations' expm 51 squarings.
RANGES = {
    **dict.fromkeys(("field_mt", "frequency_ghz"), (-1e5, 1e5)),  # fields; detunings, burn, peaks, line values
    **dict.fromkeys(("sweep_mt", "radius_mt", "microwave_ghz"), (1e-3, 1e5)),  # EPR fields, --radius, --freq
    "line_mhz": (1e-3, 1e8),  # invert's zero-field splittings
    **dict.fromkeys(("width_mhz", "fwhm_mhz"), (1e-3, 1e6)),  # SHB hole width, inhomogeneous linewidth
    "sigma": (1e-9, 1e5),  # a fit point's, in its value's unit (GHz or mT)
    **dict.fromkeys(("a_ghz", "g"), (-1e3, 1e3)),  # principal values, and g_n
    "magneton_ghz_per_t": (1e-6, 1e3),
    "rate_per_s": (0.0, 1e9),  # relaxation and pump rates
    "duration_s": (0.0, 1e6),
    **dict.fromkeys(("direction", "angle_deg", "integer"), (-np.inf, np.inf)),  # not physical: any finite value
    **dict.fromkeys(("step", "center_nm", "refine_tol_mhz_per_mt"), (5e-324, np.inf)),  # any positive one
    "prominence": (0.0, np.inf),
}

DEGENERACY_GAP_GHZ = 1e-6
_NORM_FLOOR = np.sqrt(np.finfo(float).tiny)  # below it a norm's squares are subnormal
# largest RMS misfit (GHz) of the zero-field lines a level ladder may leave
LEVEL_TOL_GHZ = 2e-3
# Hamiltonians solved at once, in the blocks of ``tiles``: a closed-form row's temporaries take about
# 1.3 KB at three parameters, and an EPR row's Hamiltonian, eigenvectors and density matrices about
# 4 KB, so a block stays within 2 MB, half of a 4 MB L2.  It was the smallest block at which the
# benchmark's 16-restart fit was no slower than one unbounded stack when every row took ``eigh`` (128
# and 256 took 15% and 11% longer)
EIGH_BLOCK = 512

_SIGMA_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)

# electron (S) and nuclear (I) spin operators on the 4-dim product space, (3, 4, 4)
S_STACK = np.stack([np.kron(s, _ID2) for s in _SIGMA_HALF])
I_STACK = np.stack([np.kron(_ID2, s) for s in _SIGMA_HALF])
S_STACK.setflags(write=False)
I_STACK.setflags(write=False)

# the operators whose expectation values are Hellmann-Feynman derivatives:
# I_k S_l = kron(sigma_l / 2, sigma_k / 2) in row-major (k, l) order
# (dH/dA_kl), then S_l and I_k, (15, 4, 4)
SPIN_OPERATORS = np.concatenate([
    np.stack([np.kron(_SIGMA_HALF[l], _SIGMA_HALF[k]) for k in range(3) for l in range(3)]),
    S_STACK,
    I_STACK,
])
SPIN_OPERATORS.setflags(write=False)
# <psi|O|psi> = sum_ab conj(psi_a) psi_b O_ab is real: with the products
# viewed as interleaved (re, im) floats, it is one real matrix product
_EXPECTATION_WEIGHTS = np.empty((32, 15))
_EXPECTATION_WEIGHTS[0::2] = SPIN_OPERATORS.reshape(15, 16).real.T
_EXPECTATION_WEIGHTS[1::2] = -SPIN_OPERATORS.reshape(15, 16).imag.T

# the six transitions (lower, upper) between ascending levels, and their
# index arrays for vectorized differences e[..., PAIR_HI] - e[..., PAIR_LO]
PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
PAIR_LO = np.array([i for i, _ in PAIRS])
PAIR_HI = np.array([j for _, j in PAIRS])


def physical_constants() -> tuple[float, float]:
    """Default (mu_B, mu_n) in GHz/T."""
    return (MU_B_GHZ_PER_T, MU_N_GHZ_PER_T)


@dataclass(frozen=True)
class SpinSystem:
    """One electronic state (ground or excited) of one magnetic subsite.

    ``A`` (GHz) and ``g`` (dimensionless) are crystal-frame tensors of this
    subsite; ``with_subsite(2)`` applies the C2-about-b conjugation to a
    subsite-1 system.  The nuclear Zeeman coupling is isotropic.
    """

    A: SymmetricTensor3
    g: SymmetricTensor3
    g_n: float = G_N_DEFAULT
    subsite: int = 1
    mu_b: float = MU_B_GHZ_PER_T
    mu_n: float = MU_N_GHZ_PER_T

    def __post_init__(self):
        if self.subsite not in (1, 2):
            raise ValueError("subsite must be 1 or 2")

    def with_subsite(self, subsite: int) -> "SpinSystem":
        if subsite == self.subsite:
            return self
        return replace(
            self,
            A=subsite_transform(self.A),
            g=subsite_transform(self.g),
            subsite=subsite,
        )

    def with_principal(self, values=None, orientation: EulerAngles | None = None) -> "SpinSystem":
        """This system with A's principal values and/or orientation replaced.

        The part not given is kept from A's decomposition.
        """
        p = decompose_tensor(self.A)
        values = p.values if values is None else tuple(values)
        orientation = p.orientation if orientation is None else orientation
        return replace(self, A=assemble_tensor(PrincipalTensor(values, orientation)))

    @property
    def zeeman_derivatives(self) -> np.ndarray:
        """dH/dB_k (3, 4, 4) GHz/mT: the Zeeman terms of ``zeeman_stack`` at unit fields along D1, D2, b."""
        return zeeman_stack(np.zeros((4, 4)), self.g.matrix, np.eye(3), self.g_n, self.mu_b, self.mu_n)


def as_field(B) -> np.ndarray:
    """Validate a field vector (B_D1, B_D2, B_b) in mT."""
    b = np.asarray(B, dtype=float).reshape(3)
    if not np.all(np.isfinite(b)):
        raise ValueError("field components must be finite")
    return b


def unit_direction(direction) -> np.ndarray:
    """A finite nonzero direction (3,) as a unit vector.  A norm that overflows
    or loses precision is taken after an exact division by the largest
    |component|, so (1e200, 1e200, 0) gives the bytes of (1, 1, 0)."""
    d = np.asarray(direction, dtype=float).reshape(3)
    scale = np.abs(d).max()
    if not 0.0 < scale < np.inf:
        raise ValueError("need a finite nonzero direction")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(d)
    if not _NORM_FLOOR <= norm < np.inf:
        d = d / scale
        norm = np.linalg.norm(d)
    return d / norm


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Sorted energies (GHz) and eigenvectors in the product basis.

    ``states[:, n]`` is the n-th eigenvector; columns are orthonormal and
    phase-fixed (largest-magnitude component real positive).
    """

    energies: np.ndarray
    states: np.ndarray


def build_hamiltonian(sys: SpinSystem, B) -> np.ndarray:
    """Assemble the 4x4 Hamiltonian (GHz) at a field B (mT, crystal frame)."""
    return hamiltonian_batch(sys, as_field(B)[None, :])[0]


def hamiltonian_batch(sys: SpinSystem, fields: np.ndarray) -> np.ndarray:
    """``hamiltonian_stack`` of one spin system's tensors at fields (N, 3) mT -> (N, 4, 4)."""
    return hamiltonian_stack(sys.A.matrix, sys.g.matrix, fields, sys.g_n, sys.mu_b, sys.mu_n)


def hamiltonian_stack(A, g, fields, g_n: float, mu_b: float, mu_n: float) -> np.ndarray:
    """Hamiltonians for stacks of A and g tensors (..., 3, 3), each at the
    fields (..., N, 3) mT; returns (..., N, 4, 4): the only assembly of them.

    The leading axes broadcast, so one call can cover many tensor pairs
    times many fields.  It is ``zeeman_stack`` of ``hyperfine_stack``: a
    caller that puts many fields on one A can build the hyperfine term once.
    """
    A, g, fields = (np.asarray(x, dtype=float) for x in (A, g, fields))
    return zeeman_stack(hyperfine_stack(A), g, fields, g_n, mu_b, mu_n)


def field_gradients(states: np.ndarray, g, g_n: float, mu_b: float, mu_n: float) -> np.ndarray:
    """dE_n/dB_k (GHz/mT) by Hellmann-Feynman: the eigenvector columns
    (..., 4, 4) of Hamiltonians with g tensors (..., 3, 3) -> (..., 4, 3),
    from dH/dB_k = mu_B sum_l g_kl S_l - mu_n g_n I_k."""
    mix = np.zeros(np.shape(g)[:-2] + (15, 3))
    mix[..., 9:12, :] = np.swapaxes(g, -1, -2) * (mu_b * 1e-3)
    mix[..., 12:, :] = np.eye(3) * (-mu_n * 1e-3 * g_n)
    return spin_expectations(states, mix)


def field_hessians(energies: np.ndarray, states: np.ndarray,
                   derivatives: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d2E_n/dB_k dB_l GHz/mT^2 (..., 4, 3, 3), rounding bound (..., 4),
    d3E_n/dB_a dB_b dB_c GHz/mT^3 (..., 4, 3, 3, 3)) of the levels (..., 4)
    with eigenvector columns (..., 4, 4) of Hamiltonians linear in B with
    dH/dB_k = ``derivatives`` (3, 4, 4).

    Perturbation theory in the matrix elements D^k_nm = <n|D_k|m> and the
    gaps E_nm = E_n - E_m, exact because H has no second derivative in B.
    The Hessian of level n is 2 Re sum_{m != n} D^k_nm D^l_mn / E_nm.  The
    third derivative is the sum over the six orders (p, q, r) of (a, b, c)
    of sum_{m, l != n} D^p_nm D^q_ml D^r_ln / (E_nm E_nl)
    - D^p_nn sum_{m != n} D^q_nm D^r_mn / E_nm^2 (Rayleigh-Schroedinger
    third order).  The sums lose precision next to a degeneracy; the
    Hessian's rounding bound is eps max|E| sum_m 2 |D_nm|^2 / E_nm^2.
    Exactly equal levels contribute nothing: ``degenerate_levels`` flags them.
    """
    d = np.einsum("...an,kab,...bm->...knm", states.conj(), derivatives, states)
    gaps = energies[..., :, None] - energies[..., None, :]
    inv = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=gaps != 0.0)
    hessians = 2.0 * np.einsum("...knm,...lmn,...nm->...nkl", d, d, inv).real
    scale = np.finfo(float).eps * np.abs(energies).max(axis=-1, keepdims=True)
    rounding = scale * np.einsum("...nm,...nm->...n", (np.abs(d) ** 2).sum(axis=-3), 2.0 * inv * inv)
    # x[p, n, m] = D^p_nm / E_nm, so D^r_ln / E_nl = conj(x[r, n, l])
    x = d * inv[..., None, :, :]
    diagonal = np.einsum("...knn->...nk", d)
    terms = (np.einsum("...pnm,...qml,...rnl->...npqr", x, d, x.conj())
             - np.einsum("...np,...qnm,...rnm->...npqr", diagonal, x, x.conj()))
    thirds = sum(np.einsum("...npqr->...n" + "".join(order), terms) for order in itertools.permutations("pqr")).real
    return hessians, rounding, thirds


def degenerate_levels(energies: np.ndarray) -> np.ndarray:
    """Which of the ascending levels (..., 4) lie within DEGENERACY_GAP_GHZ
    of a neighbour, where Hellmann-Feynman derivatives are not defined."""
    gaps = np.diff(energies, axis=-1, prepend=-np.inf, append=np.inf)
    return np.minimum(gaps[..., :-1], gaps[..., 1:]) < DEGENERACY_GAP_GHZ


def hyperfine_stack(A: np.ndarray) -> np.ndarray:
    """The field-independent term sum_kl A_kl I_k S_l (GHz) for a stack of
    A (..., 3, 3) -> (..., 4, 4)."""
    return sum(A[..., k, l, None, None] * (I_STACK[k] @ S_STACK[l]) for k in range(3) for l in range(3))


def zeeman_stack(h0, g, fields, g_n: float, mu_b: float, mu_n: float) -> np.ndarray:
    """Hamiltonians (..., N, 4, 4): the field-independent terms h0 (..., 4, 4)
    plus the Zeeman terms of g tensors (..., 3, 3) at fields (..., N, 3) mT."""
    # effective electron field b_eff_l = sum_k B_k g_kl; magnetons GHz/T -> GHz/mT
    h_el = np.einsum("...nl,lab->...nab", (fields @ g) * (mu_b * 1e-3), S_STACK)
    h_nuc = np.einsum("...nk,kab->...nab", fields * (mu_n * 1e-3 * g_n), I_STACK)
    return h0[..., None, :, :] + h_el - h_nuc


def spin_expectations(states: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """sum_o <n|O_o|n> mix[o, p] over the O_o of SPIN_OPERATORS: eigenvector
    columns (..., 4, 4) and ``mix`` (..., 15, P) -> (..., 4, P).  These are
    Hellmann-Feynman derivatives when ``mix`` holds dH/dp in the operator basis.
    """
    v = np.ascontiguousarray(np.swapaxes(states, -1, -2))
    rho = v.conj()[..., :, :, None] * v[..., :, None, :]
    return rho.reshape(rho.shape[:-2] + (16,)).view(np.float64) @ (_EXPECTATION_WEIGHTS @ mix)


def hellmann_feynman(A, g, dA, dg, fields, g_n: float, mu_b: float, mu_n: float) -> tuple:
    """Levels (n, 4), eigenvectors (n, 4, 4) and Hellmann-Feynman derivatives (n, 4, P) by ``eigh``,
    one Hamiltonian per row: tensors (n, 3, 3) with parameter derivatives dA, dg (n, P, 3, 3) (dg None
    where g is fixed) at fields (n, 3) mT.

    dH/d theta in the basis of SPIN_OPERATORS: dH/dA_kl = I_k S_l and
    dH/dg_kl = mu_B B_k S_l.
    """
    w, v = np.linalg.eigh(hamiltonian_stack(A, g, fields[:, None], g_n, mu_b, mu_n)[:, 0])
    n, P = dA.shape[:2]
    mix = np.zeros((n, 15, P))
    mix[:, :9] = dA.reshape(n, P, 9).swapaxes(1, 2)
    if dg is not None:
        mix[:, 9:12] = np.einsum("nk,npkl->nlp", fields * (mu_b * 1e-3), dg)
    return w, v, spin_expectations(v, mix)


# a 3x3 cofactor takes rows and columns (i + 1, i + 2) mod 3
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _mixed_cofactor(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """G(X, Y) of 3x3 stacks, the part of cof(X + Y) bilinear in X and Y: cof X = G(X, X) / 2."""
    x1, x2, y1, y2 = X[..., _NEXT, :], X[..., _AFTER, :], Y[..., _NEXT, :], Y[..., _AFTER, :]
    return (x1[..., _NEXT] * y2[..., _AFTER] + y1[..., _NEXT] * x2[..., _AFTER]
            - x1[..., _AFTER] * y2[..., _NEXT] - y1[..., _AFTER] * x2[..., _NEXT])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of 3-vectors stacked on their first axis, in one fixed order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for a matrix (3, 3, ...) and vectors (3, ...), in one fixed order."""
    return M[:, 0] * v[0] + M[:, 1] * v[1] + M[:, 2] * v[2]


def _sum9(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis of (9, ...) terms, in one fixed order."""
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def _hyperfine_parts(A: np.ndarray, dA: np.ndarray, dg) -> tuple:
    """The field-independent parts of ``_closed_form`` for tensors (B, ...):
    M = A^T / 4, C = cof M, det M, |M|^2, |C|^2; per parameter (B, P),
    M:dM, C:dM and C:G with dM = dA^T / 4 and G = G(M, dM); and dM, G and
    dg (None without misalignment) as (B, P, 9)."""
    M = np.swapaxes(A, -1, -2) / 4.0
    C = _mixed_cofactor(M, M) / 2.0
    dM = np.swapaxes(dA, -1, -2) / 4.0
    G = _mixed_cofactor(M[:, None], dM)
    flat = [None if d is None else d.reshape(d.shape[:2] + (9,)) for d in (dM, G, dg)]
    return (M, C, _dot(M[:, 0].T, C[:, 0].T), (M * M).sum(axis=(1, 2)), (C * C).sum(axis=(1, 2)),
            (M[:, None] * dM).sum(axis=(2, 3)), (C[:, None] * dM).sum(axis=(2, 3)),
            (C[:, None] * G).sum(axis=(2, 3)), *flat)


def _closed_form(parts: tuple, g: np.ndarray, fields: np.ndarray, g_n: float, mu_b: float, mu_n: float) -> tuple:
    """Levels (B, F, 4) ascending, their derivatives (B, F, 4, P) and the
    rows (B, F) they hold for, of tensors (``_hyperfine_parts``, g (B, 3, 3))
    at fields (F, 3), with no matrix and no eigenvector.

    With Pauli matrices s, H = sum M_lk s_l (x) s_k + x.s (x) 1 + 1 (x) y.s
    for x = mu_B B g / 2 and y = -mu_n g_n B / 2 (GHz), so its power sums
    tr H^k are p2 = 4c, p3 = 24 (x^T M y - det M) and
    p4 = 4 (c^2 + 4 |My|^2 + 4 |M^T x|^2 + |2 x y^T - 2C|^2) with
    c = |M|^2 + |x|^2 + |y|^2.  The levels are the roots of
    P(l) = l^4 - 2c l^2 - (p3 / 3) l + c^2 - e, e = c^2 - (p2^2 / 2 - p4) / 4:
    Euler's resolvent z^3 - 4c z^2 + 4e z - (p3 / 3)^2 solved by the
    trigonometric form gives l = (+-sqrt z0 +- sqrt z1 +- sqrt z2) / 2, in
    ascending order by construction, and one Newton step on P refines them.
    A level moves by dl = -dP(l) / P'(l), and P'(l_n) is the product of its
    gaps: dl_n = ((l_n^2 / 2 - c) dp2 + (l_n / 3) dp3 + dp4 / 4) / P'(l_n),
    with dp2 = 8 M:dM, dp3 = 24 (x^T dM y - C:dM) and
    dp4 / 4 = 4c M:dM + 8 ((My)^T dM y + x^T dM (M^T x) - x^T G y + C:G),
    plus the x terms of dg.  A row holds where every level's error, the
    Newton step's own (3 step^2 / gap) plus the rounding of P over P'(l)
    (16 eps times the sum of the magnitudes of P's terms, plus one tiny for
    underflow), stays below sqrt(eps) of the row's smallest gap: every gap
    and derivative then keeps half of its digits.  Every sum is written out
    in one order, so a row's values do not depend on the block around it.
    """
    M, C, det, mm, cc, m, k, h, dM, G, dg = parts
    # vectors are (3, B, F) and matrices (3, 3, B, 1)
    M, C = np.moveaxis(M, 0, -1)[..., None], np.moveaxis(C, 0, -1)[..., None]
    f = fields.T
    gb = np.moveaxis(g, 0, -1)[..., None] * (mu_b * 5e-4)
    x = gb[0] * f[0] + gb[1] * f[1] + gb[2] * f[2]
    y = f[:, None] * (-mu_n * g_n * 5e-4)
    My, Mtx, Cy = _apply(M, y), _apply(M.swapaxes(0, 1), x), _apply(C, y)
    xx, yy = _dot(x, x), _dot(y, y)
    c = mm[:, None] + xx + yy
    q = 8.0 * (_dot(x, My) - det[:, None])  # p3 / 3
    e = 4.0 * (_dot(My, My) + _dot(Mtx, Mtx) + xx * yy - 2.0 * _dot(x, Cy) + cc[:, None])
    # z = 4c/3 + 2 rho cos(phi - 2 pi n / 3), cos 3 phi = -Q / (2 rho^3)
    rho = np.sqrt(np.maximum(16.0 / 9.0 * c * c - 4.0 / 3.0 * e, 0.0))
    Q = 16.0 / 3.0 * c * e - 128.0 / 27.0 * c * c * c - q * q
    phi = np.arccos(np.clip(-Q / (2.0 * rho * rho * rho), -1.0, 1.0)) / 3.0
    cos, sin = rho * np.cos(phi), rho * np.sin(phi)
    z0, z1 = 4.0 / 3.0 * c + 2.0 * cos, 4.0 / 3.0 * c - cos + np.sqrt(3.0) * sin
    # the smallest root from the product z0 z1 z2 = q^2; sqrt z0 sqrt z1 sqrt z2 = q
    s0, s1, s2 = np.sqrt(z0), np.sqrt(z1), np.copysign(np.sqrt(q * q / (z0 * z1)), q)
    lam = 0.5 * np.stack([s2 - s0 - s1, s1 - s0 - s2, s0 - s1 - s2, s0 + s1 + s2])  # (4, B, F)
    l2 = lam * lam
    step = (((l2 - 2.0 * c) * lam - q) * lam + c * c - e) / ((4.0 * l2 - 4.0 * c) * lam - q)
    lam = lam - step
    l2 = lam * lam
    d01, d02, d03, d12, d13, d23 = (lam[j] - lam[i] for i, j in PAIRS)
    den = np.stack([-d01 * d02 * d03, d01 * d12 * d13, -d02 * d12 * d23, d03 * d13 * d23])
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    gap = np.minimum(np.minimum(d01, d12), d23)
    terms = l2 * l2 + 2.0 * c * l2 + np.abs(q * lam) + c * c + e
    error = 3.0 * step * step / np.abs(gap) + (16.0 * eps * terms + tiny) / np.abs(den)
    holds = error.max(axis=0) <= np.sqrt(eps) * gap
    # each term's field matrix, (9, 1, B, F): x y^T and (My) y^T + x (M^T x)^T with dM, x y^T with G;
    # parameter terms are (P, B, F), so every product runs along the fields
    xy = (x[:, None] * y[None, :]).reshape(9, 1, *x.shape[1:])
    W = (My[:, None] * y[None, :] + x[:, None] * Mtx[None, :]).reshape(xy.shape)
    dM, G = (d.transpose(2, 1, 0)[..., None] for d in (dM, G))  # (9, P, B, 1)
    m, k, h = (v.T[..., None] for v in (m, k, h))
    T = _sum9(np.stack([xy, W], axis=1) * dM[:, None])  # (2, P, B, F)
    dp2, dp3 = 8.0 * m, 24.0 * (T[0] - k)
    dq4 = 4.0 * c * m + 8.0 * (T[1] - _sum9(xy * G) + h)
    if dg is not None:
        # x.dx, (My).dx and (dp4 / 4 / dx).dx, as B v^T : dg for dx = mu_B B dg / 2
        g4 = 4.0 * c * x + 8.0 * _apply(M, Mtx) + 8.0 * yy * x - 8.0 * Cy
        B_v = np.stack([(f[:, None, None] * v[None, :]).reshape(xy.shape) for v in (x, My, g4)], axis=1)
        T = _sum9(B_v * dg.transpose(2, 1, 0)[:, None, ..., None]) * (mu_b * 5e-4)
        dp2, dp3, dq4 = dp2 + 8.0 * T[0], dp3 + 24.0 * T[1], dq4 + T[2]
    inv = (1.0 / den)[:, None]
    dE = ((0.5 * l2 - c)[:, None] * dp2 + (lam / 3.0)[:, None] * dp3 + dq4) * inv
    return np.moveaxis(lam, 0, -1), dE.transpose(2, 3, 0, 1), holds


def tiles(rows: int, cols: int = 1):
    """(row slice, col slice) blocks that tile a rows x cols grid of Hamiltonians once, each of at most
    EIGH_BLOCK of them: whole rows while one row's cols fit, else one row in col blocks.  The level kernel,
    the fit's EPR Jacobian rows, the ZEFOZ scan and the SHB map take their blocks from here, and EIGH_BLOCK
    is read at each call, so one value sets them all."""
    step, width = max(1, EIGH_BLOCK // max(cols, 1)), max(1, min(cols, EIGH_BLOCK))
    for start in range(0, rows, step):
        for first in range(0, cols, width):
            yield slice(start, start + step), slice(first, first + width)


def level_derivatives(A, g, dA, dg, fields, g_n: float, mu_b: float, mu_n: float):
    """Ascending levels and parameter derivatives of tensor pairs A, g (B, 3, 3)
    with derivatives dA, dg (B, P, 3, 3) (dg None where g is fixed), each at
    the fields (F, 3) mT: yields ((tensor slice, field slice), levels (b, f, 4),
    derivatives (b, f, 4, P)) per block of ``tiles(B, F)``.  Rows
    ``_closed_form`` does not hold for take ``hellmann_feynman``."""
    parts = _hyperfine_parts(A, dA, dg)
    for b, f in tiles(len(A), len(fields)):
        with np.errstate(divide="ignore", invalid="ignore"):
            w, dE, holds = _closed_form([p if p is None else p[b] for p in parts], g[b], fields[f], g_n, mu_b, mu_n)
        if not holds.all():
            bi, fi = np.nonzero(~holds)
            r = bi + b.start
            w[bi, fi], _, dE[bi, fi] = hellmann_feynman(A[r], g[r], dA[r], None if dg is None else dg[r],
                                                        fields[f][fi], g_n, mu_b, mu_n)
        yield (b, f), w, dE
        del w, dE  # before the next block's temporaries


def diagonalize(H: np.ndarray) -> EigenSystem:
    """Solve a Hermitian 4x4 matrix; rejects non-Hermitian input beyond 1e-10."""
    H = np.asarray(H, dtype=complex)
    scale = max(np.abs(H).max(), 1e-30)
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within 1e-10")
    w, v = np.linalg.eigh(H)
    for n in range(v.shape[1]):
        k = np.argmax(np.abs(v[:, n]))
        phase = v[k, n] / abs(v[k, n])
        v[:, n] = v[:, n] / phase
    w = w.copy()
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenSystem(energies=w, states=v)


def eigensystem(sys: SpinSystem, B) -> EigenSystem:
    return diagonalize(build_hamiltonian(sys, B))


def energies_sweep(sys: SpinSystem, fields: np.ndarray) -> np.ndarray:
    """Eigenvalues along a stack of fields, shape (N, 3) -> (N, 4), ascending."""
    return np.linalg.eigvalsh(hamiltonian_batch(sys, fields))


@dataclass(frozen=True)
class ZeroFieldLevels:
    """The four analytic zero-field energies, tagged by their +/- branch.

    Branch order: (-A3 - (A1+A2), -A3 + (A1+A2), A3 - (A1-A2), A3 + (A1-A2)),
    each divided by 4.  From stacks of eigenvalues, each energy is a stack.
    """

    energies: tuple[float, float, float, float]

    BRANCHES = ("-A3-(A1+A2)", "-A3+(A1+A2)", "A3-(A1-A2)", "A3+(A1-A2)")

    def sorted(self) -> np.ndarray:
        """The energies ascending: (4,), or (..., 4) for stacks."""
        return np.sort(np.stack(self.energies, axis=-1), axis=-1)


def zero_field_levels(a1: float, a2: float, a3: float) -> ZeroFieldLevels:
    """Closed-form B = 0 energies from the hyperfine eigenvalues (GHz),
    numbers or arrays of one shape."""
    s, d = a1 + a2, a1 - a2
    return ZeroFieldLevels(
        (0.25 * (-a3 - s), 0.25 * (-a3 + s), 0.25 * (a3 - d), 0.25 * (a3 + d))
    )


def invert_zero_field(levels) -> tuple[float, float, float]:
    """Recover (|A1|, |A2|, |A3|) from four sorted zero-field energies, or
    from each row of a stack (..., 4) of them.

    Uses |A1+A2| = 2(E2-E1), |A2-A1| = 2(E4-E3) and
    |A3| = (E3+E4) - (E1+E2), resolved so that |A3| >= |A2| >= |A1|.
    """
    e = np.asarray(levels, dtype=float)
    e = e if e.ndim > 1 else e.reshape(4)
    scale = np.maximum(np.abs(e).max(axis=-1, keepdims=True), 1e-30)
    if np.any(np.diff(e) < -1e-12 * scale):
        raise ValueError("levels must be sorted ascending")
    total = e.sum(axis=-1, keepdims=True)
    if np.any(np.abs(total) > 1e-6 * scale):
        raise ValueError(f"levels must sum to ~0 (got {total[np.abs(total) > 1e-6 * scale][0]:g})")
    d1 = e[..., 1] - e[..., 0]
    d3 = e[..., 3] - e[..., 2]
    a3 = (e[..., 2] + e[..., 3]) - (e[..., 0] + e[..., 1])
    a2 = d1 + d3
    a1 = abs(d1 - d3)
    if np.any(a3 < 0) or np.any(a2 < 0):
        raise ValueError("inconsistent level set: negative magnitudes")
    return (a1, a2, a3)


# the six pairwise differences expressed in the gap basis (d1, d2, d3):
# E_j - E_i spans the gaps d_k with i <= k < j
_GAP_COMBOS = np.array([[int(i <= k < j) for k in range(3)] for i, j in PAIRS], dtype=float)
# the 8 sets of gaps a least-squares candidate leaves free; the rest are 0
_FREE_GAPS = np.array(list(itertools.product((0.0, 1.0), repeat=3)))


def reconstruct_levels(lines_ghz) -> np.ndarray:
    """Four zero-field levels (sum 0) consistent with measured splittings.

    Measured lines are assigned injectively to the six pairwise differences
    of an ascending four-level ladder; each assignment is solved for the
    non-negative level gaps by least squares and the best-fitting assignment
    wins.  An incomplete line set can admit several exact ladders; ties are
    broken in favour of the largest central gap (the doublet-dominant
    structure of a large-|A3| hyperfine tensor), then lexicographically,
    all compared to 1e-12 GHz.  Raises if even the best assignment misses
    by more than LEVEL_TOL_GHZ.

    The non-negative least squares is solved by enumerating active sets
    (Lawson & Hanson 1974, ch. 23): the minimum-norm least-squares gaps of
    every assignment with every set of gaps held at 0, in one batched
    ``pinv``; the non-negative candidate of least residual is each
    assignment's solution.
    """
    lines = np.sort(np.asarray(lines_ghz, dtype=float).ravel())
    if lines.size < 3:
        raise ValueError("need at least 3 zero-field splittings")
    if lines.size > 6:
        raise ValueError("a four-level system has at most 6 distinct splittings")
    assignments = np.array(list(itertools.permutations(range(6), lines.size)))
    # (assignment, free set, line, gap)
    C = _GAP_COMBOS[assignments][:, None] * _FREE_GAPS[None, :, None, :]
    d = np.einsum("afgn,n->afg", np.linalg.pinv(C), lines)
    rms = np.linalg.norm(np.einsum("afng,afg->afn", C, d) - lines, axis=-1) / np.sqrt(lines.size)
    rms = np.where(np.all(d >= 0.0, axis=-1), rms, np.inf)
    pick = np.argmin(rms, axis=1)  # each assignment's non-negative least squares
    rows = np.arange(len(assignments))
    d, rms = d[rows, pick], rms[rows, pick]
    # key (rms, -central gap, gaps), each to 1e-12 GHz, least first
    rms, key = np.round(rms / 1e-12) * 1e-12, np.round(d / 1e-12)
    best = np.lexsort((*key.T[::-1], -key[:, 1], rms))[0]
    best_rms, best_d = rms[best], d[best]
    levels = np.cumsum(np.concatenate(([0.0], best_d)))
    levels -= levels.mean()
    if best_rms > LEVEL_TOL_GHZ:
        fitted = np.sort([levels[j] - levels[i] for i, j in PAIRS])
        raise ValueError(
            f"no consistent 4-level solution within {LEVEL_TOL_GHZ * 1e3:.1f} MHz "
            f"(best RMS {best_rms * 1e3:.2f} MHz; closest splittings {fitted})"
        )
    return levels


def transition_frequencies(es: EigenSystem) -> np.ndarray:
    """The six level differences E_j - E_i (GHz), in ``PAIRS`` order."""
    return es.energies[PAIR_HI] - es.energies[PAIR_LO]


def spin_half_states(axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) spinors quantized along ``axis`` (default: crystal b = z)."""
    if axis is None:
        return (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    n = unit_direction(axis)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    up = np.array([c, s * np.exp(1j * phi)], dtype=complex)
    down = np.array([-s * np.exp(-1j * phi), c], dtype=complex)
    return (up, down)


def product_basis(electron_axis=None, nuclear_axis=None) -> np.ndarray:
    """Columns = |e +/-> x |n +/-> product states, order (uu, ud, du, dd)."""
    eu, ed = spin_half_states(electron_axis)
    nu, nd = spin_half_states(nuclear_axis)
    cols = [np.kron(a, b) for a in (eu, ed) for b in (nu, nd)]
    return np.column_stack(cols)


def basis_overlaps(es: EigenSystem, electron_axis=None, nuclear_axis=None) -> np.ndarray:
    """|<basis_k|state_n>|^2; column n sums to 1.

    The default basis is quantized along the crystal b axis for both spins;
    pass explicit axes (e.g. the field-adapted electron axis g^T B-hat and
    nuclear axis A e-hat) to reproduce avoided-crossing overlap plots.
    """
    basis = product_basis(electron_axis, nuclear_axis)
    return np.abs(basis.conj().T @ es.states) ** 2


def transition_gradients(sys: SpinSystem, fields, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(gradient GHz/mT (..., 3), degenerate (...)) of the (i, j) transition
    at the fields (..., 3), from one stacked ``eigh``; ``degenerate`` flags
    where level i or j lies within DEGENERACY_GAP_GHZ of a neighbour."""
    fields = np.asarray(fields, dtype=float)
    w, v = np.linalg.eigh(hamiltonian_batch(sys, fields.reshape(-1, 3)))
    grad = field_gradients(v, sys.g.matrix, sys.g_n, sys.mu_b, sys.mu_n)
    degenerate = degenerate_levels(w)[:, [i, j]].any(axis=1)
    return (grad[:, j] - grad[:, i]).reshape(fields.shape), degenerate.reshape(fields.shape[:-1])


def zeeman_gradient(sys: SpinSystem, B, i: int, j: int) -> np.ndarray:
    """Hellmann-Feynman gradient of the (i, j) transition, GHz/mT.

    Raises ValueError where level i or j lies within DEGENERACY_GAP_GHZ of
    a neighbour: the sorted levels have a kink there, so the transition has
    no gradient (a finite difference across it would average two slopes).
    """
    grad, degenerate = transition_gradients(sys, as_field(B), i, j)
    if degenerate:
        raise ValueError(f"levels {i} or {j} are degenerate at this field, where the transition has no gradient")
    return grad
