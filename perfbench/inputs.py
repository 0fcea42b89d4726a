"""Seeded benchmark inputs: the fit data CSV and the SHB rates file.

The inputs come from this module's own plain-numpy spin Hamiltonian, built
with Kronecker products from the site-I ground-state preset parameters
written out below, never from the program under test.  Two commits of the
program therefore receive byte-identical inputs for the same seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# site-I ground state: principal values and zxz Euler angles (deg)
SITE_I_GROUND_A = ((0.484, 1.162, 5.254), (72.25, 92.11, 63.92))  # GHz
SITE_I_GROUND_G = ((0.31, 1.60, 6.53), (72.80, 91.30, 66.19))
MU_B_GHZ_PER_MT = 13.996245e-3
MU_N_GHZ_PER_MT = 7.6225932e-6
G_N = 0.987

FIT_DIRECTIONS = ((1.0, 0.0, 0.0), (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0))  # D1 and a generic axis
FIT_MAGNITUDES_MT = tuple(3.0 * k for k in range(1, 51))  # 3..150 mT
FIT_NOISE_GHZ = 2e-3
ODMR_SIGMA_GHZ = 0.5e-3
PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))

# The seed picks one of these spin-lattice base rates (1/s); the shb-map
# references hold one entry per variant.
RATE_VARIANTS = (2.0, 20.0, 200.0, 2000.0)
PUMP_RATE = 100.0
BURN_DURATION_S = 0.3

_SIGMA_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)
_S = [np.kron(s, np.eye(2)) for s in _SIGMA_HALF]  # electron
_I = [np.kron(np.eye(2), s) for s in _SIGMA_HALF]  # nucleus


def _rot(axis: int, deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    if axis == 2:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def tensor(values, angles_deg) -> np.ndarray:
    """R diag(values) R^T with R = Rz(alpha) Rx(beta) Rz(gamma)."""
    a, b, g = angles_deg
    r = _rot(2, a) @ _rot(0, b) @ _rot(2, g)
    return r @ np.diag(values) @ r.T


def hamiltonian(A: np.ndarray, g: np.ndarray, field_mt) -> np.ndarray:
    """4x4 Hamiltonian (GHz): A_kl I_k S_l + mu_B B_k g_kl S_l - mu_n g_n B_k I_k."""
    b = np.asarray(field_mt, dtype=float)
    beff = MU_B_GHZ_PER_MT * (b @ g)
    h = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        for l in range(3):
            h += A[k, l] * (_I[k] @ _S[l])
        h += beff[k] * _S[k] - MU_N_GHZ_PER_MT * G_N * b[k] * _I[k]
    return h


def ground_frequencies(field_mt) -> np.ndarray:
    """Six site-I ground transition frequencies (GHz), pairs in PAIRS order."""
    A = tensor(*SITE_I_GROUND_A)
    g = tensor(*SITE_I_GROUND_G)
    e = np.linalg.eigvalsh(hamiltonian(A, g, field_mt))
    return np.array([e[j] - e[i] for i, j in PAIRS])


def fit_data_csv(seed: int) -> str:
    """Labelled noisy SHB points on two field rays plus the six unlabelled
    zero-field ODMR lines, in the CLI's fit-data CSV format."""
    rng = np.random.default_rng([seed, 1])
    lines = ["kind,state,bx_mt,by_mt,bz_mt,value,sigma,label"]
    for direction in FIT_DIRECTIONS:
        for mag in FIT_MAGNITUDES_MT:
            field = mag * np.asarray(direction)
            freqs = ground_frequencies(field)
            noise = rng.normal(0.0, FIT_NOISE_GHZ, size=len(PAIRS))
            for (i, j), f, n in zip(PAIRS, freqs, noise):
                bx, by, bz = (f"{x:.10g}" for x in field)
                lines.append(f"shb,ground,{bx},{by},{bz},{f + n:.10g},{FIT_NOISE_GHZ:g},{i + 1}-{j + 1}")
    for f in np.sort(ground_frequencies((0.0, 0.0, 0.0))):
        lines.append(f"odmr,ground,0,0,0,{f:.10g},{ODMR_SIGMA_GHZ:g},")
    return "\n".join(lines) + "\n"


def rate_variant(seed: int) -> int:
    return seed % len(RATE_VARIANTS)


def rates_ini(seed: int) -> str:
    """Symmetric ground relaxation rates proportional to the zero-field
    electron-spin matrix elements |<m|S_D1|n>|^2, scaled by the seed's variant."""
    A = tensor(*SITE_I_GROUND_A)
    g = tensor(*SITE_I_GROUND_G)
    _, v = np.linalg.eigh(hamiltonian(A, g, (0.0, 0.0, 0.0)))
    weights = {
        (i, j): abs(v[:, j].conj() @ _S[0] @ v[:, i]) ** 2 for i, j in PAIRS
    }
    top = max(weights.values())
    base = RATE_VARIANTS[rate_variant(seed)]
    lines = ["[rates]"]
    lines += [f"r{i + 1}{j + 1} = {base * w / top:.6g}" for (i, j), w in weights.items()]
    lines += [f"pump_rate = {PUMP_RATE:g}", f"duration_s = {BURN_DURATION_S:g}"]
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
