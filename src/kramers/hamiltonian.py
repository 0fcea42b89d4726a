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
from functools import cached_property

import numpy as np

from .tensors import EulerAngles, PrincipalTensor, SymmetricTensor3, assemble_tensor, decompose_tensor, subsite_transform

# CODATA-derived magneton frequencies; the spin Hamiltonian only fixes
# mu_B ~ 14 GHz/T, the precise values are configurable per SpinSystem.
MU_B_GHZ_PER_T = 13.996245
MU_N_GHZ_PER_T = 7.6225932e-3
G_N_DEFAULT = 0.987

DEGENERACY_GAP_GHZ = 1e-6
# largest RMS misfit (GHz) of the zero-field lines a level ladder may leave
LEVEL_TOL_GHZ = 2e-3

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

    # Derived matrices, computed on first use.  Safe on a frozen instance:
    # the tensor matrices are read-only and replace() builds a new object.
    @cached_property
    def hyperfine_matrix(self) -> np.ndarray:
        """The field-independent term sum_kl A_kl I_k S_l (GHz), 4x4."""
        h = hyperfine_stack(self.A.matrix)
        h.setflags(write=False)
        return h

    @cached_property
    def zeeman_derivatives(self) -> np.ndarray:
        """dH/dB_k for the three Cartesian components, shape (3, 4, 4), GHz/mT."""
        d = np.einsum("kl,lab->kab", self.g.matrix * (self.mu_b * 1e-3), S_STACK)
        d -= (self.mu_n * 1e-3 * self.g_n) * I_STACK
        d.setflags(write=False)
        return d


def as_field(B) -> np.ndarray:
    """Validate a field vector (B_D1, B_D2, B_b) in mT."""
    b = np.asarray(B, dtype=float).reshape(3)
    if not np.all(np.isfinite(b)):
        raise ValueError("field components must be finite")
    return b


def unit_direction(direction) -> np.ndarray:
    """A nonzero direction (3,) as a unit vector."""
    d = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
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
    """Hamiltonians for a stack of field vectors, shape (N, 3) mT -> (N, 4, 4)."""
    return zeeman_stack(sys.hyperfine_matrix, sys.g.matrix, np.asarray(fields, dtype=float),
                        sys.g_n, sys.mu_b, sys.mu_n)


def hamiltonian_stack(A, g, fields, g_n: float, mu_b: float, mu_n: float) -> np.ndarray:
    """Hamiltonians for stacks of A and g tensors (..., 3, 3), each at the
    fields (..., N, 3) mT; returns (..., N, 4, 4).

    The leading axes broadcast, so one call can cover many tensor pairs
    times many fields.  For one A and g it is ``hamiltonian_batch``, bit
    for bit.  It is ``zeeman_stack`` of ``hyperfine_stack``: a caller that
    puts many fields on one A can build the hyperfine term once.
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


def spin_expectations(states: np.ndarray, mix: np.ndarray | None = None) -> np.ndarray:
    """<n|O|n> for every O of SPIN_OPERATORS: eigenvector columns (..., 4, 4) -> (..., 4, 15).

    With ``mix`` (..., 15, P) it gives sum_o <n|O_o|n> mix[o, p] instead,
    (..., 4, P): Hellmann-Feynman derivatives, when ``mix`` holds dH/dp in
    the operator basis.
    """
    v = np.ascontiguousarray(np.swapaxes(states, -1, -2))
    rho = v.conj()[..., :, :, None] * v[..., :, None, :]
    weights = _EXPECTATION_WEIGHTS if mix is None else _EXPECTATION_WEIGHTS @ mix
    return rho.reshape(rho.shape[:-2] + (16,)).view(np.float64) @ weights


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

    Valid only when both levels are separated from their neighbours by more
    than the degeneracy threshold; otherwise a ValueError points the caller
    to a finite-difference fallback.
    """
    grad, degenerate = transition_gradients(sys, as_field(B), i, j)
    if degenerate:
        raise ValueError(f"levels {i} or {j} are degenerate at this field; "
                         "use finite differences instead of Hellmann-Feynman")
    return grad
