"""Spectral-hole-burning patterns: ion classes, holes, antiholes and the
rate-equation pseudo-hole rule.

A burn pulse at a fixed detuning inside the inhomogeneous profile pumps a
different optical-hyperfine transition (i, j) for each ion *class*; every
class writes side holes at the excited-state splittings relative to its
burned transition and antiholes shifted additionally by ground-state
splittings.  Ground levels drained by fast spin relaxation show holes where
antiholes are expected ("pseudo-holes").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import RANGES, as_field, hamiltonian_batch, tiles, unit_direction
from .spectra import SiteModel, _lorentzian_sum, lorentzian_amplitude

HOLE = "hole"
ANTIHOLE = "antihole"
PSEUDO_HOLE = "pseudo-hole"

THERMAL_POPULATION = 0.25  # kT >> hyperfine splittings at a few kelvin
DEFAULT_CLASS_CUTOFF = 1e-3
PSEUDO_EPSILON = 0.10
DEFAULT_HOLE_WIDTH_MHZ = 5.0


@dataclass(frozen=True)
class ClassAssignment:
    """One ion class: its burned transition and its spectral weight."""

    ground_level: int
    excited_level: int
    center_detuning_ghz: float
    weight: float


@dataclass(frozen=True)
class HoleEntry:
    detuning_ghz: float       # probe detuning from the burn frequency
    polarity: str             # hole | antihole | pseudo-hole
    weight: float
    class_label: tuple[int, int]   # (ground, excited) of the burned transition
    probe: tuple[int, int]         # (ground, excited) of the probed transition


@dataclass(frozen=True)
class HolePattern:
    entries: tuple[HoleEntry, ...]
    burn_detuning_ghz: float = 0.0
    field_mt: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RateMatrix:
    """Ground-level relaxation rates R[k, l] (k -> l, 1/s) plus the pump.

    Off-diagonal entries are the relaxation rates; the optical pump drains
    the burned level at ``pump_rate`` and feeds the drained population back
    into the other three ground levels with equal branching, so the total
    population is conserved (the excited state is not modeled).
    """

    rates: np.ndarray
    pump_rate: float = 100.0
    duration_s: float = 0.3

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.shape != (4, 4):
            raise ValueError("rate matrix must be 4x4")
        (low, high), (shortest, longest) = RANGES["rate_per_s"], RANGES["duration_s"]
        rates = np.append(r[~np.eye(4, dtype=bool)], self.pump_rate)
        if not (np.isfinite(r).all() and low <= rates.min() and rates.max() <= high
                and (shortest <= self.duration_s <= longest or self.duration_s == np.inf)):
            raise ValueError("rates, pump rate and duration must lie in their RANGES rows (the duration may be inf)")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)

    @classmethod
    def symmetric(cls, pairs: dict, pump_rate: float = 100.0, duration_s: float = 0.3) -> "RateMatrix":
        """Build detailed-balance (symmetric) rates from {(k, l): rate} pairs."""
        r = np.zeros((4, 4))
        for (k, l), rate in pairs.items():
            r[k, l] = r[l, k] = rate
        return cls(r, pump_rate, duration_s)


def enumerate_classes(
    site: SiteModel,
    B,
    burn_detuning_ghz: float,
    cutoff: float = DEFAULT_CLASS_CUTOFF,
) -> list[ClassAssignment]:
    """All (ground, excited) classes with weight >= cutoff at a burn frequency.

    A class burned on line (i, j) is centered at burn - line detuning inside
    the inhomogeneous profile; its weight is the Lorentzian envelope
    amplitude there times the line strength of the uniform intensity model
    (both normalized to peak 1).
    """
    (eg,), (ee,) = _energies(site, as_field(B)[None])
    return _classes(site, eg, ee, burn_detuning_ghz, cutoff)


def _energies(site: SiteModel, fields: np.ndarray) -> tuple[list, list]:
    """Ground and excited energies at the fields (N, 3): two lists of N lists of 4 floats.

    The uniform intensity model needs no eigenvectors, and each matrix of
    a stacked ``eigh`` gives the same energies as ``eigensystem`` at its field.
    """
    return tuple(np.linalg.eigh(hamiltonian_batch(sys, fields))[0].tolist() for sys in (site.ground, site.excited))


def _classes(site: SiteModel, eg: list, ee: list, burn: float, cutoff: float) -> list[ClassAssignment]:
    """``enumerate_classes`` from the ground and excited energies at the field."""
    if not 0.0 < cutoff <= 1.0:
        raise ValueError("cutoff must be in (0, 1]")
    fwhm_ghz, burn = site.fwhm_mhz * 1e-3, float(burn)
    out = []
    for i in range(4):
        for j in range(4):
            offset = burn - (ee[j] - eg[i])
            if offset * offset == np.inf:  # amplitude exactly 0: a Python caller's burn or field beyond RANGES
                continue
            w = float(lorentzian_amplitude(offset, fwhm_ghz))
            if w >= cutoff:
                out.append(ClassAssignment(i, j, offset, w))
    return out


def _generator(rates: RateMatrix, pumped_level: int) -> np.ndarray:
    """Column-stochastic generator of the pumped rate equations (columns sum to 0)."""
    r = rates.rates
    out = r[~np.eye(4, dtype=bool)].reshape(4, 3)  # the rates out of each level, in order
    m = 0.0 + r.T
    # bit for bit the same as subtracting each outgoing rate from 0 in turn
    m[np.diag_indices(4)] = 0.0 - (out[:, 0] + out[:, 1] + out[:, 2])
    m[pumped_level, pumped_level] -= rates.pump_rate
    m[np.arange(4) != pumped_level, pumped_level] += rates.pump_rate / 3.0
    return m


# numerator coefficients of the degree-13 diagonal Pade approximant of exp,
# and the 1-norm up to which it is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179, 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring the degree-13 Pade approximant."""
    a = np.asarray(a, dtype=float)
    ident = np.eye(len(a))
    norm = np.abs(a).sum(axis=0).max()
    if norm == 0:  # a burn of zero duration leaves the populations exactly as they were
        return ident
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))))
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``.

    A singular value counts as zero at or below max(M, N) * eps * its
    largest one, the rank rule of ``scipy.linalg.null_space``.
    """
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s.max()))
    return vh[rank:].conj().T


def populations_after_burn(rates: RateMatrix, pumped_level: int, duration_s=None) -> np.ndarray:
    """Ground populations after burning, starting from the thermal 1/4 each.

    Propagates the linear rate equations with the matrix exponential; a
    ``duration_s`` given here must lie in the duration row, as that of
    ``rates`` does.  ``duration_s=inf`` returns the stationary distribution
    of the pumped generator, and raises if it has none or more than one
    (rates that split the levels into separate closed sets).  The four
    populations always sum to 1.
    """
    if pumped_level not in range(4):
        raise ValueError("pumped level must be 0..3")
    m = _generator(rates, pumped_level)
    p0 = np.full(4, THERMAL_POPULATION)
    t = (rates if duration_s is None else replace(rates, duration_s=float(duration_s))).duration_s
    if np.isinf(t):
        ns = _null_space(m)
        if ns.shape[1] != 1:
            raise ValueError(f"no stationary distribution: the pumped generator has a "
                             f"{ns.shape[1]}-dimensional null space")
        p = ns[:, 0]
        p = p / p.sum()
        return p
    return _expm(m * t) @ p0


def _relative_population_changes(
    rates, pumped_level: int
) -> np.ndarray:
    """(p_after - p_thermal) / p_thermal per level.

    Without a rate model the burned level is fully depleted and its
    population is redistributed equally over the other three levels.
    """
    if rates is None:
        delta = np.full(4, 1.0 / 3.0)
        delta[pumped_level] = -1.0
        return delta
    p = populations_after_burn(rates, pumped_level)
    return (p - THERMAL_POPULATION) / THERMAL_POPULATION


def _entries(site: SiteModel, eg: list, ee: list, burn: float, rates, cutoff: float, changes: dict) -> list:
    """The holes, antiholes and pseudo-holes at one field, from its ground
    and excited energies: (detuning, class, probe, polarity, weight) tuples
    sorted by (detuning, class, probe), which no two entries share.

    ``changes`` memoizes the relative population changes per pumped level;
    they depend on ``rates`` alone, so the fields of one map share them.
    """
    entries = []
    for cls in _classes(site, eg, ee, burn, cutoff):
        i, j = cls.ground_level, cls.excited_level
        if i not in changes:
            changes[i] = _relative_population_changes(rates, i).tolist()
        delta = changes[i]
        for jp in range(4):
            hole_shift = ee[jp] - ee[j]
            entries.append((hole_shift, (i, j), (i, jp), HOLE, cls.weight * (-delta[i])))
            for ip in range(4):
                if ip == i:
                    continue
                if delta[ip] >= 0.0:
                    polarity, w = ANTIHOLE, delta[ip]
                elif -delta[ip] > PSEUDO_EPSILON:
                    polarity, w = PSEUDO_HOLE, -delta[ip]
                else:
                    continue  # sub-threshold depletion: negligible amplitude
                entries.append((hole_shift + (eg[i] - eg[ip]), (i, j), (ip, jp), polarity, cls.weight * w))
    entries.sort()
    return entries


def hole_pattern(
    site: SiteModel,
    B,
    burn_detuning_ghz: float = 0.0,
    rates: RateMatrix | None = None,
    cutoff: float = DEFAULT_CLASS_CUTOFF,
) -> HolePattern:
    """Predict the hole/antihole spectrum for one burn configuration.

    Per class (i, j): holes at Ee_j' - Ee_j for every excited level j'
    (j' = j is the central hole at zero detuning) and antiholes at
    (Ee_j' - Ee_j) + (Eg_i - Eg_i') for every other ground level i'.  Entry
    weights combine the class weight with the relative population change of
    the probed ground level.  When a rate model is given, ground levels
    whose post-burn population falls more than ``PSEUDO_EPSILON`` below
    thermal re-label their antiholes as pseudo-holes.
    """
    B = as_field(B)
    (eg,), (ee,) = _energies(site, B[None])
    entries = _entries(site, eg, ee, burn_detuning_ghz, rates, cutoff, {})
    return HolePattern(tuple(HoleEntry(d, polarity, w, cls, probe) for d, cls, probe, polarity, w in entries),
                       burn_detuning_ghz, tuple(B))


def render_pattern(pattern: HolePattern, detunings: np.ndarray, hole_width_mhz: float = DEFAULT_HOLE_WIDTH_MHZ) -> np.ndarray:
    """Signed spectrum on a detuning grid: holes negative, antiholes positive."""
    lines = [(e.detuning_ghz, e.weight if e.polarity == ANTIHOLE else -e.weight) for e in pattern.entries]
    return _lorentzian_sum(lines, detunings, hole_width_mhz, np.zeros_like(detunings, dtype=float))


@dataclass(frozen=True, eq=False)
class FieldMap:
    """A stack of rendered hole patterns over a field-magnitude sweep."""

    direction: tuple[float, float, float]
    magnitudes_mt: np.ndarray
    detunings_ghz: np.ndarray
    amplitudes: np.ndarray  # shape (n_fields, n_detunings)


def shb_field_map(
    site: SiteModel,
    direction,
    magnitudes_mt,
    burn_detuning_ghz: float = 0.0,
    rates: RateMatrix | None = None,
    detuning_range_ghz: tuple[float, float] = (-5.0, 5.0),
    detuning_step_ghz: float = 0.002,
    hole_width_mhz: float = DEFAULT_HOLE_WIDTH_MHZ,
    cutoff: float = DEFAULT_CLASS_CUTOFF,
) -> FieldMap:
    """Render hole patterns for a monotone list of field magnitudes.

    Each row is the ``render_pattern`` of its field's ``hole_pattern``, bit
    for bit: the energies come one block of ``hamiltonian.tiles`` per
    stacked ``eigh``, and the rate equations are solved once per pumped
    level for the whole map.
    """
    d = unit_direction(direction)
    mags = np.asarray(magnitudes_mt, dtype=float).ravel()
    if mags.size == 0:
        raise ValueError("empty magnitude list")
    if np.any(np.diff(mags) < 0):
        raise ValueError("field magnitudes must be monotone non-decreasing")
    if not np.all(np.isfinite(mags)):
        raise ValueError("field components must be finite")
    lo, hi = detuning_range_ghz
    detunings = np.arange(lo, hi + 0.5 * detuning_step_ghz, detuning_step_ghz)

    changes: dict = {}
    amplitudes = np.zeros((mags.size, detunings.size))
    for block, _ in tiles(mags.size):
        energies = _energies(site, mags[block, None] * d)
        for row, eg, ee in zip(amplitudes[block], *energies):
            entries = _entries(site, eg, ee, burn_detuning_ghz, rates, cutoff, changes)
            _lorentzian_sum([(x, w if polarity == ANTIHOLE else -w) for x, _, _, polarity, w in entries],
                            detunings, hole_width_mhz, row)
    return FieldMap(tuple(d), mags, detunings, amplitudes)
