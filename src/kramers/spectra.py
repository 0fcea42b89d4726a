"""Optical-hyperfine line positions, inhomogeneous absorption profiles and
the level-ordering (sign-class) search.

Both manifolds of the effective Hamiltonian are traceless, so line (i, j)
sits at detuning Ee_j - Eg_i from the optical center; the 16 lines of one
site span the sum of the two extreme zero-field splittings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import RANGES, SpinSystem, eigensystem
from .tensors import decompose_tensor

INTENSITY_MODELS = ("overlap", "uniform")
OFFSET_CHUNK = 1 << 18  # elements of the seeds x peaks x lines distances per sweep
SHAPE_BLOCK = 1 << 16  # samples of the line shapes computed in one buffer


def flip_sign_class(values) -> tuple[float, float, float]:
    """Toggle the level-ordering class of a principal-value triple.

    Flipping any single eigenvalue sign switches the ordering class;
    simultaneous sign changes of two elements do not alter the order, so
    flipping the first value is a canonical representative of the toggle.
    """
    v = tuple(float(x) for x in values)
    return (-v[0], v[1], v[2])


@dataclass(frozen=True)
class SiteModel:
    """Ground + excited spin systems of one site plus its optical metadata.

    ``ordering`` is the sign-class pair (ground, excited) currently applied
    relative to the stored tensor signs; presets carry (1, 1).
    """

    ground: SpinSystem
    excited: SpinSystem
    center_nm: float
    fwhm_mhz: float
    ordering: tuple[int, int] = (1, 1)
    label: str = ""

    def __post_init__(self):
        if not RANGES["fwhm_mhz"][0] <= self.fwhm_mhz <= RANGES["fwhm_mhz"][1]:
            raise ValueError("inhomogeneous FWHM must lie in its RANGES row")
        if tuple(self.ordering) not in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            raise ValueError("ordering must be a pair of +/-1 sign classes")

    def with_ordering(self, ordering: tuple[int, int]) -> "SiteModel":
        """Re-sign the A tensors to realize another ordering class pair."""
        cg, ce = ordering
        ground, excited = self.ground, self.excited
        if cg != self.ordering[0]:
            ground = ground.with_principal(flip_sign_class(decompose_tensor(ground.A).values))
        if ce != self.ordering[1]:
            excited = excited.with_principal(flip_sign_class(decompose_tensor(excited.A).values))
        return replace(self, ground=ground, excited=excited, ordering=(cg, ce))

    def with_subsite(self, subsite: int) -> "SiteModel":
        return replace(
            self,
            ground=self.ground.with_subsite(subsite),
            excited=self.excited.with_subsite(subsite),
        )


@dataclass(frozen=True)
class OpticalLine:
    ground_level: int
    excited_level: int
    detuning_ghz: float
    strength: float


def optical_lines(site: SiteModel, B=(0.0, 0.0, 0.0), intensity_model: str = "overlap") -> list[OpticalLine]:
    """The 16 optical-hyperfine lines at a field, strengths normalized to max 1.

    The default intensity is the squared spin overlap |<psi_e|psi_g>|^2
    (frozen-orbital approximation); "uniform" assigns every line strength 1,
    which is sufficient for all position-based analyses.
    """
    if intensity_model not in INTENSITY_MODELS:
        raise ValueError(f"unknown intensity model {intensity_model!r}")
    es_g, es_e = eigensystem(site.ground, B), eigensystem(site.excited, B)
    if intensity_model == "overlap":
        raw = np.abs(es_e.states.conj().T @ es_g.states) ** 2  # [j, i]
        raw = raw / raw.max()
    else:
        raw = np.ones((4, 4))
    return [OpticalLine(i, j, float(es_e.energies[j] - es_g.energies[i]), float(raw[j, i]))
            for i in range(4) for j in range(4)]


def lorentzian_amplitude(x, fwhm: float, out=None):
    """Unit-peak Lorentzian; x and fwhm in the same units.  With ``out``
    (which may be ``x``) the values are written there and no temporary is made."""
    hw = 0.5 * fwhm
    return np.divide(hw * hw, np.add(np.square(x, out=out), hw * hw, out=out), out=out)


def _lorentzian_sum(lines, detunings: np.ndarray, fwhm_mhz: float, out: np.ndarray) -> np.ndarray:
    """Add to ``out`` the unit-peak Lorentzian of each (detuning, weight)
    line of the sequence ``lines``, in order; lines in a row at one detuning
    share one line shape.  The shapes of up to SHAPE_BLOCK // out.size such
    runs are computed together, by the same elementwise ufuncs, so each has
    the bits it has alone.  A 1-D grid longer than SHAPE_BLOCK is summed
    SHAPE_BLOCK samples at a time; each sample still adds its lines in
    order.  At a sample whose squared distance to a line overflows (only
    beyond ``RANGES``, from Python), that line's shape is exactly 0."""
    if out.ndim == 1 and out.size > SHAPE_BLOCK:
        for start in range(0, out.size, SHAPE_BLOCK):
            _lorentzian_sum(lines, detunings[start:start + SHAPE_BLOCK], fwhm_mhz, out[start:start + SHAPE_BLOCK])
        return out
    fwhm_ghz = fwhm_mhz * 1e-3
    starts = [n for n in range(len(lines)) if n == 0 or lines[n][0] != lines[n - 1][0]] + [len(lines)]
    rows = max(1, SHAPE_BLOCK // max(out.size, 1))
    shapes, term = np.empty((rows, *out.shape)), np.empty(out.shape)  # float64 buffers shared by every line
    with np.errstate(over="ignore"):
        for first in range(0, len(starts) - 1, rows):
            runs = starts[first:first + rows + 1]
            centers = np.array([lines[n][0] for n in runs[:-1]], dtype=float).reshape(-1, *[1] * out.ndim)
            block = shapes[:len(centers)]
            lorentzian_amplitude(np.subtract(detunings, centers, out=block, dtype=float), fwhm_ghz, out=block)
            for shape, start, stop in zip(block, runs, runs[1:]):
                for _, weight in lines[start:stop]:
                    out += np.multiply(weight, shape, out=term)
    return out


def absorption_spectrum(site: SiteModel, B, grid, intensity_model: str = "overlap"):
    """Sampled inhomogeneous absorption profile, normalized to peak 1.

    ``grid`` is either an array of detunings (GHz) or a (start, stop, step)
    tuple; the step must resolve the profile (< FWHM / 10).
    """
    if isinstance(grid, tuple):
        start, stop, step = grid
        detunings = np.arange(start, stop + 0.5 * step, step)
    else:
        detunings = np.asarray(grid, dtype=float)
        step = float(np.min(np.diff(detunings))) if detunings.size > 1 else 0.0
    if detunings.size == 0:
        raise ValueError("empty detuning grid")
    fwhm_ghz = site.fwhm_mhz * 1e-3
    if detunings.size > 1 and step >= fwhm_ghz / 10.0:
        raise ValueError(f"grid step {step:g} GHz too coarse for FWHM {fwhm_ghz:g} GHz")

    lines = [(line.detuning_ghz, line.strength) for line in optical_lines(site, B, intensity_model)]
    amp = _lorentzian_sum(lines, detunings, site.fwhm_mhz, np.zeros_like(detunings))
    peak = amp.max()
    if peak > 0:
        amp /= peak
    return detunings, amp


def find_peaks(y, prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``y`` whose prominence is >= ``prominence``.

    The definition is scipy.signal.find_peaks(y, prominence=prominence)[0]:
    a peak is a run of equal samples with a strictly lower sample on each
    side, so never an end sample, and is reported at the run's middle index
    (the left one of two).  Its prominence is its height minus the higher of
    the lowest samples on either side, each searched up to the first sample
    that is not <= the peak (or the array's end).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # runs of equal samples
    ends = np.r_[starts[1:] - 1, y.size - 1]
    top = y[starts]
    runs = np.flatnonzero((top[:-2] < top[1:-1]) & (top[2:] < top[1:-1])) + 1
    peaks = (starts[runs] + ends[runs]) // 2
    keep = np.zeros(peaks.size, dtype=bool)
    for n, k in enumerate(peaks):
        stop = np.flatnonzero(~(y <= y[k]))  # samples that end the search (NaN too)
        lo, hi = stop[stop < k], stop[stop > k]
        left = y[lo[-1] + 1 if lo.size else 0 : k + 1].min()
        right = y[k : hi[0] if hi.size else y.size].min()
        keep[n] = y[k] - max(left, right) >= prominence
    return peaks[keep]


def _offset_fit(peaks: np.ndarray, lines: np.ndarray) -> tuple[float, float]:
    """Best global offset aligning peaks to their nearest model lines.

    Seeds the 1-D least-squares fit from every peak-line pairing and
    iterates the nearest-line assignment to a fixed point; returns
    (rms, offset).  The seeds go OFFSET_CHUNK elements of their
    (seeds, peaks, lines) distances at a time.
    """
    seeds = (peaks[:, None] - lines[None, :]).ravel()
    rms = np.empty_like(seeds)
    step = max(1, OFFSET_CHUNK // (peaks.size * lines.size))
    for start in range(0, seeds.size, step):
        t = seeds[start:start + step]
        for _ in range(4):
            shifted = peaks[None, :] - t[:, None]
            assigned = lines[np.argmin(np.abs(lines[None, None, :] - shifted[:, :, None]), axis=2)]
            t = np.mean(peaks[None, :] - assigned, axis=1)
        seeds[start:start + step] = t
        rms[start:start + step] = np.sqrt(np.mean((peaks[None, :] - t[:, None] - assigned) ** 2, axis=1))
    best_rms, best_offset = np.inf, 0.0
    for r, t in zip(rms.tolist(), seeds.tolist()):
        if r < best_rms - 1e-15 or (abs(r - best_rms) <= 1e-15 and t < best_offset):
            best_rms, best_offset = r, t
    return best_rms, best_offset


@dataclass(frozen=True)
class OrderingResult:
    ordering: tuple[int, int]
    rms_ghz: float
    offset_ghz: float
    tied: bool = False


def ordering_search(site: SiteModel, peaks_ghz) -> list[OrderingResult]:
    """Rank the four sign-class combinations against measured peak detunings.

    Each combination fixes its 16 zero-field ``optical_lines``; only a
    global center offset is fitted (1-D least squares against nearest-line
    assignments).  Results are sorted by RMS residual to 1e-12 GHz, then the
    site's own classes first, then by class; residuals within 1 kHz of
    another are flagged as tied.  Peaks so far apart that a residual
    overflows (only beyond ``RANGES``, from Python) raise ValueError.
    """
    peaks = np.sort(np.asarray(peaks_ghz, dtype=float).ravel())
    if peaks.size < 4:
        raise ValueError("ordering search needs at least 4 measured peaks")
    results = []
    for ordering in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        zero_field = optical_lines(site.with_ordering(ordering), intensity_model="uniform")
        lines = np.sort([line.detuning_ghz for line in zero_field])
        with np.errstate(over="ignore", invalid="ignore"):
            rms, offset = _offset_fit(peaks, lines)
        if not np.isfinite(rms):
            raise ValueError(f"the offset fit's rms is {rms}: the peaks span more than a double can hold")
        results.append(OrderingResult(ordering, rms, offset))
    results.sort(key=lambda r: (round(r.rms_ghz / 1e-12), r.ordering != site.ordering, r.ordering))
    # tied: another combination's residual lies within 1 kHz
    return [replace(r, tied=any(o is not r and abs(o.rms_ghz - r.rms_ghz) < 1e-6 for o in results)) for r in results]
