import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_offset_fit
from kramers.hamiltonian import zero_field_levels
from kramers.presets import SITE_I, SITE_II
from kramers.spectra import (
    SHAPE_BLOCK,
    _lorentzian_sum,
    _offset_fit,
    absorption_spectrum,
    find_peaks,
    flip_sign_class,
    lorentzian_amplitude,
    optical_lines,
    ordering_search,
)
from kramers.tensors import decompose_tensor


def zero_field_lines(site, ordering):
    """The 16 sorted zero-field line detunings of an ordering class pair, as ``ordering_search`` takes them."""
    return np.sort([l.detuning_ghz for l in optical_lines(site.with_ordering(ordering), intensity_model="uniform")])


def zero_field_span_oracle(site):
    """Sum of the two extreme zero-field splittings via the closed form."""
    eg = zero_field_levels(*decompose_tensor(site.ground.A).values).sorted()
    ee = zero_field_levels(*decompose_tensor(site.excited.A).values).sorted()
    return (ee[3] - ee[0]) + (eg[3] - eg[0])


class TestOpticalLines:
    def test_sixteen_lines(self):
        lines = optical_lines(SITE_I)
        assert len(lines) == 16
        assert {(l.ground_level, l.excited_level) for l in lines} == {
            (i, j) for i in range(4) for j in range(4)
        }

    def test_strengths_normalized(self):
        lines = optical_lines(SITE_I)
        strengths = [l.strength for l in lines]
        assert max(strengths) == pytest.approx(1.0)
        assert all(0 <= s <= 1 for s in strengths)

    def test_total_span_site_i(self):
        # oracle: (Ee4-Ee1) + (Eg4-Eg1) from the closed-form levels;
        # 3.208 GHz ground span (the top zero-field line) plus 4.498 GHz excited
        lines = optical_lines(SITE_I)
        detunings = np.array([l.detuning_ghz for l in lines])
        span = detunings.max() - detunings.min()
        assert span == pytest.approx(zero_field_span_oracle(SITE_I), abs=1e-9)
        eg = zero_field_levels(*decompose_tensor(SITE_I.ground.A).values).sorted()
        assert eg[3] - eg[0] == pytest.approx(3.208, abs=1e-6)
        assert span == pytest.approx(3.208 + 4.4978, abs=1e-3)

    def test_lines_sharing_ground_level_spaced_by_excited_splittings(self):
        lines = optical_lines(SITE_II)
        ee = zero_field_levels(*decompose_tensor(SITE_II.excited.A).values).sorted()
        for i in range(4):
            d = sorted(l.detuning_ghz for l in lines if l.ground_level == i)
            gaps = np.diff(d)
            expected = np.diff(ee)
            assert np.abs(np.sort(gaps) - np.sort(expected)).max() < 1e-9

    def test_invariant_under_manifold_shift(self):
        # positions depend only on level differences: detunings of (i, j)
        # minus (i, j') must equal excited splittings regardless of offsets
        lines = {(l.ground_level, l.excited_level): l.detuning_ghz for l in optical_lines(SITE_I)}
        assert lines[(2, 3)] - lines[(2, 0)] == pytest.approx(
            lines[(1, 3)] - lines[(1, 0)], abs=1e-12
        )


class TestAbsorptionSpectrum:
    def test_single_line_peak_and_width(self):
        # a narrow-FWHM replica makes the outermost line truly isolated
        # (neighbour 0.65 GHz away = 13 linewidths)
        from dataclasses import replace

        narrow = replace(SITE_II, fwhm_mhz=50.0)
        lines = optical_lines(narrow, intensity_model="uniform")
        target = min(lines, key=lambda l: l.detuning_ghz)
        step = 0.001
        x, y = absorption_spectrum(
            narrow, (0, 0, 0), (target.detuning_ghz - 0.2, target.detuning_ghz + 0.2, step),
            intensity_model="uniform",
        )
        peak_pos = x[np.argmax(y)]
        assert abs(peak_pos - target.detuning_ghz) <= step / 2 + 1e-12
        fwhm_ghz = narrow.fwhm_mhz * 1e-3
        half = y.max() / 2
        above = x[y >= half]
        width = above.max() - above.min()
        assert width == pytest.approx(fwhm_ghz, abs=step + 1e-9)

    def test_site_i_partially_resolved(self):
        x, y = absorption_spectrum(SITE_I, (0, 0, 0), (-4.5, 4.5, 0.005))
        assert y.max() == pytest.approx(1.0)
        interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
        n_peaks = int(np.count_nonzero(interior))
        assert 2 <= n_peaks <= 16

    def test_normalization_invariance(self):
        x1, y1 = absorption_spectrum(SITE_I, (0, 0, 0), (-4, 4, 0.01), intensity_model="uniform")
        lines = optical_lines(SITE_I, intensity_model="uniform")
        fwhm = SITE_I.fwhm_mhz * 1e-3
        doubled = np.zeros_like(x1)
        for l in lines:
            hw = fwhm / 2
            doubled += 2.0 * l.strength * hw**2 / ((x1 - l.detuning_ghz) ** 2 + hw**2)
        doubled /= doubled.max()
        assert np.abs(doubled - y1).max() < 1e-12

    def test_memory_within_one_grid(self):
        # the spectrum itself, normalized in place, and the sum's two slice buffers
        grid = np.linspace(-4.5, 4.5, 2_000_000)
        tracemalloc.start()
        try:
            absorption_spectrum(SITE_I, (0, 0, 0), grid, intensity_model="uniform")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid.nbytes + 16 * SHAPE_BLOCK + 65536, peak

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            absorption_spectrum(SITE_I, (0, 0, 0), (-1, 1, 0.5))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            absorption_spectrum(SITE_I, (0, 0, 0), np.array([]))


def per_line_sum(lines, detunings, fwhm_mhz, out):
    """The Lorentzian sum one line at a time, each shape computed alone: the
    reference whose bits the block render keeps."""
    fwhm_ghz, last = fwhm_mhz * 1e-3, None
    shape, term = np.empty(out.shape), np.empty(out.shape)
    with np.errstate(over="ignore"):
        for detuning, weight in lines:
            if detuning != last:
                lorentzian_amplitude(np.subtract(detunings, detuning, out=shape, dtype=float), fwhm_ghz, out=shape)
                last = detuning
            out += np.multiply(weight, shape, out=term)
    return out


GRID = np.linspace(-1.0, 1.0, 5001)
ROWS = SHAPE_BLOCK // GRID.size  # shapes per block on GRID (13)


def _lines(detunings, seed=0):
    weights = np.random.default_rng(seed).normal(size=len(detunings))
    return [(float(d), float(w)) for d, w in zip(detunings, weights)]


def _distinct(n, seed=0):
    return np.random.default_rng(seed).uniform(-1.2, 1.2, n)


def _straddling(seed=1):
    # runs of equal detunings across every block boundary, of one to 2 ROWS + 1 lines
    rng = np.random.default_rng(seed)
    return np.repeat(rng.uniform(-1.0, 1.0, 12), [1, ROWS - 1, 2, ROWS, ROWS + 1, 3, 1, 2 * ROWS + 1, 1, 5, 1, 1])


class TestLorentzianSum:
    """``_lorentzian_sum`` computes its shapes in blocks and keeps, bit for
    bit, the sum of the lines taken one at a time."""

    @staticmethod
    def assert_bits_kept(lines, detunings, fwhm_mhz=50.0, seed=0):
        start = np.random.default_rng(seed).normal(size=np.shape(detunings))
        got = _lorentzian_sum(lines, detunings, fwhm_mhz, start.copy())
        want = per_line_sum(lines, detunings, fwhm_mhz, start.copy())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("count", [0, 1, ROWS - 1, ROWS, ROWS + 1, 300])
    def test_distinct_detunings(self, count):
        assert ROWS == 13
        self.assert_bits_kept(_lines(_distinct(count)), GRID)

    def test_runs_straddle_block_boundaries(self):
        detunings = _straddling()
        self.assert_bits_kept(_lines(detunings), GRID)
        # a detuning that comes back after another starts a new run
        self.assert_bits_kept(_lines(np.tile(detunings[:ROWS + 3], 3)), GRID)

    def test_overflowing_distances_give_shape_zero(self):
        grid = np.linspace(-1e160, 1e160, 4001)
        lines = _lines([1e300, -1e300, 1e300, 0.0, -1e300, 5e159, 5e159, -1e300] * 4)
        self.assert_bits_kept(lines, grid)
        alone = _lorentzian_sum([(1e300, 1.0), (-1e300, 1.0)], grid, 50.0, np.zeros_like(grid))
        assert not alone.any()

    def test_long_grid_in_slices(self):
        # a 1-D grid longer than SHAPE_BLOCK is summed in SHAPE_BLOCK-sample slices, the last one short
        grid = np.linspace(-1.0, 1.0, 3 * SHAPE_BLOCK + 17)
        self.assert_bits_kept(_lines(np.r_[_distinct(20), _straddling()]), grid)

    def test_float32_grid(self):
        grid = GRID.astype(np.float32)
        self.assert_bits_kept(_lines(np.r_[_distinct(40), _straddling()]), grid)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([-1e300, -0.75, -0.1, -0.0, 0.0, 1e-9, 0.1, 0.5, 1e300]), max_size=60),
           st.sampled_from([20.0, 50.0, 1e-3]), st.integers(0, 3))
    def test_generated_line_lists(self, detunings, fwhm_mhz, seed):
        self.assert_bits_kept(_lines(detunings, seed), GRID[::3] if seed % 2 else GRID, fwhm_mhz, seed)

    @staticmethod
    def peak(lines, grid):
        out = np.zeros_like(grid)
        tracemalloc.start()
        try:
            _lorentzian_sum(lines, grid, 50.0, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_flat_in_line_count(self):
        # a grid above SHAPE_BLOCK is summed a slice at a time: one shape and one term buffer of a slice
        grid = np.linspace(-1.0, 1.0, 2_000_000)
        peaks = [self.peak(_lines(_distinct(n)), grid) for n in (1, 40)]
        assert max(peaks) <= 16 * SHAPE_BLOCK + 65536, peaks
        assert peaks[1] < 1.01 * peaks[0], peaks
        # a small grid adds at most one SHAPE_BLOCK of shapes to its term buffer
        assert self.peak(_lines(_distinct(300)), GRID) <= GRID.nbytes + 8 * SHAPE_BLOCK + 65536


class TestOrderingSearch:
    def synthetic_peaks(self, site):
        return [l.detuning_ghz for l in optical_lines(site, intensity_model="uniform")]

    def test_site_i_roundtrip(self):
        ranked = ordering_search(SITE_I, self.synthetic_peaks(SITE_I))
        assert ranked[0].ordering == (1, 1)
        assert ranked[0].rms_ghz < 1e-3
        assert all(r.rms_ghz > 10 * max(ranked[0].rms_ghz, 1e-3) for r in ranked[1:])
        assert not ranked[0].tied

    def test_site_ii_roundtrip(self):
        ranked = ordering_search(SITE_II, self.synthetic_peaks(SITE_II))
        assert ranked[0].ordering == (1, 1)
        assert ranked[0].rms_ghz < 1e-3

    def test_roundtrip_from_flipped_class(self):
        flipped = SITE_I.with_ordering((-1, 1))
        ranked = ordering_search(SITE_I, self.synthetic_peaks(flipped))
        assert ranked[0].ordering == (-1, 1)
        assert ranked[0].rms_ghz < 1e-3

    def test_double_flip_is_same_class(self):
        # simultaneous sign change of two elements leaves the order (and
        # therefore the ranked-first class) unchanged
        values = decompose_tensor(SITE_I.ground.A).values
        double_flipped = (values[0], -values[1], -values[2])
        lv_a = zero_field_levels(*values).sorted()
        lv_b = zero_field_levels(*double_flipped).sorted()
        assert np.abs(lv_a - lv_b).max() < 1e-12
        once = flip_sign_class(values)
        assert np.abs(
            zero_field_levels(*once).sorted() - zero_field_levels(*values).sorted()
        ).max() > 1e-3

    def test_offset_recovered(self):
        peaks = [p + 0.321 for p in self.synthetic_peaks(SITE_I)]
        ranked = ordering_search(SITE_I, peaks)
        assert ranked[0].offset_ghz == pytest.approx(0.321, abs=1e-9)
        assert ranked[0].rms_ghz < 1e-9

    def test_requires_four_peaks(self):
        with pytest.raises(ValueError):
            ordering_search(SITE_I, [0.0, 1.0, 2.0])

    def test_symmetric_level_sets_reported_as_tied(self):
        # a vanishing middle eigenvalue makes each zero-field quartet
        # mirror-symmetric, so every sign class produces the same line set
        # and the search must flag the tie instead of feigning uniqueness
        from dataclasses import replace

        from kramers.hamiltonian import SpinSystem
        from kramers.tensors import PrincipalTensor, EulerAngles, assemble_tensor

        def sym_system(a1, a3):
            return SpinSystem(
                A=assemble_tensor(PrincipalTensor((a1, 0.0, a3), EulerAngles(20, 40, 10))),
                g=SITE_I.ground.g,
            )

        site = replace(
            SITE_I, ground=sym_system(0.5, 5.0), excited=sym_system(1.5, 7.0)
        )
        peaks = [l.detuning_ghz for l in optical_lines(site, intensity_model="uniform")]
        ranked = ordering_search(site, peaks)
        assert all(r.tied for r in ranked)
        assert all(r.rms_ghz < 1e-9 for r in ranked)
        # the RMS values differ only in rounding (below 1e-12 GHz): the site's
        # own classes rank first, then the others by class
        for own in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            ranked = ordering_search(site.with_ordering(own), peaks)
            assert [r.ordering for r in ranked] == [own] + sorted({(1, 1), (1, -1), (-1, 1), (-1, -1)} - {own})

    def test_generating_class_never_beaten_with_noise(self):
        rng = np.random.default_rng(21)
        peaks = np.array(self.synthetic_peaks(SITE_II))
        for _ in range(5):
            noisy = peaks + rng.normal(0, 1e-3, peaks.size)
            ranked = ordering_search(SITE_II, noisy)
            assert ranked[0].ordering == (1, 1)


def scipy_peaks(y, prominence):
    from scipy.signal import find_peaks as reference

    return reference(y, prominence=prominence)[0]


# runs of a few levels: plateaus, ties between peaks, maxima at either end
# and constant stretches; occasionally a NaN sample or arbitrary floats
_RUNS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=16).map(
    lambda runs: np.repeat([float(v) for v, _ in runs], [n for _, n in runs]))
_FLOATS = st.lists(st.floats(-1e3, 1e3), max_size=30).map(lambda v: np.array(v, dtype=float))


@st.composite
def _signals(draw):
    y = draw(st.one_of(_RUNS, _RUNS, _FLOATS))
    if y.size and draw(st.integers(0, 4)) == 0:
        y[draw(st.integers(0, y.size - 1))] = np.nan
    return y


class TestFindPeaks:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(_signals(), st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0, 500)))
    def test_matches_scipy(self, y, prominence):
        assert np.array_equal(find_peaks(y, prominence), scipy_peaks(y, prominence))

    def test_plateau_reported_at_its_middle(self):
        y = np.array([0, 2, 2, 2, 2, 1, 3, 3, 3, 0, 5, 5])
        assert find_peaks(y, 0).tolist() == [2, 7]  # the right end run is no peak
        assert find_peaks(y, 2).tolist() == [7]      # the first peak's prominence is 1

    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    @pytest.mark.parametrize("model", ["overlap", "uniform"])
    def test_matches_scipy_on_absorption_spectra(self, site, model):
        _, amp = absorption_spectrum(site, (0, 0, 0), (-5.0, 5.0, 0.005), intensity_model=model)
        for fraction in (0.0, 0.01, 0.05, 0.2):
            assert np.array_equal(find_peaks(amp, fraction), scipy_peaks(amp, fraction))


class TestOffsetFitOracle:
    """The stacked offset fit against the one-seed-at-a-time loop, bit for bit."""

    ORDERINGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def peak_sets(self):
        rng = np.random.default_rng(12)
        yield np.array([1.0, 1.0, 1.0, 1.0])  # every seed ties
        yield np.array([-1.0, -1.0, 1.0, 1.0])
        for n in range(20):
            size = int(rng.integers(4, 41))
            kind = n % 4
            if kind == 0:
                yield np.sort(rng.uniform(-5.0, 5.0, size))
            elif kind == 1:  # repeated peaks on a coarse grid: tied offsets
                yield np.sort(np.round(rng.uniform(-4.0, 4.0, size), 1))
            elif kind == 2:  # model lines shifted, some duplicated
                lines = zero_field_lines(SITE_I, self.ORDERINGS[n % 4])
                yield np.sort(lines[rng.integers(0, 16, size)] + 0.25)
            else:
                yield np.full(size, rng.uniform(-3.0, 3.0))

    @pytest.mark.parametrize("site", [SITE_I, SITE_II], ids=["I", "II"])
    def test_matches_per_seed_loop(self, site):
        for peaks in self.peak_sets():
            for ordering in self.ORDERINGS:
                lines = zero_field_lines(site, ordering)
                rms, offset = _offset_fit(peaks, lines)
                ref_rms, ref_offset = reference_offset_fit(peaks, lines)
                assert (rms.hex(), offset.hex()) == (ref_rms.hex(), ref_offset.hex()), (peaks, ordering)

    def test_chunked_seeds_match(self, monkeypatch):
        from kramers import spectra

        peaks = np.sort(np.random.default_rng(3).uniform(-4.0, 4.0, 9))
        lines = zero_field_lines(SITE_I, (1, 1))
        for chunk in (1, 16 * 9 * 5, 16 * 9 * 7 + 3):  # one seed, and partial chunks
            monkeypatch.setattr(spectra, "OFFSET_CHUNK", chunk)
            assert _offset_fit(peaks, lines) == reference_offset_fit(peaks, lines)
