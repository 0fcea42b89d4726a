import numpy as np
import pytest

from conftest import benchmark_rate_variants, reference_generator, reference_hole_entries, reference_render
from kramers.hamiltonian import eigensystem
from kramers.presets import SITE_I, SITE_II
from kramers.selftest import fast_pair_rates
from kramers.shb import (
    ANTIHOLE,
    HOLE,
    PSEUDO_HOLE,
    RateMatrix,
    _expm,
    _generator,
    _null_space,
    enumerate_classes,
    hole_pattern,
    populations_after_burn,
    render_pattern,
    shb_field_map,
)

ZERO = (0.0, 0.0, 0.0)


class TestEnumerateClasses:
    def test_burn_at_center_addresses_many_classes(self):
        classes = enumerate_classes(SITE_I, ZERO, 0.0, cutoff=1e-3)
        assert len(classes) == 16  # splittings of a few FWHM retain weight

    def test_burn_far_outside_envelope_empty(self):
        # detuning far beyond 10*FWHM + total span
        classes = enumerate_classes(SITE_I, ZERO, 60.0, cutoff=1e-3)
        assert classes == []

    def test_cutoff_one_keeps_only_exact_peak(self):
        lines_on_peak = enumerate_classes(SITE_II, ZERO, 0.0, cutoff=1.0)
        assert lines_on_peak == []
        from kramers.spectra import optical_lines

        some_line = optical_lines(SITE_II, ZERO, "uniform")[5]
        classes = enumerate_classes(SITE_II, ZERO, some_line.detuning_ghz, cutoff=1.0)
        assert [(c.ground_level, c.excited_level) for c in classes] == [
            (some_line.ground_level, some_line.excited_level)
        ]

    def test_weights_in_unit_interval(self):
        for burn in (-2.0, 0.0, 1.5):
            for c in enumerate_classes(SITE_I, ZERO, burn, cutoff=1e-4):
                assert 0.0 <= c.weight <= 1.0

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            enumerate_classes(SITE_I, ZERO, 0.0, cutoff=0.0)


class TestHolePattern:
    def test_central_hole_present(self):
        pattern = hole_pattern(SITE_I, ZERO, 0.0)
        central = [e for e in pattern.entries if e.detuning_ghz == 0.0 and e.polarity == HOLE]
        assert central  # every class contributes its burned transition at 0

    def test_bookkeeping_identities(self):
        # hole spacing = excited splitting, antihole offset = ground splitting
        B = (40.0, 10.0, -25.0)
        pattern = hole_pattern(SITE_I, B, 0.3)
        eg = eigensystem(SITE_I.ground, B).energies
        ee = eigensystem(SITE_I.excited, B).energies
        for e in pattern.entries:
            i, j = e.class_label
            ip, jp = e.probe
            if e.polarity == HOLE:
                assert ip == i
                assert e.detuning_ghz == ee[jp] - ee[j]  # bit-exact by construction
            else:
                expected = (ee[jp] - ee[j]) + (eg[i] - eg[ip])
                assert e.detuning_ghz == expected

    def test_two_level_ground_schematic(self):
        # classes sharing one excited level: side holes separated by excited
        # splittings, antiholes displaced from holes by ground splittings
        pattern = hole_pattern(SITE_II, ZERO, 0.0)
        eg = eigensystem(SITE_II.ground, ZERO).energies
        ee = eigensystem(SITE_II.excited, ZERO).energies
        cls = (2, 1)
        holes = sorted(
            e.detuning_ghz for e in pattern.entries
            if e.class_label == cls and e.polarity == HOLE
        )
        assert np.abs(np.array(holes) - np.sort(ee - ee[1])).max() < 1e-12
        anti_j1 = sorted(
            e.detuning_ghz for e in pattern.entries
            if e.class_label == cls and e.polarity == ANTIHOLE and e.probe[1] == 1
        )
        expected = np.sort([eg[2] - eg[ip] for ip in range(4) if ip != 2])
        assert np.abs(np.array(anti_j1) - expected).max() < 1e-12

    def test_no_rates_no_pseudo_holes(self):
        pattern = hole_pattern(SITE_I, ZERO, 0.0, rates=None)
        assert all(e.polarity != PSEUDO_HOLE for e in pattern.entries)

    def test_fast_pair_rates_relabel_823_339(self):
        pattern = hole_pattern(SITE_I, ZERO, 0.0, rates=fast_pair_rates())
        pseudo_mhz = np.array(
            [e.detuning_ghz * 1e3 for e in pattern.entries if e.polarity == PSEUDO_HOLE]
        )
        assert pseudo_mhz.size
        for target in (823.0, -823.0, 339.0, -339.0):
            assert np.abs(pseudo_mhz - target).min() < 1.0

    def test_antihole_weight_conservation_per_class(self):
        # rates = none: redistributed population equals depleted population,
        # so summed antihole weight matches summed hole weight per class
        pattern = hole_pattern(SITE_I, ZERO, 0.2)
        classes = {e.class_label for e in pattern.entries}
        for cls in classes:
            holes = sum(e.weight for e in pattern.entries
                        if e.class_label == cls and e.polarity == HOLE)
            antis = sum(e.weight for e in pattern.entries
                        if e.class_label == cls and e.polarity == ANTIHOLE)
            assert antis == pytest.approx(holes, rel=1e-12)

    def test_kramers_field_reversal(self):
        B = (33.0, -11.0, 7.0)
        pat_p = hole_pattern(SITE_I, B, 0.1)
        pat_m = hole_pattern(SITE_I, tuple(-b for b in B), 0.1)
        dp = np.array([e.detuning_ghz for e in pat_p.entries])
        dm = np.array([e.detuning_ghz for e in pat_m.entries])
        assert np.abs(np.sort(dp) - np.sort(dm)).max() < 1e-10


class TestPopulations:
    def test_no_rates_only_pumped_level_depleted(self):
        rates = RateMatrix(np.zeros((4, 4)), pump_rate=500.0, duration_s=1.0)
        p = populations_after_burn(rates, 2)
        assert p[2] < 0.25
        assert all(p[k] > 0.25 for k in range(4) if k != 2)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fig_like_fast_cross_relaxation_depletes_level1(self):
        # R13 = 100 R12 = 100 R23, pump on level 3: level 1 drains through
        # the fast 1<->3 channel; oracle: direct ODE integration
        pairs = {(0, 2): 100.0, (0, 1): 1.0, (1, 2): 1.0}
        rates = RateMatrix.symmetric(pairs, pump_rate=500.0, duration_s=0.5)
        p = populations_after_burn(rates, 2)
        assert p[0] < 0.9 * 0.25

        from scipy.integrate import solve_ivp

        m = _generator(rates, 2)
        sol = solve_ivp(
            lambda t, y: m @ y, (0.0, 0.5), np.full(4, 0.25),
            rtol=1e-10, atol=1e-12, dense_output=True,
        )
        assert np.abs(sol.y[:, -1] - p).max() < 1e-7

    def test_population_conserved(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            r = rng.uniform(0, 50, (4, 4))
            np.fill_diagonal(r, 0.0)
            rates = RateMatrix(r, pump_rate=rng.uniform(0, 300), duration_s=rng.uniform(0, 2))
            p = populations_after_burn(rates, int(rng.integers(0, 4)))
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= -1e-12)

    def test_infinite_duration_connected_rates_equilibrate(self):
        # relaxation-dominated steady state: connected symmetric rates have a
        # uniform stationary distribution, and with pump << rates the
        # pump-free levels sit at it (deviation scales like pump/rate)
        rates = RateMatrix.symmetric(
            {(0, 1): 1e4, (1, 2): 1e4, (2, 3): 1e4}, pump_rate=1.0, duration_s=1.0
        )
        p = populations_after_burn(rates, 1, duration_s=np.inf)
        free = [p[0], p[2], p[3]]
        assert max(free) - min(free) < 1e-3
        assert np.abs(np.array(free) - 0.25).max() < 1e-3
        # pump switched off entirely: exactly the stationary distribution of R
        no_pump = RateMatrix.symmetric({(0, 1): 10.0, (1, 2): 10.0, (2, 3): 10.0}, pump_rate=0.0)
        p0 = populations_after_burn(no_pump, 1, duration_s=np.inf)
        assert np.abs(p0 - 0.25).max() < 1e-12

    def test_generator_matches_reference_loop(self):
        # bit for bit, signs of zero included; the generator ignores the diagonal of the rates
        rng = np.random.default_rng(41)
        for _ in range(2000):
            r = rng.uniform(0.0, 1.0, (4, 4)) * 10.0 ** rng.uniform(-3, 3, (4, 4))
            r[rng.random((4, 4)) < 0.2] = 0.0
            r[rng.random((4, 4)) < 0.2] = -0.0
            np.fill_diagonal(r, rng.normal(0.0, 10.0, 4))
            rates = RateMatrix(r, pump_rate=rng.choice([0.0, -0.0, rng.uniform(0.0, 300.0)]))
            for level in range(4):
                assert _generator(rates, level).tobytes() == reference_generator(rates, level).tobytes()

    def test_rejects_negative_rates(self):
        negative, infinite = np.zeros((4, 4)), np.zeros((4, 4))
        negative[0, 1], infinite[2, 3] = -1.0, np.inf
        for rates, settings in [(negative, {}), (np.full((4, 4), np.nan), {}), (infinite, {}),
                                (np.zeros((4, 4)), {"pump_rate": np.nan}), (np.zeros((4, 4)), {"pump_rate": np.inf}),
                                (np.zeros((4, 4)), {"duration_s": np.nan}),
                                (np.zeros((4, 4)), {"duration_s": -np.inf})]:
            with pytest.raises(ValueError):
                RateMatrix(rates, **settings)
        # an infinite burn is the stationary distribution
        rates = RateMatrix.symmetric({(0, 1): 10.0, (1, 2): 10.0, (2, 3): 10.0}, pump_rate=0.0, duration_s=np.inf)
        assert np.abs(populations_after_burn(rates, 1) - 0.25).max() < 1e-12
        # a duration given to the burn obeys the same row (1e300 s overflowed the exponential's scaling)
        for duration in (1e300, -1.0, np.nan):
            with pytest.raises(ValueError):
                populations_after_burn(rates, 1, duration_s=duration)


def benchmark_rates(base: float) -> RateMatrix:
    """One of perfbench's four rate variants: pair rates proportional to the
    zero-field |<m|S_D1|n>|^2 of site I, the largest equal to ``base`` (1/s),
    at 6 digits."""
    weights = {(0, 1): 1.0, (0, 2): 0.0737165, (0, 3): 0.03024555, (1, 2): 0.03024555,
               (1, 3): 0.0737165, (2, 3): 1.0}
    return RateMatrix.symmetric({pair: float(f"{base * w:.6g}") for pair, w in weights.items()},
                                pump_rate=100.0, duration_s=0.3)


def random_generator(rng) -> np.ndarray:
    r = rng.uniform(0.0, 1.0, (4, 4)) * 10.0 ** rng.uniform(-3, 3)
    np.fill_diagonal(r, 0.0)
    return _generator(RateMatrix(r, pump_rate=rng.uniform(0.0, 300.0)), int(rng.integers(0, 4)))


class TestScipyReference:
    """The rate-equation exponential and null space against SciPy's."""

    @pytest.mark.parametrize("base", [2.0, 20.0, 200.0, 2000.0])
    def test_expm_on_benchmark_rates(self, base):
        from scipy import linalg as scipy_linalg

        rates = benchmark_rates(base)
        for level in range(4):
            mt = _generator(rates, level) * rates.duration_s
            reference = scipy_linalg.expm(mt)
            # measured at most 1.7e-13 (base 2000, ||Mt||_1 = 1385)
            assert np.abs(_expm(mt) - reference).max() <= 5e-13 * np.abs(reference).max()

    def test_expm_on_random_generators(self):
        from scipy import linalg as scipy_linalg

        rng = np.random.default_rng(11)
        for _ in range(300):
            m = random_generator(rng)
            mt = m * 10.0 ** rng.uniform(-4, 3) / np.abs(m).sum(axis=0).max()  # ||Mt||_1 <= 1e3
            reference = scipy_linalg.expm(mt)
            assert np.abs(_expm(mt) - reference).max() <= 5e-13 * np.abs(reference).max()

    def test_expm_of_zero_and_diagonal(self):
        assert np.array_equal(_expm(np.zeros((4, 4))), np.eye(4))
        d = np.array([-3.0, -0.5, 0.0, 2.0])
        assert np.allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)

    def test_null_space(self):
        from scipy import linalg as scipy_linalg

        rng = np.random.default_rng(12)
        generators = [_generator(benchmark_rates(base), level) for base in (2.0, 2000.0) for level in range(4)]
        generators += [random_generator(rng) for _ in range(100)]
        generators += [np.zeros((4, 4)), _generator(RateMatrix(np.zeros((4, 4)), pump_rate=100.0), 1)]
        for m in generators:
            ours, reference = _null_space(m), scipy_linalg.null_space(m)
            assert ours.shape == reference.shape
            # the same subspace: equal orthogonal projectors
            assert np.abs(ours @ ours.T - reference @ reference.T).max() < 1e-12

    @pytest.mark.parametrize("pairs, pump, dimension", [
        ({}, 100.0, 3),                          # pumped into three absorbing levels
        ({(0, 1): 5.0, (2, 3): 5.0}, 0.0, 2),    # two closed pairs, no pump
    ])
    def test_reducible_generator_has_no_stationary_distribution(self, pairs, pump, dimension):
        rates = RateMatrix.symmetric(pairs, pump_rate=pump)
        assert _null_space(_generator(rates, 0)).shape[1] == dimension
        with pytest.raises(ValueError, match="no stationary distribution"):
            populations_after_burn(rates, 0, duration_s=np.inf)


class TestFieldMap:
    def test_zero_field_row_matches_hole_pattern(self):
        fmap = shb_field_map(
            SITE_I, (1, 0, 0), [0.0, 10.0], detuning_range_ghz=(-1, 1),
            detuning_step_ghz=0.004,
        )
        pattern = hole_pattern(SITE_I, (0.0, 0.0, 0.0), 0.0)
        direct = render_pattern(pattern, fmap.detunings_ghz)
        assert np.array_equal(fmap.amplitudes[0], direct)

    def test_rows_monotone_required(self):
        with pytest.raises(ValueError):
            shb_field_map(SITE_I, (1, 0, 0), [10.0, 5.0])
        with pytest.raises(ValueError):
            shb_field_map(SITE_I, (1, 0, 0), [])

    def test_high_field_traces_affine(self):
        # above 300 mT the electron-spin-flip (inter-doublet) trace
        # frequencies are affine in |B| within 0.1% local deviation;
        # linear-regression oracle on model output
        mags = np.arange(300.0, 500.1, 10.0)
        from kramers.hamiltonian import energies_sweep

        for sys in (SITE_I.ground, SITE_I.excited):
            e = energies_sweep(sys, mags[:, None] * np.array([[1.0, 0, 0]]))
            for pair in [(0, 2), (0, 3), (1, 2), (1, 3)]:
                trace = e[:, pair[1]] - e[:, pair[0]]
                resid = trace - np.polyval(np.polyfit(mags, trace, 1), mags)
                assert np.abs(resid).max() < 1e-3 * trace.mean()

    def test_deterministic_rendering(self):
        kwargs = dict(detuning_range_ghz=(-2, 2), detuning_step_ghz=0.01)
        a = shb_field_map(SITE_II, (0, 1, 0), [0.0, 25.0, 50.0], **kwargs)
        b = shb_field_map(SITE_II, (0, 1, 0), [0.0, 25.0, 50.0], **kwargs)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_hole_antihole_signs(self):
        fmap = shb_field_map(
            SITE_I, (1, 0, 0), [0.0], detuning_range_ghz=(-0.05, 0.05),
            detuning_step_ghz=0.002,
        )
        center = np.argmin(np.abs(fmap.detunings_ghz))
        assert fmap.amplitudes[0, center] < 0  # central hole renders dark


def _bits(entries):
    """Entries as comparable tuples that tell every double apart by its bits."""
    return [(float(e.detuning_ghz).hex(), e.polarity, float(e.weight).hex(), e.class_label, e.probe)
            for e in entries]


class TestEnumerationOracle:
    """One hole enumeration, from stacked energies and Python floats, against
    the per-field eigensystem loop with numpy scalars, bit for bit."""

    RATES = [None, *benchmark_rate_variants()]

    @pytest.mark.parametrize("rates", RATES, ids=["none", "r2", "r20", "r200", "r2000"])
    def test_hole_pattern_matches_loop(self, rates):
        rng = np.random.default_rng(5)
        for site in (SITE_I, SITE_II):
            for _ in range(6):
                direction = rng.normal(size=3)
                field = rng.uniform(0.0, 300.0) * direction / np.linalg.norm(direction)
                burn = float(rng.uniform(-1.0, 1.0))
                pattern = hole_pattern(site, field, burn, rates)
                reference = reference_hole_entries(site, field, burn, rates)
                assert _bits(pattern.entries) == _bits(reference)

    @pytest.mark.parametrize("rates", RATES, ids=["none", "r2", "r20", "r200", "r2000"])
    def test_map_rows_match_loop(self, rates, monkeypatch):
        from kramers import hamiltonian

        monkeypatch.setattr(hamiltonian, "EIGH_BLOCK", 4)  # several stacked eigh calls, the last one partial
        mags = np.sort(np.random.default_rng(6).uniform(0.0, 300.0, 9))
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        fmap = shb_field_map(SITE_I, (1.0, 2.0, 2.0), mags, 0.1, rates,
                             detuning_range_ghz=(-3.0, 3.0), detuning_step_ghz=0.01, hole_width_mhz=8.0)
        for mag, row in zip(mags, fmap.amplitudes):
            reference = reference_hole_entries(SITE_I, mag * direction, 0.1, rates)
            assert np.array_equal(row, reference_render(reference, fmap.detunings_ghz, 8.0))

    def test_render_matches_one_line_per_entry(self):
        grid = np.arange(-5.0, 5.001, 0.002)
        for rates in self.RATES:
            pattern = hole_pattern(SITE_II, (0.0, 30.0, 40.0), 0.0, rates)
            shared = sum(a.detuning_ghz == b.detuning_ghz for a, b in zip(pattern.entries, pattern.entries[1:]))
            assert shared > 0  # lines that share a detuning share a shape
            assert np.array_equal(render_pattern(pattern, grid), reference_render(pattern.entries, grid))
