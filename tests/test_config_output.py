import itertools
import tracemalloc

import numpy as np
import pytest

from kramers import output
from kramers.config import ConfigError, integer, load_rates, parse_config
from kramers.hamiltonian import eigensystem, transition_frequencies
from kramers.output import STAMP, csv_text, format_number, pgm_bytes, write_csv, write_pgm
from kramers.presets import SITE_I


def row_csv(header, rows, stamp=True):
    """The CSV text written one row at a time, each cell through format_number."""
    lines = [STAMP] if stamp else []
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in row))
    return "\n".join(lines) + "\n"


PRESET_CONFIG = """
[site]
preset = site-I
"""

EXPLICIT_CONFIG = """
[site]
name = my-crystal
center_nm = 981.463
fwhm_mhz = 800

[ground.a]
unit = GHz
values = 0.484, 1.162, 5.254
angles_deg = 72.25, 92.11, 63.92

[ground.g]
unit = dimensionless
values = 0.31, 1.60, 6.53
angles_deg = 72.80, 91.30, 66.19

[excited.a]
unit = GHz
values = 1.4654, 1.8247, 7.1709
angles_deg = 73.88, 84.76, 90.13

[excited.g]
unit = dimensionless
values = 0.8, 1.0, 3.4
angles_deg = 77, 84, -7
"""


class TestConfig:
    def test_preset_roundtrip(self):
        site = parse_config(PRESET_CONFIG)
        assert np.array_equal(site.ground.A.matrix, SITE_I.ground.A.matrix)
        assert site.fwhm_mhz == 800.0

    def test_explicit_tensors_match_preset(self):
        # the config spells out site I's four tensors: each is built bit for bit as the preset's
        site = parse_config(EXPLICIT_CONFIG)
        for state in ("ground", "excited"):
            for kind in ("A", "g"):
                built, preset = (getattr(getattr(s, state), kind).matrix for s in (site, SITE_I))
                assert np.array_equal(built, preset), (state, kind)
        assert site.label == "my-crystal"

    def test_later_of_a_rate_pair_wins(self, tmp_path):
        path = tmp_path / "rates.ini"
        path.write_text("[rates]\nr12 = 5\nr34 = 7\nr21 = 3\n")
        rates = load_rates(path).rates
        assert rates[0, 1] == rates[1, 0] == 3.0
        assert rates[2, 3] == rates[3, 2] == 7.0
        path.write_text("[rates]\nr21 = 3\nr12 = 5\n")
        assert load_rates(path).rates[1, 0] == 5.0

    def test_constants_override_propagates(self):
        site = parse_config(PRESET_CONFIG + "\n[constants]\nmu_b_ghz_per_t = 14.0\ng_n = 1.0\n")
        assert site.ground.mu_b == 14.0
        assert site.ground.g_n == 1.0
        # the override changes computed spectra at field
        es_a = eigensystem(site.ground, (100.0, 0, 0))
        es_b = eigensystem(SITE_I.ground, (100.0, 0, 0))
        assert np.abs(es_a.energies - es_b.energies).max() > 1e-6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(PRESET_CONFIG + "\n[site]\ncolor = blue\n")
        assert err.value.code in ("unknown-key", "parse-error")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(PRESET_CONFIG + "\n[extras]\nx = 1\n")
        assert err.value.code == "unknown-section"
        assert err.value.record()["key"] == "extras"

    def test_preset_and_tensors_conflict(self):
        text = PRESET_CONFIG + "\n[ground.a]\nunit = GHz\nvalues = 1,2,3\nangles_deg = 0,0,0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.code == "conflict"

    def test_missing_tensor_section_rejected(self):
        text = EXPLICIT_CONFIG.replace("[excited.g]", "[ground.g2]")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_bad_unit_rejected(self):
        text = EXPLICIT_CONFIG.replace("unit = GHz", "unit = MHz", 1)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.code == "bad-unit"

    def test_bad_triple_rejected(self):
        text = EXPLICIT_CONFIG.replace("values = 0.484, 1.162, 5.254", "values = 1, 2")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.code == "bad-value"

    def test_ordering_override(self):
        site = parse_config("[site]\npreset = site-I\nordering_ground = -1\n")
        assert site.ordering == (-1, 1)
        # class flip changes the zero-field ground level set
        base = transition_frequencies(eigensystem(SITE_I.ground, (0, 0, 0)))
        flipped = transition_frequencies(eigensystem(site.ground, (0, 0, 0)))
        assert np.abs(np.sort(base) - np.sort(flipped)).max() < 1e-9  # frequencies equal
        lv_base = np.sort(eigensystem(SITE_I.ground, (0, 0, 0)).energies)
        lv_flip = np.sort(eigensystem(site.ground, (0, 0, 0)).energies)
        assert np.abs(lv_base + lv_flip[::-1]).max() < 1e-9  # mirrored levels

    @pytest.mark.parametrize("text, value", [
        ("9007199254740993", 2**53 + 1), ("18446744073709551621", 2**64 + 5), (" 12 ", 12), ("1e3", 1000),
        ("0", 0), ("-0", 0),
    ])
    def test_integer_keeps_every_digit_of_a_literal(self, text, value):
        # a float holds 53 bits: a literal above 2**53 must not pass through one
        assert integer(text, "seed", 0) == value and type(integer(text, "seed", 0)) is int

    @pytest.mark.parametrize("text", ["2.5", "-1", "nan", "1e400", "9" * 400, "0x10", ""])
    def test_integer_rejects(self, text):
        with pytest.raises(ConfigError) as err:
            integer(text, "seed", 0)
        assert err.value.code == "bad-value"


class TestOutput:
    def test_format_number_nine_significant_digits(self):
        assert format_number(1.23456789012345) == "1.23456789"
        assert format_number(-0.000123456789) == "-0.000123456789"
        assert format_number(3) == "3"
        assert format_number(True) == "1"

    def test_csv_deterministic_and_stamped(self):
        columns = [np.array([1, 2]), np.array([2.5, 3.25])]
        a = csv_text(["n", "x"], columns)
        b = csv_text(["n", "x"], columns)
        assert a == b
        assert a.splitlines()[0].startswith("# kramers")
        no_stamp = csv_text(["n", "x"], columns, stamp=False)
        assert no_stamp.splitlines()[0] == "n,x"

    def test_block_writer_matches_row_formatter(self, monkeypatch):
        # each column kind, and grids of axes, against format_number cell by cell
        kinds = {
            "int": np.array([0, 7, -3, 10**12, -5]),
            "bool": np.array([True, False]),
            "str": ["a", "", "b"],
            "float": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, 1e12, 1e9,
                               123456789.0, 0.1, 2.5, -1e-16]),
            "float32": np.array([0.1, -0.0, 3.5], dtype=np.float32),
        }
        rng = np.random.default_rng(4)

        def column(kind, n):
            values = kinds[kind]
            picked = [values[k] for k in rng.integers(0, len(values), n)]
            return picked if kind == "str" else np.array(picked, dtype=values.dtype)

        tables = {
            "mixed columns": [column(kind, 40) for kind in ("int", "str", "float", "bool", "float32")],
            "one column": [kinds["float"]],
            "no rows": [np.zeros(0), []],
        }
        grids = {
            "two axes": [column("float", 4), column("float", 5), column("float", 20), column("bool", 20)],
            "three axes": [column("int", 2), column("float", 3), column("float", 4), column("float", 24)],
            "empty axis": [column("float", 3), np.zeros(0), np.zeros(0)],
        }
        for size in (output.BLOCK_ROWS, 3, 1):
            monkeypatch.setattr(output, "BLOCK_ROWS", size)
            for stamp in (True, False):
                for name, columns in tables.items():
                    header = [f"c{k}" for k in range(len(columns))]
                    rows = list(zip(*columns))
                    assert csv_text(header, columns, stamp) == row_csv(header, rows, stamp), name
                for name, columns in grids.items():
                    axes = len(columns) - 1 - (name == "two axes")
                    header = [f"c{k}" for k in range(len(columns))]
                    rows = [(*point, *values) for point, values in
                            zip(itertools.product(*columns[:axes]), zip(*columns[axes:]))]
                    assert csv_text(header, columns, stamp, grid=axes) == row_csv(header, rows, stamp), name

    def test_block_template_matches_format_on_random_doubles(self, monkeypatch):
        # every float64 bit pattern (NaNs, infinities, subnormals, -0 among
        # them) and text holding '%', in axes and values, against format(x, ".9g")
        rng = np.random.default_rng(9)

        def doubles(n):
            return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2e-308, 1.7976931348623157e308])
        text = ["50%", "%s", "%%", "%.9g", "a%d,b", ""]

        def strings(n):
            return [text[k] for k in rng.integers(0, len(text), n)]

        tables = [
            [np.concatenate([special, doubles(300)])],
            [doubles(50), strings(50), np.arange(50), doubles(50) > 0],
        ]
        grids = [  # (axes, columns): 1, 2 and 3 axes, text among them, then the value columns
            (1, [doubles(7), doubles(7), strings(7)]),
            (2, [strings(3), doubles(5), doubles(15)]),
            (3, [doubles(2), np.array([-1, 3]), strings(3), doubles(12), doubles(12)]),
            (2, [strings(2), doubles(4)]),  # axes alone
        ]
        for size in (output.BLOCK_ROWS, 3, 1):
            monkeypatch.setattr(output, "BLOCK_ROWS", size)
            for columns in tables:
                header = [f"c{k}" for k in range(len(columns))]
                assert csv_text(header, columns) == row_csv(header, list(zip(*columns)))
            for axes, columns in grids:
                header = [f"c{k}" for k in range(len(columns))]
                rows = [(*point, *values) for point, values in
                        zip(itertools.product(*columns[:axes]),
                            zip(*columns[axes:]) if len(columns) > axes else itertools.repeat(()))]
                assert csv_text(header, columns, grid=axes) == row_csv(header, rows), axes

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError):
            csv_text(["a", "b", "c"], [np.zeros(2), np.zeros(3), np.zeros(5)], grid=2)

    def test_write_csv_memory_flat_past_block_rows(self, tmp_path, monkeypatch):
        # the file gets one block at a time, never the whole text
        monkeypatch.setattr(output, "BLOCK_ROWS", 500)
        peaks = []
        for rows in (2000, 32000):  # cells of one width, so every block is as long
            columns = [np.arange(rows) % 10, np.linspace(1.0, 2.0, rows) / 3.0]
            out = tmp_path / f"{rows}.csv"
            tracemalloc.start()
            try:
                write_csv(out, ["n", "x"], columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out.read_text() == csv_text(["n", "x"], columns)
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_write_csv_of_unequal_columns_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])
        assert not (tmp_path / "x.csv").exists()

    def test_shb_map_csv_matches_row_formatter(self, tmp_path):
        from kramers.cli import main
        from kramers.shb import shb_field_map

        for stamp in ([], ["--no-stamp"]):
            out = tmp_path / "map.csv"
            main(["shb-map", "--magnitudes", "0:30:5", "--span=-1:1:0.01", "--out", str(out), *stamp])
            fmap = shb_field_map(SITE_I, (1, 0, 0), np.arange(0.0, 32.5, 5.0),
                                 detuning_range_ghz=(-1.0, 1.0), detuning_step_ghz=0.01)
            rows = [(b, d, fmap.amplitudes[nb, nd])
                    for nb, b in enumerate(fmap.magnitudes_mt) for nd, d in enumerate(fmap.detunings_ghz)]
            assert out.read_text() == row_csv(["field_mt", "detuning_ghz", "amplitude"], rows, not stamp)

    def test_pgm_structure_and_midgray(self):
        amp = np.array([[0.0, 1.0], [-1.0, 0.0]])
        raw = pgm_bytes(amp, stamp=False)
        header, pixels = raw.rsplit(b"\n255\n", 1)
        assert header.startswith(b"P5")
        assert b"2 2" in header
        assert list(pixels) == [128, 255, 1, 128]

    def test_pgm_all_zero_map(self):
        raw = pgm_bytes(np.zeros((2, 3)), stamp=False)
        assert raw.endswith(bytes([128] * 6))

    @staticmethod
    def whole_map_pgm(a, stamp=True):
        """The PGM of a map scaled in one piece: the bytes the row blocks keep."""
        peak = np.abs(a).max()
        pixels = (np.full(a.shape, 128, dtype=np.uint8) if peak == 0
                  else np.clip(np.rint(128.0 + 127.0 * a / peak), 0, 255).astype(np.uint8))
        header = "P5\n" + (STAMP + "\n" if stamp else "") + f"{a.shape[1]} {a.shape[0]}\n255\n"
        return header.encode("ascii") + pixels.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 5001), (1, 70000), (9000, 7)])
    def test_pgm_row_blocks_keep_the_whole_map_bytes(self, shape, tmp_path):
        rng = np.random.default_rng(sum(shape))
        for a in (rng.normal(size=shape), -rng.uniform(size=shape), np.zeros(shape), 1e-300 * rng.normal(size=shape)):
            for stamp in (True, False):
                assert pgm_bytes(a, stamp) == self.whole_map_pgm(a, stamp), shape
            write_pgm(tmp_path / "map.pgm", a)
            assert (tmp_path / "map.pgm").read_bytes() == self.whole_map_pgm(a)

    def test_pgm_of_a_map_that_is_not_2d_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "map.pgm", np.zeros(3))
        assert not (tmp_path / "map.pgm").exists()

    def test_pgm_memory_flat_in_map_size(self, tmp_path, monkeypatch):
        # the map is scaled PGM_BLOCK samples at a time: the file gets one
        # block at a time, and pgm_bytes holds the pixels and their bytes
        monkeypatch.setattr(output, "PGM_BLOCK", 10_000)
        file_peaks = []
        for rows in (100, 1600):
            a = np.random.default_rng(rows).normal(size=(rows, 1000))
            tracemalloc.start()
            try:
                write_pgm(tmp_path / "map.pgm", a)
                file_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                raw = pgm_bytes(a)
                assert tracemalloc.get_traced_memory()[1] <= 2 * a.size + 32 * output.PGM_BLOCK
            finally:
                tracemalloc.stop()
            assert raw == (tmp_path / "map.pgm").read_bytes() == self.whole_map_pgm(a)
        assert file_peaks[1] < 1.1 * file_peaks[0], file_peaks

    def test_threaded_field_map_bit_identical(self):
        # each map row equals its own pattern rendered alone, bit for bit
        from kramers.shb import hole_pattern, render_pattern, shb_field_map

        kwargs = dict(detuning_range_ghz=(-1.5, 1.5), detuning_step_ghz=0.01)
        fmap = shb_field_map(SITE_I, (1, 0, 0), [0.0, 20.0, 40.0], **kwargs)
        for mag, row in zip(fmap.magnitudes_mt, fmap.amplitudes):
            alone = render_pattern(hole_pattern(SITE_I, (mag, 0.0, 0.0)), fmap.detunings_ghz)
            assert np.array_equal(row, alone)
