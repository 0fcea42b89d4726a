import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kramers
from conftest import read_csv
from kramers.cli import SCHEMAS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLevels:
    def test_site_i_ground_zero_field(self, tmp_path, capsys):
        out = tmp_path / "levels.csv"
        code, stdout, _ = run(capsys, "levels", "--site", "I", "--state", "ground",
                              "--field", "0,0,0", "--out", str(out))
        assert code == 0
        # Eq.-form oracle values for the canonical site-I ground eigenvalues
        rows = read_csv(out)
        assert np.abs(rows["energy_ghz"] - [-1.725, -0.902, 1.144, 1.483]).max() < 1e-9
        assert "level 1" in stdout

    def test_direction_plus_magnitude(self, tmp_path, capsys):
        out = tmp_path / "levels.csv"
        code, _, _ = run(capsys, "levels", "--field", "D1", "--magnitude", "100",
                         "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert np.ptp(rows["energy_ghz"]) > 5.0  # Zeeman-split

    def test_schema_flag(self, capsys):
        code, stdout, _ = run(capsys, "levels", "--schema")
        assert code == 0
        assert "energy_ghz" in stdout


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_needs_no_other_argument(command, capsys):
    # fit, invert and ordering have required options; --schema alone still answers
    code, stdout, err = run(capsys, command, "--schema")
    assert (code, stdout, err) == (0, SCHEMAS[command] + "\n", "")


class TestTransitions:
    def test_zero_field_mhz_lines(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, _ = run(capsys, "transitions", "--site", "I", "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        mhz = np.sort(rows["frequency_ghz"] * 1e3)
        assert np.abs(mhz - [339, 823, 2046, 2385, 2869, 3208]).max() < 1.0


class TestAbsorption:
    def test_writes_profile_and_peaks(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        peaks = tmp_path / "p.csv"
        code, _, _ = run(capsys, "absorption", "--site", "II", "--range", "-4:4:0.005",
                         "--out", str(out), "--peaks-out", str(peaks))
        assert code == 0
        rows = read_csv(out)
        assert rows["amplitude"].max() == pytest.approx(1.0)
        pk = read_csv(peaks)
        assert pk["detuning_ghz"].size >= 2


class TestShbMap:
    def test_writes_csv_and_pgm(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code, _, _ = run(capsys, "shb-map", "--site", "I", "--direction", "D1",
                         "--magnitudes", "0:40:20", "--span", "-1:1:0.01",
                         "--out", str(out))
        assert code == 0
        pgm = tmp_path / "map.pgm"
        assert pgm.exists()
        assert pgm.read_bytes().startswith(b"P5")
        rows = read_csv(out)
        assert set(np.unique(rows["field_mt"])) == {0.0, 20.0, 40.0}

    def test_empty_magnitudes_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code, _, err = run(capsys, "shb-map", "--magnitudes", ",", "--out", str(out))
        assert code == 2
        record = json.loads(err.strip())
        assert record["code"] == "bad-range"
        assert not out.exists()

    def test_rates_file(self, tmp_path, capsys):
        rates = tmp_path / "rates.ini"
        rates.write_text("[rates]\nr12 = 1000\nr34 = 1000\npump_rate = 200\nduration_s = 0.3\n")
        out = tmp_path / "map.csv"
        code, _, _ = run(capsys, "shb-map", "--magnitudes", "0:10:10",
                         "--span", "-1:1:0.01", "--rates", str(rates), "--out", str(out))
        assert code == 0


class TestOdmrEpr:
    def test_odmr_output(self, tmp_path, capsys):
        out = tmp_path / "odmr.csv"
        code, stdout, _ = run(capsys, "odmr", "--site", "II", "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert rows["frequency_mhz"].size == 6
        assert "MHz" in stdout

    def test_epr_map_output(self, tmp_path, capsys):
        out = tmp_path / "epr.csv"
        code, _, _ = run(capsys, "epr-map", "--site", "I", "--plane", "D1-D2",
                         "--step", "90", "--freq", "9.7", "--bmax", "400",
                         "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert rows["field_mt"].size > 0
        assert set(np.unique(rows["subsite"])) <= {1.0, 2.0}


class TestInvertOrdering:
    def test_invert_site_i_lines(self, tmp_path, capsys):
        out = tmp_path / "inv.csv"
        code, stdout, _ = run(capsys, "invert", "--lines", "2046,2385,2869,3208",
                              "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert np.abs(rows["magnitude_ghz"] - [0.484, 1.162, 5.254]).max() < 2e-3
        assert "|A3|" in stdout

    def test_absorption_to_ordering_pipeline(self, tmp_path, capsys):
        # blended-envelope peaks (uniform strengths resolve 6 summits) still
        # rank the generating class first
        a, pk, o = tmp_path / "a.csv", tmp_path / "p.csv", tmp_path / "o.csv"
        code, _, _ = run(capsys, "absorption", "--site", "II", "--model", "uniform",
                         "--range=-5:4:0.004", "--prominence", "0.01",
                         "--out", str(a), "--peaks-out", str(pk))
        assert code == 0
        code, stdout, _ = run(capsys, "ordering", "--site", "II",
                              "--peaks-file", str(pk), "--out", str(o))
        assert code == 0
        assert "(1, 1)" in stdout

    def test_invert_inconsistent_lines_machine_readable(self, capsys):
        code, _, err = run(capsys, "invert", "--lines", "500,900,1700,2900")
        assert code == 2
        record = json.loads(err.strip())
        assert "closest" in record["message"]

    def test_ordering_from_inline_peaks(self, tmp_path, capsys):
        from kramers.presets import SITE_I
        from kramers.spectra import optical_lines

        peaks = ",".join(str(l.detuning_ghz) for l in optical_lines(SITE_I, intensity_model="uniform"))
        out = tmp_path / "ord.csv"
        code, stdout, _ = run(capsys, "ordering", "--site", "I", "--peaks", peaks,
                              "--out", str(out))
        assert code == 0
        assert "(1, 1)" in stdout
        rows = read_csv(out)
        assert rows["rank"].size == 4
        assert rows["rms_mhz"][0] < 1.0


class TestFitCommand:
    def test_fit_from_csv(self, tmp_path, capsys):
        from kramers.hamiltonian import energies_sweep
        from kramers.presets import SITE_I

        rng = np.random.default_rng(1)
        rows = ["kind,state,bx_mt,by_mt,bz_mt,value,sigma,label"]
        for d in (np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])):
            mags = np.arange(10.0, 150.1, 10.0)
            e = energies_sweep(SITE_I.ground, mags[:, None] * d[None, :])
            for r, m in enumerate(mags):
                for (i, j) in [(0, 1), (0, 2), (1, 3), (2, 3)]:
                    nu = e[r, j] - e[r, i] + rng.normal(0, 2e-3)
                    b = m * d
                    rows.append(f"shb,ground,{b[0]},{b[1]},{b[2]},{nu},0.002,{i+1}-{j+1}")
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "resid.csv"
        report = tmp_path / "report.txt"
        code, stdout, _ = run(capsys, "fit", "--data", str(data_csv), "--free", "ground",
                              "--restarts", "2", "--seed", "0",
                              "--out", str(out), "--report", str(report))
        assert code == 0
        assert "status: ok" in report.read_text()
        table = read_csv(out)
        assert table["residual"].size == len(rows) - 1

    def test_bad_data_header(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n")
        code, _, err = run(capsys, "fit", "--data", str(f))
        assert code == 2
        assert json.loads(err.strip())["code"] == "bad-data"

    def test_zero_epr_direction_is_validation_error(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_text(
            "kind,state,bx_mt,by_mt,bz_mt,value,sigma,label\n"
            "shb,ground,10,0,0,0.9,0.002,1-2\n"
            "epr,ground,0,0,0,300,,\n"
        )
        code, _, err = run(capsys, "fit", "--data", str(f), "--free", "ground", "--restarts", "1",
                           "--out", str(tmp_path / "r.csv"), "--report", str(tmp_path / "r.txt"))
        assert code == 2
        assert "nonzero direction" in json.loads(err.strip())["message"]

    def _fit_gated_rows(self, tmp_path, capsys):
        """`fit --free ""` on 4 rows: two good SHB points, then an SHB point
        40 GHz off and an EPR point with no resonance up to 10 + 50 mT."""
        from kramers.hamiltonian import eigensystem
        from kramers.presets import SITE_I

        e = eigensystem(SITE_I.ground, (10.0, 0.0, 0.0)).energies
        f = tmp_path / "data.csv"
        f.write_text(
            "kind,state,bx_mt,by_mt,bz_mt,value,sigma,label\n"
            f"shb,ground,10,0,0,{float(e[1] - e[0])!r},0.002,1-2\n"
            f"shb,ground,10,0,0,{float(e[2] - e[1])!r},0.002,2-3\n"
            "shb,ground,10,0,0,40,0.002,3-4\n"
            "epr,ground,1,0,0,10,,1-2\n"
        )
        out, report = tmp_path / "r.csv", tmp_path / "r.txt"
        code, _, _ = run(capsys, "fit", "--data", str(f), "--free", "", "--out", str(out), "--report", str(report))
        assert code == 0
        return read_csv(out), report.read_text()

    def test_report_gated_indices_match_csv(self, tmp_path, capsys):
        table, report = self._fit_gated_rows(tmp_path, capsys)
        assert "gated outliers: [3, 4]\n" in report
        assert table["index"][table["excluded"] == 1].tolist() == [3, 4]

    def test_epr_point_without_resonance_has_nan_model(self, tmp_path, capsys):
        table, _ = self._fit_gated_rows(tmp_path, capsys)
        assert np.isnan(table["model"][3])
        assert table["excluded"][3] == 1
        assert table["residual"][3] == 50.0

    def test_sigma_defaults_by_kind(self, tmp_path):
        from kramers.cli import _read_data_csv

        f = tmp_path / "data.csv"
        f.write_text(
            "kind,state,bx_mt,by_mt,bz_mt,value,sigma,label\n"
            "shb,ground,10,0,0,2.05,,1-3\n"
            "odmr,ground,0,0,0,2.046,,\n"
            "epr,ground,1,0,0,110.0,,\n"
        )
        points = _read_data_csv(f)
        assert [p.sigma for p in points] == [2e-3, 0.5e-3, 0.5]
        assert points[0].label == (0, 2)


class TestZefozCommand:
    def test_zero_field_candidate(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code, stdout, _ = run(capsys, "zefoz", "--site", "I", "--transition", "2,3",
                              "--radius", "20", "--grid", "8,3", "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert rows["bx_mt"].size >= 1
        assert "exact-ZEFOZ" in stdout or "near-ZEFOZ" in stdout

    def test_bad_transition(self, capsys):
        code, _, err = run(capsys, "zefoz", "--transition", "0,5")
        assert code == 2
        assert json.loads(err.strip())["code"] == "bad-value"


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "transitions", "--site", "II",
                             "--field", "12.5,0,33", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_stamp(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run(capsys, "transitions", "--no-stamp", "--out", str(out))
        assert not out.read_text().startswith("#")


# a small fit of SHB and EPR points: labeled and unlabeled EPR points along
# D1, and one along an unnormalized (0, 1, 1)
PINNED_FIT_DATA = """kind,state,bx_mt,by_mt,bz_mt,value,sigma,label
shb,ground,30,0,0,2.613215463,0.002,1-2
shb,ground,30,0,0,2.813806702,0.002,1-3
shb,ground,30,0,0,5.322133505,0.002,1-4
shb,ground,30,0,0,0.200591239,0.002,2-3
shb,ground,30,0,0,2.708918042,0.002,2-4
shb,ground,30,0,0,2.508326803,0.002,3-4
shb,ground,0,0,60,0.825217952,0.002,1-2
shb,ground,0,0,60,2.924524185,0.002,1-3
shb,ground,0,0,60,3.288391188,0.002,1-4
shb,ground,0,0,60,2.099306234,0.002,2-3
shb,ground,0,0,60,2.463173236,0.002,2-4
shb,ground,0,0,60,0.363867003,0.002,3-4
shb,ground,40,0,40,2.650310874,0.002,1-2
shb,ground,40,0,40,3.527104065,0.002,1-3
shb,ground,40,0,40,6.095664221,0.002,1-4
shb,ground,40,0,40,0.876793192,0.002,2-3
shb,ground,40,0,40,3.445353348,0.002,2-4
shb,ground,40,0,40,2.568560156,0.002,3-4
epr,ground,1,0,0,80.9,0.5,1-4
epr,ground,1,0,0,80.4,0.5,
epr,ground,0,1,1,300,0.5,
"""

# the fastest of the benchmark's four rates variants: its drained levels write pseudo-holes
PINNED_RATES = """[rates]
r12 = 2000
r13 = 147.433
r14 = 60.4911
r23 = 60.4911
r24 = 147.433
r34 = 2000
pump_rate = 100
duration_s = 0.3
"""

# site II's preset parameters given as explicit tensors
PINNED_SITE_CONFIG = """[site]
name = explicit-II
center_nm = 978.854
fwhm_mhz = 560

[ground.a]
unit = GHz
values = -0.1259, 1.1835, 4.8668
angles_deg = 45.86, 11.13, 2.97

[ground.g]
unit = dimensionless
values = 0.13, 1.50, 6.06
angles_deg = 59.10, 11.8, -12.6

[excited.a]
unit = GHz
values = 2.34, 2.90, 6.49
angles_deg = 51.07, 14.11, -0.67

[excited.g]
unit = dimensionless
values = 1.0, 1.4, 3.3
angles_deg = 54.0, 23.0, -10.0
"""


class TestPinnedBytes:
    """sha256 of outputs whose bytes stay fixed while their code is reworked.

    The hashes were recorded with numpy 2.4 on x86-64; another numpy or
    BLAS may round the last digit of a printed value differently.
    """

    def test_epr_map_csv(self, tmp_path, capsys):
        # the epr-map run of the benchmark's epr-angular part
        out = tmp_path / "epr-map.csv"
        code, _, _ = run(capsys, "epr-map", "--site", "I", "--plane", "b-D1", "--step", "15", "--freq", "9.7",
                         "--bmax", "1000", "--no-stamp", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cc594b993407f10b91804eaf13a582ae16677dba034c6ec3e1805398dfef2fe2")

    def test_fit_residual_csv_and_report(self, tmp_path, capsys):
        data, out, report = tmp_path / "data.csv", tmp_path / "fit.csv", tmp_path / "report.txt"
        data.write_text(PINNED_FIT_DATA)
        code, _, _ = run(capsys, "fit", "--data", str(data), "--free", "ground", "--restarts", "2", "--seed", "0",
                         "--no-stamp", "--out", str(out), "--report", str(report))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "61a24e28606b8ace9d6b9384463ac5f1f4cadc7f2cb8e5332d63a00c0c5fe8b3")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "e6ee628f22a99dcc98c2ffc1bd620f2a343dd3c763ad1d6c926fa3bef0a36538")

    @pytest.mark.parametrize("rates, csv_hash, pgm_hash", [
        (None, "d00f2570d933e10f815e1b059246907f9809fd8c2ece7f1e3056770beb5ec32e",
         "2c0193d5099d431baf8376a4416dbfbd85027e3eda390a87afb8dbd38022db23"),
        (PINNED_RATES, "59de2a0007f2d9677b980a177307620d3ce2982b91b1534e51efd22c4e4ca62d",
         "b0cffeafe6a18f2471c894f3bdf9dd6743aca5a75944caa9b7b47f0b097c6356"),
    ])
    def test_shb_map_csv_and_pgm(self, tmp_path, capsys, rates, csv_hash, pgm_hash):
        out = tmp_path / "shb-map.csv"
        argv = ["shb-map", "--magnitudes", "0:150:15", "--span=-5:5:0.02", "--no-stamp", "--out", str(out)]
        if rates is not None:
            (tmp_path / "rates.ini").write_text(rates)
            argv += ["--rates", str(tmp_path / "rates.ini")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_hash
        assert hashlib.sha256((tmp_path / "shb-map.pgm").read_bytes()).hexdigest() == pgm_hash

    def test_absorption_peaks_and_ordering_csv(self, tmp_path, capsys):
        spectrum, peaks, out = tmp_path / "absorption.csv", tmp_path / "peaks.csv", tmp_path / "ordering.csv"
        code, _, _ = run(capsys, "absorption", "--model", "uniform", "--peaks-out", str(peaks), "--no-stamp",
                         "--out", str(spectrum))
        assert code == 0
        code, _, _ = run(capsys, "ordering", "--peaks-file", str(peaks), "--no-stamp", "--out", str(out))
        assert code == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (spectrum, peaks, out)] == [
            "6ca930fe0de1555c8eaed4eaec3be5076cf33c696602e9106a5b81093480e508",
            "d6ff36d81937ad1a217ed10cb36aa162fab5cfd767866088102418ec78bc6e10",
            "b489c0a7a95f655dc3e4ea98ab4334e6204dba71a1f0e4662f2874686d85af4e"]

    def test_absorption_overlap_csv_and_peaks(self, tmp_path, capsys):
        spectrum, peaks = tmp_path / "absorption.csv", tmp_path / "peaks.csv"
        code, _, _ = run(capsys, "absorption", "--range=-4.5:4.5:0.005", "--peaks-out", str(peaks), "--no-stamp",
                         "--out", str(spectrum))
        assert code == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (spectrum, peaks)] == [
            "094aa5eb7c1e78b5a5611e3e0303f09efc8e17f7b846da4abfc91bdfec1f556f",
            "200b8a1c8688d19cad11abd923c17bf2ec26442fd7493bdfaafb38e85f72da8c"]

    @pytest.mark.parametrize("state, csv_hash", [
        ("ground", "f3f0c6426d0fbd8611697b213f477be74d63ccf229391c72dfb5ae43be99fe49"),
        ("excited", "ee01796364feea966945b358d64495404acb80f615d1e8503187f5fa2e5f046f"),
    ])
    def test_transitions_through_explicit_config(self, tmp_path, capsys, state, csv_hash):
        cfg, out = tmp_path / "site.ini", tmp_path / "t.csv"
        cfg.write_text(PINNED_SITE_CONFIG)
        code, _, _ = run(capsys, "transitions", "--config", str(cfg), "--state", state, "--B", "30,0,0",
                         "--no-stamp", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_hash

    def test_fit_two_orientations_csv_and_report(self, tmp_path, capsys):
        # the report has one canonical-angle line per fitted orientation
        data, out, report = tmp_path / "data.csv", tmp_path / "fit.csv", tmp_path / "report.txt"
        data.write_text(PINNED_FIT_DATA)
        code, _, _ = run(capsys, "fit", "--data", str(data), "--free", "ground,excited", "--restarts", "2",
                         "--seed", "0", "--no-stamp", "--out", str(out), "--report", str(report))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "61a24e28606b8ace9d6b9384463ac5f1f4cadc7f2cb8e5332d63a00c0c5fe8b3")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "4e2fd627f2074a1d16e419d8702aab1db41cea77081237860544861400c1268e")

    def test_zefoz_csv(self, tmp_path, capsys):
        out = tmp_path / "zefoz.csv"
        code, _, _ = run(capsys, "zefoz", "--transition", "1,2", "--radius", "100", "--no-stamp", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b22bcfe1a95013208c7bd6d3713fcebe4f733bc8707f96a0f319546232ee7b19")

    def test_selftest_stdout(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "f7b569219c57ec58139b96d0553e4677a26f1207fa525e86eabb2e9b07d57404")

    def test_invert_csv_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "invert.csv"
        code, stdout, _ = run(capsys, "invert", "--lines", "2046,2385,2869,3208", "--no-stamp", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f39da535d8f19bdab4523e4ff2c2b3acb6ff5c53a70c65778ca57143522599a9")
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "3c8f85e4d427380b2d1158c091bcc04b72eb18a1e1b115cd8114067a24374c31")

    @pytest.mark.parametrize("argv, csv_hash", [
        (["levels", "--B", "0"], "855d2976968b9e15bbc5531567cd7e97154bdccd59fa00382739d53b189e1558"),
        (["transitions", "--site", "II", "--B", "100,0,0"],
         "27bacc85d2e2fa7de5e500fc500b481cc2960e50fd8fa88e1784fd52fdcb16f2"),
        (["odmr", "--B", "0"], "b0c8e93a8a36627d8dd6b85e1fb9c5d6416881597472c6090c02130a28f0740f"),
    ])
    def test_field_command_csv(self, tmp_path, capsys, argv, csv_hash):
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, *argv, "--no-stamp", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_hash

    @pytest.mark.parametrize("lines, err_hash", [
        ("1,2", "ff4704475fff0264918877f70790a9502c5604b28d516c770ef3f7bd05460f64"),
        ("500,900,1700,2900", "5a3457873fa5d982a5d52afded556f2545db867b8ffbd21936d1067db572593c"),
    ])
    def test_invert_error_record(self, capsys, lines, err_hash):
        code, _, err = run(capsys, "invert", "--lines", lines)
        assert code == 2
        assert hashlib.sha256(err.encode()).hexdigest() == err_hash


class TestConfigIntegration:
    def test_cli_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "site.ini"
        cfg.write_text("[site]\npreset = site-II\n")
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "transitions", "--config", str(cfg), "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        mhz = rows["frequency_ghz"] * 1e3
        assert np.abs(mhz - 3025.0).min() < 2.0  # site II line

    def test_config_error_machine_readable(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[site]\npreset = site-XL\n")
        code, _, err = run(capsys, "levels", "--config", str(cfg))
        assert code == 2
        record = json.loads(err.strip())
        assert record["code"] == "unknown-preset"


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(l.startswith("PASS") for l in lines)


def test_commands_that_need_no_scipy_do_not_import_it(tmp_path):
    # one fresh interpreter runs every subcommand, then lists the SciPy modules it loaded
    from kramers.hamiltonian import PAIRS, eigensystem
    from kramers.presets import SITE_I

    rows = ["kind,state,bx_mt,by_mt,bz_mt,value,sigma,label"]
    for field in ((20.0, 0.0, 0.0), (0.0, 0.0, 40.0), (30.0, 30.0, 0.0)):
        e = eigensystem(SITE_I.ground, field).energies
        rows += [f"shb,ground,{field[0]},{field[1]},{field[2]},{float(e[j] - e[i])!r},0.002,{i + 1}-{j + 1}"
                 for i, j in PAIRS]
    (tmp_path / "fit-data.csv").write_text("\n".join(rows) + "\n")
    rates = "[rates]\nr12 = 20\nr13 = 1.5\nr14 = 0.6\nr23 = 0.6\nr24 = 1.5\nr34 = 20\npump_rate = 100\n"
    (tmp_path / "rates.ini").write_text(rates + "duration_s = 0.3\n")
    (tmp_path / "rates-inf.ini").write_text(rates + "duration_s = inf\n")
    commands = [
        (["levels", "--B", "0"], 0), (["transitions", "--B", "100,0,0"], 0), (["odmr", "--B", "0"], 0),
        (["absorption", "--model", "uniform", "--peaks-out", "peaks.csv"], 0),
        (["ordering", "--peaks-file", "peaks.csv"], 0), (["epr-map", "--step", "90"], 0),
        (["shb-map", "--magnitudes", "0,10", "--span=-1:1:0.1"], 0),
        (["shb-map", "--magnitudes", "0,10", "--span=-1:1:0.1", "--rates", "rates.ini"], 0),
        # the CLI reads only finite numbers: an infinite burn is a bad-rates error
        (["shb-map", "--magnitudes", "0,10", "--span=-1:1:0.1", "--rates", "rates-inf.ini"], 2),
        (["fit", "--data", "fit-data.csv", "--restarts", "2"], 0),
        (["invert", "--lines", "2046,2385,2869,3208"], 0),
        (["zefoz", "--transition", "1,2", "--radius", "100"], 0), (["selftest"], 0),
    ]
    assert {argv[0] for argv, _ in commands} == set(SCHEMAS)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import kramers.cli as cli\n"
        "from kramers import shb\n"
        "from kramers.config import load_rates\n"
        "from kramers.presets import SITE_I\n"
        f"for argv, code in {commands!r}:\n"
        "    assert cli.main(argv) == code, argv\n"
        "# the stationary populations of the infinite burn, through the library\n"
        "rates = load_rates('rates.ini')\n"
        "shb.shb_field_map(SITE_I, (1.0, 0.0, 0.0), [0.0, 10.0], 0.0,\n"
        "                  shb.RateMatrix(rates.rates, rates.pump_rate, np.inf), (-1.0, 1.0), 0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(kramers.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_commands_load_only_the_modules_they_run(tmp_path):
    # one fresh interpreter runs the commands that need neither the fit, the
    # ZEFOZ search nor the regression suite, then the three that do
    (tmp_path / "fit-data.csv").write_text(PINNED_FIT_DATA)
    light = [
        ["levels", "--B", "0"], ["transitions", "--B", "100,0,0"], ["odmr", "--B", "0"],
        ["absorption", "--model", "uniform", "--peaks-out", "peaks.csv"], ["ordering", "--peaks-file", "peaks.csv"],
        ["invert", "--lines", "2046,2385,2869,3208"], ["shb-map", "--magnitudes", "0,10", "--span=-1:1:0.1"],
        ["epr-map", "--step", "90"],
    ]
    heavy = [(["fit", "--data", "fit-data.csv", "--restarts", "2"], 0),
             (["zefoz", "--transition", "1,2", "--radius", "100"], 0), (["selftest"], 0)]
    deferred = ["kramers.fitting", "kramers.zefoz", "kramers.selftest"]
    script = (
        "import sys\n"
        "import kramers.cli as cli\n"
        f"for argv in {light!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"print('loaded:', [m for m in {deferred!r} if m in sys.modules])\n"
        f"for argv, code in {heavy!r}:\n"
        "    assert cli.main(argv) == code, argv\n"
        "from kramers import DataPoint, fit, invert_and_seed, zefoz_search\n"
        "import kramers\n"
        "try:\n"
        "    kramers.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    src = str(Path(kramers.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "loaded: []" in lines
    assert lines[-1] == "AttributeError"
