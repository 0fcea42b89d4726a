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
from kramers.presets import SITE_II
from kramers.zefoz import zefoz_search


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

    def test_odmr_diagonalizes_its_field_once(self, tmp_path, capsys, monkeypatch):
        from kramers import cli, hamiltonian, magres

        seen = []
        for module in (cli, magres):
            monkeypatch.setattr(module, "eigensystem", lambda sys, B: seen.append(B) or hamiltonian.eigensystem(sys, B))
        assert run(capsys, "odmr", "--B", "30,10,-5", "--out", str(tmp_path / "odmr.csv"))[0] == 0
        assert np.array_equal(seen, [[30, 10, -5]])

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

    @pytest.mark.parametrize("seed", ["9007199254740993", "18446744073709551621"])
    def test_seed_reaches_the_fit_with_every_digit(self, tmp_path, capsys, monkeypatch, seed):
        # through a float (53 bits) they would reach the fit as 2**53 and 2**64
        from kramers import fitting

        seeds, fit = [], fitting.fit
        monkeypatch.setattr(fitting, "fit", lambda *args, seed, **kw: seeds.append(seed) or fit(*args, seed=seed, **kw))
        (tmp_path / "data.csv").write_text(PINNED_FIT_DATA)
        code, _, _ = run(capsys, "fit", "--data", str(tmp_path / "data.csv"), "--restarts", "2", "--seed", seed,
                         "--out", str(tmp_path / "fit.csv"), "--report", str(tmp_path / "report.txt"))
        assert code == 0 and seeds == [int(seed)]

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

    @pytest.mark.parametrize("extreme, twin", [("1e200,1e200,0", "1,1,0"), ("1e-200,0,0", "1,0,0")])
    def test_epr_direction_at_the_extremes_fits_as_its_twin(self, tmp_path, capsys, extreme, twin):
        written = []
        for name, direction in (("extreme", extreme), ("twin", twin)):
            data, out, report = (tmp_path / f"{name}-{suffix}" for suffix in ("data.csv", "fit.csv", "report.txt"))
            data.write_text(PINNED_FIT_DATA + f"epr,ground,{direction},150,0.5,\n")
            code, _, err = run(capsys, "fit", "--data", str(data), "--free", "ground", "--restarts", "2",
                               "--seed", "0", "--no-stamp", "--out", str(out), "--report", str(report))
            assert (code, err) == (0, "")
            written.append((out.read_bytes(), report.read_bytes()))
        assert written[0] == written[1]

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


# site I with its ground ordering class set to -1
PINNED_TIE_SITE = """[site]
preset = site-I
ordering_ground = -1
"""

# Outputs whose bytes stay fixed while their code is reworked.  Each run: its name, the argv of each step, the exit
# code of each step, and the sha256 of outputs, keyed by file name or by "stdout"/"stderr" (each joined over the
# steps).  The steps share one directory that holds the texts above as data.csv, rates.ini, site.ini and tie.ini.
# tools/census.py reads this table as literals.  The hashes were recorded with numpy 2.4 on x86-64; another numpy
# or BLAS may round the last digit of a printed value differently.
PINNED_RUNS = [
    # the epr-map run of the benchmark's epr-angular part
    ("epr-map",
     [("epr-map", "--site", "I", "--plane", "b-D1", "--step", "15", "--freq", "9.7", "--bmax", "1000", "--no-stamp",
       "--out", "epr-map.csv")], [0],
     {"epr-map.csv": "cc594b993407f10b91804eaf13a582ae16677dba034c6ec3e1805398dfef2fe2"}),
    ("fit-residual",
     [("fit", "--data", "data.csv", "--free", "ground", "--restarts", "2", "--seed", "0", "--no-stamp", "--out",
       "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "61a24e28606b8ace9d6b9384463ac5f1f4cadc7f2cb8e5332d63a00c0c5fe8b3",
      "report.txt": "e6ee628f22a99dcc98c2ffc1bd620f2a343dd3c763ad1d6c926fa3bef0a36538"}),
    ("shb-map",
     [("shb-map", "--magnitudes", "0:150:15", "--span=-5:5:0.02", "--no-stamp", "--out", "shb-map.csv")], [0],
     {"shb-map.csv": "d00f2570d933e10f815e1b059246907f9809fd8c2ece7f1e3056770beb5ec32e",
      "shb-map.pgm": "2c0193d5099d431baf8376a4416dbfbd85027e3eda390a87afb8dbd38022db23"}),
    ("shb-map-rates",
     [("shb-map", "--magnitudes", "0:150:15", "--span=-5:5:0.02", "--no-stamp", "--out", "shb-map.csv", "--rates",
       "rates.ini")], [0],
     {"shb-map.csv": "59de2a0007f2d9677b980a177307620d3ce2982b91b1534e51efd22c4e4ca62d",
      "shb-map.pgm": "b0cffeafe6a18f2471c894f3bdf9dd6743aca5a75944caa9b7b47f0b097c6356"}),
    ("shb-map-direction",
     [("shb-map", "--direction", "1,2,2", "--magnitudes", "0:60:5", "--span=-2:2:0.01", "--no-stamp", "--out",
       "shb-map.csv")], [0],
     {"shb-map.csv": "1401007a3dce1390e0a2846b5293c77f0409197c332fbba249615a6e17cd3539",
      "shb-map.pgm": "831ccaaa7723f5d44f67baff8d9a0988e63340662d1d3039dd1d0b3b142183ae"}),
    # an --out without an extension, after a dot in its path: the map goes beside it, as map.pgm, not to .pgm
    ("shb-map-out-without-extension",
     [("shb-map", "--magnitudes", "0:60:30", "--span=-1:1:0.1", "--no-stamp", "--out", "./map")], [0],
     {"map": "eeae164ffde328f40ebddb8fe281b98a95ea0693895da2782b22421084b98f26",
      "map.pgm": "279891baf1ea638e0de6822e795419a806ea2c9f7ced5a06d10950c80a49cff3",
      "stdout": "df5a842e2c9d415af852cf2318297e8b86dc83e1212201c8479af6f52618d2fc"}),
    ("absorption+ordering",
     [("absorption", "--model", "uniform", "--peaks-out", "peaks.csv", "--no-stamp", "--out", "absorption.csv"),
      ("ordering", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv")], [0, 0],
     {"absorption.csv": "6ca930fe0de1555c8eaed4eaec3be5076cf33c696602e9106a5b81093480e508",
      "peaks.csv": "d6ff36d81937ad1a217ed10cb36aa162fab5cfd767866088102418ec78bc6e10",
      "ordering.csv": "b489c0a7a95f655dc3e4ea98ab4334e6204dba71a1f0e4662f2874686d85af4e"}),
    # (1, 1) and (-1, 1) tie at 45.4525096 MHz: the tie rule decides which ranks first
    ("site-ii-absorption+ordering",
     [("absorption", "--site", "II", "--range=-4.5:4.5:0.005", "--model", "uniform", "--peaks-out", "peaks.csv",
       "--no-stamp", "--out", "absorption.csv"),
      ("ordering", "--site", "II", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv")], [0, 0],
     {"absorption.csv": "77c9dc6cb390f31448209dc38c8256b169d844493fa2946c8bfbe980d47186d9",
      "peaks.csv": "a86a560d8ab0fb6ae757fc2c869096c634c08484e139f52a79990d941c9acfc9",
      "ordering.csv": "62ad9f44d0d68eb40c01f867837dae6fbf6ea8f2e05b9fa177c21342c2a45946"}),
    # (-1, -1) and (-1, 1) tie at 20.5574804 MHz on site I with ordering_ground = -1: its own (-1, 1) first
    ("ordering-tie",
     [("absorption", "--config", "tie.ini", "--model", "uniform", "--peaks-out", "peaks.csv", "--no-stamp",
       "--out", "absorption.csv"),
      ("ordering", "--config", "tie.ini", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv")],
     [0, 0], {"ordering.csv": "91b40c71b20a82eb0d67cb66bd37cedf52b05fed6a01c9b825a07f20f2c21305"}),
    ("absorption-overlap",
     [("absorption", "--range=-4.5:4.5:0.005", "--peaks-out", "peaks.csv", "--no-stamp", "--out",
       "absorption.csv")], [0],
     {"absorption.csv": "094aa5eb7c1e78b5a5611e3e0303f09efc8e17f7b846da4abfc91bdfec1f556f",
      "peaks.csv": "200b8a1c8688d19cad11abd923c17bf2ec26442fd7493bdfaafb38e85f72da8c"}),
    ("transitions-config-ground",
     [("transitions", "--config", "site.ini", "--state", "ground", "--B", "30,0,0", "--no-stamp", "--out",
       "t.csv")], [0], {"t.csv": "f3f0c6426d0fbd8611697b213f477be74d63ccf229391c72dfb5ae43be99fe49"}),
    ("transitions-config-excited",
     [("transitions", "--config", "site.ini", "--state", "excited", "--B", "30,0,0", "--no-stamp", "--out",
       "t.csv")], [0], {"t.csv": "ee01796364feea966945b358d64495404acb80f615d1e8503187f5fa2e5f046f"}),
    # the report has one canonical-angle line per fitted orientation
    ("fit-two-orientations",
     [("fit", "--data", "data.csv", "--free", "ground,excited", "--restarts", "2", "--seed", "0", "--no-stamp",
       "--out", "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "61a24e28606b8ace9d6b9384463ac5f1f4cadc7f2cb8e5332d63a00c0c5fe8b3",
      "report.txt": "4e2fd627f2074a1d16e419d8702aab1db41cea77081237860544861400c1268e"}),
    # 40 restarts draw 31 seed rows, then 8 more in a second chunk; the seed 2**64 + 5 is three words
    ("fit-restart-chunk",
     [("fit", "--data", "data.csv", "--free", "ground", "--restarts", "40", "--seed", "18446744073709551621",
       "--no-stamp", "--out", "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "6caf226f9719434445eeac8542e00ff10a3e0ba1acb98a522461cd9f2ec5e6b7",
      "report.txt": "0d5f6d6345ee771a3565bf9896786a37fe45649823470f7e1ca0ed6edf5c20bf"}),
    # misalignment and eigenvalue shifts, the fit's coordinates kept to a box
    ("fit-bounded",
     [("fit", "--data", "data.csv", "--free", "ground,misalignment,eigenvalues", "--restarts", "8", "--seed", "0",
       "--no-stamp", "--out", "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "6c9783bdb249c750376cf494617a73d7b612966e0d62b8a09dc9a8ad9fd73cda",
      "report.txt": "c0bc2966cf849ba3d95cd33db58652f0587cd6aead01a25584459d7d51d2f112"}),
    # EPR rows: residuals of rows 16-17 move in the 9th digit with the last bit of a search ray
    ("fit-bounded-epr-rows",
     [("fit", "--data", "data.csv", "--free", "ground,misalignment,eigenvalues", "--restarts", "4", "--seed", "3",
       "--no-stamp", "--out", "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "f995fb3d98892e074f131eab0896e8c49efffff45732167e250603e7b453de2e",
      "report.txt": "2cf3bc5e116b4e3f2c2e9dc941131a5813d852e2235fdcf274d9109bf4501105"}),
    # the one evaluation at the site's own tensors, by the path the restarts take
    ("fit-nothing-free",
     [("fit", "--data", "data.csv", "--free", "", "--no-stamp", "--out", "fit.csv", "--report", "report.txt")], [0],
     {"fit.csv": "1ed84c065991f7f0ec4a9f5bc6debcfa88f016d236151d4236e51b38382beac5",
      "report.txt": "850582e440682ab93f6feaa3e6cd2470746c60273cf05939518448bbf017be42"}),
    ("zefoz",
     [("zefoz", "--transition", "1,2", "--radius", "100", "--no-stamp", "--out", "zefoz.csv")], [0],
     {"zefoz.csv": "b22bcfe1a95013208c7bd6d3713fcebe4f733bc8707f96a0f319546232ee7b19"}),
    ("zefoz-wide-ball",
     [("zefoz", "--transition", "1,2", "--radius", "1000", "--no-stamp", "--out", "zefoz.csv")], [0],
     {"zefoz.csv": "2e87dd5228437e7c916deb6c21410303e89cb8da557766491a18a81666e8d913"}),
    ("zefoz-site-ii-excited",
     [("zefoz", "--site", "II", "--state", "excited", "--transition", "1,2", "--radius", "300", "--no-stamp",
       "--out", "zefoz.csv")], [0],
     {"zefoz.csv": "5ed2b5bd4432c069d3efef741d02f69523e4fb8f7fe0f3460916cbcea88c8dc3"}),
    ("selftest", [("selftest",)], [0],
     {"stdout": "f7b569219c57ec58139b96d0553e4677a26f1207fa525e86eabb2e9b07d57404"}),
    ("invert",
     [("invert", "--lines", "2046,2385,2869,3208", "--no-stamp", "--out", "invert.csv")], [0],
     {"invert.csv": "f39da535d8f19bdab4523e4ff2c2b3acb6ff5c53a70c65778ca57143522599a9",
      "stdout": "3c8f85e4d427380b2d1158c091bcc04b72eb18a1e1b115cd8114067a24374c31"}),
    # the commands of a field: at --B, or along --field scaled to --magnitude
    ("levels-zero-field", [("levels", "--B", "0", "--no-stamp", "--out", "out.csv")], [0],
     {"out.csv": "855d2976968b9e15bbc5531567cd7e97154bdccd59fa00382739d53b189e1558"}),
    ("transitions-site-ii", [("transitions", "--site", "II", "--B", "100,0,0", "--no-stamp", "--out", "out.csv")],
     [0], {"out.csv": "27bacc85d2e2fa7de5e500fc500b481cc2960e50fd8fa88e1784fd52fdcb16f2"}),
    ("odmr-zero-field", [("odmr", "--B", "0", "--no-stamp", "--out", "out.csv")], [0],
     {"out.csv": "b0c8e93a8a36627d8dd6b85e1fb9c5d6416881597472c6090c02130a28f0740f"}),
    ("odmr-ac-axis", [("odmr", "--ac-axis", "1,1,0", "--no-stamp", "--out", "out.csv")], [0],
     {"out.csv": "16a016b48e6e1ad710edc79850975e42631755ba0879e247fb0f1a821ee8be74"}),
    ("levels-direction", [("levels", "--field", "1,2,2", "--magnitude", "7", "--no-stamp", "--out", "out.csv")],
     [0], {"out.csv": "9618c96b8cc35864dbd5bafc595c5398b801d28f81a929cf42f0672b259141f7"}),
    ("odmr-site-ii-excited",
     [("odmr", "--site", "II", "--state", "excited", "--B", "30,10,-5", "--ac-axis", "1,1,0", "--no-stamp",
       "--out", "out.csv")], [0],
     {"out.csv": "2aca851514860a94ce7a5b5cde61f7514d1380a596c63182b72c9301f835c31f"}),
    ("invert-too-few-lines", [("invert", "--lines", "1,2")], [2],
     {"stderr": "ff4704475fff0264918877f70790a9502c5604b28d516c770ef3f7bd05460f64"}),
    ("invert-inconsistent", [("invert", "--lines", "500,900,1700,2900")], [2],
     {"stderr": "5a3457873fa5d982a5d52afded556f2545db867b8ffbd21936d1067db572593c"}),
    # finite values beyond the table of input ranges
    ("invert-huge-lines", [("invert", "--lines", "1e300,1e300,1e300,1e300")], [2],
     {"stderr": "5169257243291cda739bb4a8b8b7029d6304c95bd5f629d30c414c988eef605a"}),
    ("zefoz-tiny-radius", [("zefoz", "--grid", "1,1", "--radius", "5e-324")], [2],
     {"stderr": "1b41d3634137ce1e78b8c569574e3f95f5068bfbd87562544acddba8801633a8"}),
    ("absorption-huge-field", [("absorption", "--B", "1e300,0,0")], [2],
     {"stderr": "ae26e8a208ed18a4f373aafe5fd33bae29009ac3b0475fffb5255b224b41bd6b"}),
    ("shb-map-huge-magnitude", [("shb-map", "--magnitudes", "1e300")], [2],
     {"stderr": "942378bd27cebc9591ba406fd141bc136f1ad51b32adc0383f5f29c186d05037"}),
    ("epr-map-huge-bmax", [("epr-map", "--bmax", "1e300")], [2],
     {"stderr": "93013bfe113e54263b2a61b457dd97ef4a836f2a38df5f59ec723a4f950569c8"}),
    ("odmr-huge-field", [("odmr", "--B", "1e300,0,0")], [2],
     {"stderr": "ae26e8a208ed18a4f373aafe5fd33bae29009ac3b0475fffb5255b224b41bd6b"}),
    # 1e400 is not a double
    ("levels-infinite-field", [("levels", "--B", "1e400,0,0")], [2],
     {"stderr": "128ac1481ef361e493b0fa1aa2d78cb9e6c527931b42b5cadbfffb9b875182b8"}),
    # a zero direction has no scale
    ("levels-zero-direction", [("levels", "--field", "0", "--magnitude", "5")], [2],
     {"stderr": "5611a5d9aad8067148d3f58a7c0874ce8b0a951ba54b0934d2955a79d6c5e6f3"}),
]


@pytest.mark.parametrize("steps, codes, digests", [r[1:] for r in PINNED_RUNS], ids=[r[0] for r in PINNED_RUNS])
def test_pinned_run(steps, codes, digests, tmp_path, monkeypatch, capsys):
    for name, text in (("data.csv", PINNED_FIT_DATA), ("rates.ini", PINNED_RATES), ("site.ini", PINNED_SITE_CONFIG),
                       ("tie.ini", PINNED_TIE_SITE)):
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    got, stdout, stderr = [], "", ""
    for argv in steps:
        got.append(main(list(argv)))
        captured = capsys.readouterr()
        stdout, stderr = stdout + captured.out, stderr + captured.err
    streams = {"stdout": stdout.encode(), "stderr": stderr.encode()}
    assert got == codes
    assert {name: hashlib.sha256(streams[name] if name in streams else (tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("box, candidates_hash", [
    (((-50, 50), (-50, 50), (-50, 50)), "6dfe1e1428b095b15e9779c0f97b6e7697f986e908f870ede54930284b6d34b9"),
    (((10, 60), (-20, 20), (0, 40)), "8a464dfc2f9d8f40e4b34b11c38678fcd0a8d0675d552f40ba99ef858ca5621d"),
])
def test_zefoz_box_candidates(box, candidates_hash):
    # the CLI searches a ball only: the box descent is pinned through the API
    candidates = zefoz_search(SITE_II.ground, (1, 2), region=np.array(box, dtype=float), grid=6)
    assert hashlib.sha256(repr(candidates).encode()).hexdigest() == candidates_hash


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


def _package_env() -> dict:
    """The environment of a new interpreter that imports this package."""
    src = str(Path(kramers.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_interpreter(script: str, cwd) -> list[str]:
    """The stdout lines of ``script`` run by a new interpreter that imports this package."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=_package_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
    assert _fresh_interpreter(script, tmp_path)[-1] == "[]"


# the kramers modules every command loads: the CLI, its input and output layers and what they build on
CORE_MODULES = {"kramers", *(f"kramers.{m}" for m in
                             ("cli", "config", "hamiltonian", "output", "presets", "spectra", "tensors"))}


def test_commands_load_only_the_modules_they_run(tmp_path):
    # each command runs in a fresh interpreter, which then lists the modules it loaded beyond the core;
    # none loads numpy.random or what it imports for OS entropy (secrets -> hashlib -> OpenSSL)
    (tmp_path / "fit-data.csv").write_text(PINNED_FIT_DATA)
    commands = [
        (["levels", "--B", "0"], set()), (["transitions", "--B", "100,0,0"], set()),
        (["absorption", "--model", "uniform", "--peaks-out", "peaks.csv"], set()),
        (["ordering", "--peaks-file", "peaks.csv"], set()), (["invert", "--lines", "2046,2385,2869,3208"], set()),
        (["odmr", "--B", "0"], {"magres"}), (["epr-map", "--step", "90"], {"magres"}),
        (["shb-map", "--magnitudes", "0,10", "--span=-1:1:0.1"], {"shb"}), (["selftest"], {"selftest", "shb"}),
        (["zefoz", "--transition", "1,2", "--radius", "100"], {"zefoz", "trust_region"}),
        (["fit", "--data", "fit-data.csv", "--restarts", "2"], {"fitting", "magres", "trust_region"}),
    ]
    assert {argv[0] for argv, _ in commands} == set(SCHEMAS)
    for argv, extra in commands:
        script = (
            "import sys\n"
            "import kramers.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"print(sorted(set(m for m in sys.modules if m.split('.')[0] == 'kramers') - {CORE_MODULES!r}))\n"
            "print([m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules])\n"
        )
        loaded = _fresh_interpreter(script, tmp_path)[-2:]
        assert loaded == [repr(sorted(f"kramers.{m}" for m in extra)), "[]"], argv


def test_package_import_defers_the_command_modules(tmp_path):
    script = (
        "import sys\n"
        "import kramers\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'kramers'))\n"
        "from kramers import RateMatrix, hole_pattern, epr_angular_map, odmr_lines\n"
        "from kramers import DataPoint, fit, invert_and_seed, zefoz_search\n"
        "assert RateMatrix.__module__ == 'kramers.shb' and odmr_lines.__module__ == 'kramers.magres'\n"
        "try:\n"
        "    kramers.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    lines = _fresh_interpreter(script, tmp_path)
    assert lines[-2:] == [repr(sorted(CORE_MODULES - {"kramers.cli", "kramers.output"})), "AttributeError"]


def test_main_registers_the_exit_freeze_once(tmp_path):
    # main hands the heap to the OS at exit (gc.freeze, so the final collections skip it),
    # registering it once however often it runs
    script = (
        "import atexit, gc\n"
        "import kramers.cli as cli\n"
        "before = atexit._ncallbacks()\n"
        "assert cli.main(['levels', '--B', '0']) == 0\n"
        "once = atexit._ncallbacks()\n"
        "assert cli.main(['levels', '--B', '0']) == 0\n"
        "print(once - before, atexit._ncallbacks() - before, gc.get_freeze_count())\n"
        "atexit._run_exitfuncs()\n"
        "print(gc.get_freeze_count() > 0)\n"
    )
    assert _fresh_interpreter(script, tmp_path)[-2:] == ["1 1 0", "True"]


@pytest.mark.parametrize("argv", [
    ["shb-map", "--magnitudes", "0:40:10", "--span=-1:1:0.01", "--rates", "rates.ini"],
    ["fit", "--data", "fit-data.csv", "--free", "ground", "--restarts", "2", "--report", "report.txt"],
])
def test_cli_process_exits_cleanly_with_the_in_process_bytes(argv, tmp_path, monkeypatch, capsys):
    # the console script's call in its own process, which exits past the frozen heap
    rates = "[rates]\nr12 = 20\nr13 = 1.5\nr14 = 0.6\nr23 = 0.6\nr24 = 1.5\nr34 = 20\npump_rate = 100\n"
    for where in ("process", "here"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "rates.ini").write_text(rates + "duration_s = 0.3\n")
        (tmp_path / where / "fit-data.csv").write_text(PINNED_FIT_DATA)
    proc = subprocess.run([sys.executable, "-c", "import sys; from kramers.cli import main; sys.exit(main())",
                           *argv], cwd=tmp_path / "process", env=_package_env(), capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    monkeypatch.chdir(tmp_path / "here")
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    files = {where: {p.name: p.read_bytes() for p in sorted((tmp_path / where).iterdir())}
             for where in ("process", "here")}
    assert files["process"] == files["here"]
    assert len(files["here"]) > 2


# help texts and usage errors, which must not depend on which subcommand's options the parser
# builds: exit code and sha256 of the one non-empty stream (stdout on exit 0, stderr on exit 2)
SURFACE = [
    (["--help"], 0, "074488532b423acdf1611473113efc682b320df6f8e98a506f7e5535b12fc15f"),
    (["absorption", "--help"], 0, "73fd64e23c7493af07c4cbe70d85fbad6c126ab5e7c173bb151a8d667491f21a"),
    (["epr-map", "--help"], 0, "86dba729c28bf220a16852711263d2e1c31e73f2e7f363ed37482230df0b1e3e"),
    (["fit", "--help"], 0, "48f348a0fbf22277b7465de40e2f5486e5923c9ef9bd27cc0f4c91fb800cf1ea"),
    (["invert", "--help"], 0, "fef373934862392cc43d50ef3a33604aa2fe346a6cc65e4d9146d0b7936c7ab3"),
    (["levels", "--help"], 0, "524313a5bbe1944df87367264a04f623a38b95bf58ad1c3039c434363e50ac99"),
    (["odmr", "--help"], 0, "75d163430128b51f86e606fd9c8d28781fb08bf18e01fc42fa901314bcf6977d"),
    (["ordering", "--help"], 0, "86711814332f52f7a249640b402196d77302ac401aae49bae5f14fe501e8ff67"),
    (["selftest", "--help"], 0, "08a0b7df41c4c76d99fabc2b43b6989972ea41d45541df4e278b3a83594c6578"),
    (["shb-map", "--help"], 0, "0706f67beb5fcff4ac1497cba876a6d1de4793eee1c6e440b13f4e6ea61f3211"),
    (["transitions", "--help"], 0, "3a241d746da285dade3aea4ff6ad3069938f72e53701f649a9c7d2b971cd411a"),
    (["zefoz", "--help"], 0, "a51201be0002dc387e32b751fe7376e2de4eb4576f45fcc4a333d520a32bb85b"),
    ([], 2, "969cad57b9330316409620522b653c2c6592a3c53e40719e658cf97f5eacb1e0"),
    (["bogus"], 2, "493999568e6313bba5127cf700deffc3da0f1de8a540e9b8e0398e9093efedcf"),
    (["--bogus", "fit"], 2, "2135fce6a4ec953636206ea30565edf4da87559a1deb17fcf6f333836cca5387"),
    (["levels", "--bogus"], 2, "7ef2a78cfd27b44286d4f182fa43f65bbd1f75bd66372a5cc9a769e1b0e953c3"),
    (["fit"], 2, "2135fce6a4ec953636206ea30565edf4da87559a1deb17fcf6f333836cca5387"),
    (["epr-map", "--plane", "X-Y"], 2, "6c1029a3560cbfccc5d8a708aed357c858ade3ed53741ca8d69c8c9a3374e5be"),
    (["ordering"], 2, "2e9d2d4487849188c2714220efe4f45a1b8057f374bdeedcaded9b47b4d0dd51"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse words its help and errors per Python version")
@pytest.mark.parametrize("argv, code, digest", SURFACE, ids=[" ".join(argv) or "no-argv" for argv, _, _ in SURFACE])
def test_help_and_usage_errors_are_pinned(argv, code, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        got = main(argv)
    except SystemExit as exc:  # --help exits from inside argparse
        got = exc.code
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert (got, hashlib.sha256(shown.encode()).hexdigest(), silent) == (code, digest, "")
