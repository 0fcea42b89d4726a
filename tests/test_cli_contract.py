"""The CLI contract: every input exits 0, or exits 2 with exactly one JSON
error record on stderr and no output file."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kramers
from kramers import magres
from kramers.cli import main
from kramers.config import MAX_POINTS, ConfigError, check_points, grid

EXPLICIT_SITE = """
[site]
center_nm = 981.463
fwhm_mhz = {fwhm}

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

INPUTS = {
    "mu_b_nan.ini": "[site]\npreset = site-I\n[constants]\nmu_b_ghz_per_t = nan\n",
    "ordering.ini": "[site]\npreset = site-I\nordering_ground = 1.9\n",
    "fwhm_nan.ini": EXPLICIT_SITE.format(fwhm="nan"),
    "rates_nan.ini": "[rates]\nr12 = nan\nr34 = 1000\n",
    "two_points.csv": "kind,state,bx_mt,by_mt,bz_mt,value,sigma\nshb,ground,10,0,0,0.9,\nshb,ground,20,0,0,1.1,\n",
    "epr_negative.csv": "kind,state,bx_mt,by_mt,bz_mt,value,sigma\n"
                        + "".join(f"shb,ground,{b},0,0,0.9,\n" for b in (10, 20, 30)) + "epr,ground,1,0,0,-100,\n",
    "epr_no_direction.csv": "kind,state,bx_mt,by_mt,bz_mt,value,sigma\n"
                            + "".join(f"shb,ground,{b},0,0,0.9,\n" for b in (10, 20, 30)) + "epr,ground,0,0,0,300,\n",
}
NOT_UTF8 = b"\xff\xfe[site]\npreset = site-I\n"  # a UTF-16 byte-order mark


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_one_record(code, err, expected=None):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    record = json.loads(lines[0])
    assert set(record) == {"code", "message", "key"}
    if expected is not None:
        assert record["code"] == expected, record
    return record


# Each of these exited 0 with a NaN or meaningless output, crashed with a
# traceback, or exited 2 under the catch-all "error" code with a raw
# numpy/Python message.
DEFECTS = [
    (["shb-map", "--span=-1:1:0"], "bad-range"),
    (["absorption", "--range=-1:1:0"], "bad-range"),
    (["shb-map", "--span=1:-1:0.01"], "bad-range"),
    (["shb-map", "--span=-1:1"], "bad-range"),
    (["zefoz", "--grid", "8"], "bad-value"),
    (["zefoz", "--grid", "a,b"], "bad-value"),
    (["levels", "--B", "nan,0,0"], "bad-vector"),
    (["levels", "--config", "mu_b_nan.ini"], "bad-value"),
    (["shb-map", "--width", "nan"], "bad-value"),
    (["shb-map", "--magnitudes", "0:20:10", "--span=-1:1:0.01", "--rates", "rates_nan.ini"], "bad-rates"),
    (["absorption", "--config", "fwhm_nan.ini"], "bad-value"),
    (["shb-map", "--burn", "nan"], "bad-value"),
    (["shb-map", "--width", "-5"], "bad-value"),
    (["epr-map", "--freq", "nan"], "bad-value"),
    (["zefoz", "--radius", "nan"], "bad-value"),
    (["zefoz", "--radius", "-5"], "bad-value"),
    (["zefoz", "--grid", "0,0"], "bad-value"),
    (["absorption", "--prominence", "nan", "--peaks-out", "peaks.csv"], "bad-value"),
    (["levels", "--config", "ordering.ini"], "bad-value"),
    (["shb-map", "--magnitudes", "20,10"], "bad-range"),
    (["shb-map", "--span=-5:5:1e-9"], "too-large"),
    (["absorption", "--range=-5:5:1e-8"], "too-large"),
    (["zefoz", "--grid", "100000,1000"], "too-large"),
    (["levels", "--site", "XL"], "unknown-preset"),
    (["fit", "--data", "data.csv", "--restarts", "0"], "bad-value"),
    (["fit", "--data", "missing.csv"], "io-error"),
    (["levels", "--config", "missing.ini"], "io-error"),
    (["shb-map", "--rates", "missing.ini"], "io-error"),
    (["ordering", "--peaks-file", "missing.csv"], "io-error"),
    (["ordering", "--peaks", "1,2,3"], "too-few-peaks"),
    (["absorption", "--range=0:1:0.5"], "bad-range"),
    (["levels", "--config", "undecodable.ini"], "bad-encoding"),
    (["shb-map", "--magnitudes", "0:20:10", "--span=-1:1:0.01", "--rates", "undecodable.ini"], "bad-encoding"),
    (["fit", "--data", "undecodable.csv"], "bad-encoding"),
    (["ordering", "--peaks-file", "undecodable.csv"], "bad-encoding"),
    (["fit", "--data", "epr_negative.csv"], "bad-data"),
    (["fit", "--data", "epr_no_direction.csv"], "bad-data"),
    (["fit", "--data", "two_points.csv", "--free", "ground"], "bad-data"),  # 2 points, 3 parameters
    (["fit", "--data", "data.csv"], "bad-data"),  # a header and no points
    (["levels", "--field", "0,0,0", "--magnitude", "5"], "bad-vector"),
    (["shb-map", "--direction", "0,0,0"], "bad-vector"),
    (["shb-map", "--direction", "nan,0,0"], "bad-vector"),
    (["odmr", "--ac-axis", "inf,0,0"], "bad-vector"),
    (["transitions", "--field", "1,inf,0", "--magnitude", "2"], "bad-vector"),
]


@pytest.mark.parametrize("argv,expected", DEFECTS, ids=[" ".join(a) for a, _ in DEFECTS])
def test_defect_exits_2_with_one_record(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    for name in ("undecodable.ini", "undecodable.csv"):
        (tmp_path / name).write_bytes(NOT_UTF8)
    (tmp_path / "data.csv").write_text("kind,state,bx_mt,by_mt,bz_mt,value,sigma\n")
    before = set(os.listdir(tmp_path))
    code, _, err = _run([*argv, "--out", "out.csv"])
    record = _assert_one_record(code, err, expected)
    if expected == "io-error":
        assert record["key"].startswith("missing.")
    if expected == "bad-encoding":
        assert record["key"].startswith("undecodable.")
    if argv[0] == "absorption" and expected == "bad-range":
        assert record["key"] == "range"
    if expected == "bad-data":
        assert record["key"] == ("data" if argv[2] in ("two_points.csv", "data.csv") else "line 5")
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv,key", [
    # the squared half-width underflows to 0 (a 0/0 line) or overflows
    (["shb-map", "--magnitudes", "0:1:1", "--width", "1e-300", "--span=-0.01:0.01:0.002"], "width"),
    (["shb-map", "--magnitudes", "0:1:1", "--width", "1e300", "--span=-0.01:0.01:0.002"], "width"),
    # the offset fit's residuals overflow: rms inf
    (["ordering", "--peaks", "1e308,-1e308,0,1"], "peaks"),
    (["zefoz", "--radius", "1e300"], "radius"),
    # the lines in MHz overflow, or the Hamiltonian itself does
    (["odmr", "--B", "1e307,0,0"], "field"),
    (["odmr", "--field", "D1", "--magnitude", "1e307"], "magnitude"),
    (["levels", "--B", "1e308,0,0"], "field"),
    (["transitions", "--B", "1e308,0,0"], "field"),
    (["odmr", "--B", "1e308,0,0"], "field"),
    (["levels", "--field", "D1", "--magnitude", "1e308"], "magnitude"),
    (["transitions", "--field", "D1", "--magnitude", "1e308"], "magnitude"),
    (["odmr", "--field", "D1", "--magnitude", "1e308"], "magnitude"),
    # printed in MHz, the lines overflow: the CSV in GHz would be finite
    (["transitions", "--B", "1e307,0,0"], "field"),
    (["transitions", "--field", "D1", "--magnitude", "1e307"], "magnitude"),
])
def test_non_finite_arithmetic_is_bad_value(argv, key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run([*argv, "--out", "out.csv"])
    assert _assert_one_record(code, err, "bad-value")["key"] == key
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("radius", ["1e12", "1e300"])
def test_zefoz_at_a_huge_radius_ends(radius, tmp_path):
    # a fresh interpreter, so that a descent that never ends fails on the timeout
    src = str(Path(kramers.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kramers.cli", "zefoz", "--radius", radius, "--out", "z.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        assert proc.stderr == ""
        assert "nan" not in (tmp_path / "z.csv").read_text().lower()
    else:
        _assert_one_record(proc.returncode, proc.stderr)
        assert not (tmp_path / "z.csv").exists()


def test_epr_map_at_a_huge_frequency_finds_nothing_quietly(tmp_path, monkeypatch):
    # every root's 1 / mu overflows to an infinite field, beyond --bmax
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(["epr-map", "--freq", "1e300", "--step", "90", "--no-stamp", "--out", "out.csv"])
    assert (code, err) == (0, "")
    assert (tmp_path / "out.csv").read_text() == "angle_deg,field_mt,lower,upper,subsite,moment\n"


@pytest.mark.parametrize("argv", [
    ["epr-map", "--step", "1e-9"],
    ["epr-map", "--bmax", "1e12"],
])
def test_epr_map_size_cap_rejects_before_allocating(argv, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("epr_angular_map ran past the size cap")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(magres, "epr_angular_map", never)
    code, _, err = _run(argv)
    _assert_one_record(code, err, "too-large")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, samples", [
    (["--restarts", "64"], 32 * 21 * 3),   # a restart chunk's Jacobian: restarts x points x parameters
    (["--restarts", "2", "--free", "ground,misalignment"], 2 * 21 * 6),
    (["--free", ""], 32 * 21 * 1),   # no free parameter still counts one value per point
])
def test_fit_size_cap_rejects_before_fitting(argv, samples, tmp_path, monkeypatch):
    from kramers import config, fitting
    from test_cli import PINNED_FIT_DATA

    class Fitted(Exception):
        pass

    def reached(*args, **kwargs):
        raise Fitted

    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(PINNED_FIT_DATA)
    monkeypatch.setattr(fitting, "fit", reached)
    monkeypatch.setattr(config, "MAX_POINTS", samples - 1)
    code, _, err = _run(["fit", "--data", "data.csv", *argv])
    assert _assert_one_record(code, err, "too-large")["key"] == "data"
    assert os.listdir(tmp_path) == ["data.csv"]
    monkeypatch.setattr(config, "MAX_POINTS", samples)  # at the cap the fit runs
    with pytest.raises(Fitted):
        _run(["fit", "--data", "data.csv", *argv])


@pytest.mark.parametrize("text", ["-5:5:0.002", "0:150:1", "-4.5:4.5:0.005", "0:0:1", "0:1:0.3", "-1:1:0.7"])
def test_grid_point_count_matches_arange(text):
    g = grid(text, "span")
    assert math.ceil(g.points) == np.arange(g.start, g.stop + 0.5 * g.step, g.step).size


def test_point_cap():
    # the largest default (shb-map: 151 fields x 5001 detunings) stays far below the cap
    check_points("magnitudes,span", 151, grid("-5:5:0.002", "span").points)
    for counts in ((MAX_POINTS + 1,), (180.0 / 1e-300, 1e308), (1e5, 1e3)):
        with pytest.raises(ConfigError) as err:
            check_points("step,bmax", *counts)
        assert err.value.code == "too-large"


def test_readme_pipeline_hint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["absorption", "--site", "I", "--range=-4.5:4.5:0.005", "--peaks-out", "peaks.csv"])
    assert code == 0
    code, _, err = _run(["ordering", "--site", "I", "--peaks-file", "peaks.csv"])
    record = _assert_one_record(code, err, "too-few-peaks")
    assert "1 peak" in record["message"] and "--model uniform" in record["message"]
    assert not (tmp_path / "ordering.csv").exists()

    code, _, _ = _run(["absorption", "--site", "I", "--range=-4.5:4.5:0.005", "--model", "uniform",
                       "--peaks-out", "peaks.csv"])
    assert code == 0
    code, stdout, _ = _run(["ordering", "--site", "I", "--peaks-file", "peaks.csv"])
    assert code == 0
    assert "best ordering" in stdout


def _quiet_run(tmp_path, name, argv):
    """Run argv in its own directory with warnings as errors: (code, stdout, stderr, {file: bytes})."""
    where = tmp_path / name
    where.mkdir()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run(argv)
    finally:
        os.chdir(cwd)
    return code, stdout, err, {p.name: p.read_bytes() for p in sorted(where.iterdir())}


SHB_SMALL = ["shb-map", "--magnitudes", "0:60:20", "--span=-1:1:0.01"]


# a direction whose norm overflows or underflows writes the bytes of its ordinary twin
@pytest.mark.parametrize("extreme, twin", [("1e200,1e200,0", "1,1,0"), ("1e-200,0,0", "1,0,0")])
@pytest.mark.parametrize("argv", [
    ["levels", "--magnitude", "5", "--field"],
    ["transitions", "--magnitude", "40", "--field"],
    ["odmr", "--magnitude", "40", "--field"],
    [*SHB_SMALL, "--direction"],
    ["odmr", "--ac-axis"],
], ids=["levels", "transitions", "odmr-field", "shb-map", "odmr-ac-axis"])
def test_extreme_direction_writes_its_twin(argv, extreme, twin, tmp_path):
    runs = [_quiet_run(tmp_path, name, [*argv, value, "--no-stamp", "--out", "out.csv"])
            for name, value in (("extreme", extreme), ("twin", twin))]
    assert [(code, err) for code, _, err, _ in runs] == [(0, ""), (0, "")]
    assert runs[0][1:] == runs[1][1:]


# each printed "overflow encountered in square" from the Lorentzian line
# shape; the bytes are those written before that was mended
@pytest.mark.parametrize("argv, hashes", [
    (["absorption", "--B", "1e300,0,0", "--model", "uniform"],
     {"out.csv": "ebcf8b9b93dcf531803e79d09dc276b6ece2f017a2036e2de08b00f12f9d2c09"}),
    (["absorption", "--B", "1e300,0,0"],
     {"out.csv": "ebcf8b9b93dcf531803e79d09dc276b6ece2f017a2036e2de08b00f12f9d2c09"}),
    (["shb-map", "--magnitudes", "1e300", "--span=-1:1:0.1"],
     {"out.csv": "f380c9a5789238e37104b69df17428446bc154cc24cbf68ea4f2937f717692bf",
      "out.pgm": "5d94e6c2c7a8dbb31002d718cf8552edba4686b48ecd573bb843f86a1f4b2e5f"}),
    (["shb-map", "--magnitudes", "5", "--span=-1:1:0.1", "--burn", "1e300"],
     {"out.csv": "1859463be18b5bd7aa6bdb6303a129ab681b2dee27163438c206c09508335210",
      "out.pgm": "5d94e6c2c7a8dbb31002d718cf8552edba4686b48ecd573bb843f86a1f4b2e5f"}),
    # the lines lie inside the grid, but the squared distances to its far samples overflow
    (["shb-map", "--magnitudes", "5", "--span=-1e160:1e160:1e159"],
     {"out.csv": "91a1a119687d08790559136039cd13a1418a835facf4c6871c597d9f442b4907",
      "out.pgm": "9b0289e93c3740f8c2e81671f4213bcccd23fecf92df22c9a8a38b7fa3607f2c"}),
])
def test_lines_beyond_overflow_render_quietly(argv, hashes, tmp_path):
    code, _, err, written = _quiet_run(tmp_path, "run", [*argv, "--no-stamp", "--out", "out.csv"])
    assert (code, err) == (0, "")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == hashes


def _sigma_reproducer(sigma):
    # the 0.339 GHz line is site I's lowest zero-field ODMR line
    return ("kind,state,bx_mt,by_mt,bz_mt,value,sigma\n"
            f"shb,ground,20,0,0,0.9,{sigma}\nshb,ground,30,0,0,1.1,\nodmr,ground,0,0,0,0.339,\n")


# sigmas from 3.74e-155 to about 5e-155 keep (0.5/sigma)^2 finite, but the squared trust radius and
# weighted Jacobian norms overflow; 1.7e-145 is just above the bound with its headroom
@pytest.mark.parametrize("sigma", [f"1e-{e}" for e in range(140, 161)]
                         + ["3.7e-155", "4e-155", "5e-155", "1.6e-145", "1.7e-145", "1e-200"])
def test_fit_with_overflowing_weights_is_bad_data(sigma, tmp_path):
    (tmp_path / "data.csv").write_text(_sigma_reproducer(sigma))
    argv = ["fit", "--data", str(tmp_path / "data.csv"), "--free", "ground",
            "--report", "report.txt", "--out", "out.csv"]
    code, _, err, written = _quiet_run(tmp_path, "run", argv)
    if code == 2:
        assert _assert_one_record(code, err, "bad-data")["key"] == "data"
        assert not written
    else:
        assert (code, err) == (0, "")
        assert b"nan" not in written["report.txt"]


# --- generated argv ---------------------------------------------------------

BAD = ["nan", "inf", "-1", "0", "abc", ""]
BAD_GRIDS = ["1:-1:0.01", "-1:1", "-1:1:0", "1:2:3:4", "0:1:nan", ":"]


def _values(*good, bad=BAD):
    """Two draws in three from the valid values, so that valid runs are common."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


def _grids(*good):
    return _values(*good, bad=BAD + BAD_GRIDS)


# directions whose norm overflows or underflows, and magnitudes at the ends of the doubles
FIELD = {"--state": st.sampled_from(["ground", "excited"]),
         "--field": _values("0", "D1", "b", "10,0,5", "0,0,0", "1e200,1e200,0", "1e-300,0,0",
                            bad=["1,2", "1,nan,2", *BAD]),
         "--magnitude": _values("5", "0.5", "1e300", "5e-324")}

# command -> (required options, optional options)
COMMANDS = {
    "levels": ({}, FIELD),
    "transitions": ({}, FIELD),
    "odmr": ({}, FIELD),
    "absorption": ({}, {"--field": FIELD["--field"],
                        "--range": _grids("-1:1:0.01", "0:0.5:0.05"),
                        "--model": st.sampled_from(["uniform", "overlap"]),
                        "--prominence": _values("0.05", "0.5"),
                        "--peaks-out": st.just("peaks.csv")}),
    "shb-map": ({"--magnitudes": _values("0:20:10", "0,5", "5", bad=["5,0", *BAD, *BAD_GRIDS]),
                 "--span": _grids("-0.5:0.5:0.05", "0:0.2:0.1")},
                {"--direction": _values("D1", "b", "1,1,0", bad=["0,0,0", *BAD]),
                 "--burn": _values("0.1"),
                 "--width": _values("50")}),
    "epr-map": ({"--step": _values("60", "90"), "--bmax": _values("200", "50")},
                {"--state": st.sampled_from(["ground", "excited"]),
                 "--plane": st.sampled_from(["D1-D2", "b-D1"]),
                 "--freq": _values("9.7", "5")}),
    "zefoz": ({"--grid": _values("1,1", "2,1", "1,2", bad=["8", "0,0", "a,b", "1,-1", *BAD])},
              {"--transition": _values("1,2", "2,3", "0,5", "2,1", "1"),
               "--radius": _values("5", "20"),
               "--refine-tol": _values("1e-3")}),
    "invert": ({"--lines": _values("2046,2385,2869,3208", "339,823,1162", "1,2,,3")}, {}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    argv = [command, "--out", "out.csv"]
    for name, value in options.items():
        # both spellings: "--opt=value", and "--opt value" where a value that
        # starts with "-" may be read as an option name (a usage error)
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_argv())
def test_generated_argv_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = _run(argv)
            written = {name: open(name).read() for name in os.listdir(tmp) if name.endswith(".csv")}
        finally:
            os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        _assert_one_record(code, err)
        assert not written
    else:
        assert err == "", (argv, err)
        assert written
        for name, text in written.items():
            assert "nan" not in text.lower(), (argv, name)
            cells = text.replace("\n", ",").split(",")
            assert not any(c.strip().lower().lstrip("+-") in ("inf", "infinity") for c in cells), (argv, name)
