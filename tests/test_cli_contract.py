"""The CLI contract: every input exits 0, or exits 2 with exactly one JSON
error record on stderr and no output file."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kramers
from kramers import magres
from kramers.cli import main
from kramers.config import MAX_POINTS, ConfigError, check_points, grid, parse_config
from kramers.hamiltonian import RANGES, hamiltonian_batch

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
    # a --B beyond the field_mt row is a bad vector, as every other malformed --B is
    assert _assert_one_record(code, err, "bad-vector" if key == "field" else "bad-value")["key"] == key
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
    # at the table's highest frequency every resonance lies beyond --bmax;
    # above it (1e300 GHz, where every root's 1 / mu overflowed) is a bad value
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(["epr-map", "--freq", "1e5", "--step", "90", "--no-stamp", "--out", "out.csv"])
        assert (code, err) == (0, "")
        assert (tmp_path / "out.csv").read_text() == "angle_deg,field_mt,lower,upper,subsite,moment\n"
        code, _, err = _run(["epr-map", "--freq", "1e300", "--step", "90", "--no-stamp", "--out", "huge.csv"])
    assert _assert_one_record(code, err, "bad-value")["key"] == "freq"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("argv", [
    ["epr-map", "--step", "1e-9"],
    ["epr-map", "--step", "0.1", "--bmax", "1e5"],  # 1,801 angles x 100,002 fields
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
    (["--restarts", "32"], 32 * 21 * 3),   # restarts x points x parameters
    (["--restarts", "2", "--free", "ground,misalignment"], 2 * 21 * 6),
    (["--free", "", "--restarts", "32"], 32 * 21 * 1),   # no free parameter still counts one value per point
    (["--restarts", "64"], 64 * 21 * 3),   # every restart counts, not one chunk of them
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


def test_fit_restarts_without_end_are_too_large(tmp_path, monkeypatch):
    # 1e9 restarts of 21 points would take years: one record, at once
    from test_cli import PINNED_FIT_DATA

    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(PINNED_FIT_DATA)
    start = time.perf_counter()
    code, _, err = _run(["fit", "--data", "data.csv", "--restarts", "1e9"])
    assert _assert_one_record(code, err, "too-large")["key"] == "data"
    assert time.perf_counter() - start < 10.0
    assert os.listdir(tmp_path) == ["data.csv"]


@pytest.mark.parametrize("text", ["-5:5:0.002", "0:150:1", "-4.5:4.5:0.005", "0:0:1", "0:1:0.3", "-1:1:0.7"])
def test_grid_point_count_matches_arange(text):
    g = grid(text, "span", "frequency_ghz")
    assert math.ceil(g.points) == np.arange(g.start, g.stop + 0.5 * g.step, g.step).size


def test_point_cap():
    # the largest default (shb-map: 151 fields x 5001 detunings) stays far below the cap
    check_points("magnitudes,span", 151, grid("-5:5:0.002", "span", "frequency_ghz").points)
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


def _quiet_run(tmp_path, name, argv, files=None):
    """Run argv in its own directory, after writing its input ``files`` {name:
    text} there, with warnings as errors: (code, stdout, stderr, {written file: bytes})."""
    where = tmp_path / name
    where.mkdir()
    files = files or {}
    for file, text in files.items():
        (where / file).write_text(text)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run(argv)
    finally:
        os.chdir(cwd)
    return code, stdout, err, {p.name: p.read_bytes() for p in sorted(where.iterdir()) if p.name not in files}


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


# each rendered a spectrum of lines whose squared distances to the samples
# overflow; the fields, burn and span lie beyond the table
@pytest.mark.parametrize("argv, record", [
    (["absorption", "--B", "1e300,0,0", "--model", "uniform"], ("bad-vector", "field")),
    (["absorption", "--B", "1e300,0,0"], ("bad-vector", "field")),
    (["shb-map", "--magnitudes", "1e300", "--span=-1:1:0.1"], ("bad-range", "magnitudes")),
    (["shb-map", "--magnitudes", "5", "--span=-1:1:0.1", "--burn", "1e300"], ("bad-value", "burn")),
    # the lines lay inside the grid, but the squared distances to its far samples overflowed
    (["shb-map", "--magnitudes", "5", "--span=-1e160:1e160:1e159"], ("bad-range", "span")),
])
def test_lines_beyond_the_table_are_rejected(argv, record, tmp_path):
    code, _, err, written = _quiet_run(tmp_path, "run", [*argv, "--no-stamp", "--out", "out.csv"])
    rejected = _assert_one_record(code, err)
    assert (rejected["code"], rejected["key"]) == record
    assert not written


def _sigma_reproducer(sigma):
    # the 0.339 GHz line is site I's lowest zero-field ODMR line
    return ("kind,state,bx_mt,by_mt,bz_mt,value,sigma\n"
            f"shb,ground,20,0,0,0.9,{sigma}\nshb,ground,30,0,0,1.1,\nodmr,ground,0,0,0,0.339,\n")


# sigmas from 3.74e-155 to about 5e-155 kept (0.5/sigma)^2 finite, but the squared trust radius and
# weighted Jacobian norms overflowed; every one of these lies below the table's least sigma, 1e-9
@pytest.mark.parametrize("sigma", [f"1e-{e}" for e in range(140, 161)]
                         + ["3.7e-155", "4e-155", "5e-155", "1.6e-145", "1.7e-145", "1e-200"])
def test_fit_with_overflowing_weights_is_bad_data(sigma, tmp_path):
    (tmp_path / "data.csv").write_text(_sigma_reproducer(sigma))
    argv = ["fit", "--data", str(tmp_path / "data.csv"), "--free", "ground",
            "--report", "report.txt", "--out", "out.csv"]
    code, _, err, written = _quiet_run(tmp_path, "run", argv)
    assert _assert_one_record(code, err, "bad-data")["key"] == "line 2"
    assert not written


# tiny nonzero A values lie inside the table but make the data barely depend on the orientation: the
# covariance's 1 / s^2 leaves the double range, and so would the squares of the scaled LM step
@pytest.mark.parametrize("values", ["1e-300, 2e-300, 5e-300", "1e-145, 2e-150, 5e-160", "1e-100, 2e-100, 5e-100"])
def test_fit_with_tiny_tensor_values_reports_quietly(values, tmp_path):
    files = {"site.ini": EXPLICIT_SITE.format(fwhm="560").replace("0.484, 1.162, 5.254", values),
             "data.csv": _sigma_reproducer("")}
    argv = ["fit", "--config", "site.ini", "--data", "data.csv", "--restarts", "2", "--report", "report.txt",
            "--out", "out.csv"]
    code, stdout, err, written = _quiet_run(tmp_path, "run", argv, files)
    assert (code, err) == (1, "")
    report = written["report.txt"].decode()
    assert stdout == report and report.startswith("status: fit-failed") and "nan" not in report
    # no principal value is shown rounded to 0
    shown = re.search(r"values \[(.*)\] GHz", report).group(1).split()
    assert len(shown) == 3 and all(float(v) != 0.0 for v in shown), report


# each broke the contract: a traceback, a warning, a NaN file or a 300-digit value
@pytest.mark.parametrize("argv, files, record", [
    (["shb-map", "--magnitudes", "0:20:10", "--span=-1:1:0.01", "--rates", "rates.ini"],
     {"rates.ini": "[rates]\nr12 = 1e300\nduration_s = 1e300\n"}, ("bad-rates", "rates.r12")),
    (["absorption", "--config", "site.ini"], {"site.ini": EXPLICIT_SITE.format(fwhm="1e300")},
     ("bad-value", "site.fwhm_mhz")),
    (["zefoz", "--grid", "2,2", "--config", "site.ini"],
     {"site.ini": EXPLICIT_SITE.format(fwhm="560").replace("0.31, 1.60, 6.53", "0.31, 1.60, 1e300")},
     ("bad-value", "ground.g.values")),
    (["invert", "--lines", "1e300,1e300,1e300,1e300"], {}, ("bad-value", "lines")),
    (["invert", "--lines", "339,823,1162e300"], {}, ("bad-value", "lines")),
    (["invert", "--lines", "2046e160,2385e160,2869e160,3208e160"], {}, ("bad-value", "lines")),
    (["zefoz", "--grid", "1,1", "--radius", "5e-324"], {}, ("bad-value", "radius")),
    (["fit", "--data", "data.csv", "--restarts", "1"],
     {"data.csv": _sigma_reproducer("") + "shb,ground,1e308,10,1e308,150,1e300,1-2\n"}, ("bad-data", "line 5")),
])
def test_file_and_argv_extremes_are_bad_values(argv, files, record, tmp_path):
    code, _, err, written = _quiet_run(tmp_path, "run", [*argv, "--out", "out.csv"], files)
    rejected = _assert_one_record(code, err)
    assert (rejected["code"], rejected["key"]) == record
    assert not written


NARROW = {"fwhm_mhz", "width_mhz", "sigma"}


def _end(side, quantity, k=0):
    """The ``k``-th value of ``quantity`` at a corner of RANGES, as text: every
    value at the low end (``side`` 0) or at the high end (1), or (2) the
    widths and sigmas low and everything else high, the k-th component of a
    vector alternating from high to low."""
    end = side if side < 2 else (k % 2 == 0) != (quantity in NARROW)
    return repr(float(RANGES[quantity][end]))


def _corner_site(side):
    """A site config whose tensors, g_n, magnetons and linewidth sit at a corner of their RANGES rows."""
    tensor = "[{}]\nunit = {}\nvalues = {}\nangles_deg = 72.25, 92.11, 63.92\n"
    a, g = (", ".join(_end(side, q, k) for k in range(3)) for q in ("a_ghz", "g"))
    return "".join([
        f"[site]\ncenter_nm = 981.463\nfwhm_mhz = {_end(side, 'fwhm_mhz')}\n[constants]\n",
        f"mu_b_ghz_per_t = {_end(side, 'magneton_ghz_per_t')}\nmu_n_ghz_per_t = {_end(side, 'magneton_ghz_per_t')}\n",
        f"g_n = {_end(side, 'g')}\n",
        *(tensor.format(f"{state}.a", "GHz", a) + tensor.format(f"{state}.g", "1", g) for state in ("ground", "excited")),
    ])


def _corner_runs(side):
    """(argv, {input file: text}) of every command with each physical
    quantity it reads at a corner of its RANGES row."""
    def v(quantity, k=0):
        return _end(side, quantity, k)

    def vec(quantity, n=3):
        return ",".join(v(quantity, k) for k in range(n))

    site = {"site.ini": _corner_site(side)}
    b = ["--config", "site.ini", "--B", vec("field_mt")]
    # a grid that starts or stops at an end of the frequency row, finer than a tenth of the line width
    low, high = RANGES["frequency_ghz"]
    span = f"{low!r}:{low + 1e-5!r}:1e-8" if float(v("fwhm_mhz")) < 1e-2 else f"{high - 10!r}:{high!r}:10"
    rates = "[rates]\n" + "".join(f"r{k}{l} = {v('rate_per_s')}\n" for k in range(1, 5) for l in range(k + 1, 5))
    rates += f"pump_rate = {v('rate_per_s')}\nduration_s = {v('duration_s')}\n"
    # three points the site itself gives at zero field keep the fit from gating more than half
    levels = np.linalg.eigvalsh(hamiltonian_batch(parse_config(site["site.ini"]).ground, np.zeros((1, 3))))[0]
    sigma = v("sigma")
    data = "kind,state,bx_mt,by_mt,bz_mt,value,sigma,label\n" + "".join(
        f"shb,ground,0,0,0,{float(levels[up] - levels[0])!r},{sigma},1-{up + 1}\n" for up in (1, 2, 3))
    data += (f"shb,ground,{vec('field_mt')},{v('frequency_ghz')},{sigma},\n"
             f"odmr,ground,0,0,0,{v('frequency_ghz', 1)},{sigma},\nepr,ground,1,0,0,{v('sweep_mt')},{sigma},\n")
    return [
        (["levels", *b], site),
        (["levels", "--config", "site.ini", "--field", "D1", "--magnitude", v("field_mt")], site),
        (["transitions", *b], site),
        (["odmr", *b], site),
        (["absorption", *b, f"--range={span}", "--peaks-out", "peaks.csv"], site),
        (["shb-map", "--config", "site.ini", "--magnitudes", v("field_mt"), "--burn", v("frequency_ghz"),
          f"--span={span}", "--width", v("width_mhz"), "--rates", "rates.ini"], {**site, "rates.ini": rates}),
        (["epr-map", "--config", "site.ini", "--step", "90", "--freq", v("microwave_ghz"), "--bmax", v("sweep_mt")],
         site),
        (["fit", "--config", "site.ini", "--data", "data.csv", "--restarts", "1", "--freq", v("microwave_ghz")],
         {**site, "data.csv": data}),
        (["invert", "--config", "site.ini", "--lines", vec("line_mhz")], site),
        (["ordering", "--config", "site.ini", "--peaks", vec("frequency_ghz", 4)], site),
        (["zefoz", "--config", "site.ini", "--radius", v("radius_mt"), "--grid", "4,3"], site),
    ]


CORNER_RUNS = ["levels", "levels-magnitude", "transitions", "odmr", "absorption", "shb-map", "epr-map", "fit",
               "invert", "ordering", "zefoz"]


@pytest.mark.parametrize("side", [0, 1, 2], ids=["low", "high", "mixed"])
@pytest.mark.parametrize("run", range(len(CORNER_RUNS)), ids=CORNER_RUNS)
def test_every_command_runs_quietly_at_the_table_corners(side, run, tmp_path):
    # the derivation of RANGES, executed: at the corners of the table nothing overflows
    argv, files = _corner_runs(side)[run]
    code, stdout, err, written = _quiet_run(tmp_path, "run", [*argv, "--out", "out.csv"], files)
    assert (code, err) == (0, ""), (argv, stdout)
    outputs = {name: data.decode() for name, data in written.items() if name.endswith((".csv", ".txt"))}
    assert "out.csv" in outputs
    for name, text in outputs.items():
        assert not _non_finite_cells(text) if name.endswith(".csv") else "nan" not in text, (argv, name, text)


# --- generated argv ---------------------------------------------------------

BAD = ["nan", "inf", "-1", "0", "abc", ""]
BAD_GRIDS = ["1:-1:0.01", "-1:1", "-1:1:0", "1:2:3:4", "0:1:nan", ":"]
# finite values at the ends of the doubles
EXTREME = ["1e300", "1e308", "1e-300", "5e-324"]
EXTREME_GRIDS = [g for x in EXTREME for g in (f"0:{x}:{x}", f"-{x}:{x}:{x}", f"{x}:{x}:1")]


def _values(*good, bad=BAD):
    """Two draws in three from the valid values, so that valid runs are common."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


def _grids(*good):
    return _values(*good, *EXTREME_GRIDS, bad=BAD + BAD_GRIDS)


def _csv_file(header, rows, min_size, max_size):
    """The text of a CSV file: ``header`` and ``min_size`` to ``max_size`` drawn rows."""
    return st.lists(rows, min_size=min_size, max_size=max_size).map(lambda r: "\n".join([header, *r]) + "\n")


# directions whose norm overflows or underflows, and magnitudes at the ends of the doubles
FIELD = {"--state": st.sampled_from(["ground", "excited"]),
         "--field": _values("0", "D1", "b", "10,0,5", "0,0,0", "1e200,1e200,0", "1e-300,0,0",
                            bad=["1,2", "1,nan,2", *BAD]),
         "--magnitude": _values("5", "0.5", "1e300", "5e-324")}

PEAKS_FILE = _csv_file("detuning_ghz", st.sampled_from(["-1.2", "0.3", "2.5", "-3", "4.1", *EXTREME, "-1e300", "nan"]),
                       3, 6)
# three ordinary points (enough for the three ground angles), then rows whose
# fields, values and sigmas reach the ends of the doubles
FIT_ROWS = ["shb,ground,20,0,0,0.9,", "shb,ground,30,0,0,1.1,", "odmr,ground,0,0,0,0.339,"]
FIT_NUMBERS = ["0", "10", "-10", *EXTREME, "-1e300"]
FIT_ROW = st.tuples(st.sampled_from(["shb", "odmr", "epr"]), st.just("ground"),
                    *[st.sampled_from(FIT_NUMBERS)] * 3,
                    st.sampled_from(["0.9", "150", *EXTREME]), st.sampled_from(["", "0.002", *EXTREME]),
                    st.sampled_from(["", "1-2"])).map(",".join)
FIT_DATA = _csv_file("\n".join(["kind,state,bx_mt,by_mt,bz_mt,value,sigma,label", *FIT_ROWS]), FIT_ROW, 1, 2)

# command -> (required options, optional options); a strategy of a tuple
# (file name, text) writes that file and passes its name
COMMANDS = {
    "levels": ({}, FIELD),
    "transitions": ({}, FIELD),
    "odmr": ({}, FIELD),
    "absorption": ({}, {"--field": FIELD["--field"],
                        "--range": _grids("-1:1:0.01", "0:0.5:0.05"),
                        "--model": st.sampled_from(["uniform", "overlap"]),
                        "--prominence": _values("0.05", "0.5", *EXTREME),
                        "--peaks-out": st.just("peaks.csv")}),
    "shb-map": ({"--magnitudes": _values("0:20:10", "0,5", "5", *EXTREME, *EXTREME_GRIDS,
                                         bad=["5,0", *BAD, *BAD_GRIDS]),
                 "--span": _grids("-0.5:0.5:0.05", "0:0.2:0.1")},
                {"--direction": _values("D1", "b", "1,1,0", bad=["0,0,0", *BAD]),
                 "--burn": _values("0.1", *EXTREME),
                 "--width": _values("50", *EXTREME)}),
    "epr-map": ({"--step": _values("60", "90"), "--bmax": _values("200", "50", *EXTREME)},
                {"--state": st.sampled_from(["ground", "excited"]),
                 "--plane": st.sampled_from(["D1-D2", "b-D1"]),
                 "--freq": _values("9.7", "5", *EXTREME)}),
    "zefoz": ({"--grid": _values("1,1", "2,1", "1,2", bad=["8", "0,0", "a,b", "1,-1", *BAD,
                                                           *(f"{x},1" for x in EXTREME)])},
              {"--transition": _values("1,2", "2,3", "0,5", "2,1", "1"),
               "--radius": _values("5", "20", *EXTREME),
               "--refine-tol": _values("1e-3")}),
    "invert": ({"--lines": _values("2046,2385,2869,3208", "339,823,1162", "1,2,,3", "1e300,1e300,1e300,1e300",
                                   "339,823,1162e300", "2046e160,2385e160,2869e160,3208e160")}, {}),
    "ordering": ({"--peaks-file": st.tuples(st.just("in-peaks.csv"), PEAKS_FILE)}, {}),
    "fit": ({"--data": st.tuples(st.just("in-data.csv"), FIT_DATA), "--restarts": _values("1", "2")},
            {"--free": st.just("ground")}),
}


@st.composite
def _argv(draw):
    """(argv, {input file name: text})."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    argv, files = [command, "--out", "out.csv"], {}
    for name, value in options.items():
        if isinstance(value, tuple):
            value, files[value] = value
        # both spellings: "--opt=value", and "--opt value" where a value that
        # starts with "-" may be read as an option name (a usage error)
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv, files


def _non_finite_cells(text):
    """The cells of a written CSV that read nan or inf, but for the ``model``
    of a fit's EPR row, which reads nan when no resonance is in reach."""
    rows = [r.split(",") for r in text.splitlines() if r and not r.startswith("#")]
    header = rows[0] if rows else []
    skip = header.index("model") if "kind" in header else None
    return [c for row in rows[1:] for n, c in enumerate(row)
            if c.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")
            and not (n == skip and row[header.index("kind")] == "epr")]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_argv())
def test_generated_argv_contract(drawn):
    argv, files = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, stdout, err = _run(argv)
            written = {name: open(name).read() for name in os.listdir(tmp)
                       if name.endswith(".csv") and name not in files}
        finally:
            os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, files, code, err)
    if code == 2:
        _assert_one_record(code, err)
        assert not written
    else:
        assert err == "", (argv, files, err)
        assert written
        for name, text in written.items():
            assert not _non_finite_cells(text), (argv, files, name)
        # nor a value printed with hundreds of digits
        assert not re.search(r"\d{40}", stdout + "".join(written.values())), (argv, files, stdout)
