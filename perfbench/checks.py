"""Output checks for each kind of CLI step, with their reference extractors.

Every check compares observables (fields, frequencies, amplitudes, exit
status, report lines), never parameter names or Euler values, so a change
of parameterisation in the program does not trip them.  ``extract`` builds
the compact reference from a trusted run; ``check`` returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

EPR_FIELD_TOL_MT = 2e-3
SHB_AMPLITUDE_RTOL = 1e-8  # of the map's peak |amplitude|
PGM_GREY_TOL = 1
FIT_RMS_RATIO_MAX = 1.1
# the measured site-I zero-field spin resonances (MHz)
ZERO_FIELD_LINES_MHZ = (339.0, 823.0, 2046.0, 2385.0, 2869.0, 3208.0)
LINE_TOL_MHZ = 1e-3
FREQ_TOL_GHZ = 1e-6
ZEFOZ_ORIGIN_TOL_MT = 1e-3


class Output:
    """What one CLI step left behind: its output directory and its stdout."""

    def __init__(self, directory: Path, stdout: str = ""):
        self.dir = Path(directory)
        self.stdout = stdout

    def path(self, name: str) -> Path:
        return self.dir / name


def digest(path: Path) -> str:
    """sha256 of a CSV or PGM output, ignoring '#' comment (version) lines."""
    data = Path(path).read_bytes()
    if data.startswith(b"P5\n"):
        header, pixels = _split_pgm(data)
        return hashlib.sha256(repr(header).encode() + pixels).hexdigest()
    kept = b"\n".join(line for line in data.split(b"\n") if not line.startswith(b"#"))
    return hashlib.sha256(kept).hexdigest()


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV, comment lines skipped."""
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    if not lines:
        raise ValueError(f"{Path(path).name}: empty")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def _columns(path: Path, names) -> np.ndarray:
    header, rows = read_table(path)
    idx = [header.index(n) for n in names]
    return np.array([[float(r[k]) for k in idx] for r in rows], dtype=float).reshape(len(rows), len(idx))


def _split_pgm(data: bytes) -> tuple[tuple[int, int, int], bytes]:
    """((width, height, maxval), pixel bytes) of a binary PGM."""
    fields, pos = [], 0
    while len(fields) < 4:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if not line.startswith(b"#"):
            fields += line.split()
    width, height, maxval = (int(x) for x in fields[1:4])
    return (width, height, maxval), data[pos:]


def read_pgm(path: Path) -> np.ndarray:
    (width, height, _), pixels = _split_pgm(Path(path).read_bytes())
    if len(pixels) != width * height:
        raise ValueError(f"{Path(path).name}: {len(pixels)} pixels for {width}x{height}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def _problems_on_error(fn):
    """A check that cannot even parse its output reports that as a problem."""
    def guarded(*args):
        try:
            return fn(*args)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"{fn.__name__}: unreadable output ({type(exc).__name__}: {exc})"]
    guarded.__name__ = fn.__name__
    return guarded


# --- epr-map: resonance fields per angle -----------------------------------

def _epr_by_angle(out: Output) -> dict[str, list[float]]:
    table = _columns(out.path("epr-map.csv"), ["angle_deg", "field_mt"])
    by_angle: dict[str, list[float]] = {}
    for angle, field in table:
        by_angle.setdefault(f"{angle:g}", []).append(float(field))
    return {a: sorted(f) for a, f in by_angle.items()}


def extract_epr(out: Output) -> dict:
    return {"angles": _epr_by_angle(out)}


@_problems_on_error
def check_epr(out: Output, ref: dict) -> list[str]:
    got, want = _epr_by_angle(out), ref["angles"]
    problems = []
    for angle in sorted(set(got) | set(want), key=float):
        g, w = got.get(angle, []), want.get(angle, [])
        if len(g) != len(w):
            problems.append(f"epr angle {angle}: {len(g)} resonances, reference {len(w)}")
        elif w and np.max(np.abs(np.subtract(g, w))) > EPR_FIELD_TOL_MT:
            problems.append(f"epr angle {angle}: field off by {np.max(np.abs(np.subtract(g, w))):.3g} mT")
    return problems


# --- shb-map: subsampled amplitudes and heatmap -----------------------------

def _shb_rows(path: Path) -> list[bytes]:
    lines = [l for l in Path(path).read_bytes().split(b"\n") if l and not l.startswith(b"#")]
    return lines[1:]


def extract_shb(out: Output, row_step: int, col_step: int) -> dict:
    rows = _shb_rows(out.path("shb-map.csv"))
    pgm = read_pgm(out.path("shb-map.pgm"))
    n_fields, n_det = pgm.shape
    fields = np.arange(0, n_fields, row_step)
    dets = np.arange(0, n_det, col_step)
    amps = np.array([float(l.rsplit(b",", 1)[1]) for l in rows])
    grid = amps.reshape(n_fields, n_det)
    return {
        "shape": [int(n_fields), int(n_det)],
        "row_step": row_step,
        "col_step": col_step,
        "peak": float(np.abs(amps).max()),
        "fields_mt": [float(rows[k * n_det].split(b",")[0]) for k in fields],
        "amplitudes": grid[np.ix_(fields, dets)].tolist(),
        "pixels": pgm[np.ix_(fields, dets)].tobytes().hex(),
    }


@_problems_on_error
def check_shb(out: Output, ref: dict) -> list[str]:
    n_fields, n_det = ref["shape"]
    rows = _shb_rows(out.path("shb-map.csv"))
    if len(rows) != n_fields * n_det:
        return [f"shb-map.csv: {len(rows)} rows, reference {n_fields * n_det}"]
    fields = np.arange(0, n_fields, ref["row_step"])
    dets = np.arange(0, n_det, ref["col_step"])
    got = np.array([[float(rows[f * n_det + d].rsplit(b",", 1)[1]) for d in dets] for f in fields])
    problems = []
    err = np.abs(got - np.asarray(ref["amplitudes"])).max()
    if not err <= SHB_AMPLITUDE_RTOL * ref["peak"]:
        problems.append(f"shb amplitudes off by {err:.3g} (limit {SHB_AMPLITUDE_RTOL * ref['peak']:.3g})")
    coords = np.array([float(rows[f * n_det].split(b",")[0]) for f in fields])
    if not np.allclose(coords, ref["fields_mt"], rtol=0, atol=1e-9):
        problems.append("shb-map.csv: field column differs from the reference grid")
    pgm = read_pgm(out.path("shb-map.pgm"))
    if pgm.shape != (n_fields, n_det):
        problems.append(f"shb-map.pgm: shape {pgm.shape}, reference {(n_fields, n_det)}")
    else:
        want = np.frombuffer(bytes.fromhex(ref["pixels"]), dtype=np.uint8).reshape(len(fields), len(dets))
        grey = np.abs(pgm[np.ix_(fields, dets)].astype(int) - want.astype(int)).max()
        if grey > PGM_GREY_TOL:
            problems.append(f"shb-map.pgm: grey levels off by {grey}")
    return problems


# --- fit: report lines -------------------------------------------------------

def parse_fit_report(text: str) -> dict:
    status = re.search(r"^status: (\S+)", text, re.M)
    rms = re.search(r"^rms: ([0-9.eE+-]+) MHz", text, re.M)
    restarts = re.search(r"over (\d+) restarts", text)
    return {
        "status": status.group(1) if status else None,
        "rms_mhz": float(rms.group(1)) if rms else float("nan"),
        "restarts": int(restarts.group(1)) if restarts else 0,
    }


def check_fit(out: Output, restarts: int, noise_mhz: float) -> tuple[list[str], int, float]:
    """(problems, restarts missing from the report, best RMS / noise sigma).

    Missing restarts are failed operations of their own, so they are
    returned as a count and not listed among the problems."""
    report = parse_fit_report(out.stdout)
    ratio = report["rms_mhz"] / noise_mhz
    problems = []
    if report["status"] != "ok":
        problems.append(f"fit status {report['status']!r}, expected 'ok'")
    if not ratio <= FIT_RMS_RATIO_MAX:
        problems.append(f"fit_rms_ratio {ratio:.4g} > {FIT_RMS_RATIO_MAX}")
    return problems, max(0, restarts - report["restarts"]), ratio


# --- site-survey steps --------------------------------------------------------

@_problems_on_error
def check_levels(out: Output, _ref=None) -> list[str]:
    e = _columns(out.path("levels.csv"), ["energy_ghz"]).ravel()
    lines = np.sort([(e[j] - e[i]) * 1e3 for i in range(4) for j in range(i + 1, 4)])
    err = np.abs(lines - np.asarray(ZERO_FIELD_LINES_MHZ)).max() if lines.size == 6 else np.inf
    return [] if err <= LINE_TOL_MHZ else [f"zero-field lines from levels off by {err:.3g} MHz"]


def _table_checker(filename: str, columns, tol: float):
    """(extract, check) comparing numeric columns of a small CSV within tol."""
    def extract(out: Output) -> dict:
        return {"values": _columns(out.path(filename), columns).tolist()}

    @_problems_on_error
    def check(out: Output, ref: dict) -> list[str]:
        got = _columns(out.path(filename), columns)
        want = np.asarray(ref["values"], dtype=float).reshape(-1, len(columns))
        if got.shape != want.shape:
            return [f"{filename}: {got.shape[0]} rows, reference {want.shape[0]}"]
        err = np.abs(got - want).max() if got.size else 0.0
        return [] if err <= tol else [f"{filename}: {'/'.join(columns)} off by {err:.3g}"]

    return extract, check


extract_transitions, check_transitions = _table_checker(
    "transitions.csv", ["lower", "upper", "frequency_ghz"], FREQ_TOL_GHZ)
extract_odmr, check_odmr = _table_checker("odmr.csv", ["frequency_mhz", "lower", "upper"], LINE_TOL_MHZ)
extract_invert, check_invert = _table_checker("invert.csv", ["magnitude_ghz"], FREQ_TOL_GHZ)
extract_peaks, check_peaks = _table_checker("peaks.csv", ["detuning_ghz"], FREQ_TOL_GHZ)


def extract_ordering(out: Output) -> dict:
    return {"rank1": _columns(out.path("ordering.csv"), ["ground_class", "excited_class"])[0].tolist()}


@_problems_on_error
def check_ordering(out: Output, ref: dict) -> list[str]:
    rank1 = _columns(out.path("ordering.csv"), ["ground_class", "excited_class"])[0].tolist()
    return [] if rank1 == ref["rank1"] else [f"ordering rank 1 is {rank1}, reference {ref['rank1']}"]


def zefoz_checker(filename: str):
    @_problems_on_error
    def check(out: Output, _ref=None) -> list[str]:
        header, rows = read_table(out.path(filename))
        cls = header.index("classification")
        for r in rows:
            if max(abs(float(x)) for x in r[:3]) <= ZEFOZ_ORIGIN_TOL_MT and r[cls] == "exact-ZEFOZ":
                return []
        return [f"{filename}: no exact-ZEFOZ candidate at B = 0"]

    return check


def _selftest_counts(out: Output) -> tuple[int, int]:
    return len(re.findall(r"^PASS ", out.stdout, re.M)), len(re.findall(r"^FAIL ", out.stdout, re.M))


def extract_selftest(out: Output) -> dict:
    return {"passed": _selftest_counts(out)[0]}


def check_selftest(out: Output, ref: dict) -> list[str]:
    passed, failed = _selftest_counts(out)
    if failed or passed < ref["passed"]:
        return [f"selftest: {passed} PASS, {failed} FAIL; reference {ref['passed']} PASS"]
    return []


def no_reference(_out: Output) -> dict:
    return {}
