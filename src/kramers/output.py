"""Deterministic CSV / PGM writers.

All numeric output is formatted with 9 significant digits, '.' decimal
separator and ',' field separator, so identical inputs give byte-identical
files on any platform.
"""

from __future__ import annotations

import numpy as np

from . import __version__

STAMP = f"# kramers {__version__}"


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def csv_text(header: list[str], rows, stamp: bool = True) -> str:
    lines = []
    if stamp:
        lines.append(STAMP)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows, stamp: bool = True) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(header, rows, stamp))


def pgm_bytes(amplitudes: np.ndarray, stamp: bool = True) -> bytes:
    """8-bit binary PGM of a signed map; 0 maps to mid-gray (128).

    Rows of the array become image rows; values are scaled symmetrically by
    the maximum absolute amplitude, so holes (negative) render dark and
    antiholes (positive) render bright.
    """
    a = np.asarray(amplitudes, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D map")
    peak = np.abs(a).max()
    if peak == 0:
        pixels = np.full(a.shape, 128, dtype=np.uint8)
    else:
        pixels = np.clip(np.rint(128.0 + 127.0 * a / peak), 0, 255).astype(np.uint8)
    header = "P5\n"
    if stamp:
        header += STAMP + "\n"
    header += f"{a.shape[1]} {a.shape[0]}\n255\n"
    return header.encode("ascii") + pixels.tobytes()


def write_pgm(path, amplitudes: np.ndarray, stamp: bool = True) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(amplitudes, stamp))
