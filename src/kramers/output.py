"""Deterministic CSV / PGM writers.

All numeric output is formatted with 9 significant digits, '.' decimal
separator and ',' field separator, so identical inputs give byte-identical
files on any platform.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import __version__

STAMP = f"# kramers {__version__}"
FLOAT_FORMAT = ".9g"
BLOCK_ROWS = 1 << 16  # rows formatted together: bounds the memory of a large CSV


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FORMAT)


def _cells(column) -> list[str]:
    """The text of each value of a column, by the rule of ``format_number``."""
    a = np.asarray(column)
    if a.dtype.kind == "U":
        return a.tolist()
    if a.dtype == bool:
        return np.where(a, "1", "0").tolist()
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    return list(map(format, a.astype(float).tolist(), itertools.repeat(FLOAT_FORMAT)))


def _blocks(columns, grid: int):
    """The CSV lines of at most BLOCK_ROWS rows at a time, one string per block."""
    axes = [_cells(c) for c in columns[:grid]]
    values = columns[grid:]
    inner = axes.pop() if axes else None
    # one line prefix per point of the outer axes; [""] without them
    prefixes = ["".join(p) for p in itertools.product(*([t + "," for t in a] for a in axes))]
    run = len(inner) if inner is not None else len(values[0])
    if any(len(v) != run * len(prefixes) for v in values):
        raise ValueError("CSV columns differ in length")
    for n, prefix in enumerate(prefixes):
        for start in range(0, run, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, run)
            cells = [_cells(v[n * run + start:n * run + stop]) for v in values]
            if inner is not None:
                cells.insert(0, inner[start:stop])
            yield prefix + ("\n" + prefix).join(map(",".join, zip(*cells))) + "\n"


def csv_text(header: list[str], columns, stamp: bool = True, grid: int = 0) -> str:
    """The CSV text of ``columns``: numpy arrays or lists of str, one per header name.

    With ``grid`` = k, the first k columns are axes: the rows run over
    their outer product, the last axis fastest, and every other column
    holds one value per row.  Each axis value is formatted once.
    """
    head = [STAMP] if stamp else []
    head.append(",".join(header))
    return "\n".join(head) + "\n" + "".join(_blocks(columns, grid))


def write_csv(path, header: list[str], columns, stamp: bool = True, grid: int = 0) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(header, columns, stamp, grid))


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
