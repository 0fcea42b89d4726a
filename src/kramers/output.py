"""Deterministic CSV / PGM writers.

All numeric output is formatted with 9 significant digits, '.' decimal
separator and ',' field separator, so identical inputs give byte-identical
files on any platform.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from . import __version__

STAMP = f"# kramers {__version__}"
FLOAT_FORMAT = ".9g"
BLOCK_ROWS = 1 << 16  # rows formatted together: bounds the memory of a large CSV
_FLOAT_TYPES = {float, np.float64}


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FORMAT)


def _cells(values) -> list[str]:
    """The text of each value: strings as they are, numbers by ``format_number``.

    Values that are all floats are formatted once per distinct bit pattern,
    which keeps -0.0 apart from 0.0; a large CSV repeats its grid columns
    many times over.
    """
    if not set(map(type, values)) <= _FLOAT_TYPES:
        return [v if isinstance(v, str) else format_number(v) for v in values]
    distinct, inverse = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    text = list(map(format, distinct.view(float).tolist(), itertools.repeat(FLOAT_FORMAT)))
    return np.array(text, dtype=object)[inverse].tolist()


def _row_blocks(rows):
    """The CSV lines of each block of BLOCK_ROWS rows, as one string per block."""
    rows = iter(rows)
    while block := list(map(tuple, itertools.islice(rows, BLOCK_ROWS))):
        widths = set(map(len, block))
        if len(widths) == 1 and 0 not in widths:  # format column by column
            columns = [_cells(list(map(operator.itemgetter(k), block))) for k in range(widths.pop())]
            lines = map(",".join, zip(*columns))
        else:
            lines = (",".join(_cells(row)) for row in block)
        yield "\n".join(lines) + "\n"


def csv_text(header: list[str], rows, stamp: bool = True) -> str:
    head = [STAMP] if stamp else []
    head.append(",".join(header))
    return "\n".join(head) + "\n" + "".join(_row_blocks(rows))


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
