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
PGM_BLOCK = 1 << 16  # map samples scaled together: bounds the memory of a large PGM


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FORMAT)


def _cells(a: np.ndarray) -> list:
    """The values of a column as its cells take them: floats, or for str,
    bool and int columns their text by the rule of ``format_number``."""
    if a.dtype.kind == "U":
        return a.tolist()
    if a.dtype == bool:
        return np.where(a, "1", "0").tolist()
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    return a.astype(float).tolist()


def _placeholder(a: np.ndarray) -> str:
    """The %-format of a column's cells: text as is, floats as format(x, FLOAT_FORMAT)."""
    return "%s" if a.dtype.kind in "Ubiu" else "%" + FLOAT_FORMAT


def _blocks(columns, grid: int):
    """The CSV lines of at most BLOCK_ROWS rows at a time, one string per
    block: one %-format of a template that holds the axis text ('%'
    escaped) and a placeholder per value cell."""
    columns = [np.asarray(c) for c in columns]
    axes = [[(_placeholder(a) % v).replace("%", "%%") for v in _cells(a)] for a in columns[:grid]]
    values = columns[grid:]
    cells = ",".join(map(_placeholder, values))
    # each line after its outer-axis prefix: an inner-axis value, then the value cells
    lines = [t + "," + cells if values else t for t in axes.pop()] if axes else None
    prefixes = ["".join(p) for p in itertools.product(*([t + "," for t in a] for a in axes))]
    run = len(lines) if lines is not None else len(values[0])
    if any(len(v) != run * len(prefixes) for v in values):
        raise ValueError("CSV columns differ in length")
    for n, prefix in enumerate(prefixes):
        for start in range(n * run, (n + 1) * run, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, (n + 1) * run)
            block = lines[start - n * run:stop - n * run] if lines is not None else [cells] * (stop - start)
            flat = [None] * ((stop - start) * len(values))
            for k, v in enumerate(values):
                flat[k::len(values)] = _cells(v[start:stop])
            yield (prefix + ("\n" + prefix).join(block) + "\n") % tuple(flat)


def csv_text(header: list[str], columns, stamp: bool = True, grid: int = 0) -> str:
    """The CSV text of ``columns``: numpy arrays or lists of str, one per header name.

    With ``grid`` = k, the first k columns are axes: the rows run over
    their outer product, the last axis fastest, and every other column
    holds one value per row.  Each axis value is formatted once.
    """
    return _head(header, stamp) + "".join(_blocks(columns, grid))


def _head(header: list[str], stamp: bool) -> str:
    return "\n".join(([STAMP] if stamp else []) + [",".join(header)]) + "\n"


def write_csv(path, header: list[str], columns, stamp: bool = True, grid: int = 0) -> None:
    """Write ``csv_text`` block by block, so memory does not grow with the
    row count; the first block is formatted before the file is opened, so
    columns of unequal length leave no file."""
    blocks = _blocks(columns, grid)
    first = next(blocks, "")
    with open(path, "w", newline="\n") as fh:
        fh.write(_head(header, stamp) + first)
        fh.writelines(blocks)


def _pgm_blocks(amplitudes: np.ndarray, stamp: bool):
    """The PGM header, then the pixels of at most PGM_BLOCK samples' rows at
    a time; the map is checked and its peak taken before the header."""
    a = np.asarray(amplitudes, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D map")
    peak = np.maximum(a.max(), -a.min())  # max |a| without a map-sized temporary
    header = "P5\n"
    if stamp:
        header += STAMP + "\n"
    yield (header + f"{a.shape[1]} {a.shape[0]}\n255\n").encode("ascii")
    rows = max(1, PGM_BLOCK // max(a.shape[1], 1))
    for start in range(0, a.shape[0], rows):
        block = a[start:start + rows]
        if peak == 0:
            yield b"\x80" * block.size
        else:
            yield np.clip(np.rint(128.0 + 127.0 * block / peak), 0, 255).astype(np.uint8).tobytes()


def pgm_bytes(amplitudes: np.ndarray, stamp: bool = True) -> bytes:
    """8-bit binary PGM of a signed map; 0 maps to mid-gray (128).

    Rows of the array become image rows; values are scaled symmetrically by
    the maximum absolute amplitude, so holes (negative) render dark and
    antiholes (positive) render bright.
    """
    return b"".join(_pgm_blocks(amplitudes, stamp))


def write_pgm(path, amplitudes: np.ndarray, stamp: bool = True) -> None:
    """Write ``pgm_bytes`` block by block; a map that is not 2-D leaves no file."""
    blocks = _pgm_blocks(amplitudes, stamp)
    first = next(blocks)
    with open(path, "wb") as fh:
        fh.write(first)
        fh.writelines(blocks)
