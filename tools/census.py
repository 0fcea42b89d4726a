"""Run one fixed list of kramers commands against two source trees and compare what they write.

    python tools/census.py OLD_TREE NEW_TREE [--match TEXT ...] [--seed N]

Each command runs in a fresh process, with the tree's ``src`` as the only PYTHONPATH entry and the
BLAS threads set to 1, in an empty directory of its own that holds only the input files.  For every
command the census prints both exit codes and whether stdout, stderr and each file written are
identical; for a CSV that differs, the change in its row count and, per numeric column, how many
cells moved and the largest absolute and relative difference, with the row where each occurs.  The
last line sums it up.  Exit status: 0 when every command is identical, 1 otherwise.

The list: the README commands, the benchmark's four parts (``perfbench/workloads.py``, full size)
and the argv of every ``TestPinnedBytes`` case in ``tests/test_cli.py``.  The input files are the
pinned texts of ``tests/test_cli.py`` and the benchmark's fit data and rates for ``--seed``
(default 1), all taken from OLD_TREE.  ``--match`` keeps the commands whose name holds one of the
texts.  This script needs only the standard library; the commands need numpy.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TIE_SITE = "[site]\npreset = site-I\nordering_ground = -1\n"
FIT = ("fit", "--data", "data.csv", "--no-stamp", "--out", "fit.csv", "--report", "report.txt")

# (name, argv of each step); the steps of one command share its directory, so a later one reads
# what an earlier one wrote.  readme/ and bench/ commands write the default stamped files.
COMMANDS = (
    ("readme/levels", (("levels", "--site", "I", "--state", "ground", "--B", "0"),)),
    ("readme/transitions", (("transitions", "--site", "II", "--B", "100,0,0"),)),
    ("readme/absorption+ordering", (
        ("absorption", "--site", "I", "--range=-4.5:4.5:0.005", "--model", "uniform", "--peaks-out", "peaks.csv"),
        ("ordering", "--site", "I", "--peaks-file", "peaks.csv"))),
    ("readme/shb-map", (("shb-map", "--site", "I", "--direction", "D1", "--magnitudes", "0:150:1",
                         "--span=-5:5:0.002", "--rates", "bench-rates.ini", "--out", "map.csv"),)),
    ("readme/odmr", (("odmr", "--site", "I", "--state", "ground", "--B", "0"),)),
    ("readme/epr-map", (("epr-map", "--site", "I", "--plane", "b-D1", "--step", "5", "--freq", "9.7",
                         "--bmax", "1000"),)),
    ("readme/invert", (("invert", "--lines", "2046,2385,2869,3208"),)),
    ("readme/fit", (("fit", "--data", "bench-data.csv", "--free", "ground", "--restarts", "64", "--seed", "0"),)),
    ("readme/zefoz", (("zefoz", "--site", "I", "--state", "ground", "--transition", "2,3", "--radius", "100"),)),
    ("readme/selftest", (("selftest",),)),
    ("bench/epr-angular", (("epr-map", "--site", "I", "--plane", "b-D1", "--step", "15", "--freq", "9.7",
                            "--bmax", "1000"),)),
    ("bench/fit-multistart", (("fit", "--data", "bench-data.csv", "--free", "ground", "--restarts", "16",
                               "--seed", "{seed}"),)),
    ("bench/site-survey", (
        ("levels", "--B", "0"), ("transitions", "--site", "II", "--B", "100,0,0"), ("odmr", "--B", "0"),
        ("absorption", "--range=-4.5:4.5:0.005", "--model", "uniform", "--peaks-out", "peaks.csv"),
        ("ordering", "--peaks-file", "peaks.csv"), ("invert", "--lines", "2046,2385,2869,3208"),
        ("zefoz", "--transition", "1,2", "--radius", "100", "--out", "zefoz-1-2.csv"), ("selftest",))),
    # the shb-map part is readme/shb-map
    ("pinned/epr-map", (("epr-map", "--site", "I", "--plane", "b-D1", "--step", "15", "--freq", "9.7",
                         "--bmax", "1000", "--no-stamp", "--out", "epr-map.csv"),)),
    ("pinned/fit-residual", ((*FIT, "--free", "ground", "--restarts", "2", "--seed", "0"),)),
    ("pinned/shb-map", (("shb-map", "--magnitudes", "0:150:15", "--span=-5:5:0.02", "--no-stamp",
                         "--out", "shb-map.csv"),)),
    ("pinned/shb-map-rates", (("shb-map", "--magnitudes", "0:150:15", "--span=-5:5:0.02", "--no-stamp",
                               "--out", "shb-map.csv", "--rates", "rates.ini"),)),
    ("pinned/shb-map-direction", (("shb-map", "--direction", "1,2,2", "--magnitudes", "0:60:5",
                                   "--span=-2:2:0.01", "--no-stamp", "--out", "shb-map.csv"),)),
    ("pinned/absorption+ordering", (
        ("absorption", "--model", "uniform", "--peaks-out", "peaks.csv", "--no-stamp", "--out", "absorption.csv"),
        ("ordering", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv"))),
    ("pinned/site-ii-absorption+ordering", (
        ("absorption", "--site", "II", "--range=-4.5:4.5:0.005", "--model", "uniform", "--peaks-out", "peaks.csv",
         "--no-stamp", "--out", "absorption.csv"),
        ("ordering", "--site", "II", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv"))),
    ("pinned/ordering-tie", (
        ("absorption", "--config", "tie.ini", "--model", "uniform", "--peaks-out", "peaks.csv", "--no-stamp",
         "--out", "absorption.csv"),
        ("ordering", "--config", "tie.ini", "--peaks-file", "peaks.csv", "--no-stamp", "--out", "ordering.csv"))),
    ("pinned/absorption-overlap", (("absorption", "--range=-4.5:4.5:0.005", "--peaks-out", "peaks.csv",
                                    "--no-stamp", "--out", "absorption.csv"),)),
    *((f"pinned/transitions-config-{state}", (("transitions", "--config", "site.ini", "--state", state,
                                               "--B", "30,0,0", "--no-stamp", "--out", "t.csv"),))
      for state in ("ground", "excited")),
    ("pinned/fit-two-orientations", ((*FIT, "--free", "ground,excited", "--restarts", "2", "--seed", "0"),)),
    ("pinned/fit-restart-chunk", ((*FIT, "--free", "ground", "--restarts", "40", "--seed", "18446744073709551621"),)),
    ("pinned/fit-bounded", ((*FIT, "--free", "ground,misalignment,eigenvalues", "--restarts", "8", "--seed", "0"),)),
    ("pinned/fit-bounded-epr-rows", ((*FIT, "--free", "ground,misalignment,eigenvalues", "--restarts", "4",
                                      "--seed", "3"),)),
    ("pinned/fit-nothing-free", ((*FIT, "--free", ""),)),
    ("pinned/zefoz", (("zefoz", "--transition", "1,2", "--radius", "100", "--no-stamp", "--out", "zefoz.csv"),)),
    ("pinned/zefoz-wide-ball", (("zefoz", "--transition", "1,2", "--radius", "1000", "--no-stamp",
                                 "--out", "zefoz.csv"),)),
    ("pinned/zefoz-site-ii-excited", (("zefoz", "--site", "II", "--state", "excited", "--transition", "1,2",
                                       "--radius", "300", "--no-stamp", "--out", "zefoz.csv"),)),
    ("pinned/selftest", (("selftest",),)),
    ("pinned/invert", (("invert", "--lines", "2046,2385,2869,3208", "--no-stamp", "--out", "invert.csv"),)),
    *((f"pinned/field-{'-'.join(argv).replace(',', '_')}", ((*argv, "--no-stamp", "--out", "out.csv"),))
      for argv in (("levels", "--B", "0"), ("transitions", "--site", "II", "--B", "100,0,0"), ("odmr", "--B", "0"),
                   ("odmr", "--ac-axis", "1,1,0"), ("levels", "--field", "1,2,2", "--magnitude", "7"),
                   ("odmr", "--site", "II", "--state", "excited", "--B", "30,10,-5", "--ac-axis", "1,1,0"))),
    *((f"pinned/invert-error-{lines.replace(',', '_')}", (("invert", "--lines", lines),))
      for lines in ("1,2", "500,900,1700,2900")),
)

RUNNER = "import sys\nfrom kramers.cli import main\nsys.exit(main(sys.argv[1:]))"


def pinned_texts(tree: Path) -> dict[str, str]:
    """The module-level string constants of the tree's tests/test_cli.py, read without importing it."""
    module = ast.parse((tree / "tests" / "test_cli.py").read_text())
    return {node.targets[0].id: node.value.value for node in module.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and isinstance(node.targets[0], ast.Name)}


def bench_inputs(tree: Path, seed: int) -> dict[str, str]:
    """The benchmark's fit data and rates for a seed, from the tree's perfbench/inputs.py."""
    code = ("import json, sys, inputs\n"
            f"json.dump([inputs.fit_data_csv({seed}), inputs.rates_ini({seed})], sys.stdout)")
    out = subprocess.run([sys.executable, "-c", code], cwd=tree / "perfbench", capture_output=True, text=True,
                         check=True).stdout
    data, rates = json.loads(out)
    return {"bench-data.csv": data, "bench-rates.ini": rates}


def run(tree: Path, steps, inputs: dict[str, str], workdir: Path) -> dict:
    """Run one command's steps in a fresh directory: exit codes, stdout, stderr and written files."""
    workdir.mkdir(parents=True)
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    codes, stdout, stderr = [], b"", b""
    for argv in steps:
        proc = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=workdir, env=env, capture_output=True)
        codes.append(proc.returncode)
        stdout, stderr = stdout + proc.stdout, stderr + proc.stderr
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name not in inputs}
    return {"codes": codes, "stdout": stdout, "stderr": stderr, "files": files}


def _rows(data: bytes) -> list[list[str]]:
    return [row for row in csv.reader(data.decode().splitlines()) if row and not row[0].startswith("#")]


def csv_moves(old: bytes, new: bytes) -> list[str]:
    """How a CSV moved: the row-count change, then per column the moved cells and the largest
    absolute and relative difference with its row (1 = the first row after the header)."""
    a, b = _rows(old), _rows(new)
    lines = [] if len(a) == len(b) else [f"rows {len(a) - 1} -> {len(b) - 1}"]
    if not a or not b or a[0] != b[0]:
        return lines + ["header differs"]
    for col, name in enumerate(a[0]):
        moved, text, big_abs, big_rel = 0, 0, (0.0, 0, "", ""), (0.0, 0, "", "")
        for n, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            x, y = (r[col] if col < len(r) else "" for r in (ra, rb))
            if x == y:
                continue
            moved += 1
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                text += 1
                continue
            diff = abs(fx - fy)
            rel = diff / max(abs(fx), abs(fy)) if diff else 0.0
            if diff > big_abs[0]:
                big_abs = (diff, n, x, y)
            if rel > big_rel[0]:
                big_rel = (rel, n, x, y)
        if moved:
            line = f"{name}: {moved} cells"
            if moved > text:
                line += (f", max abs {big_abs[0]:.3g} at row {big_abs[1]} ({big_abs[2]} -> {big_abs[3]})"
                         f", max rel {big_rel[0]:.3g} at row {big_rel[1]}")
            if text:
                line += f", {text} text"
            lines.append(line)
    return lines


def _first_change(old: bytes, new: bytes) -> str:
    a, b = old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines()
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"line {n}: {x!r} -> {y!r}"
    return f"{len(a)} -> {len(b)} lines"


def compare(old: dict, new: dict) -> list[str]:
    """The differences between two runs of one command, as report lines; none when identical."""
    lines = [] if old["codes"] == new["codes"] else [f"exit {old['codes']} -> {new['codes']}"]
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            lines.append(f"{stream} differs, {_first_change(old[stream], new[stream])}")
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
        elif a != b:
            detail = csv_moves(a, b) if name.endswith(".csv") else [_first_change(a, b)]
            lines.append(f"{name} differs: " + "; ".join(detail))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--match", nargs="*", default=(), help="keep the commands whose name holds one of these")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed of the fit data and rates")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    texts = pinned_texts(old)
    inputs = {"data.csv": texts["PINNED_FIT_DATA"], "rates.ini": texts["PINNED_RATES"],
              "site.ini": texts["PINNED_SITE_CONFIG"], "tie.ini": TIE_SITE, **bench_inputs(old, args.seed)}
    commands = [(name, [[a.format(seed=args.seed) for a in argv] for argv in steps]) for name, steps in COMMANDS
                if not args.match or any(text in name for text in args.match)]
    moved = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for n, (name, steps) in enumerate(commands):
            runs = [run(tree, steps, inputs, Path(tmp) / f"{n}-{side}") for side, tree in (("old", old), ("new", new))]
            lines = compare(*runs)
            codes = "/".join(map(str, runs[1]["codes"]))
            print(f"{'differs  ' if lines else 'identical'} {name} (exit {codes})")
            for line in lines:
                print(f"    {line}")
            if lines:
                moved.append(name)
    print(f"census: {len(commands)} commands, {len(commands) - len(moved)} identical, {len(moved)} differ"
          + (f": {', '.join(moved)}" if moved else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
