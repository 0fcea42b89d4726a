"""Run one fixed list of kramers commands against two source trees and compare what they write.

    python tools/census.py OLD_TREE NEW_TREE [--match TEXT ...] [--seed N]

Each command runs in a fresh process, with the tree's ``src`` as the only PYTHONPATH entry and the
BLAS threads set to 1, in an empty directory of its own that holds only the input files.  For every
command the census prints both exit codes and whether stdout, stderr and each file written are
identical; for a CSV that differs, the change in its row count and, per numeric column, how many
cells moved and the largest absolute and relative difference, with the row where each occurs.  The
last line sums it up.  Exit status: 0 when every command is identical, 1 otherwise.

The list: the README commands (``README_COMMANDS``), the steps of the benchmark's four parts at full
size (``perfbench/workloads.py``), and every run of ``PINNED_RUNS`` and help/usage argv of ``SURFACE``
(``tests/test_cli.py``); a command whose steps equal an earlier one's but for output names (``--out``) runs
once, as the earlier.  Every command's directory holds the ``PINNED_*`` texts of
``tests/test_cli.py`` as data.csv, rates.ini, site.ini and tie.ini, and the benchmark's fit data and
rates for ``--seed`` (default 1) as bench-data.csv and bench-rates.ini.  The census runs the union of
both trees' lists: a command that only NEW_TREE lists (a pin the change adds) is marked ``[new]``, one
that only OLD_TREE lists ``[gone]``, and each command's inputs come from a tree that lists it, OLD_TREE
when both do.  ``--match`` keeps the commands whose name holds one of the texts.  This script needs only
the standard library; the commands and the benchmark's modules need numpy.
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

# the README's commands by name, each with its steps (a later step reads what an earlier one wrote); they write the
# default stamped files and read the benchmark's inputs as the README's data.csv and rates.ini
README_COMMANDS = (
    ("levels", (("levels", "--site", "I", "--state", "ground", "--B", "0"),)),
    ("transitions", (("transitions", "--site", "II", "--B", "100,0,0"),)),
    ("absorption+ordering", (
        ("absorption", "--site", "I", "--range=-4.5:4.5:0.005", "--model", "uniform", "--peaks-out", "peaks.csv"),
        ("ordering", "--site", "I", "--peaks-file", "peaks.csv"))),
    ("shb-map", (("shb-map", "--site", "I", "--direction", "D1", "--magnitudes", "0:150:1", "--span=-5:5:0.002",
                  "--rates", "bench-rates.ini", "--out", "map.csv"),)),
    ("odmr", (("odmr", "--site", "I", "--state", "ground", "--B", "0"),)),
    ("epr-map", (("epr-map", "--site", "I", "--plane", "b-D1", "--step", "5", "--freq", "9.7", "--bmax", "1000"),)),
    ("invert", (("invert", "--lines", "2046,2385,2869,3208"),)),
    ("fit", (("fit", "--data", "bench-data.csv", "--free", "ground", "--restarts", "64", "--seed", "0"),)),
    ("zefoz", (("zefoz", "--site", "I", "--state", "ground", "--transition", "2,3", "--radius", "100"),)),
    ("selftest", (("selftest",),)),
)

RUNNER = "import sys\nfrom kramers.cli import main\nsys.exit(main(sys.argv[1:]))"


def pinned_literals(tree: Path) -> dict:
    """The module-level literals of the tree's tests/test_cli.py (its pinned texts, PINNED_RUNS and SURFACE),
    read without importing it."""
    found = {}
    for node in ast.parse((tree / "tests" / "test_cli.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal
                pass
    return found


def bench(tree: Path, seed: int) -> tuple[dict[str, str], dict[str, list]]:
    """The benchmark's fit data and rates for a seed, and the argv of each part's steps at full size, from
    the tree's perfbench/inputs.py and perfbench/workloads.py."""
    code = ("import json, sys, inputs, workloads as w\n"
            f"i = w.Inputs({seed}, inputs.rate_variant({seed}), 'bench-data.csv', 'bench-rates.ini')\n"
            "json.dump([{i.fit_data: inputs.fit_data_csv(i.seed), i.rates: inputs.rates_ini(i.seed)},\n"
            "           {part: [s.argv for s in w.part_steps(part, 'full', i)] for part in w.PARTS}], sys.stdout)")
    out = subprocess.run([sys.executable, "-c", code], cwd=tree / "perfbench", capture_output=True, text=True,
                         check=True).stdout
    return tuple(json.loads(out))


def computed(steps) -> tuple:
    """A command's steps with each ``--out FILE`` left out: what it computes."""
    return tuple(tuple(a for a, before in zip(argv, ("", *argv)) if "--out" not in (a, before)) for argv in steps)


def command_list(tree: Path, seed: int) -> tuple[dict[str, str], list]:
    """The input files of every command's directory, and the (name, steps) of every command, both read from a
    tree; of the commands that compute the same, only the first."""
    texts = pinned_literals(tree)
    inputs, parts = bench(tree, seed)
    inputs.update({"data.csv": texts["PINNED_FIT_DATA"], "rates.ini": texts["PINNED_RATES"],
                   "site.ini": texts["PINNED_SITE_CONFIG"], "tie.ini": texts["PINNED_TIE_SITE"]})
    unique = {}
    for name, steps in [*((f"readme/{name}", steps) for name, steps in README_COMMANDS),
                        *((f"bench/{part}", steps) for part, steps in parts.items()),
                        *((f"pinned/{name}", steps) for name, steps, _, _ in texts["PINNED_RUNS"]),
                        *((f"surface/{' '.join(argv) or 'no-argv'}", [argv]) for argv, _, _ in texts["SURFACE"])]:
        unique.setdefault(computed(steps), (name, steps))
    return inputs, list(unique.values())


def union(old: Path, new: Path, seed: int) -> list:
    """(name, steps, inputs, only) of every command that either tree lists, OLD_TREE's first: ``inputs`` are
    the input files of a tree that lists it, ``only`` is "new" or "gone" for a command that NEW_TREE or
    OLD_TREE alone lists, else ""."""
    (old_inputs, old_list), (new_inputs, new_list) = (command_list(tree, seed) for tree in (old, new))
    old_keys, new_keys = ({computed(steps) for _, steps in listed} for listed in (old_list, new_list))
    return ([(name, steps, old_inputs, "" if computed(steps) in new_keys else "gone") for name, steps in old_list]
            + [(name, steps, new_inputs, "new") for name, steps in new_list if computed(steps) not in old_keys])


def run(tree: Path, steps, inputs: dict[str, str], workdir: Path) -> dict:
    """Run one command's steps in a fresh directory: exit codes, stdout, stderr and written files."""
    workdir.mkdir(parents=True)
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    # argparse wraps help to COLUMNS; SURFACE pins it at 80
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80",
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
    commands = [c for c in union(old, new, args.seed) if not args.match or any(t in c[0] for t in args.match)]
    moved = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for n, (name, steps, inputs, only) in enumerate(commands):
            runs = [run(tree, steps, inputs, Path(tmp) / f"{n}-{side}") for side, tree in (("old", old), ("new", new))]
            lines = compare(*runs)
            codes = "/".join(map(str, runs[1]["codes"]))
            print(f"{'differs  ' if lines else 'identical'} {name} (exit {codes})" + (f" [{only}]" if only else ""))
            for line in lines:
                print(f"    {line}")
            if lines:
                moved.append(name)
    listed = ", ".join(f"{n} {only}" for only in ("new", "gone") if (n := sum(c[3] == only for c in commands)))
    print(f"census: {len(commands)} commands{f' ({listed})' if listed else ''}, {len(commands) - len(moved)} "
          f"identical, {len(moved)} differ" + (f": {', '.join(moved)}" if moved else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
