"""tools/census.py: its README commands, and a run against a copy of the source with one digit changed."""

import importlib.util
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_census_names_the_moved_cells_and_nothing_else(tmp_path):
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src")
    presets = copy / "src" / "kramers" / "presets.py"
    text = presets.read_text()
    assert text.count("(0.484, 1.162, 5.254)") == 1
    presets.write_text(text.replace("(0.484, 1.162, 5.254)", "(0.485, 1.162, 5.254)"))
    # site I ground levels move with A1; invert does not read the site's tensors
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "census.py"), str(ROOT), str(copy),
                           "--match", "readme/levels", "readme/invert"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == [
        "differs   readme/levels (exit 0)",
        "    stdout differs, line 1: 'level 1: -1.725000 GHz' -> 'level 1: -1.725250 GHz'",
        "    levels.csv differs: energy_ghz: 4 cells, max abs 0.00025 at row 3 (1.144 -> 1.14425), "
        "max rel 0.000277 at row 2",
        "identical readme/invert (exit 0)"]
    assert lines[-1] == "census: 2 commands, 1 identical, 1 differ: readme/levels"


def census_module():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_census_runs_every_readme_command():
    # the README's CLI block; the census reads the benchmark's inputs as its data.csv and rates.ini
    census = census_module()
    text = (ROOT / "README.md").read_text()
    block = text[text.index("```sh\nkramers levels") + len("```sh\n"):]
    block = block[:block.index("```")].replace("\\\n", " ")
    readme = [shlex.split(line, comments=True) for line in block.splitlines()]
    listed = [["kramers", *(a.removeprefix("bench-") for a in argv)] for _, steps in census.README_COMMANDS
              for argv in steps]
    assert sorted(readme) == sorted(listed)


def test_no_two_commands_are_equal_up_to_output_names():
    # e.g. the README's shb-map and the benchmark's shb-map part, which differ only in --out map.csv
    _, commands = census_module().command_list(ROOT, 1)
    computed = [tuple(tuple(a for n, a in enumerate(argv) if "--out" not in argv[max(n - 1, 0):n + 1])
                      for argv in steps) for _, steps in commands]
    assert len(set(computed)) == len(computed)
