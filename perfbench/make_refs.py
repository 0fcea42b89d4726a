"""Regenerate refs/reference.json from the program in this checkout.

    python3 perfbench/make_refs.py

Only run this at a commit whose outputs are trusted: every later commit is
checked against what it writes.  Each part runs once per size; shb-map
runs once per rates variant.  References are keyed by size and step label.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import inputs
from run import BENCH, SRC, WORK_ROOT, Runner, make_inputs, remove_work
from workloads import PARTS, SIZES, part_steps


def main() -> int:
    if not (SRC / "kramers" / "cli.py").is_file():
        print(f"no program source at {SRC / 'kramers'}", file=sys.stderr)
        return 2
    refs: dict = {}
    work = WORK_ROOT / "make-refs"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for size in SIZES:
            for part in PARTS:
                seeds = range(len(inputs.RATE_VARIANTS)) if part == "shb-map" else (0,)
                for seed in seeds:
                    made, _ = make_inputs(seed, work / "inputs")
                    runner = Runner(work, time.monotonic() + 600.0)
                    steps = part_steps(part, size, made)
                    outdir = work / "round"
                    shutil.rmtree(outdir, ignore_errors=True)
                    outdir.mkdir()
                    for step in steps:
                        inv = runner.spawn(step.argv, outdir)
                        if inv.rc != 0:
                            print(f"{size} {step.label}: exit code {inv.rc}", file=sys.stderr)
                            return 1
                        if step.check is None:
                            continue  # fit steps are checked against the injected noise
                        out = checks.Output(outdir, inv.stdout)
                        entry = {"check": step.extract(out),
                                 "digests": {f: checks.digest(outdir / f) for f in step.outputs}}
                        problems = step.check(out, entry["check"])
                        if problems:
                            print(f"{size} {step.label}: {problems}", file=sys.stderr)
                            return 1
                        refs.setdefault(size, {})[step.label] = entry
                        print(f"{size} {part} {step.label}: ok", file=sys.stderr)
    finally:
        remove_work(work)
    path = BENCH / "refs" / "reference.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
