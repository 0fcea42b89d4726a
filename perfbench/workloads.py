"""The two workloads, made of four CLI parts: steps, smoke sizes and checks.

A part is one of the four CLI scenarios (epr-angular, shb-map,
fit-multistart, site-survey).  A workload runs its parts one after another,
and a round runs every step of a workload once, each as a fresh process.
Every step is one operation; a fit step adds one operation per requested
restart.

The parts are paired into two workloads so that each run can last about a
minute: on a shared 2-core machine whose speed drifts by 20-40% over tens of
seconds and minutes, medians over 30 s runs spread by 12-25% from run to
run, and over 55 s runs by 7-14%.  Each part's own time is still reported.
The parts are kept to a few seconds (a 15-degree EPR step, 16 fit restarts,
one ZEFOZ pair) so that several rounds fit in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import checks as C

ZEFOZ_PAIRS = ((1, 2),)  # a zero-field doublet transition; each pair is ~1.7 s
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Step:
    label: str                                   # key of its reference entry
    argv: tuple[str, ...]
    extract: Callable[[C.Output], dict]
    check: Callable[[C.Output, dict], list[str]] | None   # None: a fit step, see checks.check_fit
    outputs: tuple[str, ...] = ()                # files compared byte for byte
    restarts: int = 0                            # fit restarts: extra operations
    part: str = ""                               # the part it belongs to, set by part_steps()


@dataclass(frozen=True)
class Inputs:
    seed: int
    variant: int          # rates variant picked by the seed
    fit_data: str         # paths of the generated input files
    rates: str


def _epr(size, inputs):
    step = "15" if size == "full" else "45"
    return [Step("epr-map", ("epr-map", "--site", "I", "--plane", "b-D1", "--step", step,
                             "--freq", "9.7", "--bmax", "1000"),
                 C.extract_epr, C.check_epr, ("epr-map.csv",))]


SHB_GRID = {  # magnitudes, span, reference subsampling (row step, column step)
    "full": ("0:150:1", "-5:5:0.002", 10, 50),
    "smoke": ("0:150:15", "-5:5:0.02", 1, 10),
}


def _shb(size, inputs):
    mags, span, row_step, col_step = SHB_GRID[size]
    return [Step(f"shb-map-v{inputs.variant}",
                 ("shb-map", "--site", "I", "--direction", "D1", "--magnitudes", mags,
                  f"--span={span}", "--rates", inputs.rates),
                 lambda out: C.extract_shb(out, row_step, col_step), C.check_shb,
                 ("shb-map.csv", "shb-map.pgm"))]


def _fit(size, inputs):
    restarts = 16 if size == "full" else 4
    return [Step("fit", ("fit", "--data", inputs.fit_data, "--free", "ground",
                         "--restarts", str(restarts), "--seed", str(inputs.seed)),
                 C.no_reference, None, restarts=restarts)]


def _survey(size, inputs):  # one size: a round is already only a few seconds
    steps = [
        Step("levels", ("levels", "--B", "0"), C.no_reference, C.check_levels, ("levels.csv",)),
        Step("transitions", ("transitions", "--site", "II", "--B", "100,0,0"),
             C.extract_transitions, C.check_transitions, ("transitions.csv",)),
        Step("odmr", ("odmr", "--B", "0"), C.extract_odmr, C.check_odmr, ("odmr.csv",)),
        # --model uniform: with the default overlap model the absorption
        # spectrum shows one peak and `ordering` exits 2.  That is a CLI
        # contract defect tracked on its own, not a performance property.
        Step("absorption", ("absorption", "--range=-4.5:4.5:0.005", "--model", "uniform",
                            "--peaks-out", "peaks.csv"),
             C.extract_peaks, C.check_peaks, ("absorption.csv", "peaks.csv")),
        Step("ordering", ("ordering", "--peaks-file", "peaks.csv"),
             C.extract_ordering, C.check_ordering, ("ordering.csv",)),
        Step("invert", ("invert", "--lines", "2046,2385,2869,3208"),
             C.extract_invert, C.check_invert, ("invert.csv",)),
    ]
    for lo, up in ZEFOZ_PAIRS:
        out = f"zefoz-{lo}-{up}.csv"
        steps.append(Step(f"zefoz-{lo}-{up}", ("zefoz", "--transition", f"{lo},{up}", "--radius", "100",
                                               "--out", out),
                          C.no_reference, C.zefoz_checker(out), (out,)))
    steps.append(Step("selftest", ("selftest",), C.extract_selftest, C.check_selftest))
    return steps


# part -> steps(size, inputs)
PARTS = {
    "epr-angular": _epr,
    "shb-map": _shb,
    "fit-multistart": _fit,
    "site-survey": _survey,
}

# workload -> its parts in run order; why each one is there: "workloads" in metrics.json
WORKLOADS = {
    "epr-fit": ("epr-angular", "fit-multistart"),        # the kernel-bound parts
    "survey-shb": ("site-survey", "shb-map"),            # import-, output- and I/O-bound parts
}


def part_steps(part: str, size: str, inputs: Inputs) -> list[Step]:
    return [replace(step, part=part) for step in PARTS[part](size, inputs)]


def steps(workload: str, size: str, inputs: Inputs) -> list[Step]:
    return [step for part in WORKLOADS[workload] for step in part_steps(part, size, inputs)]
