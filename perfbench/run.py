"""End-to-end and per-layer benchmark of the kramers CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from its
``src`` directory.  A workload is a sequence of CLI parts (``workloads.py``).
Each CLI invocation is a fresh process started by ``child.py``, one at a
time.  With ``--trace 0`` the workload is repeated for about ``--seconds``
and the end-to-end metrics are medians over those rounds.  With
``--trace 1`` one untraced and one traced round give the per-layer metrics.
The last line of stdout is one JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import layers
from workloads import WORKLOADS, Inputs, steps as workload_steps

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7       # set-up probes top a run's samples up to this many
RUN_LIMIT_S = 170.0     # children still running then are killed; a run must end in 180 s


def load_catalog() -> dict:
    return json.loads((BENCH / "metrics.json").read_text())


def load_references() -> dict:
    return json.loads((BENCH / "refs" / "reference.json").read_text())


@dataclass
class Invocation:
    spawn: float
    exit: float
    rc: int
    rss_mb: float
    stdout: str
    timing: dict
    trace_file: Path | None

    @property
    def setup_s(self) -> float:
        """Spawn until kramers.cli is imported and ready to dispatch."""
        return self.timing["ready"] - self.spawn


@dataclass
class Round:
    wall_s: float
    invocations: list[Invocation]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    identical: list[bool] = field(default_factory=list)
    missing_restarts: int = 0
    fit_rms_ratio: float = 0.0
    output_bytes: int = 0
    part_wall_s: dict[str, float] = field(default_factory=dict)


class Runner:
    """Starts child processes one at a time in a pinned environment."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.harness = work / "harness"
        self.harness.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        self.count = 0
        self.env = child_env()

    def spawn(self, argv, cwd: Path, trace: bool = False) -> Invocation:
        self.count += 1
        tag = self.harness / f"inv{self.count}"
        trace_file = tag.with_suffix(".npz") if trace else None
        cmd = [sys.executable, str(BENCH / "child.py"), str(tag.with_suffix(".json")),
               str(trace_file or "-"), *argv]
        with open(tag.with_suffix(".out"), "wb") as out, open(tag.with_suffix(".err"), "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - spawn), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        timing_file = tag.with_suffix(".json")
        timing = json.loads(timing_file.read_text()) if timing_file.exists() else {}
        return Invocation(spawn, end, proc.returncode, usage.ru_maxrss / 1024.0,
                          tag.with_suffix(".out").read_text(errors="replace"), timing, trace_file)

    def probe(self) -> Invocation:
        """A set-up probe: import kramers.cli and exit."""
        return self.spawn([], self.work)


def remove_work(work: Path) -> None:
    """Delete a run's scratch directory, and the shared parent once empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it, or it is gone already


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KRAMERS_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))
    return env


def run_round(steps, runner: Runner, refs: dict, trace: bool = False) -> Round:
    """Run every step once, then check every output."""
    outdir = runner.work / "round"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    invs = [runner.spawn(step.argv, outdir, trace) for step in steps]
    rnd = Round(invs[-1].exit - invs[0].spawn, invs)
    for part in dict.fromkeys(step.part for step in steps):
        mine = [inv for step, inv in zip(steps, invs) if step.part == part]
        rnd.part_wall_s[part] = mine[-1].exit - mine[0].spawn
    for step, inv in zip(steps, invs):
        out = checks.Output(outdir, inv.stdout)
        problems = [] if inv.rc == 0 else [f"exit code {inv.rc}"]
        if not inv.timing:
            problems.append("child wrote no timing record")
        ref = refs.get(step.label)
        missing = 0
        if step.restarts:
            found, missing, rnd.fit_rms_ratio = checks.check_fit(
                out, step.restarts, inputs.FIT_NOISE_GHZ * 1e3)
            problems += found
        elif ref is None:
            problems.append("no reference entry")
        else:
            problems += step.check(out, ref["check"])
        if ref is not None:
            for name, want in ref["digests"].items():
                rnd.identical.append(out.path(name).exists() and checks.digest(out.path(name)) == want)
        rnd.attempted += 1 + step.restarts
        rnd.failed += bool(problems) + missing
        rnd.missing_restarts += missing
        rnd.problems += [f"{step.label}: {p}" for p in problems]
        if missing:
            rnd.problems.append(f"{step.label}: {missing} of {step.restarts} restarts missing from the report")
    rnd.output_bytes = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return rnd


def environment() -> dict:
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "loadavg_at_start": list(os.getloadavg()),
        "child_env": {k: child_env().get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KRAMERS_THREADS")},
    }


def make_inputs(seed: int, directory: Path) -> tuple[Inputs, dict]:
    """Write the seeded input files; returns them and their sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = {"fit-data.csv": inputs.fit_data_csv(seed), "rates.ini": inputs.rates_ini(seed)}
    for name, text in texts.items():
        (directory / name).write_text(text)
    made = Inputs(seed, inputs.rate_variant(seed), str(directory / "fit-data.csv"),
                  str(directory / "rates.ini"))
    return made, {name: inputs.sha256(text) for name, text in texts.items()}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_run(steps, runner: Runner, refs: dict, seconds: float) -> tuple[list[Round], list[float]]:
    """Repeat rounds while another one of the median length so far fits in
    ``seconds``, then top the set-up samples up with probes."""
    start = time.monotonic()
    rounds, lengths = [], []
    while True:
        t = time.monotonic()
        rounds.append(run_round(steps, runner, refs))
        now = time.monotonic()
        lengths.append(now - t)
        typical = statistics.median(lengths)
        if now - start + typical > seconds or now + max(lengths) > runner.deadline - 5.0:
            break
    setups = [inv.setup_s for r in rounds for inv in r.invocations if inv.timing]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline - 10.0:
        probe = runner.probe()
        if probe.rc == 0 and probe.timing:
            setups.append(probe.setup_s)
    return rounds, setups


def e2e_metrics(rounds: list[Round], setups: list[float], n_steps: int) -> dict:
    return {
        "wall_s": _median([r.wall_s for r in rounds]),
        "setup_s": n_steps * _median(setups),
        "peak_rss_mb": _median([max(i.rss_mb for i in r.invocations) for r in rounds]),
    }


def traced_run(steps, runner: Runner, refs: dict) -> tuple[list[Round], dict]:
    """One untraced round, then one traced round; returns per-layer metrics."""
    plain = run_round(steps, runner, refs)
    traced = run_round(steps, runner, refs, trace=True)
    agg = layers.Aggregate()
    for inv in traced.invocations:
        if inv.trace_file is not None and inv.trace_file.exists():
            agg.add_file(inv.trace_file)
    timed = [inv for inv in traced.invocations if inv.timing]
    extra = {
        "after_import_s": sum(inv.timing["end"] - inv.timing["ready"] for inv in timed),
        "import_s": sum(inv.timing["ready"] - inv.timing["import_start"] for inv in timed),
        "output_bytes": traced.output_bytes,
        "identical": float(np.mean(traced.identical)) if traced.identical else 1.0,
        "restarts_failed": traced.missing_restarts,
        "fit_rms_ratio": traced.fit_rms_ratio,
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": plain.wall_s,
        "part_wall_s": plain.part_wall_s,
    }
    return [plain, traced], layers.layer_metrics(agg, extra)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    catalog, refs = load_catalog(), load_references()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        made, input_sha = make_inputs(seed, work / "inputs")
        steps = workload_steps(name, size, made)
        runner = Runner(work, deadline)
        runner.probe()  # warm-up: byte-compiled modules and file cache, not timed
        wrefs = refs.get(size, {})
        if trace:
            rounds, values = traced_run(steps, runner, wrefs)
            specs = {m["name"]: m for m in catalog["per_layer"]}
            setups = []
        else:
            rounds, setups = timed_run(steps, runner, wrefs, seconds)
            values = e2e_metrics(rounds, setups, len(steps))
            specs = {m["name"]: m for m in catalog["end_to_end"]}
    finally:
        remove_work(work)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "inputs_sha256": input_sha,
        "rounds": len(rounds),
        "invocations_per_round": len(steps),
        "wall_s_per_round": [r.wall_s for r in rounds],
        "part_wall_s_per_round": {p: [r.part_wall_s[p] for r in rounds] for p in WORKLOADS[name]},
        "setup_s_samples": setups,
        "peak_rss_mb_per_round": [max(i.rss_mb for i in r.invocations) for r in rounds],
        "fit_rms_ratio": [r.fit_rms_ratio for r in rounds] if "fit-multistart" in WORKLOADS[name] else None,
        "problems": [p for r in rounds for p in r.problems],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": specs[k]["unit"]} for k, v in values.items()},
    }


def print_human(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} size={rec['size']} "
          f"trace={int(rec['trace'])} rounds={rec['rounds']} invocations/round={rec['invocations_per_round']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<28} = {m['value']:.6g} {m['unit']}")
    if not rec["trace"]:
        for part, walls in rec["part_wall_s_per_round"].items():
            print(f"  {'part ' + part + ' wall_s':<28} = {_median(walls):.6g} s (median over rounds)")
        frac = rec["failed"] / rec["attempted"]
        print(f"  {'fail_frac':<28} = {frac:.6g} ratio ({rec['failed']} failed / {rec['attempted']} attempted)")
        if rec["fit_rms_ratio"] is not None:
            print(f"  {'fit_rms_ratio':<28} = {_median(rec['fit_rms_ratio']):.6g} ratio "
                  f"(median of {rec['rounds']} fits; best RMS / injected sigma)")
    for name, sha in rec["inputs_sha256"].items():
        print(f"  input {name} sha256 {sha}")
    for p in rec["problems"]:
        print(f"  FAILED CHECK {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small sizes of every workload")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "kramers" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'kramers'}; run from a kramers checkout",
              file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        deadline = start + RUN_LIMIT_S * (len(records) + 1)
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           "smoke" if args.smoke else "full", deadline)
        rec["environment"] = env
        print_human(rec)
        records.append(rec)
    print("record: " + json.dumps(records))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
