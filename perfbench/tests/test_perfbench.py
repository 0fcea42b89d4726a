"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import layers
from workloads import PARTS, SIZES, WORKLOADS, Inputs, steps

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# --- BENCHMARK.json and the metric catalog ---------------------------------------

def test_benchmark_json_follows_the_catalog():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((BENCH / "metrics.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["workloads"] == [{"name": w["name"], "why": w["why"]} for w in catalog["workloads"]]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["end_to_end"] == [{k: m[k] for k in ("name", "unit", "better", "bound")}
                                   for m in catalog["end_to_end"]]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in catalog["per_layer"]]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in bench[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for g in ("end_to_end", "per_layer") for m in bench[g])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for m in catalog["per_layer"] + catalog["end_to_end"]:
        assert set(m["workloads"]) <= set(WORKLOADS) and m.get("moves", m.get("what"))
        assert set(m["parts"]) <= set(PARTS)
    assert [w["parts"] for w in catalog["workloads"]] == [list(p) for p in WORKLOADS.values()]
    assert [p["name"] for p in catalog["parts"]] == list(PARTS)


def test_every_part_runs_in_one_workload_and_every_checked_step_has_a_reference():
    assert sorted(p for parts in WORKLOADS.values() for p in parts) == sorted(PARTS)
    refs = json.loads((BENCH / "refs" / "reference.json").read_text())
    for size in SIZES:
        for seed in range(len(inputs.RATE_VARIANTS)):
            made = Inputs(seed, inputs.rate_variant(seed), "fit-data.csv", "rates.ini")
            for name in WORKLOADS:
                labels = [step.label for step in steps(name, size, made)]
                assert len(labels) == len(set(labels))
                assert all(step.label in refs[size] for step in steps(name, size, made) if step.check)


# --- self time and per-layer arithmetic ---------------------------------------------

def _synthetic_spans():
    # root [0, 10] -> a [1, 4] -> leaf [2, 3];  root -> b [5, 9]
    names = ["fitting.fit@cli", "scipy.least_squares@fitting", "fitting.residuals@fitting",
             "hamiltonian.hamiltonian_batch@fitting"]
    name = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    work = [0.5, 0.0, 0.0, 6.0]
    error = [0, 0, 1, 0]
    return names, name, parent, start, end, work, error


def test_self_time_is_duration_minus_direct_children():
    _, _, parent, start, end, _, _ = _synthetic_spans()
    np.testing.assert_allclose(layers.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_on_a_synthetic_tree():
    agg = layers.Aggregate()
    agg.add_spans(*_synthetic_spans())
    agg.add_spans(*_synthetic_spans())  # a second invocation adds up
    m = layers.layer_metrics(agg, {"after_import_s": 25.0, "traced_wall_s": 3.0, "untraced_wall_s": 2.0})
    assert m["fitting.lsq_s"] == 4.0
    assert m["fitting.residual_s"] == 2.0 and m["fitting.residual_calls"] == 2
    assert m["fitting.nfev_per_restart"] == 1.0
    assert m["fitting.hit_frac"] == 0.5
    assert m["fitting.errors"] == 2
    assert m["hamiltonian.matrices"] == 12 and m["hamiltonian.batch_mean"] == 6.0
    assert m["hamiltonian.bytes_computed"] == 12 * 256 and m["hamiltonian.assemble_s"] == 8.0
    assert m["trace.coverage"] == pytest.approx(20.0 / 25.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.5)
    assert m["trace.spans"] == 8
    catalog = json.loads((BENCH / "metrics.json").read_text())
    assert set(m) == {x["name"] for x in catalog["per_layer"]}


# --- output checks reject perturbed outputs ---------------------------------------

def _write_epr(directory, fields):
    rows = ["# kramers 0.1.0", "angle_deg,field_mt,lower,upper,subsite,moment"]
    rows += [f"{a:g},{f!r},1,2,1,0.5" for a, f in fields]
    (directory / "epr-map.csv").write_text("\n".join(rows) + "\n")


def test_epr_check_rejects_a_moved_or_missing_resonance(tmp_path):
    _write_epr(tmp_path, [(0, 100.0), (0, 250.0), (5, 120.0)])
    ref = checks.extract_epr(checks.Output(tmp_path))
    _write_epr(tmp_path, [(0, 100.0015), (0, 250.0), (5, 120.0)])
    assert checks.check_epr(checks.Output(tmp_path), ref) == []
    _write_epr(tmp_path, [(0, 100.003), (0, 250.0), (5, 120.0)])
    assert checks.check_epr(checks.Output(tmp_path), ref)
    _write_epr(tmp_path, [(0, 100.0), (5, 120.0)])
    assert checks.check_epr(checks.Output(tmp_path), ref)


def _write_shb(directory, amps, pixels_delta=0):
    n_fields, n_det = amps.shape
    lines = ["# kramers 0.1.0", "field_mt,detuning_ghz,amplitude"]
    lines += [f"{b:g},{d:g},{amps[b, d]:.9g}" for b in range(n_fields) for d in range(n_det)]
    (directory / "shb-map.csv").write_text("\n".join(lines) + "\n")
    pix = np.clip(np.rint(128 + 127 * amps / np.abs(amps).max()) + pixels_delta, 0, 255).astype(np.uint8)
    (directory / "shb-map.pgm").write_bytes(f"P5\n# kramers 0.1.0\n{n_det} {n_fields}\n255\n".encode()
                                             + pix.tobytes())


def test_shb_check_rejects_perturbed_amplitudes_and_pixels(tmp_path):
    amps = np.sin(np.arange(60.0)).reshape(4, 15)
    _write_shb(tmp_path, amps)
    ref = checks.extract_shb(checks.Output(tmp_path), 2, 3)
    assert checks.check_shb(checks.Output(tmp_path), ref) == []
    bumped = amps.copy()
    bumped[2, 3] += 1e-6
    _write_shb(tmp_path, bumped)
    assert any("amplitudes" in p for p in checks.check_shb(checks.Output(tmp_path), ref))
    _write_shb(tmp_path, amps, pixels_delta=2)
    assert any("grey" in p for p in checks.check_shb(checks.Output(tmp_path), ref))
    (tmp_path / "shb-map.csv").write_text("field_mt,detuning_ghz,amplitude\n0,0,1\n")
    assert checks.check_shb(checks.Output(tmp_path), ref)


def test_fit_check_reads_status_rms_and_restarts():
    good = "status: ok (converged)\nrms: 2.0034 MHz\nrestart RMS spread (MHz): min 2, max 9 over 64 restarts\n"
    assert checks.check_fit(checks.Output(".", good), 64, 2.0) == ([], 0, pytest.approx(1.0017))
    problems, missing, _ = checks.check_fit(checks.Output(".", good.replace("64 restarts", "61 restarts")), 64, 2.0)
    assert problems == [] and missing == 3
    problems, _, ratio = checks.check_fit(checks.Output(".", good.replace("2.0034", "2.3")), 64, 2.0)
    assert ratio > 1.1 and problems
    assert checks.check_fit(checks.Output(".", good.replace("ok", "fit-failed")), 64, 2.0)[0]


def test_levels_and_selftest_checks_reject_perturbed_output(tmp_path):
    def write_levels(e):
        rows = "".join(f"{n + 1},{x:.12g}\n" for n, x in enumerate(e))
        (tmp_path / "levels.csv").write_text("# kramers 0.1.0\nlevel,energy_ghz\n" + rows)

    e = np.array([0.0, 0.823, 2.869, 3.208])  # gaps give all six zero-field lines
    write_levels(e - e.mean())
    assert checks.check_levels(checks.Output(tmp_path)) == []
    e[3] += 1e-5
    write_levels(e - e.mean())
    assert checks.check_levels(checks.Output(tmp_path))
    ref = {"passed": 2}
    assert checks.check_selftest(checks.Output(tmp_path, "PASS  a: x\nPASS  b: y\n"), ref) == []
    assert checks.check_selftest(checks.Output(tmp_path, "PASS  a: x\nFAIL  b: y\n"), ref)


# --- inputs --------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    assert inputs.fit_data_csv(3) == inputs.fit_data_csv(3)
    assert inputs.fit_data_csv(3) != inputs.fit_data_csv(4)
    assert inputs.rates_ini(1) == inputs.rates_ini(1 + len(inputs.RATE_VARIANTS))
    assert len(inputs.fit_data_csv(0).splitlines()) == 1 + 600 + 6


def test_own_hamiltonian_reproduces_the_measured_zero_field_lines():
    np.testing.assert_allclose(np.sort(inputs.ground_frequencies((0, 0, 0))) * 1e3,
                               checks.ZERO_FIELD_LINES_MHZ, atol=1e-6)


# --- the command itself ----------------------------------------------------------------

@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_result_schema(trace, group):
    proc = _run("--workload", "epr-fit", "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in bench[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "survey-shb", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
