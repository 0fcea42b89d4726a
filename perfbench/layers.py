"""Per-layer metrics from recorded spans (parent side).

A span's self time is its duration minus the durations of its direct
children; spans of one process nest strictly, so the children never
overlap each other.  Spans are aggregated by (name, module it was looked
up in, name of the parent span), summed over all invocations of a round.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from workloads import PARTS

# layers whose self time counts as covered by the per-layer metrics
NAMED_LAYERS = ("tensors", "hamiltonian", "spectra", "shb", "magres", "fitting",
                "zefoz", "output", "selftest", "scipy")
ERROR_LAYERS = NAMED_LAYERS[:-1]  # the kramers modules
MATRIX_BYTES = 256  # one 4x4 complex128 Hamiltonian


def self_times(start, end, parent) -> np.ndarray:
    """Duration minus the summed durations of direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


class Aggregate:
    """count, duration, self time, work and errors per (name, via, parent)."""

    FIELDS = ("count", "dur", "self", "work", "errors")

    def __init__(self):
        self.rows: dict[tuple[str, str, str], np.ndarray] = defaultdict(lambda: np.zeros(5))

    def add_spans(self, names, name, parent, start, end, work, error) -> None:
        name = np.asarray(name, dtype=np.int64)
        parent = np.asarray(parent, dtype=np.int64)
        if name.size == 0:
            return
        dur = np.asarray(end) - np.asarray(start)
        slf = self_times(start, end, parent)
        split = [n.split("@", 1) if "@" in n else (n, "") for n in names]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        keys, inverse = np.unique(np.stack([name, parent_name]), axis=1, return_inverse=True)
        inverse = inverse.ravel()
        for k, (nid, pid) in enumerate(keys.T):
            sel = inverse == k
            key = (split[nid][0], split[nid][1], split[pid][0] if pid >= 0 else "")
            self.rows[key] += (sel.sum(), dur[sel].sum(), slf[sel].sum(),
                               np.asarray(work)[sel].sum(), np.asarray(error)[sel].sum())

    def add_file(self, path) -> None:
        with np.load(path) as z:
            names = json.loads(str(z["names"]))
            self.add_spans(names, z["name"], z["parent"], z["start"], z["end"], z["work"], z["error"])

    def total(self, field: str, names=(), layer=None, via=None, parent=None) -> float:
        col = self.FIELDS.index(field)
        out = 0.0
        for (n, v, p), row in self.rows.items():
            if names and n not in names:
                continue
            if layer is not None and n.split(".", 1)[0] != layer:
                continue
            if via is not None and v != via:
                continue
            if parent is not None and p != parent:
                continue
            out += row[col]
        return float(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate, extra: dict) -> dict[str, float]:
    """The per-layer metrics, keyed by their catalog names.

    ``extra`` carries what spans cannot see: traced time after import,
    child import time, output bytes and identity, fit report values and
    the untraced wall time, whole and per part.
    """
    t = agg.total
    matrices = t("work", ["hamiltonian.hamiltonian_batch"])
    calls = t("count", ["hamiltonian.hamiltonian_batch"])
    lsq = t("count", ["scipy.least_squares"])
    shb_self = t("self", layer="shb")
    render = t("self", ["shb.render_pattern"])
    rate = t("self", ["shb.populations_after_burn"])
    covered = sum(t("self", layer=layer) for layer in NAMED_LAYERS)
    m = {
        "hamiltonian.matrices": matrices,
        "hamiltonian.calls": calls,
        "hamiltonian.batch_mean": _ratio(matrices, calls),
        "hamiltonian.assemble_s": t("self", ["hamiltonian.hamiltonian_batch", "hamiltonian.build_hamiltonian",
                                             "hamiltonian.zeeman_hamiltonian_derivatives"]),
        "hamiltonian.eig_s": t("self", ["hamiltonian.energies_sweep", "hamiltonian.diagonalize",
                                        "hamiltonian.eigensystem"]),
        "hamiltonian.bytes_computed": matrices * MATRIX_BYTES,
        "magres.self_s": t("self", layer="magres"),
        "magres.sweep_calls": t("count", ["hamiltonian.energies_sweep"], via="magres"),
        "magres.resonances": t("work", ["magres.epr_resonance_fields"]),
        "fitting.residual_calls": t("count", ["fitting.residuals"]),
        "fitting.residual_s": t("self", ["fitting.residuals"]),
        "fitting.realize_s": t("self", ["fitting.realized_site"]),
        "fitting.lsq_s": t("self", ["scipy.least_squares"]),
        "fitting.nfev_per_restart": _ratio(t("count", ["fitting.residuals"], parent="scipy.least_squares"), lsq),
        "fitting.hit_frac": _ratio(t("work", ["fitting.fit"]), t("count", ["fitting.fit"])),
        "fitting.restarts_failed": extra.get("restarts_failed", 0.0),
        "fitting.rms_ratio": extra.get("fit_rms_ratio", 0.0),
        "tensors.calls": t("count", layer="tensors"),
        "tensors.self_s": t("self", layer="tensors"),
        "shb.patterns": t("count", ["shb.hole_pattern"]),
        "shb.entries": t("work", ["shb.hole_pattern"]),
        "shb.pattern_s": shb_self - render - rate,
        "shb.render_s": render,
        "shb.rate_solves": t("count", ["shb.populations_after_burn"]),
        "shb.rate_s": rate,
        "spectra.calls": t("count", layer="spectra"),
        "spectra.self_s": t("self", layer="spectra"),
        "selftest.self_s": t("self", layer="selftest"),
        "cli.import_s": extra.get("import_s", 0.0),
        "zefoz.grad_evals": t("count", ["hamiltonian.zeeman_gradient"], via="zefoz"),
        "zefoz.grad_s": t("dur", ["hamiltonian.zeeman_gradient"], via="zefoz"),
        "zefoz.optimizer_s": t("self", ["scipy.minimize"]),
        "zefoz.descents": t("count", ["scipy.minimize"]),
        "zefoz.candidates": t("work", ["zefoz.zefoz_search"]),
        "zefoz.degenerate": t("errors", ["hamiltonian.zeeman_gradient"], via="zefoz"),
        "output.rows": t("work", ["output.csv_text"]),
        "output.bytes": extra.get("output_bytes", 0.0),
        "output.csv_s": t("self", ["output.csv_text", "output.write_csv"]),
        "output.pgm_s": t("self", ["output.pgm_bytes", "output.write_pgm"]),
        "output.identical": extra.get("identical", 0.0),
        "trace.overhead_frac": _ratio(extra.get("traced_wall_s", 0.0), extra.get("untraced_wall_s", 0.0)) - 1.0,
        "trace.coverage": _ratio(covered, extra.get("after_import_s", 0.0)),
        "trace.spans": t("count"),
    }
    for layer in ERROR_LAYERS:
        m[f"{layer}.errors"] = t("errors", layer=layer)
    for part in PARTS:
        m[f"{part}.wall_s"] = extra.get("part_wall_s", {}).get(part, 0.0)
    return m
