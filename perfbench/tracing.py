"""Span recorder for traced benchmark runs (child side).

``install`` wraps every public ``kramers`` function where it is looked up:
in the globals of each ``kramers`` module, because ``from .hamiltonian
import energies_sweep`` binds a second name for the same function.  A span
is named ``<layer>.<function>@<module it was looked up in>``.  A few SciPy
entry points the layers call are wrapped the same way, and so is the
``FitProblem.realized_site`` method.  Spans stay in memory until ``dump``.

Only traced runs import this module; timed runs never do.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# Tiny helpers called once per value or per line: wrapping them would cost
# more than the work they do.  Their time stays in the caller's self time.
LEAVES = frozenset({
    "output.format_number",
    "spectra.lorentzian_amplitude",
    "hamiltonian.as_field",
})

# third-party functions the layers call through their own globals
EXTERNAL = {
    "fitting": {"least_squares": "scipy.least_squares"},
    "zefoz": {"minimize": "scipy.minimize"},
}


def _csv_rows(_args, _kwargs, text):
    return text.count("\n") - 1 - text.startswith("#")


def _hit_frac(_args, _kwargs, result):
    """Share of restarts within 1% of the best restart RMS."""
    rms = np.asarray(getattr(result, "restart_rms_mhz", ()), dtype=float)
    if rms.size == 0:
        return 0.0
    return float(np.mean(rms <= 1.01 * rms.min()))


# per-span work measure, by span name without the "@module" suffix
WORK = {
    "hamiltonian.hamiltonian_batch": lambda a, k, r: len(r),
    "hamiltonian.energies_sweep": lambda a, k, r: len(r),
    "magres.epr_resonance_fields": lambda a, k, r: len(r),
    "shb.hole_pattern": lambda a, k, r: len(r.entries),
    "zefoz.zefoz_search": lambda a, k, r: len(r),
    "output.csv_text": _csv_rows,
    "fitting.fit": _hit_frac,
}


class Recorder:
    """Spans (name, start, end, parent) plus a work value and an error flag."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.error = array("b")
        self._stack = [-1]

    def wrap(self, fn, name: str, work=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.work.append(0.0)
            rec.error.append(0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.error[idx] = 1
                raise
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
            if work is not None:
                rec.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as a .npz archive with the name table inside."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.asarray(self.name, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            work=np.asarray(self.work, dtype=float),
            error=np.asarray(self.error, dtype=np.int8),
        )


def install(package: str = "kramers") -> Recorder:
    """Wrap the public functions of every imported module of ``package``."""
    rec = Recorder()
    prefix = package + "."
    for modname, mod in sorted(sys.modules.items()):
        if modname != package and not modname.startswith(prefix):
            continue
        via = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            owner = obj.__module__ or ""
            if not owner.startswith(prefix):
                continue
            name = f"{owner.rpartition('.')[2]}.{obj.__name__}"
            if name not in LEAVES:
                setattr(mod, attr, rec.wrap(obj, f"{name}@{via}", WORK.get(name)))
        for attr, label in EXTERNAL.get(via, {}).items():
            if callable(getattr(mod, attr, None)):
                setattr(mod, attr, rec.wrap(getattr(mod, attr), f"{label}@{via}"))
    problem = getattr(sys.modules.get(prefix + "fitting"), "FitProblem", None)
    if problem is not None and hasattr(problem, "realized_site"):
        problem.realized_site = rec.wrap(problem.realized_site, "fitting.realized_site@fitting")
    return rec
