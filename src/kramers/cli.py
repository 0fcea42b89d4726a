"""Command-line surface: deterministic CSV/PGM outputs for every module.

All level indices printed or read by the CLI are 1-based (levels 1..4);
the library API is 0-based.  Every subcommand documents its CSV columns
via --schema and writes byte-identical outputs for identical inputs
(--no-stamp drops the version comment line).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys as _sys

import numpy as np

# fitting, zefoz, selftest, magres and shb are imported by the commands that
# run them, so that the other commands start without compiling them
from . import spectra
from .config import (
    ConfigError, check_points, grid, integer, integers, level_pair, load_config, load_rates, number,
    number_list, read_text, samples, vector,
)
from .hamiltonian import (PAIR_HI, PAIR_LO, PAIRS, eigensystem, invert_zero_field, reconstruct_levels,
                          transition_frequencies, unit_direction)
from .output import write_csv, write_pgm
from .presets import get_site


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("usage", message)


class _SchemaRequested(Exception):
    """--schema was given: print this command's schema and exit 0."""


class _SchemaAction(argparse.Action):
    """``--schema`` acts when argparse meets it, as ``--help`` does, so a
    subcommand's required options need not be given with it."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        # a subcommand's parser is named "kramers <command>"
        raise _SchemaRequested(SCHEMAS[parser.prog.rpartition(" ")[2]])


SCHEMAS = {
    "levels": "level,energy_ghz            -- level is 1-based, energies ascending, GHz",
    "transitions": "lower,upper,frequency_ghz  -- 1-based level pair, frequency in GHz",
    "absorption": "detuning_ghz,amplitude      -- amplitude normalized to peak 1"
                  " (with --peaks-out: detuning_ghz per detected peak)",
    "shb-map": "field_mt,detuning_ghz,amplitude -- signed amplitude, holes negative;"
               " a PGM heatmap (rows = fields, mid-gray = 0) is written alongside",
    "odmr": "frequency_mhz,lower,upper,moment,strong -- 1-based pair, moment dimensionless",
    "epr-map": "angle_deg,field_mt,lower,upper,subsite,moment",
    "fit": "index,kind,state,value,sigma,model,residual,excluded -- residual table;"
           " frequencies GHz, EPR fields mT; model is nan for an EPR point with no"
           " resonance up to value + 50 mT",
    "invert": "axis,magnitude_ghz          -- |A1|,|A2|,|A3| from zero-field lines",
    "ordering": "rank,ground_class,excited_class,rms_mhz,offset_ghz,tied",
    "zefoz": "bx_mt,by_mt,bz_mt,lower,upper,grad_norm_mhz_per_mt,"
             "curv_eig1,curv_eig2,curv_eig3,classification,stationary",
    "selftest": "(no CSV output; prints one PASS/FAIL line per regression item)",
}


def _typed(parse, key: str, *args, **kwargs):
    """argparse ``type=``: a config parser whose errors name the option ``key``."""
    return lambda text: parse(text, key, *args, **kwargs)


def _resolve_site(args) -> spectra.SiteModel:
    if args.config:
        return load_config(args.config)
    try:
        return get_site(args.site)
    except KeyError as exc:
        raise ConfigError("unknown-preset", str(exc.args[0]), "site")


def _add_common(p: argparse.ArgumentParser, default_out: str, run):
    p.set_defaults(run=run)
    p.add_argument("--site", default="I", help="built-in site preset (I or II)")
    p.add_argument("--config", help="config file overriding the preset")
    p.add_argument("--out", default=default_out, help="output CSV path (PGM derived for maps)")
    p.add_argument("--no-stamp", action="store_true", help="omit the version comment line")
    p.add_argument("--schema", action=_SchemaAction, help="print the CSV schema and exit")


def _add_field(p: argparse.ArgumentParser):
    p.add_argument("--state", choices=("ground", "excited"), default="ground")
    p.add_argument("--field", "--B", dest="field", default="0,0,0", help="B vector in mT (crystal frame) or D1|D2|b")
    p.add_argument("--magnitude", type=_typed(number, "magnitude", "field_mt"),
                   help="scale a direction by this many mT")


def _build_parser(argv: list[str]) -> _Parser:
    """The parser of every subcommand, with options only for the one argparse
    dispatches to: the first token of ``argv`` that names a subcommand."""
    top = _Parser(prog="kramers", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    named = next((tok for tok in argv if tok in SCHEMAS), None)

    def add(command: str, help_text: str):
        """List the subcommand with its help line; its parser if it is the named one."""
        p = sub.add_parser(command, help=help_text)
        return p if command == named else None

    if p := add("levels", "hyperfine level energies at a field"):
        _add_common(p, "levels.csv", _cmd_levels)
        _add_field(p)

    if p := add("transitions", "all six transition frequencies at a field"):
        _add_common(p, "transitions.csv", _cmd_transitions)
        _add_field(p)

    if p := add("absorption", "inhomogeneous absorption spectrum"):
        _add_common(p, "absorption.csv", _cmd_absorption)
        p.add_argument("--field", "--B", dest="field", type=_typed(vector, "field", "field_mt"), default="0,0,0")
        p.add_argument("--range", type=_typed(grid, "range", "frequency_ghz"), default="-5:5:0.005",
                       help="detuning grid start:stop:step (GHz)")
        p.add_argument("--model", choices=spectra.INTENSITY_MODELS, default="overlap")
        p.add_argument("--peaks-out", help="also write detected peaks (local maxima + prominence rule)")
        p.add_argument("--prominence", type=_typed(number, "prominence", "prominence"), default=0.05,
                       help="peak prominence threshold as a fraction of the maximum")

    if p := add("shb-map", "hole/antihole map over a field sweep"):
        from .shb import DEFAULT_HOLE_WIDTH_MHZ

        _add_common(p, "shb-map.csv", _cmd_shb_map)
        p.add_argument("--direction", type=_typed(vector, "direction", nonzero=True), default="D1")
        p.add_argument("--magnitudes", type=_typed(samples, "magnitudes", "field_mt"), default="0:150:1",
                       help="field magnitudes mT, range or list")
        p.add_argument("--burn", type=_typed(number, "burn", "frequency_ghz"), default=0.0, help="burn detuning (GHz)")
        p.add_argument("--span", type=_typed(grid, "span", "frequency_ghz"), default="-5:5:0.002",
                       help="probe detuning grid (GHz)")
        p.add_argument("--width", type=_typed(number, "width", "width_mhz"), default=DEFAULT_HOLE_WIDTH_MHZ,
                       help="hole width (MHz)")
        p.add_argument("--rates", help="rate file with a [rates] section (rNM, pump_rate, duration_s)")

    if p := add("odmr", "spin transition lines with drive moments"):
        _add_common(p, "odmr.csv", _cmd_odmr)
        _add_field(p)
        p.add_argument("--ac-axis", type=_typed(vector, "ac-axis", nonzero=True), default="b",
                       help="oscillating-field direction")

    if p := add("epr-map", "resonance fields over a crystallographic plane"):
        from .magres import PLANES

        _add_common(p, "epr-map.csv", _cmd_epr_map)
        p.add_argument("--state", choices=("ground", "excited"), default="ground")
        p.add_argument("--plane", choices=sorted(PLANES), default="D1-D2")
        p.add_argument("--step", type=_typed(number, "step", "step"), default=5.0, help="angle step (degrees)")
        p.add_argument("--freq", type=_typed(number, "freq", "microwave_ghz"), default=9.7,
                       help="microwave frequency (GHz)")
        p.add_argument("--bmax", type=_typed(number, "bmax", "sweep_mt"), default=1000.0, help="maximum field (mT)")

    if p := add("fit", "fit tensor orientation angles to transition data"):
        _add_common(p, "fit-residuals.csv", _cmd_fit)
        p.add_argument("--data", required=True, help="CSV: kind,state,bx_mt,by_mt,bz_mt,value,sigma[,label]")
        p.add_argument("--free", default="ground", help="comma list: ground,excited,misalignment,eigenvalues")
        p.add_argument("--restarts", type=_typed(integer, "restarts"), default=64)
        p.add_argument("--seed", type=_typed(integer, "seed", minimum=0), default=0)
        p.add_argument("--freq", type=_typed(number, "freq", "microwave_ghz"), default=9.7,
                       help="microwave frequency for EPR points (GHz)")
        p.add_argument("--report", default="fit-report.txt")

    if p := add("invert", "A eigenvalue magnitudes from zero-field lines"):
        _add_common(p, "invert.csv", _cmd_invert)
        p.add_argument("--lines", required=True, type=_typed(number_list, "lines", "line_mhz"),
                       help="zero-field splittings in MHz, comma list")

    if p := add("ordering", "rank level-ordering sign classes against peaks"):
        _add_common(p, "ordering.csv", _cmd_ordering)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--peaks", type=_typed(number_list, "peaks", "frequency_ghz"),
                           help="peak detunings in GHz, comma list")
        group.add_argument("--peaks-file", help="CSV with a detuning_ghz column")

    if p := add("zefoz", "low-field-sensitivity points of one transition"):
        _add_common(p, "zefoz.csv", _cmd_zefoz)
        p.add_argument("--state", choices=("ground", "excited"), default="ground")
        p.add_argument("--transition", type=_typed(level_pair, "transition"), default="1,2",
                       help="1-based level pair, e.g. 1,2")
        p.add_argument("--radius", type=_typed(number, "radius", "radius_mt"), default=100.0,
                       help="search ball radius (mT)")
        p.add_argument("--grid", type=_typed(integers, "grid", 2), default="64,11",
                       help="directions,magnitudes of the coarse scan")
        p.add_argument("--refine-tol", type=_typed(number, "refine-tol", "refine_tol_mhz_per_mt"))

    if p := add("selftest", "run the embedded regression suite"):
        p.add_argument("--schema", action=_SchemaAction, help="print the CSV schema and exit")
        p.set_defaults(run=_cmd_selftest)

    return top


def _write(args, columns, grid: int = 0) -> None:
    """Write the command's CSV to --out, its header the first word of the command's schema."""
    write_csv(args.out, SCHEMAS[args.command].split()[0].split(","), columns, stamp=not args.no_stamp, grid=grid)


def _field(args):
    """(state, field) of --state at --B, or at --field (then a nonzero direction) scaled to --magnitude."""
    if args.magnitude is None:
        field = np.array(vector(args.field, "field", "field_mt"))
    else:
        field = unit_direction(vector(args.field, "field", nonzero=True)) * args.magnitude
    return getattr(_resolve_site(args), args.state), field


def _cmd_levels(args) -> int:
    energies = eigensystem(*_field(args)).energies
    _write(args, [np.arange(1, 5), energies])
    for n, e in enumerate(energies, start=1):
        print(f"level {n}: {e:+.6f} GHz")
    return 0


def _cmd_transitions(args) -> int:
    freqs = transition_frequencies(eigensystem(*_field(args)))
    _write(args, [PAIR_LO + 1, PAIR_HI + 1, freqs])
    for (i, j), f in zip(PAIRS, freqs.tolist()):
        print(f"{i + 1} -> {j + 1}: {f * 1e3:9.3f} MHz")
    return 0


def _cmd_absorption(args) -> int:
    site = _resolve_site(args)
    try:
        detunings, amp = spectra.absorption_spectrum(site, args.field, args.range, intensity_model=args.model)
    except ValueError as exc:  # the step resolves the site's FWHM: known only now
        raise ConfigError("bad-range", f"range: {exc}", "range")
    _write(args, [detunings, amp])
    print(f"wrote {len(detunings)} samples to {args.out}")
    if args.peaks_out:
        peaks = spectra.find_peaks(amp, args.prominence * amp.max())
        write_csv(args.peaks_out, ["detuning_ghz"], [detunings[peaks]], stamp=not args.no_stamp)
        print(f"wrote {len(peaks)} peaks to {args.peaks_out}")
    return 0


def _cmd_shb_map(args) -> int:
    from . import shb

    site = _resolve_site(args)
    check_points("magnitudes,span", args.magnitudes.size, args.span.points)
    rates = load_rates(args.rates) if args.rates else None
    fmap = shb.shb_field_map(
        site, args.direction, args.magnitudes, args.burn, rates,
        detuning_range_ghz=(args.span.start, args.span.stop), detuning_step_ghz=args.span.step,
        hole_width_mhz=args.width,
    )
    _write(args, [fmap.magnitudes_mt, fmap.detunings_ghz, fmap.amplitudes.ravel()], grid=2)
    pgm_path = os.path.splitext(args.out)[0] + ".pgm"
    write_pgm(pgm_path, fmap.amplitudes, stamp=not args.no_stamp)
    print(f"wrote {fmap.amplitudes.shape[0]}x{fmap.amplitudes.shape[1]} map to {args.out} and {pgm_path}")
    return 0


def _cmd_odmr(args) -> int:
    from . import magres

    lines = magres.odmr_lines(*_field(args), ac_axis=args.ac_axis)
    pairs = np.array([l.transition for l in lines]).reshape(-1, 2) + 1
    _write(args, [np.array([l.frequency_mhz for l in lines]), *pairs.T, np.array([l.moment for l in lines]),
                  np.array([l.strong for l in lines])])
    for l in lines:
        lo, up = l.transition
        print(f"{l.frequency_mhz:9.3f} MHz  ({lo + 1}->{up + 1})  moment {l.moment:.4f}{'  strong' if l.strong else ''}")
    return 0


def _cmd_epr_map(args) -> int:
    from . import magres

    site = _resolve_site(args)
    # angles x (bmax / 1 mT + 2): the cap bounds the angle count and the field range in 1 mT steps
    check_points("step,bmax", 180.0 / args.step + 1.0, args.bmax / 1.0 + 2.0)
    swept = magres.epr_angular_map(
        getattr(site, args.state), args.plane, args.step, args.freq, args.bmax
    )
    found = [r for _, resonances in swept for r in resonances]
    angles = np.repeat([angle for angle, _ in swept], [len(resonances) for _, resonances in swept])
    pairs = np.array([r.transition for r in found]).reshape(-1, 2) + 1
    _write(args, [angles, np.array([r.field_mt for r in found]), *pairs.T,
                  np.array([r.subsite for r in found]), np.array([r.moment for r in found])])
    print(f"wrote {len(found)} resonances to {args.out}")
    return 0


def _csv_rows(path) -> list[list[str]]:
    """The non-empty rows of a UTF-8 CSV file, without '#' comment lines."""
    import csv
    import io

    reader = csv.reader(io.StringIO(read_text(path, newline=""), newline=""))
    return [r for r in reader if r and not r[0].lstrip().startswith("#")]


def _read_data_csv(path) -> list:
    """The ``fitting.DataPoint`` rows of a fit data CSV."""
    from . import fitting

    points = []
    rows = _csv_rows(path)
    if not rows:
        raise ConfigError("bad-data", f"{path}: empty data file", "data")
    header = [c.strip().lower() for c in rows[0]]
    expected = ["kind", "state", "bx_mt", "by_mt", "bz_mt", "value", "sigma"]
    if header[: len(expected)] != expected:
        raise ConfigError("bad-data", f"{path}: header must start with {','.join(expected)}", "data")
    has_label = len(header) > len(expected) and header[len(expected)] == "label"
    for n, row in enumerate(rows[1:], start=2):
        key = f"line {n}"
        try:
            kind, state = row[0].strip().lower(), row[1].strip().lower()
            # an EPR row's field is a direction, its value a resonance field along it
            bx, by, bz = (number(x, key, "direction" if kind == "epr" else "field_mt", "bad-data") for x in row[2:5])
            value = number(row[5], key, "sweep_mt" if kind == "epr" else "frequency_ghz", "bad-data")
            if kind == "epr" and not any((bx, by, bz)):
                raise ConfigError("bad-data", f"{path}:{n}: an EPR point needs a nonzero direction", key)
            if row[6].strip():
                sigma = number(row[6], key, "sigma", "bad-data")
            else:
                # per-kind defaults: hole width scale for SHB, narrow ODMR
                # lines, field accuracy for EPR
                sigma = fitting.DEFAULT_SIGMA_MT if kind == "epr" else fitting.DEFAULT_SIGMA_GHZ.get(kind, 2e-3)
            label = None
            if has_label and len(row) > 7 and row[7].strip():
                label = level_pair(row[7], key, code="bad-data")
            points.append(fitting.DataPoint(kind, state, (bx, by, bz), value, sigma, label))
        except (ValueError, IndexError) as exc:  # short rows, unknown kind or state
            raise ConfigError("bad-data", f"{path}:{n}: {exc}", key)
    return points


def _cmd_fit(args) -> int:
    from . import fitting

    site = _resolve_site(args)
    free = {f.strip().lower() for f in args.free.split(",") if f.strip()}
    if unknown := free - {"ground", "excited", "misalignment", "eigenvalues"}:
        raise ConfigError("bad-value", f"unknown free-parameter group(s): {sorted(unknown)}", "free")
    data = _read_data_csv(args.data)
    problem = fitting.FitProblem(
        site=site,
        fit_ground="ground" in free,
        fit_excited="excited" in free,
        fit_misalignment="misalignment" in free,
        refine_eigenvalues="eigenvalues" in free,
        nu_mw_ghz=args.freq,
    )
    # the fit's work and a restart chunk's Jacobian both grow with restarts x points x parameters
    check_points("data", args.restarts, len(data), max(1, len(problem.parameter_names())))
    try:
        result = fitting.fit(problem, data, restarts=args.restarts, seed=args.seed)
    except ValueError as exc:  # no points, or fewer points than free parameters
        raise ConfigError("bad-data", str(exc), "data")

    excluded = np.isin(np.arange(len(data)), result.excluded)
    _write(args, [np.arange(1, len(data) + 1), [p.kind for p in data], [p.state for p in data],
                  np.array([p.value for p in data]), np.array([p.sigma for p in data]),
                  result.model_values, result.residuals, excluded])

    lines = [
        f"status: {'ok' if result.success else 'fit-failed'} ({result.message})",
        f"rms: {result.rms_mhz:.4f} MHz" + (
            f" / {result.rms_field_mt:.4f} mT (EPR)" if result.rms_field_mt is not None else ""
        ),
        f"gated outliers: {[n + 1 for n in result.excluded] or 'none'}",
        f"restart RMS spread (MHz): min {result.restart_rms_mhz[0]:.4f}, "
        f"max {result.restart_rms_mhz[-1]:.4f} over {len(result.restart_rms_mhz)} restarts",
    ]
    runs = len(result.restart_iterations)
    lines.append(
        f"LM work: {result.iterations} iterations, {result.evaluations} evaluations; per restart "
        f"mean {result.iterations / runs:.1f} / max {max(result.restart_iterations)} iterations, "
        f"mean {result.evaluations / runs:.1f} / max {max(result.restart_evaluations)} evaluations"
    )
    for name, value in zip(result.parameter_names, result.parameters):
        lines.append(f"  {name} = {value:.6f}")
    for state, rep in result.canonical_angles.items():
        a = rep["angles_deg"]
        # to 1e-6 GHz, but a value that rounds to 0 is shown as it is
        values = np.asarray(rep["values_ghz"])
        rounded = np.round(values, 6)
        lines.append(
            f"canonical {state} angles (subsite {rep['subsite']}): "
            f"({a[0]:.4f}, {a[1]:.4f}, {a[2]:.4f}) deg; values {np.where(rounded == 0, values, rounded)} GHz"
        )
    if result.covariance.size:
        sigmas = np.sqrt(np.clip(np.diag(result.covariance), 0, None))
        lines.append("parameter sigmas: " + ", ".join(
            f"{n}={s:.4g}" for n, s in zip(result.covariance_names, sigmas)))
    report = "\n".join(lines) + "\n"
    with open(args.report, "w") as fh:
        fh.write(report)
    print(report, end="")
    return 0 if result.success else 1


def _cmd_invert(args) -> int:
    _resolve_site(args)  # an unknown --site or a bad --config is an error here too
    mags = invert_zero_field(reconstruct_levels(np.asarray(args.lines) * 1e-3))
    _write(args, [np.arange(1, 4), np.array(mags)])
    for n, m in enumerate(mags, start=1):
        print(f"|A{n}| = {m:.6f} GHz")
    return 0


def _cmd_ordering(args) -> int:
    site = _resolve_site(args)
    peaks = args.peaks
    if peaks is None:
        rows = _csv_rows(args.peaks_file)
        if not rows or "detuning_ghz" not in rows[0]:
            raise ConfigError("bad-data", f"{args.peaks_file}: need a detuning_ghz column", "peaks-file")
        col = rows[0].index("detuning_ghz")
        peaks = [number(r[col] if col < len(r) else "", "peaks-file", "frequency_ghz", "bad-data") for r in rows[1:]]
    if len(peaks) < 4:
        raise ConfigError("too-few-peaks", f"{len(peaks)} peak(s) given; the ordering search needs at least 4"
                          " (try absorption --model uniform or a lower --prominence)", "peaks")
    ranked = spectra.ordering_search(site, peaks)
    classes = np.array([r.ordering for r in ranked]).reshape(-1, 2)
    _write(args, [np.arange(1, len(ranked) + 1), *classes.T, np.array([r.rms_ghz * 1e3 for r in ranked]),
                  np.array([r.offset_ghz for r in ranked]), np.array([r.tied for r in ranked])])
    best = ranked[0]
    print(f"best ordering classes (ground, excited) = {best.ordering}, "
          f"rms {best.rms_ghz * 1e3:.3f} MHz{'  [TIED]' if best.tied else ''}")
    return 0


def _cmd_zefoz(args) -> int:
    from . import zefoz

    site = _resolve_site(args)
    check_points("grid", *args.grid)
    candidates = zefoz.zefoz_search(
        getattr(site, args.state), args.transition,
        region=args.radius, grid=args.grid,
        refine_tol_mhz_per_mt=zefoz.DEFAULT_REFINE_TOL_MHZ_PER_MT if args.refine_tol is None else args.refine_tol,
    )
    fields = np.array([c.field_mt for c in candidates]).reshape(-1, 3)
    pairs = np.array([c.transition for c in candidates]).reshape(-1, 2) + 1
    curvatures = np.array([c.curvature_eigs_mhz_per_mt2 for c in candidates]).reshape(-1, 3)
    _write(args, [*fields.T, *pairs.T, np.array([c.grad_norm_mhz_per_mt for c in candidates]), *curvatures.T,
                  [c.classification for c in candidates], np.array([c.stationary for c in candidates])])
    for c in candidates[:5]:
        print(f"B = ({c.field_mt[0]:8.3f}, {c.field_mt[1]:8.3f}, {c.field_mt[2]:8.3f}) mT  "
              f"|grad| = {c.grad_norm_mhz_per_mt:.3e} MHz/mT  {c.classification}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def _fold_dash_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """``argv`` with each token that begins with a single "-" joined, as --opt=token, to an option before it
    that takes a value, named in full or by a prefix argparse completes: argparse reads such a token as an
    option name unless it looks like a negative number.  Which options take a value, the parser tells."""
    parsers = [parser, *next(a.choices for a in parser._actions if isinstance(a.choices, dict)).values()]
    options = {o: a.nargs != 0 for p in parsers for a in p._actions for o in a.option_strings}
    out = []
    for tok in argv:
        opt = out[-1] if out else ""
        named = [opt] if opt in options else [o for o in options if opt[:2] == "--" and o.startswith(opt)]
        if tok[:1] == "-" and tok[:2] != "--" and named and all(options[o] for o in named):
            out[-1] = f"{opt}={tok}"
        else:
            out.append(tok)
    return out


_freeze_at_exit = False  # gc.freeze is registered to run at exit


def main(argv=None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # the process leaves its heap to the OS: the interpreter's final
        # collections skip frozen objects
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    argv = list(_sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser(argv)
        args = parser.parse_args(_fold_dash_values(argv, parser))
        return args.run(args)
    except _SchemaRequested as schema:
        print(schema)
        return 0
    except ConfigError as exc:
        record = exc.record()
    except OSError as exc:
        record = ConfigError("io-error", str(exc), str(exc.filename or "")).record()
    except (ValueError, KeyError) as exc:
        record = {"code": "error", "message": str(exc), "key": ""}
    import json

    print(json.dumps(record), file=_sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
