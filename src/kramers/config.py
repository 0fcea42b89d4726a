"""Input layer: validated parsers for every number that enters from outside.

Command-line values, the site and rates INI files and the fit-data and
peaks CSV files all go through the parsers below.  Every accepted number
lies in its quantity's row of ``hamiltonian.RANGES``, every grid is ordered
and every command's sample count is capped by ``MAX_POINTS``; each rejection
is a ``ConfigError`` with a machine-readable (code, message, key) record.

A site config file either names a built-in preset or fully specifies the
four tensors (the README's Configuration section shows both forms); unknown
sections and keys are rejected before any computation.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .hamiltonian import G_N_DEFAULT, MU_B_GHZ_PER_T, MU_N_GHZ_PER_T, RANGES
from .presets import get_site, site_from_parameters
from .spectra import SiteModel

MAX_POINTS = 10**7  # samples one command may allocate (the defaults stay below 1e6)


class ConfigError(Exception):
    """Validation failure with a machine-readable (code, message, key)."""

    def __init__(self, code: str, message: str, key: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.key = key

    def record(self) -> dict:
        return {"code": self.code, "message": self.message, "key": self.key}


def number(text, key: str, quantity: str, code: str = "bad-value") -> float:
    """``text`` (or a float) as a finite float in the ``RANGES`` row of ``quantity``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    low, high = RANGES[quantity]
    if not (math.isfinite(value) and low <= value <= high):
        raise ConfigError(code, f"{key}: expected a finite number in [{low:g}, {high:g}], got {text!r}", key)
    return value


def integer(text: str, key: str, minimum: int = 1, code: str = "bad-value") -> int:
    """An integral number >= ``minimum``; an integer literal keeps every digit (a float has 53 bits)."""
    value = number(text, key, "integer", code)
    if value != int(value) or value < minimum:
        raise ConfigError(code, f"{key}: expected an integer >= {minimum}, got {text!r}", key)
    try:
        return int(text)
    except ValueError:  # an integral form such as 1e3
        return int(value)


def number_list(text: str, key: str, quantity: str, code: str = "bad-value") -> list[float]:
    """Comma-separated numbers; empty items are skipped."""
    return [number(p, key, quantity, code) for p in text.split(",") if p.strip()]


def triple(text: str, key: str, quantity: str, code: str = "bad-value") -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(code, f"{key}: expected three comma-separated numbers, got {text!r}", key)
    return tuple(number(p, key, quantity, code) for p in parts)


_DIRECTIONS = {"d1": (1.0, 0.0, 0.0), "d2": (0.0, 1.0, 0.0), "b": (0.0, 0.0, 1.0)}


def vector(text: str, key: str, quantity: str = "direction", nonzero: bool = False) -> tuple[float, float, float]:
    """A field or direction: D1|D2|b, three numbers, or 0 for the zero vector."""
    vec = _DIRECTIONS.get(text.strip().lower())
    if vec is None:
        if "," not in text and number(text, key, quantity, "bad-vector") == 0.0:
            vec = (0.0, 0.0, 0.0)
        else:
            vec = triple(text, key, quantity, "bad-vector")
    if nonzero and not any(vec):
        raise ConfigError("bad-vector", f"{key}: expected a nonzero direction", key)
    return vec


def integers(text: str, key: str, count: int, code: str = "bad-value") -> tuple[int, ...]:
    """Exactly ``count`` comma-separated integers >= 1."""
    values = tuple(integer(p, key, code=code) for p in text.split(","))
    if len(values) != count:
        raise ConfigError(code, f"{key}: expected {count} comma-separated integers, got {text!r}", key)
    return values


def level_pair(text: str, key: str, code: str = "bad-value") -> tuple[int, int]:
    """A 1-based pair "lo,up" or "lo-up" with 1 <= lo < up <= 4, returned 0-based."""
    lo, up = integers(text.replace("-", ","), key, 2, code)
    if not lo < up <= 4:
        raise ConfigError(code, f"{key}: expected levels 1 <= lower < upper <= 4, got {text!r}", key)
    return lo - 1, up - 1


def check_points(key: str, *counts: float) -> None:
    """Reject a command whose sample count, the product of ``counts``, exceeds MAX_POINTS."""
    total = math.prod(counts)
    if not total <= MAX_POINTS:
        raise ConfigError("too-large", f"{key}: {total:.3g} points exceed the limit of {MAX_POINTS}", key)


class Grid(NamedTuple):
    """start:stop:step with start <= stop and step > 0."""

    start: float
    stop: float
    step: float

    @property
    def points(self) -> float:
        """Length of np.arange(start, stop + 0.5 * step, step) before rounding up."""
        return (self.stop + 0.5 * self.step - self.start) / self.step


def grid(text: str, key: str, quantity: str) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("bad-range", f"{key}: expected start:stop:step, got {text!r}", key)
    start, stop = (number(p, key, quantity, "bad-range") for p in parts[:2])
    g = Grid(start, stop, number(parts[2], key, "step", "bad-range"))
    if not (stop >= start and g.points > 0):
        raise ConfigError("bad-range", f"{key}: expected start <= stop (a non-empty grid), got {text!r}", key)
    check_points(key, g.points)
    return g


def samples(text: str, key: str, quantity: str) -> np.ndarray:
    """A start:stop:step grid or a non-empty, non-decreasing comma list of ``quantity``."""
    if ":" in text:
        start, stop, step = grid(text, key, quantity)
        return np.arange(start, stop + 0.5 * step, step)
    values = number_list(text, key, quantity, "bad-range")
    if not values or any(b < a for a, b in zip(values, values[1:])):
        raise ConfigError("bad-range", f"{key}: expected a non-empty non-decreasing list, got {text!r}", key)
    return np.array(values)


def _read_ini(text: str, known: dict[str, set[str]]):
    """A ``configparser.ConfigParser`` of ``text`` whose sections and keys are all in ``known``."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("parse-error", str(exc))
    for section in parser.sections():
        if section not in known:
            raise ConfigError("unknown-section", f"unknown section [{section}]", section)
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError("unknown-key", f"unknown key {key!r} in [{section}]", f"{section}.{key}")
    return parser


# each tensor section and its key in ``presets.site_from_parameters``
_TENSOR_SECTIONS = {"ground.a": "ground_A", "ground.g": "ground_g", "excited.a": "excited_A", "excited.g": "excited_g"}
_KNOWN_KEYS = {
    "site": {"preset", "name", "center_nm", "fwhm_mhz", "ordering_ground", "ordering_excited"},
    "constants": {"mu_b_ghz_per_t", "mu_n_ghz_per_t", "g_n"},
    **{s: {"unit", "values", "angles_deg"} for s in _TENSOR_SECTIONS},
}
_TENSOR_UNITS = {"a": {"ghz"}, "g": {"dimensionless", "none", "1"}}  # by the section's last letter


def parse_config(text: str) -> SiteModel:
    """Parse and validate config text into a ready-to-use SiteModel."""
    parser = _read_ini(text, _KNOWN_KEYS)

    constants = parser["constants"] if parser.has_section("constants") else {}
    magnetons = {
        name: number(constants[key], f"constants.{key}", quantity) if key in constants else default
        for name, key, default, quantity in (
            ("mu_b", "mu_b_ghz_per_t", MU_B_GHZ_PER_T, "magneton_ghz_per_t"),
            ("mu_n", "mu_n_ghz_per_t", MU_N_GHZ_PER_T, "magneton_ghz_per_t"),
            ("g_n", "g_n", G_N_DEFAULT, "g"),
        )
    }

    site_section = parser["site"] if parser.has_section("site") else {}
    preset = site_section.get("preset")

    if preset is not None:
        if any(parser.has_section(s) for s in _TENSOR_SECTIONS):
            raise ConfigError(
                "conflict", "config may name a preset or specify tensors, not both",
                "site.preset",
            )
        try:
            site = get_site(preset)
        except KeyError as exc:
            raise ConfigError("unknown-preset", str(exc.args[0]), "site.preset")
    else:
        missing = [s for s in _TENSOR_SECTIONS if not parser.has_section(s)]
        if missing:
            raise ConfigError(
                "missing-section", f"tensor sections missing: {', '.join(missing)}", missing[0]
            )
        for need in ("center_nm", "fwhm_mhz"):
            if need not in site_section:
                raise ConfigError("missing-key", f"site.{need} is required", f"site.{need}")

        params = {}
        for section, name in _TENSOR_SECTIONS.items():
            sec = parser[section]
            for need in ("unit", "values", "angles_deg"):
                if need not in sec:
                    raise ConfigError("missing-key", f"{section}.{need} is required", f"{section}.{need}")
            unit = sec["unit"].strip().lower()
            if unit not in _TENSOR_UNITS[section[-1]]:
                raise ConfigError(
                    "bad-unit",
                    f"{section}.unit must be one of {sorted(_TENSOR_UNITS[section[-1]])}, got {unit!r}",
                    f"{section}.unit",
                )
            params[name] = (triple(sec["values"], f"{section}.values", "g" if section[-1] == "g" else "a_ghz"),
                            triple(sec["angles_deg"], f"{section}.angles_deg", "angle_deg"))
        for key in ("center_nm", "fwhm_mhz"):
            params[key] = number(site_section[key], f"site.{key}", key)
        site = site_from_parameters(params, site_section.get("name", "custom"))

    ordering = list(site.ordering)
    for n, key in enumerate(("ordering_ground", "ordering_excited")):
        if key in site_section:
            value = number(site_section[key], f"site.{key}", "integer")
            if value not in (1.0, -1.0):
                raise ConfigError("bad-value", f"site.{key}: ordering classes must be +1 or -1", f"site.{key}")
            ordering[n] = int(value)
    if tuple(ordering) != site.ordering:
        site = site.with_ordering(tuple(ordering))

    return replace(
        site, ground=replace(site.ground, **magnetons), excited=replace(site.excited, **magnetons)
    )


def read_text(path, newline: str | None = None) -> str:
    """A UTF-8 text file's contents; undecodable bytes are a ``bad-encoding`` error keyed by the file name."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("bad-encoding", f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})", str(path))


def load_config(path) -> SiteModel:
    return parse_config(read_text(path))


_RATE_KEYS = {"pump_rate", "duration_s"} | {f"r{k}{l}" for k in range(1, 5) for l in range(1, 5) if k != l}


def load_rates(path):
    """The ``shb.RateMatrix`` of a [rates] file: symmetric pair rates rNM (1/s), pump_rate and duration_s."""
    from .shb import RateMatrix

    parser = _read_ini(read_text(path), {"rates": _RATE_KEYS})
    if not parser.has_section("rates"):
        raise ConfigError("bad-rates", f"{path}: expected a [rates] section", "rates")
    pairs, settings = {}, {}
    for key, raw in parser["rates"].items():
        value = number(raw, f"rates.{key}", "duration_s" if key == "duration_s" else "rate_per_s", "bad-rates")
        if key in ("pump_rate", "duration_s"):
            settings[key] = value
        else:
            pairs[int(key[1]) - 1, int(key[2]) - 1] = value
    return RateMatrix.symmetric(pairs, **settings)
