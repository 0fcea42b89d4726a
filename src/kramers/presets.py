"""Canonical built-in parameter sets for the two dopant sites.

Principal values carry the published signs; angle triples are zxz Euler
angles in degrees orienting each tensor in the crystal (D1, D2, b) frame.
The site-I ground hyperfine values are the exact analytic inversion of the
measured zero-field spin resonances, and the site-I excited hyperfine /
ground g parameters reproduce the published crystal-frame matrices (the
self-consistent set; see the project notes for the provenance of each
number).
"""

from __future__ import annotations

from .hamiltonian import G_N_DEFAULT, SpinSystem
from .spectra import SiteModel
from .tensors import EulerAngles, PrincipalTensor, assemble_tensor

_SITE_PARAMS = {
    "I": {
        "ground_A": ((0.484, 1.162, 5.254), (72.25, 92.11, 63.92)),
        "excited_A": ((1.4654, 1.8247, 7.1709), (73.88, 84.76, 90.13)),
        "ground_g": ((0.31, 1.60, 6.53), (72.80, 91.30, 66.19)),
        "excited_g": ((0.8, 1.0, 3.4), (77.0, 84.0, -7.0)),
        "center_nm": 981.463,
        "fwhm_mhz": 800.0,
    },
    "II": {
        "ground_A": ((-0.1259, 1.1835, 4.8668), (45.86, 11.13, 2.97)),
        "excited_A": ((2.34, 2.90, 6.49), (51.07, 14.11, -0.67)),
        "ground_g": ((0.13, 1.50, 6.06), (59.10, 11.8, -12.6)),
        "excited_g": ((1.0, 1.4, 3.3), (54.0, 23.0, -10.0)),
        "center_nm": 978.854,
        "fwhm_mhz": 560.0,
    },
}


def principal(values, angles) -> PrincipalTensor:
    return PrincipalTensor(tuple(values), EulerAngles(*angles))


def site_from_parameters(params: dict, label: str) -> SiteModel:
    """A site from the (values, angles) pairs ``ground_A``, ``ground_g``,
    ``excited_A``, ``excited_g`` and the ``center_nm`` and ``fwhm_mhz`` of ``params``."""
    ground, excited = (
        SpinSystem(A=assemble_tensor(principal(*params[f"{state}_A"])),
                   g=assemble_tensor(principal(*params[f"{state}_g"])), g_n=G_N_DEFAULT)
        for state in ("ground", "excited")
    )
    return SiteModel(ground=ground, excited=excited, center_nm=params["center_nm"],
                     fwhm_mhz=params["fwhm_mhz"], label=label)


SITE_I = site_from_parameters(_SITE_PARAMS["I"], "site-I")
SITE_II = site_from_parameters(_SITE_PARAMS["II"], "site-II")

_ALIASES = {
    "i": "I", "1": "I", "site-i": "I", "site1": "I", "site-1": "I",
    "ii": "II", "2": "II", "site-ii": "II", "site2": "II", "site-2": "II",
}


def _preset_key(name: str) -> str:
    key = _ALIASES.get(str(name).strip().lower())
    if key is None:
        raise KeyError(f"unknown site preset {name!r} (expected site-I or site-II)")
    return key


def get_site(name: str) -> SiteModel:
    """Look up a built-in site preset by name ("I", "II", "site-I", ...)."""
    return SITE_I if _preset_key(name) == "I" else SITE_II


def site_parameters(name: str) -> dict:
    """The raw (values, angles) parameter dictionary behind a preset."""
    return dict(_SITE_PARAMS[_preset_key(name)])
