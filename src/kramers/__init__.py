"""Hyperfine/Zeeman modeling of electronic-spin-1/2, nuclear-spin-1/2
Kramers ions in low-symmetry crystals.

Predicts optical, ODMR, EPR and spectral-hole-burning observables from
hyperfine (A) and Zeeman (g) tensor parameters, fits tensor orientations
from measured transition data, and locates ZEFOZ (zero first-order Zeeman)
field points.
"""

# the one version string: set before the submodule imports because output.STAMP reads it
# during package init; pyproject.toml reads it as the package version
__version__ = "0.1.0"

from .config import ConfigError, load_config, parse_config
from .hamiltonian import (
    EigenSystem,
    SpinSystem,
    ZeroFieldLevels,
    basis_overlaps,
    build_hamiltonian,
    diagonalize,
    eigensystem,
    energies_sweep,
    invert_zero_field,
    physical_constants,
    transition_frequencies,
    zeeman_gradient,
    zero_field_levels,
)
from .presets import SITE_I, SITE_II, get_site
from .spectra import OpticalLine, SiteModel, absorption_spectrum, optical_lines, ordering_search
from .tensors import (
    EulerAngles,
    PrincipalTensor,
    SymmetricTensor3,
    assemble_tensor,
    decompose_tensor,
    rotation_matrix,
    subsite_transform,
)

# the fitting, ZEFOZ, resonance and hole-burning names load their module on
# first use (PEP 562), so that importing the package, or a command that runs
# none of them, compiles none of those modules
_DEFERRED = {
    **dict.fromkeys(("DataPoint", "FitProblem", "FitResult", "fit", "invert_and_seed", "residuals"), "fitting"),
    **dict.fromkeys(("ZefozCandidate", "sensitivity", "zefoz_search"), "zefoz"),
    **dict.fromkeys(("EprResonance", "OdmrLine", "epr_angular_map", "epr_resonance_fields", "odmr_lines"), "magres"),
    **dict.fromkeys(("ClassAssignment", "HolePattern", "RateMatrix", "enumerate_classes", "hole_pattern",
                     "populations_after_burn", "shb_field_map"), "shb"),
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value
