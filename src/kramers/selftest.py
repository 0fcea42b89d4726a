"""Embedded regression suite: canonical observables the shipped presets
must reproduce, plus fast structural property checks.

Each item returns (ok, detail); ``run_selftest`` prints one PASS/FAIL line
per item.  The same functions back the acceptance test module.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import (
    basis_overlaps,
    eigensystem,
    energies_sweep,
    invert_zero_field,
    reconstruct_levels,
    transition_frequencies,
    unit_direction,
    zero_field_levels,
)
from .presets import SITE_I, SITE_II, principal, site_parameters
from .shb import PSEUDO_HOLE, RateMatrix, hole_pattern
from .spectra import optical_lines, ordering_search
from .tensors import EulerAngles, assemble_tensor

# measured zero-field spin-resonance sets (MHz)
ODMR_LINES_SITE_I = (2046.0, 2385.0, 2869.0, 3208.0)
ODMR_PSEUDO_SITE_I = (339.0, 823.0)
ODMR_LINES_SITE_II = (528.0, 655.0, 2370.0, 2496.0, 3025.0)

# published crystal-frame matrices the presets must reproduce (GHz for A,
# dimensionless for g), with elementwise tolerances
REFERENCE_MATRICES = {
    ("I", "ground", "A", 0.01): [
        [4.847, -1.232, -0.244], [-1.232, 1.425, -0.203], [-0.244, -0.203, 0.618]],
    ("I", "excited", "A", 0.02): [
        [6.715, -1.413, 0.499], [-1.413, 2.233, -0.143], [0.499, -0.143, 1.513]],
    ("II", "ground", "A", 0.01): [
        [0.686, -0.718, 0.492], [-0.718, 0.509, -0.496], [0.492, -0.496, 4.729]],
    ("II", "excited", "A", 0.02): [
        [2.802, -0.379, 0.661], [-0.379, 2.652, -0.532], [0.661, -0.532, 6.277]],
    ("I", "ground", "g", 0.01): [
        [6.072, -1.460, -0.271], [-1.460, 1.845, -0.415], [-0.271, -0.415, 0.523]],
    ("I", "excited", "g", 0.03): [
        [3.242, -0.566, 0.249], [-0.566, 0.934, -0.033], [0.249, -0.033, 1.023]],
    ("II", "ground", "g", 0.01): [
        [0.999, -0.766, 0.825], [-0.766, 0.825, -0.424], [0.825, -0.424, 5.867]],
    ("II", "excited", "g", 0.03): [
        [1.389, -0.337, 0.572], [-0.337, 1.308, -0.383], [0.572, -0.383, 3.008]],
}

D1 = np.array([1.0, 0.0, 0.0])


def zero_field_transitions_mhz(sys) -> np.ndarray:
    return transition_frequencies(eigensystem(sys, (0.0, 0.0, 0.0))) * 1e3


def _contains(computed, targets, tol_mhz) -> tuple[bool, str]:
    misses = []
    for t in targets:
        err = np.abs(computed - t).min()
        if err > tol_mhz:
            misses.append(f"{t:.0f} MHz off by {err:.2f}")
    detail = f"computed {np.round(np.sort(computed), 1)}"
    if misses:
        return False, detail + "; missed " + "; ".join(misses)
    return True, detail


def check_odmr_site_i():
    freqs = zero_field_transitions_mhz(SITE_I.ground)
    ok1, d1 = _contains(freqs, ODMR_LINES_SITE_I, 1.0)
    ok2, _ = _contains(freqs, ODMR_PSEUDO_SITE_I, 1.0)
    return ok1 and ok2, d1


def check_odmr_site_ii():
    freqs = zero_field_transitions_mhz(SITE_II.ground)
    return _contains(freqs, ODMR_LINES_SITE_II, 2.0)


def check_reference_matrices():
    worst = []
    ok = True
    for (site, state, kind, tol), ref in REFERENCE_MATRICES.items():
        params = site_parameters(site)[f"{state}_{kind}"]
        assembled = assemble_tensor(principal(*params)).matrix
        err = float(np.abs(assembled - np.asarray(ref)).max())
        worst.append(f"{kind}_{site}^({state[0]}) {err:.4f}/{tol}")
        ok = ok and err <= tol
    return ok, "max elementwise errors: " + ", ".join(worst)


def check_zero_field_inversion():
    # 1,000 points 0.5 + n * (1/g, 1/g^2, 1/g^3) mod 1 with g^4 = g + 1 (Roberts' R3 sequence): a fixed,
    # even cover of [0, 8)^3 that needs no numpy.random; sorted, |A3| >= |A2| >= |A1| >= 0
    g = 1.2207440846057596
    a = np.sort(8.0 * ((0.5 + np.arange(1, 1001)[:, None] * g ** -np.arange(1.0, 4.0)) % 1.0), axis=1)
    rec = np.stack(invert_zero_field(zero_field_levels(*a.T).sorted()), axis=1)
    missed = np.flatnonzero(np.abs(rec - a).max(axis=1) > 1e-12)
    if missed.size:
        return False, f"round trip failed for {a[missed[0]]}"
    lines_ghz = np.array(ODMR_LINES_SITE_I) * 1e-3
    mags = np.array(invert_zero_field(reconstruct_levels(lines_ghz)))
    canonical = np.array([0.484, 1.162, 5.254])
    err = np.abs(mags - canonical).max() * 1e3
    return err <= 2.0, f"measured-line inversion {np.round(mags, 4)} GHz (err {err:.3f} MHz)"


def _interior_dips(sys, b_max=150.0, step=0.25):
    """Adjacent-pair gap minima strictly inside a B || D1 sweep."""
    mags = np.arange(0.0, b_max + 0.5 * step, step)
    e = energies_sweep(sys, mags[:, None] * D1[None, :])
    dips = []
    for pair in range(3):
        gap = e[:, pair + 1] - e[:, pair]
        k = int(np.argmin(gap))
        if 0 < k < len(mags) - 1 and gap[k] < gap[0] and gap[k] < gap[-1]:
            depth = gap[k] / min(gap[0], gap[-1])
            dips.append((depth, float(mags[k]), pair))
    return sorted(dips)


def check_avoided_crossings():
    dips_g = _interior_dips(SITE_I.ground)
    dips_e = _interior_dips(SITE_I.excited)
    if not dips_g or not dips_e:
        return False, "no interior gap minimum found"
    bg, be = dips_g[0][1], dips_e[0][1]
    ok = (20.0 <= bg <= 40.0) and (60.0 <= be <= 100.0)
    return ok, f"ground crossing at {bg:.1f} mT (30+/-10), excited at {be:.1f} mT (80+/-20)"


def check_slope_ratio():
    mags = np.arange(300.0, 500.1, 10.0)
    fields = mags[:, None] * D1[None, :]

    def dominant_slope(sys):
        e = energies_sweep(sys, fields)
        span = e[:, 3] - e[:, 0]  # dominant electron-spin-flip branch
        return float(np.polyfit(mags, span, 1)[0])

    ratio = dominant_slope(SITE_I.ground) / dominant_slope(SITE_I.excited)
    return abs(ratio - 2.0) <= 0.4, f"ground/excited slope ratio {ratio:.3f} (2.0 +/- 0.4)"


def adapted_axes(sys, direction):
    """Field-adapted quantization axes: electron along g^T B-hat, nucleus
    along the hyperfine field A e-hat of the polarized electron."""
    e_ax = unit_direction(sys.g.matrix.T @ unit_direction(direction))
    return e_ax, unit_direction(sys.A.matrix @ e_ax)


def check_overlap_swap():
    e_ax, n_ax = adapted_axes(SITE_I.ground, D1)

    def argmaxes(b_mt):
        es = eigensystem(SITE_I.ground, b_mt * D1)
        o = basis_overlaps(es, electron_axis=e_ax, nuclear_axis=n_ax)
        return int(np.argmax(o[:, 1])), int(np.argmax(o[:, 2]))

    lo2, lo3 = argmaxes(10.0)
    hi2, hi3 = argmaxes(60.0)
    swapped = (lo2, lo3) == (hi3, hi2) and lo2 != lo3
    return swapped, f"level-2/3 dominant product states {lo2},{lo3} -> {hi2},{hi3} across 30 mT"


def check_bell_overlaps():
    worst = 0.0
    for sys in (SITE_I.ground, SITE_I.excited, SITE_II.ground, SITE_II.excited):
        principal_frame = sys.with_principal(orientation=EulerAngles(0, 0, 0))
        es = eigensystem(principal_frame, (0.0, 0.0, 0.0))
        o = np.sort(basis_overlaps(es), axis=0)
        err = max(
            np.abs(o[:2, :]).max(),            # two overlaps ~ 0
            np.abs(o[2:, :] - 0.5).max(),      # two overlaps ~ 1/2
        )
        worst = max(worst, float(err))
    return worst <= 1e-10, f"max deviation from (1/2, 1/2, 0, 0) structure: {worst:.2e}"


def check_ordering_uniqueness():
    details = []
    ok = True
    for site in (SITE_I, SITE_II):
        peaks = [l.detuning_ghz for l in optical_lines(site, intensity_model="uniform")]
        ranked = ordering_search(site, peaks)
        best, others = ranked[0], ranked[1:]
        this_ok = (
            best.ordering == site.ordering
            and best.rms_ghz < 1e-3
            and all(o.rms_ghz > 10 * max(best.rms_ghz, 1e-3) for o in others)
            and not best.tied
        )
        ok = ok and this_ok
        details.append(
            f"{site.label}: best {best.ordering} rms {best.rms_ghz * 1e3:.4f} MHz, "
            f"next {others[0].rms_ghz * 1e3:.1f} MHz"
        )
    return ok, "; ".join(details)


def fast_pair_rates() -> RateMatrix:
    """Fast relaxation inside the (1,2) and (3,4) ground doublets."""
    return RateMatrix.symmetric({(0, 1): 1e3, (2, 3): 1e3}, pump_rate=200.0, duration_s=0.3)


def check_pseudo_holes():
    pattern = hole_pattern(SITE_I, (0.0, 0.0, 0.0), 0.0, rates=fast_pair_rates())
    pseudo = [e.detuning_ghz for e in pattern.entries if e.polarity == PSEUDO_HOLE]
    if not pseudo:
        return False, "no pseudo-holes produced"
    targets_mhz = (823.0, -823.0, 339.0, -339.0)
    misses = [
        t for t in targets_mhz
        if min(abs(p * 1e3 - t) for p in pseudo) > 1.0
    ]
    no_rates = hole_pattern(SITE_I, (0.0, 0.0, 0.0), 0.0, rates=None)
    clean = all(e.polarity != PSEUDO_HOLE for e in no_rates.entries)
    ok = not misses and clean
    return ok, f"{len(pseudo)} pseudo-hole entries; targets missed: {misses or 'none'}"


ITEMS = (
    ("odmr-zero-field-site-I", check_odmr_site_i),
    ("odmr-zero-field-site-II", check_odmr_site_ii),
    ("reference-crystal-matrices", check_reference_matrices),
    ("zero-field-inversion", check_zero_field_inversion),
    ("avoided-crossings-site-I", check_avoided_crossings),
    ("high-field-slope-ratio", check_slope_ratio),
    ("overlap-swap-30mT", check_overlap_swap),
    ("bell-overlaps-principal-frame", check_bell_overlaps),
    ("ordering-uniqueness", check_ordering_uniqueness),
    ("pseudo-holes-823-339", check_pseudo_holes),
)


def run_selftest(out=print) -> bool:
    all_ok = True
    for name, fn in ITEMS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
