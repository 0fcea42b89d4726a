import csv

import numpy as np

from kramers import hamiltonian
from kramers.hamiltonian import SpinSystem, hellmann_feynman
from kramers.tensors import EulerAngles, PrincipalTensor, SymmetricTensor3, assemble_tensor, subsite_transform


def read_csv(path):
    """Read one of the package's CSV outputs into {column: array}.

    Skips '#' comment lines (the version stamp); numeric columns become
    float arrays, everything else stays as string arrays.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    header, body = rows[0], rows[1:]
    out = {}
    for k, name in enumerate(header):
        col = [r[k] for r in body]
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = np.array(col)
    return out


def random_system(rng, g_n=0.987):
    """A spin system with random A (principal values in [-8, 8] GHz) and g (in [0.1, 7]), each at random angles."""
    def tensor(lo, hi):
        values = tuple(rng.uniform(lo, hi, 3))
        angles = EulerAngles(rng.uniform(-180, 180), rng.uniform(0, 180), rng.uniform(-180, 180))
        return assemble_tensor(PrincipalTensor(values, angles))

    return SpinSystem(A=tensor(-8.0, 8.0), g=tensor(0.1, 7.0), g_n=g_n)


def isotropic_system(a_ghz, g=2.0, g_n=0.987):
    return SpinSystem(
        A=SymmetricTensor3(a_ghz * np.eye(3)), g=SymmetricTensor3(g * np.eye(3)), g_n=g_n
    )


def closest_subsite_representative(tensor: SymmetricTensor3, reference: SymmetricTensor3) -> SymmetricTensor3:
    """The subsite labelling of ``tensor`` nearest to ``reference``.

    Fits from subsite-degenerate field geometries determine the tensor only
    up to the C2-about-b reflection; comparisons against a known truth pick
    the representative with the smaller elementwise matrix distance.
    """
    flipped = subsite_transform(tensor)
    d_direct = np.abs(tensor.matrix - reference.matrix).max()
    d_flipped = np.abs(flipped.matrix - reference.matrix).max()
    return tensor if d_direct <= d_flipped else flipped


def reference_curvature(sys, fields, i, j):
    """The curvature (MHz/mT^2) of transition (i, j) at the fields (..., 3)
    from finite differences: central differences of the Hellmann-Feynman
    gradient with steps h = 0.1 mT and h/2, one Richardson step, symmetrized."""
    from kramers.hamiltonian import transition_gradients

    fields = np.asarray(fields, dtype=float)
    h, e = 0.1, np.eye(3)
    grads, _ = transition_gradients(sys, fields[..., None, :] + h * np.concatenate([e, -e, e / 2, -e / 2]), i, j)
    c1 = (grads[..., 0:3, :] - grads[..., 3:6, :]) / (2.0 * h)
    c2 = (grads[..., 6:9, :] - grads[..., 9:12, :]) / h
    curv = (4.0 * c2 - c1) / 3.0 * 1e3
    return 0.5 * (curv + np.swapaxes(curv, -1, -2))


# Test-only references: the plain per-item loops that the package's stacked
# code must reproduce bit for bit.

def benchmark_rate_variants():
    """The four rates files of the benchmark (base rates 2 to 2000 per second)."""
    from kramers.shb import RateMatrix

    return [RateMatrix.symmetric({(0, 1): r12, (2, 3): r12, (0, 2): r13, (1, 3): r13, (0, 3): r14, (1, 2): r14})
            for r12, r13, r14 in ((2.0, 0.147433, 0.0604911), (20.0, 1.47433, 0.604911),
                                  (200.0, 14.7433, 6.04911), (2000.0, 147.433, 60.4911))]


def reference_generator(rates, pumped_level):
    """``shb._generator`` one matrix element at a time."""
    r = rates.rates
    m = np.zeros((4, 4))
    for k in range(4):
        for l in range(4):
            if k != l:
                m[l, k] += r[k, l]
                m[k, k] -= r[k, l]
    m[pumped_level, pumped_level] -= rates.pump_rate
    for l in range(4):
        if l != pumped_level:
            m[l, pumped_level] += rates.pump_rate / 3.0
    return m


def reference_offset_fit(peaks, lines):
    """``spectra._offset_fit`` one seed at a time: (rms, offset)."""
    best_rms, best_offset = np.inf, 0.0
    for p in peaks:
        for l in lines:
            t = p - l
            for _ in range(4):
                assigned = lines[np.argmin(np.abs(lines[None, :] - (peaks - t)[:, None]), axis=1)]
                t = float(np.mean(peaks - assigned))
            rms = float(np.sqrt(np.mean((peaks - t - assigned) ** 2)))
            if rms < best_rms - 1e-15 or (abs(rms - best_rms) <= 1e-15 and t < best_offset):
                best_rms, best_offset = rms, t
    return best_rms, best_offset


def reference_hole_entries(site, B, burn=0.0, rates=None, cutoff=1e-3):
    """The entries of ``shb.hole_pattern``, one numpy scalar at a time from
    each state's own eigensystem at the field."""
    from kramers.hamiltonian import eigensystem
    from kramers.shb import ANTIHOLE, HOLE, PSEUDO_EPSILON, PSEUDO_HOLE, HoleEntry, _relative_population_changes
    from kramers.spectra import lorentzian_amplitude, optical_lines

    eg, ee = eigensystem(site.ground, B).energies, eigensystem(site.excited, B).energies
    entries = []
    for line in optical_lines(site, B, "uniform"):
        offset = burn - line.detuning_ghz
        weight = float(lorentzian_amplitude(offset, site.fwhm_mhz * 1e-3)) * line.strength
        if weight < cutoff:
            continue
        i, j = line.ground_level, line.excited_level
        delta = _relative_population_changes(rates, i)
        for jp in range(4):
            entries.append(HoleEntry(float(ee[jp] - ee[j]), HOLE, weight * (-delta[i]), (i, j), (i, jp)))
            for ip in range(4):
                if ip == i:
                    continue
                detuning = (ee[jp] - ee[j]) + (eg[i] - eg[ip])
                if delta[ip] >= 0.0:
                    polarity, w = ANTIHOLE, delta[ip]
                elif -delta[ip] > PSEUDO_EPSILON:
                    polarity, w = PSEUDO_HOLE, -delta[ip]
                else:
                    continue
                entries.append(HoleEntry(float(detuning), polarity, weight * w, (i, j), (ip, jp)))
    entries.sort(key=lambda e: (e.detuning_ghz, e.class_label, e.probe))
    return entries


def reference_render(entries, detunings, hole_width_mhz=5.0):
    """``shb.render_pattern`` with one Lorentzian per entry."""
    from kramers.shb import ANTIHOLE
    from kramers.spectra import lorentzian_amplitude

    amp = np.zeros_like(detunings, dtype=float)
    for e in entries:
        sign = 1.0 if e.polarity == ANTIHOLE else -1.0
        amp += sign * e.weight * lorentzian_amplitude(detunings - e.detuning_ghz, hole_width_mhz * 1e-3)
    return amp


def eigh_reference(A, g, dA, dg, fields, base):
    """``hellmann_feynman``'s levels (B, F, 4) and derivatives (B, F, 4, P) at every (tensor pair, field)."""
    B, F = len(A), len(fields)
    w, _, dE = hellmann_feynman(*(np.repeat(t, F, axis=0) for t in (A, g, dA, dg)), np.tile(fields, (B, 1)),
                                base.g_n, base.mu_b, base.mu_n)
    return w.reshape(B, F, 4), dE.reshape(B, F, 4, -1)


def closed_form(A, g, dA, dg, fields, base):
    """``_closed_form``'s levels, derivatives and held rows of tensor pairs at fields (F, 3)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return hamiltonian._closed_form(hamiltonian._hyperfine_parts(A, dA, dg), g, fields,
                                        base.g_n, base.mu_b, base.mu_n)
