import csv

import numpy as np

from kramers.tensors import SymmetricTensor3, subsite_transform


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
