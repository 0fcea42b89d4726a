"""SciPy entry points that import SciPy on their first call.

Importing kramers loads no SciPy module, so a command that never calls
SciPy does not pay for its import.  The modules bind each entry point they
use once, as a module attribute (``fitting.nnls``, ``shb.expm``,
``shb.null_space``), so tests can replace it there.
"""

from __future__ import annotations

import importlib


class SciPyFunction:
    """``<module>.<name>`` of SciPy, imported when first called.

    A callable object rather than a ``def``: it stays the one SciPy
    function to anything that tells a module's own functions from the
    third-party ones it calls.
    """

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name
        self._function = None

    def __call__(self, *args, **kwargs):
        if self._function is None:
            self._function = getattr(importlib.import_module(self.module), self.name)
        return self._function(*args, **kwargs)
