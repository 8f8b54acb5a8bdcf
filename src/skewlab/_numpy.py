"""numpy, bound so that Python runs it on the first attribute access.

Only work over a circle base uses numpy: grid graphs, grid pullbacks, and
a circle product's batched forward orbits.  `certify`, `orbit-pair`, every
pointwise pullback (it composes fiber maps; sweeps are for node sets), and
every system over a finite base or a shift run on plain lists, so a process
that only runs them never pays numpy's import.  The modules that use arrays
take ``np`` from here.
"""

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # raises the usual ImportError

        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
