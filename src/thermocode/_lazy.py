"""numpy, imported on first use.

Importing numpy costs more CPU than the rest of a `thermocode` process that
never needs an array, and most never do: the count tables, their entropies
and temperatures and the canonical sums run on the standard library.  Only
`prefixes`, `sample`, `temperature --mode log` without `-L` (its argmax),
the `iter_log_tables` sweep and a table's ndarray views (`support`,
`log2_array()`) touch numpy.  This module is the
`importlib.util.LazyLoader` recipe from the `importlib` documentation.  If
numpy is already imported, `np` is that module.  Otherwise `np` is a module
object registered in `sys.modules` whose code runs on its first attribute
access; after that it is the ordinary numpy module, so `import numpy`
anywhere later gets the same object.

Before Python 3.12, `LazyLoader` is not thread-safe on that first attribute
access: two threads touching `np` at once can both run numpy's import.
thermocode calls numpy from one thread; a threaded caller should import
numpy itself first.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
