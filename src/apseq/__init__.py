"""Arithmetic-progression statistics of orderings of finite additive sets.

The command modules (asymptotics, counting, enumeration, las, montecarlo,
nonabelian) load lazily: importing the package puts each of them in
sys.modules and on the package, but runs a module's code only when one of
its attributes is first read.  Each CLI command therefore runs only the
modules it uses, which matters because every command is a fresh process.
They stay in sys.modules, so `from . import las`, `import apseq.las`,
pickling by import path and wrapping each module's functions all work as
with eager imports.  groups and errors load eagerly, as every command needs
them.  The package starts no threads, so the lock-free LazyLoader of
Python 3.10 and 3.11 is safe here.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


asymptotics = _register_lazy("asymptotics")
counting = _register_lazy("counting")
enumeration = _register_lazy("enumeration")
las = _register_lazy("las")
montecarlo = _register_lazy("montecarlo")
nonabelian = _register_lazy("nonabelian")
