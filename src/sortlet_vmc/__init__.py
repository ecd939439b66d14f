"""Variational Monte Carlo with a sorting-based antisymmetric ansatz.

Submodules load lazily so the command-line front end can pin BLAS thread
counts through the environment before numpy comes in.

Importing the package calls glibc's `mallopt` once (through ctypes, without
numpy): M_MMAP_THRESHOLD = 32 MiB and M_TRIM_THRESHOLD = 128 MiB. Blocks up
to 32 MiB then come from the heap, and freed ones stay there, so each
local-energy pass reuses the memory of the last one instead of mapping and
faulting it in again. The setting holds for the whole process; without
glibc it is skipped.
"""

import ctypes
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ElectronConfiguration": "geometry",
    "SystemSpec": "geometry",
    "load_system": "geometry",
    "transpose_electrons": "geometry",
    "SortletWavefunction": "ansatz",
}

__all__ = sorted(_EXPORTS) + ["__version__"]

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


def _keep_freed_memory() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(M_MMAP_THRESHOLD, 32 << 20), mallopt(M_TRIM_THRESHOLD, 128 << 20)])


HEAP_KEPT = _keep_freed_memory()


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
