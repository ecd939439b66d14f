"""Variational Monte Carlo with a sorting-based antisymmetric ansatz.

Importing the package loads no submodule, so the command-line front end
can pin BLAS thread counts through the environment before numpy comes in.

Importing the package calls glibc's `mallopt` once (through ctypes, without
numpy): M_MMAP_THRESHOLD = 32 MiB and M_TRIM_THRESHOLD = 128 MiB. Blocks up
to 32 MiB then come from the heap, and freed ones stay there, so each
local-energy pass reuses the memory of the last one instead of mapping and
faulting it in again. The setting holds for the whole process; without
glibc it is skipped.
"""

import ctypes

__version__ = "0.1.0"

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

