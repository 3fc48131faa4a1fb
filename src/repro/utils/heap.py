"""Process heap policy: keep freed numpy buffers in glibc's heap.

A training step frees its large temporaries and the next step asks for the
same sizes again.  Under glibc's default dynamic thresholds those buffers
are either ``mmap``-ed or trimmed back to the kernel when freed, so every
step page-faults them in again as freshly zeroed pages.
:func:`retain_freed_memory` fixes the mmap and trim thresholds once per
process, which also turns the dynamic thresholds off: freed step buffers
stay in the heap and the next step reuses them.  The price is that RSS stays
at its high-water mark.

The policy stands down when the user has chosen one through glibc's own
variables, and does nothing where ``mallopt`` does not exist (not glibc).
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["retain_freed_memory", "state", "mallopt_ok"]

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20
USER_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
                  "MALLOC_TOP_PAD_")

#: ``retained`` (thresholds set here), ``env`` (the user's glibc policy is
#: left alone) or ``unavailable`` (no ``mallopt``).
state = "unavailable"
#: Whether both ``mallopt`` calls returned 1.
mallopt_ok = False


def retain_freed_memory() -> str:
    """Apply the heap policy to this process; return the resulting state."""
    global state, mallopt_ok
    mallopt_ok = False
    if (any(name in os.environ for name in USER_VARIABLES)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        state = "env"
        return state
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        state = "unavailable"
        return state
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    returned = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    mallopt_ok = returned == [1, 1]
    state = "retained"
    return state
