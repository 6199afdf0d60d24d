"""Keep the training loop's heap resident (glibc only).

Every slice of every worklist chunk allocates and frees the same few hundred
KB of gather and product temporaries, and every chunk its batch arrays.
glibc's ``malloc`` hands the top of the heap back to the kernel whenever
more than ``M_TRIM_THRESHOLD`` bytes lie free there, and it raises that
threshold and ``M_MMAP_THRESHOLD`` at run time as the process frees larger
blocks.  Whether a chunk's last ``free`` crosses the threshold then depends
on where earlier allocations happened to land, so one run of a seed gives
its pages back and faults them in again at most chunk ends and the next run
of the same seed at none: 0 to 30 000 minor faults per single-worker epoch
of the benchmark's ``train-sm`` corpus, up to 13% of the epoch's CPU time,
in a pattern that changes from run to run.

:func:`hold_heap` fixes both thresholds at the ceilings glibc's own
adaptation stops at (32 MiB and twice that on 64-bit builds), so the
temporaries stay resident from the first chunk on; blocks above 32 MiB are
still mapped and unmapped one by one.  Elsewhere it does nothing.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["hold_heap"]

#: ``mallopt`` parameters (glibc ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit builds; its dynamic
#: trim threshold is twice the mmap threshold.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def hold_heap() -> bool:
    """Fix glibc's trim and mmap thresholds for this process; True if set.

    Process-wide and safe to repeat; a no-op returning False off glibc.
    """
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; setting either threshold also stops
    # glibc adapting the other.
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
