"""``repro.util.heap``: freed training temporaries stay resident."""

from __future__ import annotations

import resource

import numpy as np
import pytest

from repro.util.heap import hold_heap


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_freed_blocks_are_not_faulted_in_again():
    """Blocks freed together, 24 MB in all, come back without page faults.

    Under glibc's adaptive thresholds blocks this size are mapped afresh or
    trimmed off the heap top, and every round faults their pages in again
    (about 1 100 faults a round in a fresh interpreter).
    """
    if not hold_heap():
        pytest.skip("mallopt thresholds are glibc-only")
    assert hold_heap()  # safe to repeat
    words = 2 * 1024 * 1024  # 8 MB of float32 per block

    def one_round() -> None:
        blocks = [np.ones(words, dtype=np.float32) for _ in range(3)]
        del blocks

    one_round()
    before = minor_faults()
    for _ in range(5):
        one_round()
    assert minor_faults() - before < 500
