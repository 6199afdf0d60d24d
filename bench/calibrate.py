"""A fixed numpy kernel timed next to the workload, to cancel the machine's state.

The boxes this benchmark runs on are virtual machines with neighbours.
Identical work was measured 30-50% slower for minutes at a time (shared
caches and memory bandwidth; not steal, which the CPU clock already
excludes), which is more than any bound a regression gate could use.  So
every run times a small kernel — plain numpy, never code of this
repository — between its units of work, and every reported time is
multiplied by ``speed = reference seconds / measured seconds`` of that
kernel.  Times therefore read as on the quiet reference box, where
``speed`` is 1.  Measured next to each other for seven minutes on a noisy
box, this cut the spread of a training unit from 3.5% to 1.4% and of a
serving unit from 8.5% to 2.7%.

The slowdown has a fast part (tenths of a second) and a slow part
(minutes).  One sample lasts ~0.1 s, so a run takes sixteen or more, spread
evenly between its units of work, and uses their median: few samples would
add more noise than they remove.

Each workload kind has the kernel that reacts to contention as it does:
``scatter`` (gather, einsum, ``ufunc.at`` on a vocabulary-sized matrix)
for training, ``scan`` (a 32-row tile against a 50 000 x 64 matrix, then
``argpartition``) for serving.
"""

from __future__ import annotations

import statistics

import numpy as np

from trace import clock

#: Median CPU seconds of one sample on the quiet 2-core reference box.
REFERENCE_S = {"scatter": 0.0750, "scan": 0.0570}


class Calibrator:
    def __init__(self, kind: str):
        rng = np.random.default_rng(20210517)
        self.kind = kind
        self.samples: list[float] = []
        if kind == "scatter":
            self._rows = rng.standard_normal((1326, 64)).astype(np.float32)
            self._out = rng.standard_normal((1326, 64)).astype(np.float32)
            self._centers = rng.integers(0, 1326, size=256)
            self._targets = rng.integers(0, 1326, size=(256, 11))
            self._kernel = self._scatter
        elif kind == "scan":
            self._matrix = rng.standard_normal((50_000, 64)).astype(np.float32)
            self._tile = rng.standard_normal((32, 64)).astype(np.float32)
            self._kernel = self._scan
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")

    def _scatter(self) -> None:
        rows, out = self._rows, self._out
        for _ in range(40):
            centers = rows[self._centers]
            targets = out[self._targets]
            scores = np.tanh(np.einsum("bd,bkd->bk", centers, targets)) * 1e-3
            np.subtract.at(
                out, self._targets.ravel(),
                (scores[:, :, None] * centers[:, None, :]).reshape(-1, 64),
            )
            np.subtract.at(rows, self._centers, np.einsum("bk,bkd->bd", scores, targets))

    def _scan(self) -> None:
        for _ in range(6):
            for start in range(0, 50_000, 8192):
                scores = self._tile @ self._matrix[start : start + 8192].T
                np.argpartition(-scores, 9, axis=1)

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        for _ in range(times):
            start = clock()
            self._kernel()
            self.samples.append(clock() - start)

    def speed(self) -> float:
        """This run's machine speed relative to the reference box."""
        return REFERENCE_S[self.kind] / statistics.median(self.samples)
