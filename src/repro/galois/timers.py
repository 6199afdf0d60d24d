"""Statistics timers, Galois ``StatTimer``-style.

Used throughout the distributed engine to attribute wall-clock to phases
(compute, inspection, serialization) per host; the cluster simulator combines
them with modeled network time for the Figure 8/9 breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import Callable

__all__ = ["StatTimer"]


@dataclass
class StatTimer:
    """Accumulating region timer; safe to start/stop repeatedly.

    ``clock`` selects the time source: wall clock by default
    (``time.perf_counter``), or e.g. ``time.thread_time`` for
    contention-independent CPU measurement of regions that may share the
    machine with other worker threads.  Start and stop must be called on
    the same thread when a per-thread clock is used.
    """

    name: str
    total: float = 0.0
    count: int = 0
    # This default IS the library's sanctioned clock-injection point: code
    # that must not read wall-clock takes a StatTimer and the caller picks
    # the clock.  The only place the wall-clock lint does not apply.
    clock: Callable[[], float] = field(default=time.perf_counter, repr=False)  # repro: noqa[REPRO003]
    _started: float | None = field(default=None, repr=False)

    def start(self) -> "StatTimer":
        if self._started is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._started = self.clock()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} is not running")
        elapsed = self.clock() - self._started
        self._started = None
        self.total += elapsed
        self.count += 1
        return elapsed

    def __enter__(self) -> "StatTimer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def add(self, seconds: float) -> None:
        """Record externally measured (or modeled) time."""
        if seconds < 0:
            raise ValueError(f"negative time {seconds}")
        self.total += seconds
        self.count += 1
