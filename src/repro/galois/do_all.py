"""``do_all`` parallel-loop abstraction.

Galois application code expresses the operator as a function applied to every
item of a range; the runtime chooses how to execute it.  We reproduce that
split: operators written against :func:`do_all` run identically under the
deterministic :class:`SerialExecutor` (the default) and the
:class:`ThreadPoolDoAll` executor (NumPy releases the GIL inside kernels, so
threads provide genuine overlap when cores exist).

:class:`ThreadPoolDoAll` keeps a persistent worker pool alive across ``run``
calls — the distributed trainer invokes it once per synchronization round,
and paying thread start-up per call would dominate small rounds.  Work is
handed out with *dynamic* chunk scheduling (workers pull the next chunk from
a shared cursor), so an uneven operator cannot strand cores the way static
per-worker splits do.  Operator exceptions are aggregated: every worker
drains its current chunk boundary, the loop stops, and all collected errors
surface together (a lone error re-raises as itself, preserving its type).
"""

from __future__ import annotations

# By name: ``concurrent.futures`` imports its thread module on first
# attribute access, which would otherwise land in the first timed round.
from concurrent.futures import ThreadPoolExecutor
import os
import threading
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

T = TypeVar("T")

__all__ = [
    "DoAllError",
    "DoAllExecutor",
    "SerialExecutor",
    "ThreadPoolDoAll",
    "do_all",
    "executor_from_env",
    "resolve_executor",
]

#: Environment variable consulted by :func:`executor_from_env`.  Setting it to
#: an integer > 1 makes components that opt in (currently ``GraphWord2Vec``)
#: default to a shared :class:`ThreadPoolDoAll` of that width — how CI runs
#: the whole test suite over the host-parallel path.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class DoAllError(RuntimeError):
    """Multiple operator invocations failed in one parallel ``do_all`` loop.

    ``causes`` holds every collected exception, in the (nondeterministic)
    order workers reported them.  A single failure is re-raised as itself
    instead, so callers keep matching on the original exception type.
    """

    def __init__(self, causes: Sequence[BaseException]):
        self.causes = list(causes)
        summary = "; ".join(f"{type(c).__name__}: {c}" for c in self.causes)
        super().__init__(
            f"{len(self.causes)} do_all operator invocations failed: {summary}"
        )


class DoAllExecutor(Protocol):
    """Strategy interface for executing a data-parallel loop."""

    def run(self, items: Sequence[T], operator: Callable[[T], None]) -> None:
        """Apply ``operator`` to every element of ``items``."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Deterministic in-order execution (reference semantics)."""

    def run(self, items: Sequence[T], operator: Callable[[T], None]) -> None:
        for item in items:
            operator(item)


class ThreadPoolDoAll:
    """Thread-pool execution with Galois-style dynamic chunk scheduling.

    The pool is created lazily on the first ``run`` and reused by every
    subsequent call (threads park between calls); ``close()`` — or use as a
    context manager — shuts it down, after which ``run`` raises.  An
    abandoned instance cleans itself up when garbage-collected (idle
    ``ThreadPoolExecutor`` workers exit once their executor is collected).

    ``chunk_size`` fixes how many items a worker claims at a time; the
    default aims for ~4 chunks per worker so a slow chunk cannot strand the
    other cores (dynamic load balancing).  Operators must be safe to run
    concurrently — either Hogwild-tolerant (shared-memory trainer) or
    touching disjoint state (per-host replicas in the distributed trainer).
    ``run`` itself is thread-safe and re-entrant across instances, so a
    single pool may be shared process-wide (see :func:`executor_from_env`).
    """

    def __init__(self, workers: int = 2, chunk_size: int | None = None):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = int(workers)
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ThreadPoolDoAll is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="do_all"
                )
            return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadPoolDoAll":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------
    def chunk_for(self, n: int) -> int:
        """Chunk size an ``n``-item loop would be scheduled with.

        Public so tooling (e.g. the :mod:`repro.analysis` sanitizers and
        benchmarks) can reason about chunk boundaries without re-deriving
        the policy.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        # ~4 chunks per worker: enough slack for dynamic balancing without
        # drowning tiny items in per-chunk bookkeeping.
        return max(1, -(-n // (4 * self.workers)))

    def run(self, items: Sequence[T], operator: Callable[[T], None]) -> None:
        items = list(items)
        n = len(items)
        if n == 0:
            return
        if self._closed:
            raise RuntimeError("ThreadPoolDoAll is closed")
        if self.workers == 1 or n == 1:
            SerialExecutor().run(items, operator)
            return

        chunk = self.chunk_for(n)
        cursor = [0]
        cursor_lock = threading.Lock()
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        stop = threading.Event()

        def worker() -> None:
            while not stop.is_set():
                with cursor_lock:
                    start = cursor[0]
                    if start >= n:
                        return
                    cursor[0] = start + chunk
                for item in items[start : start + chunk]:
                    try:
                        operator(item)
                    except BaseException as exc:  # aggregated below
                        with errors_lock:
                            errors.append(exc)
                        stop.set()
                        return

        pool = self._ensure_pool()
        lanes = min(self.workers, -(-n // chunk))
        for future in [pool.submit(worker) for _ in range(lanes)]:
            future.result()
        if errors:
            if len(errors) == 1:
                raise errors[0]
            raise DoAllError(errors)


def do_all(
    items: Iterable[T],
    operator: Callable[[T], None],
    executor: DoAllExecutor | None = None,
) -> int:
    """Apply ``operator`` to all ``items``; returns the item count.

    ``executor`` defaults to :class:`SerialExecutor`.
    """
    seq = list(items)
    (executor or SerialExecutor()).run(seq, operator)
    return len(seq)


def resolve_executor(
    executor: DoAllExecutor | None, workers: int | None
) -> DoAllExecutor | None:
    """Turn an ``(executor, workers)`` pair of knobs into one executor.

    At most one may be given.  ``workers=1`` means the serial executor;
    ``workers>1`` builds a private :class:`ThreadPoolDoAll`.  ``None, None``
    returns ``None`` (caller applies its own default).
    """
    if executor is not None and workers is not None:
        raise ValueError("pass either executor or workers, not both")
    if workers is None:
        return executor
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return SerialExecutor() if workers == 1 else ThreadPoolDoAll(workers)


_env_pools: dict[int, ThreadPoolDoAll] = {}
_env_pools_lock = threading.Lock()


def executor_from_env() -> DoAllExecutor | None:
    """Executor implied by ``REPRO_WORKERS``, or ``None`` when unset/<=1.

    Pools are shared process-wide per worker count, so a test suite that
    builds thousands of trainers under ``REPRO_WORKERS=4`` reuses four
    threads instead of leaking four per trainer.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if workers <= 1:
        return None
    with _env_pools_lock:
        pool = _env_pools.get(workers)
        if pool is None or pool.closed:
            pool = _env_pools[workers] = ThreadPoolDoAll(workers)
        return pool
