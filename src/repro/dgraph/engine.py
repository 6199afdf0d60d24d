"""The execution-engine seam: the trainer's round loop.

:class:`TrainingEngine` is the seam :class:`~repro.w2v.distributed.
GraphWord2Vec` trains through.  Its one implementation,
:class:`~repro.dgraph.async_engine.SSPTrainingEngine`, runs the rounds
under a bounded-staleness clock; the paper's barrier-synchronous loop is
its ``staleness=0`` schedule, not a second driver.  Trainer code never
imports it concretely — it calls :func:`resolve_training_engine`.

Zheng et al.'s delay compensation for stale asynchronous SGD (paper ref
[29]) lives here as :func:`compensate_delta`; the training engine applies
it to stale contributions when run with ``delay_compensation=λ``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.model import Word2VecModel

__all__ = [
    "TrainingEngine",
    "resolve_training_engine",
    "compensate_delta",
]


def compensate_delta(
    delta: np.ndarray, drift: np.ndarray, lam: float, lr: float
) -> np.ndarray:
    """Zheng et al.'s delay compensation in delta form (paper ref [29]).

    With the diagonal Hessian approximation ∂²L/∂w² ≈ c·g·gᵀ, a gradient
    delayed past model drift ``w_now − w_stale`` is corrected by
    ``g_comp = g + λ·g⊙g⊙drift``; for an aggregated delta ``δ = −α·g``
    that is ``δ_comp = δ − (λ/α)·δ⊙δ⊙drift``.  ``lam == 0`` returns
    ``delta`` unchanged (bit-identical no-compensation path).
    """
    if lam <= 0:
        return delta
    scale = lam / max(lr, 1e-12)
    return delta - scale * delta * delta * drift


class TrainingEngine(ABC):
    """Round-loop driver for :class:`~repro.w2v.distributed.GraphWord2Vec`.

    An engine owns *when* rounds execute and fold (the clock model); the
    trainer owns *what* a round is (work generation, kernels, comm plans,
    recovery bookkeeping).  ``run`` executes all rounds from the trainer's
    current barrier position up to ``stop_epoch``/``until_round`` and
    returns the modeled makespan of the executed span in seconds.
    """

    name: str = "abstract"
    #: Rounds a host may lead the slowest host by (0 = barrier-synchronous).
    staleness: int = 0
    #: Delay-compensation λ applied to stale contributions at fold time.
    delay_compensation: float = 0.0

    @abstractmethod
    def run(
        self,
        trainer: "GraphWord2Vec",
        stop_epoch: int,
        until_round: int | None,
        epoch_callback: Callable[[int, "Word2VecModel"], None] | None,
    ) -> float:
        """Execute rounds; returns the span's modeled makespan."""


def resolve_training_engine(
    engine: str | TrainingEngine,
    staleness: int = 0,
    delay_compensation: float = 0.0,
) -> TrainingEngine:
    """Instantiate the training engine by schedule name.

    ``"bsp"`` names the lock-step schedule — the engine at ``staleness=0``
    — so ``staleness``/``delay_compensation`` must be left at their
    defaults for it (a barrier has no staleness window to bound or
    compensate); ``"async"`` / ``"ssp"`` take both.  A pre-built
    :class:`TrainingEngine` instance passes through unchanged.
    """
    if isinstance(engine, TrainingEngine):
        return engine
    if engine == "bsp":
        if staleness != 0:
            raise ValueError(
                f"staleness={staleness} requires engine='async' (BSP is staleness-0)"
            )
        if delay_compensation != 0.0:
            raise ValueError(
                "delay_compensation requires engine='async' "
                "(BSP folds are never stale)"
            )
    elif engine not in ("async", "ssp"):
        raise ValueError(f"unknown engine {engine!r}; available: bsp, async")
    from repro.dgraph.async_engine import SSPTrainingEngine  # imports this module

    return SSPTrainingEngine(staleness=staleness, delay_compensation=delay_compensation)
