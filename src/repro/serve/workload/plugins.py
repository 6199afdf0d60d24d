"""Backend plugins: one harness, every index and the sharded tier.

Everything the workload harness drives speaks the same surface — an
:class:`~repro.serve.index.Index` honoring ``search(queries, k)``,
wrapped in a :class:`~repro.serve.engine.QueryEngine` (or an engine
subclass like :class:`~repro.serve.shard.ShardedEngine` that *is* its
own front end).  A **backend plugin** is a named builder::

    (store, options, seed, engine_kwargs) -> QueryEngine

registered with :func:`register_backend`.  ``options`` is the workload
spec's ``backend_options`` mapping; builders ``pop`` what they consume
(integers only — a bool or ``2.5`` is a ``ValueError`` naming the option,
never a silently truncated knob) and :func:`build_backend` rejects
leftovers, so a typo in a spec fails loudly instead of silently running
the default configuration.

Built-ins: ``exact``, ``ivf``, ``ivf-int8``, and ``sharded``
(scatter-gather over :class:`~repro.serve.shard.ShardedIndex` with
replicas) — each clears recall@10 >= 0.8 against ``exact`` at its default
options, which the test suite checks for every registered name.  External
code can register more — anything that builds an object honoring the
engine surface qualifies.
"""

from __future__ import annotations

from typing import Callable

from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex
from repro.serve.ivf import IVFIndex, default_nlist
from repro.serve.quant import Int8Store
from repro.serve.shard import ShardedEngine, ShardedIndex
from repro.serve.store import EmbeddingStore
from repro.serve.workload.fields import json_object
from repro.util.checks import integer
from repro.util.rng import DEFAULT_SEED

__all__ = [
    "BackendBuilder",
    "register_backend",
    "available_backends",
    "build_backend",
]

#: ``(store, options, seed, engine_kwargs) -> engine``.  Builders pop the
#: options they consume; leftovers are rejected by :func:`build_backend`.
BackendBuilder = Callable[[EmbeddingStore, dict, int, dict], QueryEngine]

_REGISTRY: dict[str, BackendBuilder] = {}


def register_backend(name: str) -> Callable[[BackendBuilder], BackendBuilder]:
    """Register ``builder`` under ``name`` (decorator); returns it unchanged."""
    if not name:
        raise ValueError("backend name must be non-empty")

    def decorate(builder: BackendBuilder) -> BackendBuilder:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[name] = builder
        return builder

    return decorate


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def build_backend(
    name: str,
    store: EmbeddingStore,
    options: dict | None = None,
    *,
    seed: int = DEFAULT_SEED,
    **engine_kwargs,
) -> QueryEngine:
    """Build the engine for backend ``name`` over ``store``.

    ``options`` configures the backend itself (index shape knobs);
    ``engine_kwargs`` (``max_batch``, ``cache_size``, ``workers``,
    ``executor``, ``clock``, ``sanitize``) configure the engine front
    end and are forwarded to whichever engine the plugin constructs.
    Unknown names and unconsumed options raise ``ValueError``.
    """
    builder = _REGISTRY.get(name)
    if builder is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    remaining = dict(json_object({} if options is None else options, "backend_options"))
    engine = builder(store, remaining, int(seed), dict(engine_kwargs))
    if remaining:
        raise ValueError(
            f"backend {name!r} does not understand options {sorted(remaining)}"
        )
    return engine


def _engine(index, engine_kwargs: dict) -> QueryEngine:
    return QueryEngine(index, **engine_kwargs)


@register_backend("exact")
def _build_exact(store, options, seed, engine_kwargs):
    return _engine(ExactIndex(store), engine_kwargs)


def _option(options: dict, name: str, default: int) -> int:
    return integer(options.pop(name, default), f"backend option {name!r}")


def _ivf_shape(store, options):
    nlist = _option(options, "nlist", default_nlist(len(store)))
    nprobe = _option(options, "nprobe", 8)
    return nlist, nprobe


@register_backend("ivf")
def _build_ivf(store, options, seed, engine_kwargs):
    nlist, nprobe = _ivf_shape(store, options)
    return _engine(
        IVFIndex(store, nlist=nlist, nprobe=nprobe, seed=seed), engine_kwargs
    )


@register_backend("ivf-int8")
def _build_ivf_int8(store, options, seed, engine_kwargs):
    nlist, nprobe = _ivf_shape(store, options)
    codes = Int8Store.build(store)
    return _engine(
        IVFIndex(store, nlist=nlist, nprobe=nprobe, seed=seed, codes=codes),
        engine_kwargs,
    )


@register_backend("sharded")
def _build_sharded(store, options, seed, engine_kwargs):
    index = ShardedIndex(
        store,
        num_shards=_option(options, "shards", 2),
        replicas=_option(options, "replicas", 1),
    )
    return ShardedEngine(index, **engine_kwargs)
