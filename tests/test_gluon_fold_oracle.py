"""Bitwise oracle for the fold kernel.

``GluonSynchronizer.fold`` routes by slice, combines all masters in one
state with one wave per source, gathers once per master and lands once per
receiver.
The algorithm it replaced — one ``owner == m`` mask per (host, master), one
combine state per master with one ``accumulate`` per source, one landing
per message — lives on here as :func:`reference_fold`, and the kernel must
equal it **bit for bit**: canonical rows, every replica, the changed and
received sets, and every phase record's per-host bytes and message count
(with transient faults injected, so the order of sends is compared too).
:func:`lockstep_sync` is the kernel's lock-step bit-vector front end.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.cluster.faults import TransientFaultInjector
from repro.core.combiners import get_combiner
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.partitioner import replicate_all_partitions
from repro.gluon.plans import get_plan
from repro.gluon.sync import FieldSync, GluonSynchronizer

EMPTY = np.empty(0, dtype=np.int64)


def reference_fold(net, bounds, field, touched, deltas, combiner, plan, canonical, accessed, offset):
    """The per-(master, source) fold, written out with masks."""
    H, dim = net.num_hosts, field.dim
    blocks = np.diff(bounds).tolist()
    def cut(ids):  # cut(ids)[m]: the mask of the ids that master m owns
        return [np.searchsorted(bounds, ids, side="right") - 1 == m for m in range(H)]
    changed = []
    with net.phase(f"reduce:{field.name}"):
        sels = [cut(t) for t in touched]
        for h, m in ((h, m) for h in range(H) for m in range(H) if m != h):
            wire = plan.reduce_wire_bytes(int(sels[h][m].sum()), dim, blocks[m])
            if wire > 0:
                net.send(h, m, wire)
        for m in range(H):
            srcs = sorted(range(H), key=lambda h: (h - offset) % H)  # empty contributions too
            union = np.unique(np.concatenate([touched[h][sels[h][m]] for h in srcs]))
            if len(union):
                state = combiner.create(len(union), dim)
                for h in srcs:
                    state.accumulate(np.searchsorted(union, touched[h][sels[h][m]]), deltas[h][sels[h][m]])
                new = (canonical[m][union].astype(np.float64) + state.result()).astype(canonical[m].dtype)
                canonical[m][union] = new
                field.land(m, union, new)
            changed.append(union)
    wanted = None
    if plan.requires_access_sets:
        wanted = [[a[sel] for sel in cut(a)] for a in accessed]
        with net.phase(f"request:{field.name}"):
            for h, m in ((h, m) for h in range(H) for m in range(H) if m != h):
                if plan.request_wire_bytes(len(wanted[h][m])) > 0:
                    net.send(h, m, plan.request_wire_bytes(len(wanted[h][m])))
    received = [[EMPTY] for _ in range(H)]
    with net.phase(f"broadcast:{field.name}"):
        for m, h in ((m, h) for m in range(H) for h in range(H) if h != m):
            ids, wire = plan.broadcast_selection(changed[m], blocks[m], wanted and wanted[h][m], dim)
            if wire > 0:
                net.send(m, h, wire)
                field.land(h, ids, canonical[m][ids])
                received[h].append(ids)
    return changed, [np.unique(np.concatenate(r)) for r in received]


def lockstep_sync(sync, field, bases, updated, combiner, plan, accessed_next=None, fold_offset=0):
    """One fold of the rows ``updated[h]`` flags, deltas current − base;
    the masters' bases are the canonical view and a landing writes replica
    and base.  The caller owns round boundaries (bit vectors, snapshots)."""
    touched = [bits.indices() for bits in updated]
    deltas = [a[t].astype(np.float64) - b[t] for a, b, t in zip(field.arrays, bases, touched)]

    def land(host, ids, vals):
        bases[host][ids] = vals
        return field.land(host, ids, vals)

    return sync.fold(
        field, touched, deltas, combiner, plan, canonical=bases, land=land,
        accessed_next=accessed_next, fold_offset=fold_offset,
    )


def world(H, V, dim, dtype, shared, seed):
    """A synchronizer, its field and the canonical view, freshly seeded."""
    rng = np.random.default_rng(seed)
    net = SimulatedNetwork(H, fault_injector=TransientFaultInjector(0.1, 0.05, seed=seed))
    sync = GluonSynchronizer(replicate_all_partitions(V, H), net)
    init = rng.normal(size=(V, dim)).astype(dtype)
    field = FieldSync("f", [init.copy() for _ in range(H)])
    canonical = [init.copy()] * H if shared else [init.copy() for _ in range(H)]
    return net, sync, field, canonical


def contributions(rng, shape, H, V, dim, bounds):
    """One round's ``(touched, deltas)`` of the named degenerate shape."""
    touched = []
    for h in range(H):
        if shape == "all_empty":
            ids = EMPTY
        elif shape == "one_row_all_hosts":
            ids = np.array([V // 2], dtype=np.int64)
        elif shape == "own_block_only":
            ids = np.arange(bounds[h], bounds[h + 1], dtype=np.int64)
        else:
            ids = np.flatnonzero(rng.random(V) < rng.choice([0.0, 0.3, 1.0]))
        touched.append(ids)
    deltas = [rng.normal(size=(len(t), dim)) for t in touched]
    if shape == "zero_norm":
        # Exact-zero contributions: the running combination of a row can
        # be zero when the next one arrives (MC's ``_EPS_SQ`` branch).
        for h in range(0, H, 2):
            deltas[h][:] = 0.0
    return touched, deltas


@pytest.mark.parametrize("touched", [
    # Host 2 sends an empty wave; rows 0, 1 and 5 have 3, 2 and 1 contributors.
    [[0, 1, 5], [0, 1], [], [0, 3]],
    # Row 0 has all 4 contributors, row 6 one.
    [[0, 2], [0, 6], [0], [0, 2]],
])
def test_avg_fold_is_the_sum_fold_over_h_bitwise(touched):
    """AVG is the mean over all H hosts, whoever touched a row."""
    H, V, dim = 4, 8, 3
    rng = np.random.default_rng(5)
    touched = [np.array(t, dtype=np.int64) for t in touched]
    deltas = [rng.normal(size=(len(t), dim)) for t in touched]

    def folded(name):
        sync = GluonSynchronizer(replicate_all_partitions(V, H), SimulatedNetwork(H))
        field = FieldSync("f", [np.zeros((V, dim)) for _ in range(H)])
        canonical = [np.zeros((V, dim)) for _ in range(H)]
        sync.fold(field, touched, deltas, get_combiner(name), get_plan("opt"),
                  canonical=canonical, land=field.land)
        return field.arrays

    for avg, total in zip(folded("avg"), folded("sum")):
        assert avg.tobytes() == (total / H).tobytes()


SHAPES = ["random", "all_empty", "one_row_all_hosts", "own_block_only", "zero_norm"]


@settings(max_examples=120, deadline=None)
@given(
    H=st.sampled_from([1, 2, 5, 32]),
    V=st.integers(min_value=1, max_value=40),  # V < H: empty master blocks
    dim=st.integers(min_value=1, max_value=5),
    combiner=st.sampled_from(["sum", "avg", "mc", "keep_first"]),
    plan=st.sampled_from(["naive", "opt", "pull"]),
    offset_kind=st.sampled_from(["0", "1", "H-1", "H", "3H+2"]),
    shared=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    shape=st.sampled_from(SHAPES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fold_equals_the_per_master_per_source_loop_bitwise(
    H, V, dim, combiner, plan, offset_kind, shared, dtype, shape, seed
):
    offset = {"0": 0, "1": 1, "H-1": H - 1, "H": H, "3H+2": 3 * H + 2}[offset_kind]
    combiner, plan = get_combiner(combiner), get_plan(plan)
    net_k, sync, field_k, canon_k = world(H, V, dim, dtype, shared, seed)
    net_r, _, field_r, canon_r = world(H, V, dim, dtype, shared, seed)
    rng = np.random.default_rng(seed + 1)
    for rnd in range(2):  # the second round folds on top of the first's values
        touched, deltas = contributions(rng, shape, H, V, dim, sync.bounds)
        accessed = None
        if plan.requires_access_sets:
            accessed = [np.flatnonzero(rng.random(V) < 0.5) for _ in range(H)]
        result = sync.fold(
            field_k, touched, deltas, combiner, plan, canonical=canon_k,
            land=field_k.land, accessed_next=accessed, fold_offset=offset + rnd,
        )
        changed, received = reference_fold(
            net_r, sync.bounds, field_r, touched, deltas, combiner, plan, canon_r,
            accessed, offset + rnd,
        )
        for got, want in ((result.changed_per_master, changed), (result.received_per_host, received)):
            assert len(got) == H
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
    for got, want in ((canon_k, canon_r), (field_k.arrays, field_r.arrays)):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert len(net_k.phase_records) == len(net_r.phase_records)
    for rec_k, rec_r in zip(net_k.phase_records, net_r.phase_records):
        assert rec_k.name == rec_r.name
        assert (rec_k.messages, rec_k.resent_bytes) == (rec_r.messages, rec_r.resent_bytes)
        assert np.array_equal(rec_k.sent, rec_r.sent) and np.array_equal(rec_k.recv, rec_r.recv)
    assert net_k.stats == net_r.stats
    assert all(net_k.pending(h) == 0 for h in range(H))
