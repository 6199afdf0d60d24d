"""Property-based end-to-end checks of the replicated synchronization.

A reference implementation combines each round's host deltas directly with
the scalar-path projection math (repro.core.projection) on a single global
model; the Gluon engine must produce the same canonical values through its
master/mirror machinery under every plan.
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.core.combiners import get_combiner
from repro.core.projection import combine_sequence
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.partitioner import replicate_all_partitions
from repro.gluon.plans import get_plan
from repro.gluon.sync import FieldSync, GluonSynchronizer
from tests.test_gluon_fold_oracle import lockstep_sync


def reference_combine(model, round_touches, round_deltas, combiner_name, fold_offset):
    """Directly fold per-host deltas into the global model, row by row."""
    H = len(round_touches)
    order = sorted(range(H), key=lambda h: (h - fold_offset) % H)
    V = model.shape[0]
    for row in range(V):
        grads = []
        for h in order:
            touched = round_touches[h]
            if row in touched:
                grads.append(round_deltas[h][touched.index(row)])
        if not grads:
            continue
        if combiner_name == "mc":
            combined = combine_sequence(grads)
        elif combiner_name == "sum":
            combined = np.sum(grads, axis=0)
        elif combiner_name == "avg":
            # Every host contributes, one that did not touch the row a zero.
            combined = np.sum(grads, axis=0) / H
        elif combiner_name == "keep_first":
            combined = grads[0]
        else:
            raise AssertionError(combiner_name)
        model[row] += combined.astype(np.float32)
    return model


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),  # hosts
    st.integers(min_value=1, max_value=3),  # rounds
    st.sampled_from(["mc", "sum", "avg", "keep_first"]),
    st.sampled_from(["opt", "naive", "pull"]),
    st.integers(0, 2**16),
    st.integers(min_value=0, max_value=3),  # fold_offset = r + base * H (>= H wraps)
)
def test_engine_matches_reference(H, rounds, combiner_name, plan_name, seed, offset_base):
    rng = np.random.default_rng(seed)
    V, D = 7, 3
    init = rng.normal(size=(V, D)).astype(np.float32)

    parts = replicate_all_partitions(V, H)
    net = SimulatedNetwork(H)
    sync = GluonSynchronizer(parts, net)
    field = FieldSync("f", arrays=[init.copy() for _ in range(H)])
    bases = [init.copy() for _ in range(H)]
    plan = get_plan(plan_name)
    combiner = get_combiner(combiner_name)
    reference = init.astype(np.float64).astype(np.float32).copy()

    # Pre-generate the whole touch/delta schedule so PullModel's access
    # sets (next round's touches) are known at sync time.
    schedule = []
    for _r in range(rounds):
        touches = []
        deltas = []
        for _h in range(H):
            k = int(rng.integers(0, V + 1))
            rows = sorted(rng.choice(V, size=k, replace=False).tolist())
            touches.append(rows)
            deltas.append(rng.normal(size=(k, D)).astype(np.float32))
        schedule.append((touches, deltas))

    for r in range(rounds):
        touches, deltas = schedule[r]
        upd = [BitVector(V) for _ in range(H)]
        for h in range(H):
            rows = np.array(touches[h], dtype=np.int64)
            if rows.size:
                # A host may only write rows it "accesses"; under PullModel
                # that means rows in this round's access set — which is how
                # we define the access sets below, so this is consistent.
                field.arrays[h][rows] += deltas[h]
                upd[h].set_many(rows)
        accessed = None
        if plan.requires_access_sets:
            if r + 1 < rounds:
                next_touches = schedule[r + 1][0]
                accessed = [
                    np.array(next_touches[h], dtype=np.int64) for h in range(H)
                ]
            else:
                accessed = [np.empty(0, dtype=np.int64) for _ in range(H)]
        fold_offset = r + offset_base * H
        lockstep_sync(
            sync, field, bases, upd, combiner, plan, accessed_next=accessed, fold_offset=fold_offset
        )
        # Reference: deltas measured in float64 from the float32 arrays the
        # engine saw; we reuse the raw float32 deltas (identical values).
        reference = reference_combine(
            reference, touches, deltas, combiner_name, fold_offset=fold_offset
        )

    # Canonical state lives at the masters.
    bounds = parts[0].master_bounds
    canonical = np.empty_like(init)
    for h in range(H):
        lo, hi = int(bounds[h]), int(bounds[h + 1])
        canonical[lo:hi] = field.arrays[h][lo:hi]
    np.testing.assert_allclose(canonical, reference, rtol=1e-4, atol=1e-5)
