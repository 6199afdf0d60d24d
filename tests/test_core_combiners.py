from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.core.combiners import (
    AvgCombiner,
    KeepFirstCombiner,
    ModelCombiner,
    SumCombiner,
    get_combiner,
)
from repro.core.projection import combine_sequence


class TestRegistry:
    @pytest.mark.parametrize("name", ["sum", "avg", "mc", "keep_first"])
    def test_lookup(self, name):
        assert get_combiner(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            get_combiner("median")


class TestValidation:
    def test_duplicate_rows_in_one_contribution_rejected(self):
        state = SumCombiner().create(4, 2)
        with pytest.raises(ValueError, match="duplicate rows"):
            state.accumulate(np.array([1, 1]), np.zeros((2, 2)))

    def test_unsorted_but_unique_rows_accepted(self):
        # Ascending rows pass on one comparison; unsorted callers fall back
        # to the exact uniqueness test and are still served.
        state = SumCombiner().create(4, 2)
        state.accumulate(np.array([3, 0, 2]), np.ones((3, 2)))
        assert state.result().sum(axis=1).tolist() == [2.0, 0.0, 2.0, 2.0]

    def test_unsorted_rows_with_duplicate_rejected(self):
        state = SumCombiner().create(4, 2)
        with pytest.raises(ValueError, match="duplicate rows"):
            state.accumulate(np.array([3, 0, 3]), np.zeros((3, 2)))

    def test_row_out_of_range(self):
        state = SumCombiner().create(4, 2)
        with pytest.raises(IndexError):
            state.accumulate(np.array([4]), np.zeros((1, 2)))

    def test_shape_mismatch(self):
        state = SumCombiner().create(4, 2)
        with pytest.raises(ValueError):
            state.accumulate(np.array([0]), np.zeros((1, 3)))

    def test_bad_state_shape(self):
        with pytest.raises(ValueError):
            SumCombiner().create(2, 0)


class TestSum:
    def test_sparse_contributions(self):
        state = SumCombiner().create(3, 2)
        state.accumulate(np.array([0, 2]), np.array([[1.0, 0], [2.0, 0]]))
        state.accumulate(np.array([2]), np.array([[3.0, 1.0]]))
        out = state.result()
        assert np.allclose(out, [[1, 0], [0, 0], [5, 1]])


class TestAvg:
    def test_divides_by_contributor_count(self):
        # Every contribution counts, also for the rows it did not touch:
        # row 1 is (0 + 9) / 2, not 9 / 1.
        state = AvgCombiner().create(2, 1)
        state.accumulate(np.array([0]), np.array([[4.0]]))
        state.accumulate(np.array([0, 1]), np.array([[2.0], [9.0]]))
        out = state.result()
        assert np.allclose(out, [[3.0], [4.5]])

    def test_untouched_rows_zero(self):
        state = AvgCombiner().create(3, 1)
        state.accumulate(np.array([1]), np.array([[5.0]]))
        assert np.allclose(state.result()[[0, 2]], 0.0)


class TestKeepFirst:
    def test_keeps_first_contribution_only(self):
        state = KeepFirstCombiner().create(2, 1)
        state.accumulate(np.array([0]), np.array([[1.0]]))
        state.accumulate(np.array([0, 1]), np.array([[100.0], [7.0]]))
        assert np.allclose(state.result(), [[1.0], [7.0]])


class TestModelCombiner:
    def test_matches_reference_on_dense_contributions(self):
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=6) for _ in range(4)]
        expected = combine_sequence(grads)
        got = ModelCombiner().combine_dense(grads)
        assert np.allclose(got, expected)

    def test_orthogonal_equals_sum(self):
        g1 = np.array([[1.0, 0.0, 0.0]])
        g2 = np.array([[0.0, 2.0, 0.0]])
        state = ModelCombiner().create(1, 3)
        state.accumulate(np.array([0]), g1)
        state.accumulate(np.array([0]), g2)
        assert np.allclose(state.result(), g1 + g2)

    def test_parallel_keeps_first(self):
        g = np.array([[1.0, 1.0]])
        state = ModelCombiner().create(1, 2)
        state.accumulate(np.array([0]), g)
        state.accumulate(np.array([0]), 5 * g)
        assert np.allclose(state.result(), g)

    def test_zero_first_contribution_passes_second_through(self):
        state = ModelCombiner().create(1, 2)
        state.accumulate(np.array([0]), np.zeros((1, 2)))
        state.accumulate(np.array([0]), np.array([[3.0, 4.0]]))
        assert np.allclose(state.result(), [[3.0, 4.0]])

    def test_rows_evolve_independently(self):
        state = ModelCombiner().create(2, 2)
        state.accumulate(np.array([0, 1]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        state.accumulate(np.array([0]), np.array([[0.0, 5.0]]))
        out = state.result()
        assert np.allclose(out[0], [1.0, 5.0])
        assert np.allclose(out[1], [0.0, 1.0])

    def test_sparse_matches_per_row_reference(self):
        rng = np.random.default_rng(3)
        n, dim, hosts = 5, 4, 3
        contributions = []
        for _h in range(hosts):
            rows = np.sort(
                rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            )
            contributions.append((rows, rng.normal(size=(len(rows), dim))))
        state = ModelCombiner().create(n, dim)
        for rows, deltas in contributions:
            state.accumulate(rows, deltas)
        got = state.result()
        for row in range(n):
            grads = [
                deltas[list(rows).index(row)]
                for rows, deltas in contributions
                if row in rows
            ]
            expected = combine_sequence(grads) if grads else np.zeros(dim)
            assert np.allclose(got[row], expected), f"row {row}"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),  # dim
    st.integers(min_value=2, max_value=5),  # hosts
    st.integers(0, 2**16),
)
def test_mc_step_never_exceeds_sum_of_norms(dim, hosts, seed):
    rng = np.random.default_rng(seed)
    grads = [rng.normal(size=dim) for _ in range(hosts)]
    combined = ModelCombiner().combine_dense(grads)
    # Projection shrinks each folded gradient, so the combined step is at
    # most the triangle-inequality bound of the raw gradients.
    assert np.linalg.norm(combined) <= sum(np.linalg.norm(g) for g in grads) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(0, 2**16))
def test_all_combiners_identity_on_single_contribution(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(1, dim))
    for name in ("sum", "avg", "mc", "keep_first"):
        state = get_combiner(name).create(1, dim)
        state.accumulate(np.array([0]), g)
        assert np.allclose(state.result(), g), name
