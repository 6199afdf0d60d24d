from hypothesis import given, strategies as st
import numpy as np
import pytest

from repro.gluon.proxies import block_boundaries, block_owner_array


class TestBlockBoundaries:
    def test_even_split(self):
        assert block_boundaries(8, 4).tolist() == [0, 2, 4, 6, 8]

    def test_remainder_goes_first(self):
        assert block_boundaries(10, 4).tolist() == [0, 3, 6, 8, 10]

    def test_more_hosts_than_nodes(self):
        b = block_boundaries(2, 4)
        assert b.tolist() == [0, 1, 2, 2, 2]

    def test_zero_nodes(self):
        assert block_boundaries(0, 3).tolist() == [0, 0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_boundaries(4, 0)
        with pytest.raises(ValueError):
            block_boundaries(-1, 2)


class TestBlockOwner:
    def test_basic(self):
        b = block_boundaries(10, 4)  # [0,3,6,8,10]
        assert block_owner_array([0, 2, 3, 9], b).tolist() == [0, 0, 1, 3]

    def test_out_of_range(self):
        b = block_boundaries(4, 2)
        with pytest.raises(IndexError):
            block_owner_array([4], b)
        with pytest.raises(IndexError):
            block_owner_array([-1], b)

    def test_array_form_matches_scalar(self):
        b = block_boundaries(17, 5)
        nodes = np.arange(17)
        owners = block_owner_array(nodes, b)
        scalar = [next(h for h in range(5) if b[h] <= n < b[h + 1]) for n in nodes]
        assert scalar == owners.tolist()

    def test_array_out_of_range(self):
        b = block_boundaries(4, 2)
        with pytest.raises(IndexError):
            block_owner_array(np.array([0, 4]), b)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=20),
)
def test_blocks_partition_nodes(num_nodes, num_hosts):
    b = block_boundaries(num_nodes, num_hosts)
    assert b[0] == 0 and b[-1] == num_nodes
    sizes = np.diff(b)
    assert sizes.sum() == num_nodes
    assert sizes.max() - sizes.min() <= 1
    owners = block_owner_array(np.arange(num_nodes), b)
    # Owners are non-decreasing and each host owns a contiguous range.
    assert np.all(np.diff(owners) >= 0)
    counts = np.bincount(owners, minlength=num_hosts)
    assert np.array_equal(np.sort(counts)[::-1], np.sort(sizes)[::-1])
