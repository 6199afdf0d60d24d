import numpy as np
import pytest

from repro.dgraph.generators import power_law


class TestPowerLaw:
    def test_skewed_in_degree(self):
        src, dst, n = power_law(200, 5000, exponent=1.3, seed=0)
        in_deg = np.bincount(dst, minlength=n)
        # The most popular node dominates the median by a wide margin.
        assert in_deg.max() > 10 * max(np.median(in_deg), 1)

    def test_no_self_loops(self):
        src, dst, _ = power_law(50, 500, seed=0)
        assert np.all(src != dst)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law(10, 5, exponent=0)
        with pytest.raises(ValueError):
            power_law(-1, 5)
