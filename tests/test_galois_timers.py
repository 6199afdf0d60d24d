import pytest

from repro.galois.timers import StatTimer


class TestStatTimer:
    def test_accumulates(self):
        t = StatTimer("x")
        with t:
            pass
        with t:
            pass
        assert t.count == 2
        assert t.total >= 0.0

    def test_double_start_rejected(self):
        t = StatTimer("x").start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            StatTimer("x").stop()

    def test_add_external_time(self):
        t = StatTimer("x")
        t.add(1.5)
        t.add(0.5)
        assert t.total == pytest.approx(2.0)
        assert t.count == 2

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            StatTimer("x").add(-1.0)
