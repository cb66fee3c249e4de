"""Counter-file semantics (Section IV-A)."""

import pytest

from repro.errors import MicroExecutionError
from repro.uops import Counter, CounterFile


class TestCounter:
    def test_init_state(self):
        c = Counter("seg0")
        c.init(4)
        assert c.value == 4
        assert not c.zero_flag and not c.decade_flag
        assert c.index == 0

    def test_decr_auto_resets_on_zero(self):
        c = Counter("seg0")
        c.init(3)
        c.decr(); c.decr()
        assert c.value == 1 and not c.zero_flag
        c.decr()
        assert c.zero_flag
        assert c.value == 3  # hardware auto-reset

    def test_index_tracks_iterations(self):
        for tick in (Counter.decr, Counter.incr):
            c = Counter("seg0")
            c.init(4)
            assert c.index == 0
            indices = []
            for _ in range(8):
                tick(c)
                indices.append(c.index)
            assert indices == [0, 1, 2, 3, 0, 1, 2, 3], tick.__name__

    def test_consume_zero_clears(self):
        c = Counter("seg0")
        c.init(1)
        c.decr()
        assert c.consume_zero()
        assert not c.consume_zero()

    def test_decade_flag_on_powers_of_two(self):
        c = Counter("bit0")
        c.init(5)
        flags = []
        for _ in range(4):
            c.decr()
            flags.append(c.decade_flag)
            c.consume_decade()
        # values after decr: 4, 3, 2, 1 -> decades at 4, 2, 1
        assert flags == [True, False, True, True]

    def test_init_must_be_positive(self):
        with pytest.raises(MicroExecutionError):
            Counter("seg0").init(0)

    def test_incr_wraps(self):
        c = Counter("arr0")
        c.init(2)
        c.incr()
        assert not c.zero_flag
        c.incr()
        assert c.zero_flag and c.value == 0


class TestCounterFile:
    def test_twelve_counters_in_three_groups(self):
        counters = CounterFile()
        for group in ("seg", "bit", "arr"):
            for i in range(4):
                assert counters[f"{group}{i}"].name == f"{group}{i}"

    def test_unknown_counter(self):
        with pytest.raises(MicroExecutionError):
            CounterFile()["cnt13"]

    def test_reset(self):
        counters = CounterFile()
        counters["seg0"].init(5)
        counters["seg0"].decr()
        counters.reset()
        assert counters["seg0"].ticks == 0
