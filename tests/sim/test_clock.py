"""Tests for the virtual clock."""

import pytest

from repro.sim.clock import ClockError, VirtualClock, days, hours, minutes, seconds


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_advance_to_same_time_ok(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_backwards_rejected(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        with pytest.raises(ClockError):
            clock.advance_to(9.0)


class TestUnits:
    def test_conversions(self):
        assert seconds(1) == 1.0
        assert minutes(2) == 120.0
        assert hours(1) == 3600.0
        assert days(1) == 86400.0

    def test_composition(self):
        assert days(1) == hours(24) == minutes(1440)
