"""Tests for the virtual clock."""

import pytest

from repro.sim.clock import DAYS, MINUTES, ClockError, VirtualClock, hours


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
        assert hours(1) == 3600.0
        assert DAYS == 86400.0

    def test_composition(self):
        assert DAYS == hours(24) == 1440 * MINUTES
