"""Event scheduler."""

import pytest

from repro.netsim import EventScheduler


class TestScheduling:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(3.0, lambda: fired.append("c"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(2.0, lambda: fired.append("b"))
        sched.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        sched = EventScheduler()
        fired = []
        for tag in "abc":
            sched.schedule(1.0, lambda t=tag: fired.append(t))
        sched.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_run_until_is_inclusive_and_advances_clock(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append(1))
        executed = sched.run_until(5.0)
        assert executed == 1 and fired == [1]
        assert sched.now == 5.0

    def test_future_events_stay_queued(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append(1))
        sched.run_until(4.9)
        assert fired == []
        assert sched.pending() == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        sched = EventScheduler()
        sched.run_until(10.0)
        fired = []
        sched.schedule_at(12.0, lambda: fired.append(sched.now))
        sched.run_until(20.0)
        assert fired == [12.0]

    def test_callback_can_schedule_followup(self):
        sched = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule(1.0, lambda: fired.append("second"))

        sched.schedule(1.0, first)
        sched.run_until(3.0)
        assert fired == ["first", "second"]

    def test_successive_run_until_windows(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(3.0, lambda: fired.append(2))
        sched.run_until(sched.now + 2.0)
        assert fired == [1]
        sched.run_until(sched.now + 2.0)
        assert fired == [1, 2]


class TestCancellation:
    def test_cancel_prevents_firing(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sched.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_firing_is_harmless(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        sched.run_until(2.0)
        handle.cancel()


class TestRecurring:
    def test_fires_repeatedly(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_every(2.0, lambda: fired.append(sched.now))
        sched.run_until(7.0)
        assert fired == [2.0, 4.0, 6.0]

    def test_cancel_stops_series(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule_every(1.0, lambda: fired.append(sched.now))
        sched.run_until(2.5)
        handle.cancel()
        sched.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_every(0.0, lambda: None)
