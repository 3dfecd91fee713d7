"""Per-frame retransmit timers: the spec the retransmit clock refines.

``ReferenceChannel`` is ``ReliableChannel`` with one
``call_after(delay, ...)`` timer per transmit — cancelled by the frame's
ack, all cancelled once no frame is pending or on ``crash()``, and
firing ``_on_ack_timeout`` otherwise — the design the per-channel
retransmit clock replaced.  ``test_retransmit_clock.py`` demands that no
program can tell the two apart.  Test-only, never imported from ``src/``.
"""

from repro.resilience.channel import ReliableChannel


class ReferenceChannel(ReliableChannel):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._timers = {}  # (dst, seq) -> the frame's own retransmit timer

    def _arm_retransmit(self, pending, delay) -> None:
        self._timers[pending.dst, pending.seq] = self.sim.call_after(
            delay, lambda: self._on_timer(pending)
        )

    def _on_timer(self, pending) -> None:
        del self._timers[pending.dst, pending.seq]
        self._on_ack_timeout(pending)

    def _disarm(self, pending) -> None:
        self._timers.pop((pending.dst, pending.seq)).cancel()

    def _stop_clock(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
