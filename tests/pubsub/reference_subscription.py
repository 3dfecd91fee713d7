"""Per-message ack-deadline timers: the spec the lease watchdog refines.

``ReferenceSubscription`` is ``Subscription`` with one
``call_after(ack_timeout, ...)`` timer per delivery, cancelled by the
lease's ack, nack or seek and firing ``_expire`` otherwise — the design
the per-subscription watchdog replaced.  ``test_lease_watchdog.py``
demands that no program can tell the two apart.  Test-only, never
imported from ``src/``.
"""

from repro.pubsub.subscription import Subscription, _Inflight


class ReferenceSubscription(Subscription):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._timers = {}  # id(_Inflight) -> its own deadline timer

    def _lease(self, state, message, attempts) -> None:
        timeout = self.config.ack_timeout
        inflight = _Inflight(message, attempts, self.sim.now() + timeout, -1)
        state.inflight[message.offset] = inflight
        self._timers[id(inflight)] = self.sim.call_after(
            timeout, lambda: self._on_deadline(message.partition, message.offset)
        )

    def _release(self, inflight) -> None:
        self._timers.pop(id(inflight)).cancel()  # a no-op once it fired

    def _on_deadline(self, partition, offset) -> None:
        inflight = self._state[partition].inflight.get(offset)
        if inflight is not None:
            self._expire(partition, inflight)
