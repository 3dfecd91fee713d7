"""Discrete-event simulation kernel.

The kernel fires timestamped events in ``(time, seq)`` order.  Two
programming models are supported and freely mixed:

``call_after(delay, fn)``
    Schedule a plain callback.  Most infrastructure (broker delivery,
    GC and compaction sweeps, retransmits, edge pumps) uses callbacks.

``spawn(generator)``
    Run a *process*: a generator that yields a :class:`Timeout` or a
    number of seconds to sleep.  Workload drivers read naturally as
    processes.

The kernel is single-threaded and deterministic: events at equal times
fire in scheduling order, and all randomness must come from
:attr:`Simulation.rng`, which is seeded at construction.

Hot-path design (see ``docs/performance.md``) — two dispatch lanes and
a slab:

- Scheduled events are plain lists ``[time, seq, fn, label, cancelled]``
  ordered by ``(time, seq)``; ``seq`` is unique, so heap comparisons
  never reach the non-comparable payload fields.  Entries are recycled
  through a module-level slab (:data:`_POOL`): a fired entry goes back
  on the freelist and the next scheduling call reuses it, so
  steady-state dispatch allocates no per-event containers.  ``seq``
  comes from a process-global counter and is never reused, which makes
  it a generation tag: a stale :class:`EventHandle` over a recycled
  entry detects the seq mismatch and its ``cancel()`` is a no-op.
- **Lane 1, the heap**, orders every delayed event, near or far: a
  plain ``heappush`` at the scheduling call.
- **Lane 2, the zero-delay deque**: ``call_after(0.0, ...)`` — the
  dominant pattern (``spawn``, subscription pumps,
  zero-latency watch drains) — bypasses the heap through a FIFO.  Its
  entries carry the same ``(time, seq)`` stamps, and the run loop always
  fires the smaller ``(time, seq)`` head of the two lanes, so the
  observable order is identical to a single heap
  (``tests/sim/test_kernel_oracle.py`` checks it against a pure-heap
  reference kernel).
- Cancelled events stay queued as tombstones and are skipped on pop; a
  tombstone counter keeps :attr:`Simulation.pending_events` O(1) and
  exact, and both lanes are compacted when tombstones dominate them
  (resilience timers and idle-session backoffs cancel constantly and
  would otherwise accumulate until drained; see ``docs/scale.md``).

Reserved slots, two primitives:

- ``next_seq()`` draws the next event seq exactly as a scheduling call
  would, and schedules nothing.
- ``call_at_seq(t, seq, fn)`` schedules ``fn`` at the exact slot
  ``(t, seq)`` for a seq drawn earlier (at most once per seq).  Same
  slab and heap as ``call_at`` — which is ``call_at_seq`` on a fresh
  seq — and never the zero-delay lane, whose FIFO order an
  earlier seq would break; the run loop's head comparison still fires
  it ahead of same-instant zero-delay entries with larger seqs.  It
  raises :class:`SimError` for a past or non-finite ``t``.

They let a component that owns many deadlines keep *one* pending timer
for the earliest of them, yet fire each deadline at the very
``(time, seq)`` a per-deadline timer would have had, so no other
event's seq and no firing order changes.  Two components do: the pubsub
lease watchdog in :mod:`repro.pubsub.subscription`, and the reliable
channel's retransmit clock in :mod:`repro.resilience.channel`, whose
jittered deadlines are not FIFO and which therefore keeps a heap of
reserved slots and may hold more than one alarm.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from collections import deque
from itertools import count as _counter
import random
from typing import (
    Any, Callable, Deque, Generator, List, Optional,
)

from repro.sim.clock import VirtualClock

#: indices into an event entry [time, seq, fn, label, cancelled]
_TIME, _SEQ, _FN, _LABEL, _CANCELLED = range(5)

#: compact the heap when at least this many tombstones are queued *and*
#: they outnumber live heap entries (amortizes the rebuild)
_COMPACT_MIN_TOMBSTONES = 512

_INF = float("inf")

#: Slab of recycled event entries, shared across Simulation instances so
#: back-to-back runs (benchmark rounds, experiment sweeps) start warm.
#: Entries return here once fired, or once dropped from a lane as
#: tombstones — including ones an EventHandle still points at: the
#: handle snapshots the entry's seq, reuse stamps a fresh one, and a
#: stale ``cancel()`` sees the mismatch, so reuse can never be observed.
_POOL: List[List[Any]] = []

#: cap on retained slab entries (~120 B each -> a few MB ceiling); the
#: run loop trims the pool back on exit
_POOL_MAX = 65536

#: process-global event sequence; strictly monotone, never reused.
#: Per-simulation relative order is all the schedule depends on, so a
#: shared counter preserves determinism across interleaved simulations.
_next_seq = _counter().__next__


class SimError(RuntimeError):
    """Raised for kernel misuse (negative delays, run-after-close, ...)."""


class ProcessExit(Exception):
    """Yielded/raised to terminate a process early from within."""


def _component_of(fn: Callable[[], None]) -> str:
    """Fallback profiler attribution: the callable's defining module."""
    return getattr(fn, "__module__", None) or "unknown"


class EventHandle:
    """Handle returned by scheduling calls; supports cancellation.

    The handle is a thin view over a pooled queue entry.  Because
    entries are recycled, the handle snapshots the event's ``seq``:
    after the event fires and its entry is reused, a stale handle's
    seq no longer matches and ``cancel()`` is a guaranteed no-op —
    exactly the old fire-then-cancel semantics, enforced structurally.
    The handle itself is *not* pooled (the caller may keep it
    arbitrarily long); it dies young in the common discard-the-result
    pattern, which keeps GC generation scans cheap.
    """

    __slots__ = ("_entry", "_sim", "_seq")

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        sim = self._sim
        if sim is None:
            return  # already cancelled (idempotent)
        self._sim = None  # doubles as the handle's cancelled flag
        entry = self._entry
        if entry[_SEQ] != self._seq:
            return  # entry recycled: the event fired long ago
        if entry[_FN] is None:
            return  # already fired; nothing queued to account for
        entry[_FN] = None
        entry[_CANCELLED] = True
        sim._on_cancel()


#: bypass type.__call__ on the scheduling hot path; the call sites
#: fill the four slots directly
_new_handle = EventHandle.__new__


class Timeout:
    """Yielded by a process to sleep for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not 0 <= delay < _INF:
            raise SimError(f"negative or non-finite timeout {delay!r}")
        self.delay = delay


Process = Generator[Any, Any, Any]


class ProcessHandle:
    """Handle to a spawned process."""

    __slots__ = (
        "name", "done", "result", "error", "_gen", "_resume", "_label",
    )

    def __init__(self, gen: Process, name: str) -> None:
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._gen = gen
        # trampoline bound once by spawn(); reused for every yield so
        # process switching allocates no per-yield closures
        self._resume: Callable[[], None] = None  # type: ignore[assignment]
        self._label = f"proc:{name}"


class Simulation:
    """The simulation: virtual clock + event queues + seeded RNG."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.seed = seed
        #: delayed events, ordered by (time, seq)
        self._heap: List[List[Any]] = []
        #: FIFO lane for zero-delay events; entries are in
        #: nondecreasing (time, seq) order by construction
        self._fast: Deque[List[Any]] = deque()
        self._tombstones = 0  # cancelled events still queued
        self._running = False
        #: optional profiler hook (duck-typed: ``on_event(component,
        #: time)`` per fired event; the ledger's wall-clock attribution
        #: uses it).  Attribution is purely observational — attaching
        #: one never changes the event schedule.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # scheduling primitives

    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now()

    #: Draw the next event seq without scheduling anything (see the
    #: module docstring); the raw counter, so the call costs no frame.
    next_seq = staticmethod(_next_seq)

    def call_at(
        self, t: float, fn: Callable[[], None], label: Optional[str] = None,
        _next_seq=_next_seq,  # default-arg binding, as in call_at_seq
    ) -> EventHandle:
        """Schedule ``fn`` to run at absolute virtual time ``t``.

        ``label`` names the component for profiler attribution; without
        one, the event is attributed to ``fn``'s defining module.
        """
        return self.call_at_seq(t, _next_seq(), fn, label)

    def call_at_seq(
        self, t: float, seq: int, fn: Callable[[], None],
        label: Optional[str] = None,
        # default-arg bindings: globals resolved once at def time so the
        # hot body runs on fast locals (stdlib idiom; not part of the API)
        _float=float, _type=type, _pool=_POOL,
        _new_handle=_new_handle, _EventHandle=EventHandle,
        _heappush=heappush, _INF=_INF,
    ) -> EventHandle:
        """Schedule ``fn`` at the exact slot ``(t, seq)``, ``seq`` drawn
        earlier by :meth:`next_seq` (and never scheduled twice).

        Pushed on the heap like every delayed event, never on the
        zero-delay lane, whose FIFO order an earlier seq would break.
        """
        if _type(t) is not _float:
            t = _float(t)  # the clock must stay float-pure (trace JSON bytes)
        now = self.clock._now
        if t < now:
            raise SimError(f"cannot schedule in the past: {t} < {now}")
        if not t < _INF:  # inf or nan: would poison the queues
            raise SimError(f"cannot schedule at non-finite time {t!r}")
        if _pool:
            entry = _pool.pop()
            entry[0] = t
            entry[1] = seq
            entry[2] = fn
            entry[3] = label
        else:
            entry = [t, seq, fn, label, False]
        _heappush(self._heap, entry)
        handle = _new_handle(_EventHandle)
        handle._entry = entry
        handle._sim = self
        handle._seq = seq
        return handle

    def call_after(
        self, delay: float, fn: Callable[[], None], label: Optional[str] = None,
        # default-arg bindings, as in call_at_seq
        _next_seq=_next_seq, _pool=_POOL,
        _new_handle=_new_handle, _EventHandle=EventHandle,
    ) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` seconds from now.

        Zero-delay calls take the FIFO fast lane (no heap traffic) while
        firing in exactly the same global ``(time, seq)`` order.
        """
        if delay == 0.0:
            t = self.clock._now
            seq = _next_seq()
            if _pool:
                entry = _pool.pop()
                entry[0] = t
                entry[1] = seq
                entry[2] = fn
                entry[3] = label
            else:
                entry = [t, seq, fn, label, False]
            self._fast.append(entry)
            handle = _new_handle(_EventHandle)
            handle._entry = entry
            handle._sim = self
            handle._seq = seq
            return handle
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        return self.call_at_seq(self.clock._now + delay, _next_seq(), fn, label)

    def post(
        self, delay: float, fn: Callable[[], None], label: Optional[str] = None,
        # default-arg bindings, as in call_at_seq
        _next_seq=_next_seq, _pool=_POOL, _heappush=heappush, _INF=_INF,
    ) -> None:
        """Schedule ``fn`` like :meth:`call_after` but without creating
        an :class:`EventHandle`.

        The fire-and-forget flavor for hot paths that never cancel
        (process resumption, subscription pumps, watch drains); these
        entries recycle through the slab, so at steady state a posted
        event allocates nothing.
        """
        now = self.clock._now
        if delay == 0.0:
            t = now
        else:
            if delay < 0:
                raise SimError(f"negative delay {delay!r}")
            t = now + delay
            if not t < _INF:  # inf or nan: would poison the queues
                raise SimError(f"cannot schedule at non-finite time {t!r}")
        if _pool:
            entry = _pool.pop()
            entry[0] = t
            entry[1] = _next_seq()
            entry[2] = fn
            entry[3] = label
        else:
            entry = [t, _next_seq(), fn, label, False]
        if delay == 0.0:
            self._fast.append(entry)
        else:
            _heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # cancellation accounting

    def _on_cancel(self) -> None:
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap) + len(self._fast)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones from both lanes.

        Mutates the queues in place: the run loop holds direct
        references to them, and a cancel inside a callback can land here
        mid-loop.
        """
        pool = _POOL
        heap = self._heap
        live = [e for e in heap if not e[_CANCELLED]]
        if len(live) != len(heap):
            for e in heap:
                if e[_CANCELLED]:
                    e[_CANCELLED] = False  # pool invariant
                    pool.append(e)
            heap[:] = live
            heapify(heap)
        fast = self._fast
        for _ in range(len(fast)):
            entry = fast.popleft()
            if not entry[_CANCELLED]:
                fast.append(entry)
            else:
                entry[_CANCELLED] = False  # pool invariant
                pool.append(entry)
        self._tombstones = 0
        if len(pool) > _POOL_MAX:
            del pool[_POOL_MAX:]

    # ------------------------------------------------------------------
    # processes

    def spawn(self, gen: Process, name: str = "proc") -> ProcessHandle:
        """Start a generator process; it first runs at the current time.

        Process resumption events are profiler-labelled ``proc:<name>``.
        """
        handle = ProcessHandle(gen, name)
        step = self._step_process
        handle._resume = lambda: step(handle)
        self.post(0.0, handle._resume, label=handle._label)
        return handle

    def _step_process(self, handle: ProcessHandle) -> None:
        if handle.done:
            return
        try:
            yielded = next(handle._gen)
        except StopIteration as stop:
            handle.done = True
            handle.result = stop.value
            return
        except ProcessExit:
            handle.done = True
            return
        except BaseException as exc:  # surfaced at run() time
            handle.done = True
            handle.error = exc
            raise
        self._dispatch_yield(handle, yielded)

    def _dispatch_yield(self, handle: ProcessHandle, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            # Timeout validated delay >= 0 at construction
            self.post(yielded.delay, handle._resume, label=handle._label)
        elif isinstance(yielded, (int, float)):
            self.post(float(yielded), handle._resume, label=handle._label)
        else:
            handle.done = True
            raise SimError(
                f"process {handle.name!r} yielded unsupported value {yielded!r}; "
                "yield a Timeout or a number of seconds"
            )

    # ------------------------------------------------------------------
    # running

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event queues.

        Runs until both queues are empty, or until virtual time would
        exceed ``until`` (events strictly after ``until`` stay queued and
        the clock is left at ``until``).  Returns the final virtual time.
        ``max_events`` bounds runaway simulations.
        """
        if self._running:
            raise SimError("run() is not reentrant")
        self._running = True
        # hot locals; the profiler is sampled once — attach before run()
        clock = self.clock
        heap = self._heap
        fast = self._fast
        pool = _POOL
        prof = self.profiler
        limit = _INF if until is None else until
        consumed = 0  # fired events (runaway guard)
        try:
            while True:
                # drop tombstones from both lane heads so selection
                # below only ever compares live entries
                if self._tombstones:
                    while heap and heap[0][_CANCELLED]:
                        entry = heappop(heap)
                        entry[_CANCELLED] = False  # pool invariant
                        pool.append(entry)
                        self._tombstones -= 1
                    while fast and fast[0][_CANCELLED]:
                        entry = fast.popleft()
                        entry[_CANCELLED] = False  # pool invariant
                        pool.append(entry)
                        self._tombstones -= 1
                # fire the smaller (time, seq) head of the two lanes
                # (list comparison stops at seq, which is unique)
                if fast and not (heap and heap[0] < fast[0]):
                    entry = fast[0]
                    t = entry[_TIME]
                    if t > limit:
                        break
                    fast.popleft()
                elif heap:
                    entry = heap[0]
                    t = entry[_TIME]
                    if t > limit:
                        break
                    heappop(heap)
                else:
                    break
                consumed += 1
                fn = entry[_FN]
                entry[_FN] = None  # mark fired (cancel() becomes a no-op)
                clock._now = t  # nondecreasing by the (time, seq) invariant
                if prof is not None:
                    prof.on_event(entry[_LABEL] or _component_of(fn), t)
                fn()
                pool.append(entry)
                if consumed > max_events:
                    raise SimError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None and clock._now < until:
                clock.advance_to(until)
            return clock._now
        finally:
            if len(pool) > _POOL_MAX:
                del pool[_POOL_MAX:]
            self._running = False

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` more virtual seconds."""
        return self.run(until=self.now() + duration)

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events.

        O(1) — both lane sizes are O(1) and tombstones are counted —
        with no counter maintenance on the scheduling paths.  Exact at any time, including from inside a
        running callback (whose own event is no longer counted).
        """
        return len(self._heap) + len(self._fast) - self._tombstones
