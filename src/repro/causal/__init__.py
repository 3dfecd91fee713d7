"""Causal-broadcast delivery tier: cross-key happens-before on top of
per-partition FIFO / per-key MVCC order.

The repo's two pipelines stop at per-partition FIFO (pubsub) and
per-key MVCC order (watch): neither says anything about the order in
which a consumer observes writes to *different* keys, which is exactly
the axis the E3/Figure-2 invalidation race lives on.  This package adds
the missing tier, modeled on VCube-PS (see PAPERS.md): commits are
stamped with a compact causal-dependency list, and receivers run the
stamped stream through a deterministic :class:`CausalBuffer` that holds
each delivery until its dependencies have been delivered — bounded by a
hold deadline so a lost dependency degrades to attributed lateness, not
an indefinite stall.

Pieces:

- :class:`CausalStamp` — wire-registered dependency metadata: the
  commit version plus a bounded window of recent ``(key, version)``
  commit pairs.  Pairs (not a single happens-before chain) because
  receivers filter by key range: a chain through an out-of-range key
  would silently unlink two in-range updates.
- :class:`CausalStamper` — tails a store's commit history and mints a
  stamp per key write, recording it in a :class:`StampIndex`.
- :class:`StampIndex` — ``(key, version) -> stamp`` lookup used by the
  publish paths (CDC payloads, relay frames) and by receivers.
- :class:`CausalBuffer` — the delivery gate: ``submit`` either delivers
  immediately, or parks the update until its in-range, above-floor
  dependencies have been delivered (cascading deterministically), or
  the per-entry hold deadline fires and delivers anyway with a
  ``causal.deadline`` trace attributing what it was waiting for.

- :mod:`repro.causal.stage` — the stamp carriers and gates a world
  composes around the pipelines, which know nothing of causal order;
  only E16 builds it.  See docs/causal.md.
"""

from repro.causal.stamp import CausalStamp, CausalStamper, StampIndex
from repro.causal.buffer import CausalBuffer, CausalBufferConfig

__all__ = [
    "CausalStamp",
    "CausalStamper",
    "StampIndex",
    "CausalBuffer",
    "CausalBufferConfig",
]
