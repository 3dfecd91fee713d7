"""Ordered multi-process map: the fleet's worker plumbing.

A thin, deterministic wrapper over :mod:`multiprocessing`: results come
back in *item order* (never completion order), ``jobs=1`` runs inline
in the calling process with no pool at all, and the worker count is
clamped to the item count so idle processes are never forked.  Both the
fleet runner and ``python -m repro.bench --jobs N`` sit on
this one function, so the "parallel run == sequential run" property is
proven in one place.

The ``fork`` start method is preferred when the platform offers it:
workers inherit the parent's imported modules, so per-shard startup is
milliseconds instead of a fresh interpreter boot.  Determinism is
unaffected either way — workers compute purely from their pickled
argument (the fleet's contract), not from inherited mutable state.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["process_map"]


def _context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def process_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    maxtasksperchild: int | None = 1,
) -> List[R]:
    """Apply ``fn`` to every item, ``jobs`` processes wide, in order.

    - ``jobs <= 1`` (or a single item): plain in-process loop — no
      pool, no pickling, same results by the fleet's determinism
      contract.
    - ``jobs > 1``: a worker pool of ``min(jobs, len(items))``
      processes; ``fn`` and each item must be picklable (``fn`` must be
      a module-level function).  Results are returned in item order.
      ``maxtasksperchild=1`` (the default) recycles each worker after
      one task so a shard's memory is returned to the OS as soon as it
      finishes — the fleet's per-shard footprint never accumulates in
      long-lived workers.

    A worker exception propagates to the caller (re-raised by the
    pool), cancelling the remaining work — a fleet with a failed shard
    has no meaningful merged report.
    """
    items = list(items)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if multiprocessing.current_process().daemon:
        # pool workers are daemonic and may not fork children: a fleet
        # launched *inside* a worker (an E17 run under
        # ``python -m repro.bench --jobs``) degrades to the in-process
        # path — same results by the determinism contract, just serial
        return [fn(item) for item in items]
    ctx = _context()
    workers = min(jobs, len(items))
    with ctx.Pool(workers, maxtasksperchild=maxtasksperchild) as pool:
        return pool.map(fn, items, chunksize=1)
