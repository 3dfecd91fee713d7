"""Ordered multi-process map: the fleet's worker plumbing.

A thin, deterministic wrapper over :mod:`multiprocessing`: results come
back in *item order* (never completion order), ``jobs=1`` runs inline
in the calling process with no workers at all, and the worker count is
clamped to the item count so idle processes are never forked.  Both the
fleet runner and ``python -m repro.bench --jobs N`` sit on
this one function, so the "parallel run == sequential run" property is
proven in one place.

Each item runs in its own worker process, which returns its result over
a pipe and exits, so a shard's memory goes back to the OS as soon as it
finishes.  A worker that dies without a result (OOM killer, SIGKILL,
``os._exit``) closes its pipe, and the map raises at once, naming the
item and the exit code — :class:`multiprocessing.pool.Pool` would wait
for that result forever.

The ``fork`` start method is preferred when the platform offers it:
workers inherit the parent's imported modules, so per-shard startup is
milliseconds instead of a fresh interpreter boot.  Determinism is
unaffected either way — workers compute purely from their pickled
argument (the fleet's contract), not from inherited mutable state.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection, wait
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["process_map"]


def _context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _work(fn: Callable[[T], R], item: T, conn: Connection) -> None:
    """Worker body: send ``(ok, result-or-exception)``, then exit."""
    try:
        conn.send((True, fn(item)))
    except Exception as exc:
        conn.send((False, exc))


def process_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
) -> List[R]:
    """Apply ``fn`` to every item, ``jobs`` processes wide, in order.

    - ``jobs <= 1`` (or a single item): plain in-process loop — no
      workers, no pickling, same results by the fleet's determinism
      contract.
    - ``jobs > 1``: up to ``min(jobs, len(items))`` worker processes at
      a time, one per item; ``fn`` and each item must be picklable
      (``fn`` must be a module-level function).  Results are returned
      in item order.

    A worker exception propagates to the caller with a note naming its
    item index, and a worker that dies without a result raises
    :class:`RuntimeError`; either way the remaining workers are
    terminated — a fleet with a failed shard has no meaningful merged
    report.
    """
    items = list(items)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if multiprocessing.current_process().daemon:
        # workers are daemonic and may not fork children: a fleet
        # launched *inside* a worker (an E17 run under
        # ``python -m repro.bench --jobs``) degrades to the in-process
        # path — same results by the determinism contract, just serial
        return [fn(item) for item in items]
    ctx = _context()
    results: List[R] = [None] * len(items)  # type: ignore[list-item]
    running = {}  # result pipe -> (item index, worker)
    started = 0
    try:
        while started < len(items) or running:
            while started < len(items) and len(running) < jobs:
                reader, writer = ctx.Pipe(duplex=False)
                worker = ctx.Process(
                    target=_work, args=(fn, items[started], writer),
                    daemon=True,
                )
                worker.start()
                writer.close()  # the worker's exit is now the pipe's EOF
                running[reader] = (started, worker)
                started += 1
            for ready in wait(list(running)):
                index, worker = running.pop(ready)
                with ready:
                    try:
                        ok, value = ready.recv()
                    except EOFError:
                        worker.join()
                        raise RuntimeError(
                            f"worker for item {index} exited with code "
                            f"{worker.exitcode} before returning a result"
                        ) from None
                worker.join()
                if not ok:
                    value.add_note(f"raised by process_map item {index}")
                    raise value
                results[index] = value
        return results
    finally:
        for reader, (_, worker) in running.items():
            worker.terminate()
            worker.join()
            reader.close()
