"""process_map: ordered results, inline fast paths, daemon guard.

Both the fleet runner and ``python -m repro.bench --jobs`` sit on this
one function; "parallel == sequential" is proven here once.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.fleet import process_map


def _pid_and_square(n):
    return (os.getpid(), n * n)


def _boom(n):
    raise RuntimeError(f"worker {n} failed")


def test_jobs_one_runs_inline_in_order():
    pids_squares = process_map(_pid_and_square, [3, 1, 2], jobs=1)
    assert [sq for _, sq in pids_squares] == [9, 1, 4]
    assert all(pid == os.getpid() for pid, _ in pids_squares)


def test_single_item_runs_inline_even_with_many_jobs():
    [(pid, sq)] = process_map(_pid_and_square, [7], jobs=8)
    assert (pid, sq) == (os.getpid(), 49)


def test_parallel_results_come_back_in_item_order():
    items = list(range(10, 0, -1))
    results = process_map(_pid_and_square, items, jobs=3)
    assert [sq for _, sq in results] == [n * n for n in items]
    # the work really left this process
    assert all(pid != os.getpid() for pid, _ in results)
    assert len({pid for pid, _ in results}) > 1


def test_empty_items():
    assert process_map(_pid_and_square, [], jobs=4) == []


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        process_map(_pid_and_square, [1], jobs=0)


def test_worker_exception_propagates():
    with pytest.raises(RuntimeError, match="worker 2 failed"):
        process_map(_boom, [2], jobs=1)
    with pytest.raises(RuntimeError):
        process_map(_boom, [1, 2, 3], jobs=2)


def test_daemonic_process_degrades_to_inline(monkeypatch):
    """A fleet launched inside a pool worker (E17 under
    ``python -m repro.bench --jobs``) may not fork children: it must fall
    back to the in-process path, not crash."""

    class _FakeDaemon:
        daemon = True

    monkeypatch.setattr(
        multiprocessing, "current_process", lambda: _FakeDaemon()
    )
    results = process_map(_pid_and_square, [1, 2, 3], jobs=4)
    assert [sq for _, sq in results] == [1, 4, 9]
    assert all(pid == os.getpid() for pid, _ in results)
