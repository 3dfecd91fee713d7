"""Explicit storage substrate (the store the paper says to expose).

This package is the stand-in for the producer stores the paper cites
(Spanner, TiDB, MySQL) and the ingestion stores (time-series databases):

- :class:`~repro.storage.tso.TimestampOracle` issues strictly monotonic
  transaction versions (the paper's simplifying assumption, §4.2).
- :class:`~repro.storage.kv.MVCCStore` is a multi-version key-value
  store with snapshot reads, range scans, and atomic multi-key commits.
- :class:`~repro.storage.history.ChangeHistory` is the ordered commit
  log every store maintains internally; it feeds both CDC (for the
  pubsub baseline) and the watch systems (for the proposed model).
- :class:`~repro.storage.timeseries.IngestionStore` is the
  time-series-style ingestion store of §2/§4.3.
"""

from repro.storage.errors import (
    StorageError,
    ConflictError,
    HistoryTruncatedError,
)
from repro.storage.tso import TimestampOracle
from repro.storage.history import ChangeHistory, CommittedTransaction
from repro.storage.kv import MVCCStore, Transaction
from repro.storage.snapshot import SnapshotView
from repro.storage.timeseries import IngestionStore, Event
from repro.storage.replica import ReadReplica, SnapshotCounter

__all__ = [
    "StorageError",
    "ConflictError",
    "HistoryTruncatedError",
    "TimestampOracle",
    "ChangeHistory",
    "CommittedTransaction",
    "MVCCStore",
    "Transaction",
    "SnapshotView",
    "IngestionStore",
    "Event",
    "ReadReplica",
    "SnapshotCounter",
]
