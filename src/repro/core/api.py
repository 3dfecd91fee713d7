"""The watch contracts (paper §4.2.1 and §4.2.2).

The paper defines three interfaces; we transliterate them to Python:

.. code-block:: none

    class Watchable {
      Cancellable watch(Key low, Key high, Version version,
                        WatchCallback callback);
    }
    class WatchCallback {
      void onEvent(ChangeEvent event);
      void onProgress(ProgressEvent event);
      void onResync();
    }
    class Ingester {
      void append(ChangeEvent event);
      void progress(ProgressEvent event);
    }

Semantics implemented throughout this package:

- ``watch`` streams every change with ``low <= key < high`` and
  ``version > from_version``, in per-key version order, interleaved
  with range-scoped progress events.
- ``on_resync`` means "the version known to the watcher is no longer
  retained": the watcher must read a (possibly stale) snapshot from the
  exposed store and re-watch from the snapshot's version (§4.2.1).
  After signalling resync the producing side stops the stream; the
  watch must be re-established.
- ``Ingester`` is how a store conveys its changes to an *external*
  watch system; progress may be scoped to any key range, letting the
  store's partitioning evolve independently of the watch system's and
  the consumers' (§4.2.2).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro._types import Key, Version
from repro.core.events import ChangeEvent, ProgressEvent


class Cancellable(abc.ABC):
    """Handle to an active watch; cancel to stop the stream."""

    #: empty so ``__slots__`` subclasses (WatcherSession at E14 scale)
    #: don't inherit an instance dict from the base
    __slots__ = ()

    @abc.abstractmethod
    def cancel(self) -> None:
        """Stop the stream; no callbacks fire after cancellation settles."""

    @property
    @abc.abstractmethod
    def active(self) -> bool:
        """True while the stream can still deliver callbacks."""


class WatchCallback(abc.ABC):
    """Consumer-side callbacks of the watch stream."""

    #: empty, as on Cancellable: a slotted subclass (one edge session
    #: feed per client) then carries no instance dict or weakref slot
    __slots__ = ()

    @abc.abstractmethod
    def on_event(self, event: ChangeEvent) -> None:
        """A change subsequent to the requested version."""

    @abc.abstractmethod
    def on_progress(self, event: ProgressEvent) -> None:
        """All changes for ``[low, high)`` up to ``version`` supplied."""

    @abc.abstractmethod
    def on_resync(self) -> None:
        """The watcher's version is no longer retained; snapshot and
        re-watch from the snapshot version."""


@WatchCallback.register
class FnWatchCallback:
    """Adapter building a callback from plain functions (tests, examples).

    The supplied functions are the instance's ``on_event``/``on_progress``/
    ``on_resync`` attributes, so delivery hot loops invoke them without a
    wrapper frame per event; assigning ``on_event`` etc. on an instance
    swaps a handler in.  It is registered as a virtual
    :class:`WatchCallback` rather than subclassing it, which would need
    class methods the instance attributes only shadow.
    """

    def __init__(
        self,
        on_event: Optional[Callable[[ChangeEvent], None]] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_resync: Optional[Callable[[], None]] = None,
    ) -> None:
        self.on_event = on_event or (lambda event: None)
        self.on_progress = on_progress or (lambda event: None)
        self.on_resync = on_resync or (lambda: None)


class Watchable(abc.ABC):
    """Anything consumers can watch: a store with built-in watch or an
    external watch system."""

    @abc.abstractmethod
    def watch(
        self, low: Key, high: Key, version: Version, callback: WatchCallback
    ) -> Cancellable:
        """Stream changes in ``[low, high)`` after ``version``."""


class Ingester(abc.ABC):
    """Store-to-watch-system feed (§4.2.2)."""

    @abc.abstractmethod
    def append(self, event: ChangeEvent) -> None:
        """One change event, in version order per key."""

    @abc.abstractmethod
    def progress(self, event: ProgressEvent) -> None:
        """All changes for the range up to ``version`` now appended."""
