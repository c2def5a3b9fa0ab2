"""The in-memory hot tier fronting the persistent result stores.

A plain LRU of opaque values keyed by the request's config hash.  The
service keeps one settled :class:`~repro.serve.service.Outcome` per
key, which holds the deserialized result and its JSON bytes, so a
popular request costs a dict lookup and a socket write: no file scan,
no deserialization, no re-encoding.

Thread-safe: the service reads it from the event loop and fills it
from the loop and the batch-execution thread, so every operation holds
one lock.  ``max_entries=0`` disables the tier entirely (every request
goes to the store), which is also how the tests pin the store-hit path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

#: Default capacity of the hot tier, in results.
DEFAULT_HOT_MAX = 1024


class HotCache:
    """A bounded LRU of opaque values, keyed by config hash."""

    def __init__(self, max_entries: int = DEFAULT_HOT_MAX) -> None:
        if max_entries < 0:
            raise ValueError(
                f"hot-cache max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        """The cached result for ``key`` (refreshing its recency)."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: str, result: Any) -> None:
        """Install ``key``'s result, evicting the coldest past capacity."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> tuple[str, ...]:
        """Current keys, coldest first (a snapshot, for introspection)."""
        with self._lock:
            return tuple(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
