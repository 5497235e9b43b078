"""In-memory LRU layer above the on-disk :class:`ResultCache`.

The persistent cache answers repeats across runs; within one run, hot
repeats (the DS bound re-probing a shape the driver already decided,
identical instances inside one suite) still pay a file open + JSON
parse per hit.
:class:`LruCache` keeps the most recently used payloads in process
memory so an intra-run repeat costs a dict lookup.

The layer is transparent: payloads are the exact dicts the disk cache
stores (content-addressed by the same keys), so serving from memory can
never change an answer — only skip re-reading it.  Entries are treated
as immutable once stored; callers must not mutate a returned payload.

Accounting lives in ``EngineStats.memory_hits`` / ``memory_misses`` and
on the event channel as ``CacheEvent(layer="memory")``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

__all__ = ["LruCache"]

DEFAULT_MEMORY_ENTRIES = 512


class LruCache:
    """A bounded mapping of cache keys to payload dicts, LRU-evicted.

    Thread-safe: a session pool shares one engine-level LRU across the
    server's worker threads, and even a ``get`` mutates recency order,
    so every operation takes the cache lock.
    """

    __slots__ = (
        "capacity",
        "_lock",
        "_data",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, capacity: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[str, dict] = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            payload = self._data.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: str, payload: dict) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = payload
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LruCache({len(self._data)}/{self.capacity} entries, "
                f"hits={self.hits}, misses={self.misses})"
            )
