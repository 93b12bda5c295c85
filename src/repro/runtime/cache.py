"""repro.runtime.cache — exact content identity and instrumented memoization.

The paper's efficiency story hinges on the propagation stage: precompute
and spmm dominate time and RAM across the FB/MB/GP schemes (Section 5),
and ``normalized_adjacency`` would otherwise be rebuilt per (filter,
scheme) combination inside sweep loops. This module holds the two
pieces every cache in the runtime is built from:

- :func:`digest` — the one content identity: SHA-256 over an array's or
  sparse matrix's format, shape, dtypes and raw bytes. Every cache key
  under ``runtime/``, ``graph/`` and ``spectral/`` includes the digest of
  the content it was computed from, so equal bytes hit and anything
  else — an in-place edit, a swapped element, a ``-0.0`` — misses.
  Cached ≡ uncached therefore holds by construction, not by sampling.
- :class:`LRUCache` — a bounded, thread-safe, move-to-front cache whose
  hits / misses / evictions are both tracked locally and mirrored into
  telemetry counters (``<prefix>.hit`` / ``.miss`` / ``.evict``), so any
  trace shows exactly what the caches did. The per-graph memo
  (:func:`norm_memo`, used by :meth:`repro.graph.graph.Graph.memoize`)
  holds normalized operators and eigenpairs.

Everything respects a single process-wide switch (:func:`set_enabled`,
``--no-cache`` on the bench CLI). Disabled means *bypass*: callers
recompute exactly what the seed code computed, which is what lets the
property-test suite assert bit-identical numerics cached vs. uncached.

Counters emitted (when telemetry is configured):

- ``cache.norm_adj.{hit,miss,evict}`` — per-graph memo traffic
  (normalized operators and eigenpairs).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .. import telemetry

#: Default bound on per-graph memo entries — one entry per distinct
#: (kind, ρ, self-loops, adjacency digest) key, so 16 covers every sweep
#: in the bench suite with room to spare.
NORM_MEMO_ENTRIES = 16

_MISSING = object()

_enabled = True
_enabled_lock = threading.Lock()


def set_enabled(enabled: bool) -> bool:
    """Switch the whole cache layer on/off; returns the previous state."""
    global _enabled
    with _enabled_lock:
        previous = _enabled
        _enabled = bool(enabled)
    return previous


def is_enabled() -> bool:
    """Whether the cache layer is active (``--no-cache`` clears this)."""
    return _enabled


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Context manager running its body with every cache bypassed."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


class LRUCache:
    """Bounded move-to-front memo with local and telemetry instrumentation.

    Parameters
    ----------
    capacity:
        Maximum entry count; the least-recently-used entry is evicted when
        a put would exceed it.
    counter_prefix:
        When set, every hit / miss / eviction also increments the
        telemetry counters ``<prefix>.hit`` / ``.miss`` / ``.evict`` on
        the active registry (no-op while telemetry is disabled).
    on_evict:
        Optional ``(key, value)`` callback fired for each capacity
        eviction (not for ``discard``/``clear``), letting owners account
        for what the dropped entry carried — e.g. the basis planner
        counts evicted chain terms.
    """

    def __init__(self, capacity: int, counter_prefix: Optional[str] = None,
                 on_evict: Optional[Callable[[Any, Any], None]] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.counter_prefix = counter_prefix
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        # Reentrant: weakref eviction callbacks may fire inside a put.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def _count(self, outcome: str) -> None:
        if self.counter_prefix is not None:
            telemetry.inc_counter(f"{self.counter_prefix}.{outcome}")

    def get(self, key: Any) -> Any:
        """Return the cached value or ``MISSING``; refreshes recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self._count("miss")
                return _MISSING
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("hit")
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert/overwrite an entry, evicting the LRU tail past capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted_key, evicted_value = self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evict")
                if self.on_evict is not None:
                    self.on_evict(evicted_key, evicted_value)

    def discard(self, key: Any) -> None:
        """Drop an entry if present (not counted as an eviction)."""
        with self._lock:
            self._entries.pop(key, None)

    def pop_lru(self, skip: Any = None) -> Optional[Tuple[Any, Any]]:
        """Evict the least-recently-used entry (counted, ``on_evict`` fired).

        ``skip`` protects one key — the basis planner uses it to shed
        resident chains over the blocked tier's byte budget without
        evicting the chain it is currently extending. Returns the
        evicted ``(key, value)`` or ``None`` when nothing is evictable.
        """
        with self._lock:
            for key in self._entries:
                if skip is not None and key == skip:
                    continue
                value = self._entries.pop(key)
                self.evictions += 1
                self._count("evict")
                if self.on_evict is not None:
                    self.on_evict(key, value)
                return key, value
            return None

    def get_or_compute(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Memoized call: the cached value, else ``factory()``."""
        value = self.get(key)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the local hit/miss/evict tallies."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Local (telemetry-independent) traffic summary."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

#: Sentinel returned by ``LRUCache.get`` on a miss.
MISSING = _MISSING


def data_token(value: Any) -> str:
    """Stable content fingerprint of plain config-like data (16 hex chars).

    The config-side counterpart of :func:`digest` (arrays and sparse
    payloads): dicts, dataclasses (e.g.
    :class:`~repro.training.loop.TrainConfig`), tuples, numpy scalars,
    and ``None`` all reduce through the manifest's JSON-stable
    ``_plain`` normalization before hashing, so logically
    equal configurations fingerprint identically across processes and
    runs. The artifact store (:mod:`repro.runtime.artifacts`) keys cell
    content addresses on it.
    """
    import json

    from ..telemetry.manifest import _plain

    payload = json.dumps(_plain(value), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def digest(value: Any) -> str:
    """Exact content identity of a dense array or scipy sparse matrix.

    SHA-256 over the format, shape, the dtype and length of each payload
    array, and the raw C-order bytes of those arrays (``indptr``,
    ``indices``, ``data`` for CSR/CSC; the buffer itself for dense
    input). Two values share a digest iff all of these are equal, so a
    cache keyed on it serves a hit only for byte-identical content —
    ``+0.0`` and ``-0.0``, unsorted and sorted indices, ``float32`` and
    ``float64`` all stay distinct. Other sparse formats hash their CSR
    conversion under their own format name.
    """
    if sp.issparse(value):
        fmt = value.format
        if fmt not in ("csr", "csc"):
            value = value.tocsr()
        parts = (value.indptr, value.indices, value.data)
    else:
        value = np.asarray(value)
        fmt = "dense"
        parts = (value,)
    header = (fmt, tuple(value.shape),
              tuple((part.dtype.str, int(part.size)) for part in parts))
    hasher = hashlib.sha256(repr(header).encode("utf-8"))
    for part in parts:
        hasher.update(np.ascontiguousarray(part).data)
    return hasher.hexdigest()


def shared_csr_fetch(handle, fingerprint: str) -> Optional[sp.csr_matrix]:
    """Rebuild a published CSR blob as a zero-copy, read-only matrix.

    The payload arrays stay mapped in the shared segment (unlink-safe on
    POSIX), so a served matrix costs index-lookup + mmap, not a rebuild.
    Returns None when the blob is absent or malformed — callers fall
    back to building locally, never to an error.
    """
    blob = handle.fetch_blob(fingerprint)
    if blob is None:
        return None
    arrays, meta = blob
    try:
        matrix = sp.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=tuple(meta["shape"]), copy=False)
    except (KeyError, TypeError, ValueError):
        return None
    if meta.get("sorted"):
        # Publisher guaranteed sortedness; recording it stops scipy from
        # attempting an in-place sort of the read-only index arrays.
        matrix.has_sorted_indices = True
    return matrix


def shared_csr_publish(handle, fingerprint: str, matrix: sp.spmatrix) -> bool:
    """Publish a CSR matrix's payload arrays for sibling processes."""
    csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
    return handle.publish_blob(
        fingerprint,
        {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr},
        {"shape": list(csr.shape), "sorted": bool(csr.has_sorted_indices)})


def norm_memo(capacity: int = NORM_MEMO_ENTRIES) -> LRUCache:
    """Fresh per-graph normalization memo (``cache.norm_adj.*`` counters)."""
    return LRUCache(capacity, counter_prefix="cache.norm_adj")
