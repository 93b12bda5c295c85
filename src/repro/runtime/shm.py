"""repro.runtime.shm — cross-process shared-memory basis-term store.

The PR 5 planner (:mod:`repro.runtime.plan`) dedups ``T^(k)(L̃)·X`` basis
chains only *within* a process: pool workers open a fresh plan scope per
cell, so a pooled sweep rebuilds identical ``Ã^k X`` chains in every
worker and ``ops.spmm.calls`` balloons to ``~workers×`` the serial
count. This module closes that gap. A sweep-scoped
:class:`SharedTermStore` publishes planner-computed terms (and the
normalized-operator CSR blobs from :mod:`repro.graph.graph`) into
``multiprocessing.shared_memory`` segments; workers attach read-only
numpy views keyed by the same keys the in-process caches use, all
built on the exact content digest :func:`repro.runtime.cache.digest`.

Layout
------
One *index segment* per store (name ``rsm<run8>idx``) holds a
length-prefixed JSON document protected by a cross-process
``multiprocessing.Lock``::

    {"schema": "repro.shm/v1", "owner": <pid>, "run": "<run8>",
     "bytes": <payload bytes>, "peak_bytes": <max payload bytes>,
     "chains": {fp: {"dtype", "shape", "nbytes",
                     "terms": [{"seg", "off"}, ...],
                     "claim": {"pid", "ts", "upto"} | null}},
     "blobs":  {fp: {"seg", "bytes", "meta",
                     "arrays": [{"name", "dtype", "shape", "off"}, ...]}},
     "order":  [["c"|"b", fp], ...],      # FIFO eviction order
     "stats":  {"hits", "publishes", "adoptions"}}

Term payloads live in per-publish *data segments* (``rsm<run8>d<pid>x<n>``)
created by whichever process computed the suffix. The index is rewritten
with the length word zeroed first, so lock-free probes (the leaked-
segment sweep reading ``owner``) see either valid JSON or an explicit
"torn" marker, never garbage.

Claim protocol
--------------
The parent is the store *owner* but adopts the first worker's
computation instead of precomputing: the first process to need a chain
suffix writes a claim ``{pid, ts, upto}`` into the index entry and
computes it; siblings needing the same suffix poll (2 ms) until the
claimant publishes. A claim is *stale* — and silently adopted by the
next claimant — when its pid is dead (``os.kill(pid, 0)``) or its
timestamp exceeds ``claim_timeout_s``. A waiter that outlives
``wait_timeout_s`` gives up and computes locally without publishing, so
a hung claimant costs duplicated work, never wrongness.

Crash safety
------------
``SharedMemory`` attach *registers* with the ``resource_tracker`` on
CPython ≤ 3.12 (gh-82300); every create/attach here immediately
unregisters, because segment lifetime is owned explicitly by the store
scope: :meth:`SharedTermStore.close` unlinks every ``rsm<run8>*``
segment by name (``/dev/shm`` glob on Linux, index walk elsewhere), and
:func:`sweep_leaked_segments` — run on every store entry — reaps groups
whose owner pid is dead or whose index segment is gone. Unlinking while
a sibling still maps a segment is safe on POSIX: existing mappings
survive; the name just disappears. A worker SIGKILLed while *holding the
lock* leaves it unreleasable; clients therefore acquire with a timeout
and degrade to local computation (the store turns itself off for the
session), and the owner's cleanup never needs the lock.

Counters (when telemetry is configured):

- ``shm.terms.{hit,publish,evict}`` — term traffic through the index.
- ``shm.terms.attach`` — data segments mapped into this process.
- ``shm.blobs.{hit,publish}`` — normalized-operator CSR blob traffic.
- ``shm.claims.{adopted,timeout}`` — stale-claim adoptions and waiter
  give-ups.
- ``shm.lock.timeout`` / ``shm.index.corrupt`` — store degraded to
  local-compute for this process.
- ``shm.segments.swept`` — leaked segments reaped on scope entry.
- gauges ``shm.store.bytes`` / ``shm.store.peak_bytes`` — live and peak
  published payload bytes (folded into the registry memory block).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import struct
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import resource_tracker, shared_memory
    _HAVE_SHM = True
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]
    _HAVE_SHM = False

#: Segment-name prefix; the 8-hex run id follows, then ``idx`` or
#: ``d<pid>x<seq>``.
SEGMENT_PREFIX = "rsm"

#: Segments whose mappings must outlive their store. An ndarray built
#: over ``segment.buf`` reaches the mmap through the memoryview's
#: managed buffer WITHOUT bumping the mmap's export count, so
#: ``SharedMemory.close()`` succeeds silently and unmaps under the live
#: view (a segfault, not a BufferError). Any segment that ever exported
#: an array is therefore parked here instead of closed; the mapping
#: lives until process exit, the name is already unlinked.
_keepalive: List[Any] = []

_SHM_DIR = "/dev/shm"
_SCHEMA = "repro.shm/v1"
_RUN_ID_LEN = 8


def supported() -> bool:
    """Whether this interpreter can host a shared term store."""
    return _HAVE_SHM and os.name == "posix"


# ======================================================================
# low-level segment helpers
# ======================================================================
def _untrack(segment) -> None:
    """Detach a segment from the resource tracker.

    CPython ≤ 3.12 registers shared memory with the tracker on *attach*
    as well as create (gh-82300), so without this a spawn-worker's
    tracker unlinks live segments at worker exit and the parent's
    tracker warns about "leaked" segments it never owned. Lifetime is
    managed explicitly by the store scope instead.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _create_segment(name: str, size: int):
    segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    _untrack(segment)
    return segment


def _attach_segment(name: str):
    segment = shared_memory.SharedMemory(name=name)
    _untrack(segment)
    return segment


def _unlink_segment(segment) -> bool:
    """Unlink an open segment, keeping the resource tracker balanced.

    ``SharedMemory.unlink`` unregisters the name from the tracker; we
    already unregistered at create/attach time, so re-register first or
    the tracker process logs a KeyError traceback per segment.
    """
    try:
        resource_tracker.register(segment._name, "shared_memory")
    except Exception:  # pragma: no cover
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover
            pass
        return False
    return True


def _unlink_name(name: str) -> bool:
    """Unlink a segment by name without keeping a mapping; False if gone."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    _untrack(segment)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - no views on a fresh attach
        pass
    return _unlink_segment(segment)


def _pid_alive(pid: Any) -> bool:
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError, OverflowError):
        return False
    except PermissionError:
        return True
    return True


# ======================================================================
# index serialization
# ======================================================================
def _read_index_buf(buf) -> Optional[dict]:
    (length,) = struct.unpack_from("<I", buf, 0)
    if length == 0 or length > len(buf) - 4:
        return None
    try:
        return json.loads(bytes(buf[4:4 + length]).decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


def _write_index_buf(buf, index: dict) -> bool:
    """Serialize the index in place; False when it does not fit.

    The length word is zeroed before the payload lands and written last,
    so a concurrent lock-free probe (or a write torn by SIGKILL) reads
    an explicit empty marker instead of interleaved JSON.
    """
    payload = json.dumps(index, separators=(",", ":")).encode("utf-8")
    if len(payload) > len(buf) - 4:
        return False
    struct.pack_into("<I", buf, 0, 0)
    buf[4:4 + len(payload)] = payload
    struct.pack_into("<I", buf, 0, len(payload))
    return True


# ======================================================================
# fingerprints
# ======================================================================
def _digest(parts: Sequence[Any]) -> str:
    blob = json.dumps(list(parts), sort_keys=True, default=repr,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def chain_fingerprint(matrix_digest: str, backend: str, x_digest: str,
                      family: str, params: Tuple) -> str:
    """Content address of a basis chain: operator digest + backend +
    signal digest + family + scaling params. The basis planner keys its
    in-process store, this index and the blocked tier's spill store all
    on it."""
    return _digest(["chain", matrix_digest, backend, x_digest, family,
                    params])


def blob_fingerprint(kind: str, *parts: Any) -> str:
    """Content address of a CSR blob (``norm`` …)."""
    return _digest(["blob", kind, *parts])


# ======================================================================
# configuration
# ======================================================================
@dataclass(frozen=True)
class StoreConfig:
    """Tunables for one shared term store."""

    #: Index segment size; the JSON document must fit (entries are a few
    #: hundred bytes each, so 256 KiB covers thousands of chains).
    index_bytes: int = 262_144
    #: FIFO byte budget for published payloads; oldest unclaimed entries
    #: are evicted (and their segments unlinked) past this.
    budget_bytes: int = 512 * 1024 * 1024
    #: Cross-process lock acquisition timeout; on expiry the client
    #: assumes a dead holder and disables itself for the session.
    lock_timeout_s: float = 10.0
    #: Backstop staleness for a claim whose pid is still alive.
    claim_timeout_s: float = 600.0
    #: How long a waiter polls for a claimant's publication before
    #: computing locally (without publishing).
    wait_timeout_s: float = 120.0
    #: Claim-wait poll interval.
    poll_interval_s: float = 0.002


def _default_context():
    """Match :func:`repro.runtime.pool._default_start_method` without
    importing pool: prefer fork so the store lock is inheritable by the
    default worker processes."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ======================================================================
# client machinery (shared by the owner store and worker handles)
# ======================================================================
class _StoreClient:
    """Index access under the cross-process lock + segment attach cache.

    A client that hits a lock timeout or a corrupt index marks itself
    ``_disabled`` and every subsequent operation degrades to "store
    unavailable" (callers compute locally) — liveness over sharing.
    """

    def __init__(self, index_name: str, lock, config: StoreConfig,
                 run_id: str, start_method: str):
        self._index_name = index_name
        self._lock = lock
        self.config = config
        self.run_id = run_id
        #: start method of the context the lock was created under; pool
        #: refuses to ship the handle into a mismatched worker context.
        self.start_method = start_method
        self._segments: Dict[str, Any] = {}
        #: names of segments arrays were exported from; those mappings
        #: are parked in :data:`_keepalive` instead of closed (see
        #: there for why close would segfault, not raise).
        self._exported: set = set()
        #: segments unlinked while this process still maps views into
        #: them; kept open until close so the views stay valid.
        self._retired: List[Any] = []
        self._index_seg = None
        self._seq = 0
        self._disabled = False

    # -- pickling: only the addressing state crosses process boundaries
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_segments"] = {}
        state["_exported"] = set()
        state["_retired"] = []
        state["_index_seg"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- index access ---------------------------------------------------
    def _attach_index(self):
        if self._index_seg is None:
            try:
                self._index_seg = _attach_segment(self._index_name)
            except (FileNotFoundError, OSError):
                self._disabled = True
                return None
        return self._index_seg

    def _with_index(self, fn):
        """Run ``fn(index)`` under the store lock.

        ``fn`` returns ``(result, dirty)``; a dirty index is written
        back (evicting oldest entries if the document outgrew the
        segment). Returns ``None`` when the store is unusable.
        """
        if self._disabled:
            return None
        try:
            acquired = self._lock.acquire(timeout=self.config.lock_timeout_s)
        except (OSError, ValueError):  # pragma: no cover - torn lock
            acquired = False
        if not acquired:
            telemetry.inc_counter("shm.lock.timeout")
            self._disabled = True
            return None
        try:
            segment = self._attach_index()
            if segment is None:
                return None
            index = _read_index_buf(segment.buf)
            if index is None:
                telemetry.inc_counter("shm.index.corrupt")
                self._disabled = True
                return None
            result, dirty = fn(index)
            if dirty:
                while not _write_index_buf(segment.buf, index):
                    if not self._evict_one(index, protect=frozenset()):
                        telemetry.inc_counter("shm.index.overflow")
                        self._disabled = True
                        return None
            return result
        finally:
            self._lock.release()

    # -- segment helpers ------------------------------------------------
    def _new_segment(self, size: int):
        name = f"{SEGMENT_PREFIX}{self.run_id}d{os.getpid()}x{self._seq}"
        self._seq += 1
        segment = _create_segment(name, max(size, 1))
        self._segments[name] = segment
        return segment

    def _attach_array(self, seg_name: str, offset: int, dtype: str,
                      shape: Sequence[int]) -> np.ndarray:
        segment = self._segments.get(seg_name)
        if segment is None:
            segment = self._segments[seg_name] = _attach_segment(seg_name)
            telemetry.inc_counter("shm.terms.attach")
        array = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                           buffer=segment.buf, offset=offset)
        array.setflags(write=False)
        self._exported.add(seg_name)
        return array

    def _close_segment(self, segment) -> None:
        """Drop a mapping, parking it if arrays were exported from it."""
        if segment.name in self._exported:
            _keepalive.append(segment)
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - internal views only
            _keepalive.append(segment)

    def _release_segment(self, name: str) -> None:
        """Unlink a segment, preserving any views this process holds."""
        segment = self._segments.pop(name, None)
        if segment is None:
            _unlink_name(name)
            return
        _unlink_segment(segment)
        self._retired.append(segment)

    # -- eviction -------------------------------------------------------
    def _claim_stale(self, claim: dict, now: float) -> bool:
        pid = claim.get("pid")
        if pid == os.getpid():
            return True
        if not _pid_alive(pid):
            return True
        return now - float(claim.get("ts", now)) > self.config.claim_timeout_s

    def _evict_one(self, index: dict, protect: frozenset) -> bool:
        order = index.get("order") or []
        now = time.time()
        for position, (kind, fp) in enumerate(order):
            if fp in protect:
                continue
            if kind == "c":
                entry = index["chains"].get(fp)
                if entry is None:
                    order.pop(position)
                    return True
                claim = entry.get("claim")
                if claim is not None and not self._claim_stale(claim, now):
                    continue
                dropped = len(entry["terms"])
                for name in {term["seg"] for term in entry["terms"]}:
                    self._release_segment(name)
                index["bytes"] -= int(entry.get("nbytes", 0)) * dropped
                del index["chains"][fp]
                order.pop(position)
                if dropped:
                    telemetry.inc_counter("shm.terms.evict", dropped)
                return True
            blob = index["blobs"].get(fp)
            if blob is None:
                order.pop(position)
                return True
            self._release_segment(blob["seg"])
            index["bytes"] -= int(blob.get("bytes", 0))
            del index["blobs"][fp]
            order.pop(position)
            telemetry.inc_counter("shm.blobs.evict")
            return True
        return False

    def _evict_over_budget(self, index: dict, protect: frozenset) -> None:
        while index.get("bytes", 0) > self.config.budget_bytes:
            if not self._evict_one(index, protect):
                break

    def _set_gauges(self, index: dict) -> None:
        live = int(index.get("bytes", 0))
        index["peak_bytes"] = max(int(index.get("peak_bytes", 0)), live)
        telemetry.set_gauge("shm.store.bytes", live)
        telemetry.set_gauge("shm.store.peak_bytes", index["peak_bytes"])

    # -- chain protocol -------------------------------------------------
    def plan_chain(self, fp: str, have: int, want: int
                   ) -> Tuple[List[np.ndarray], bool]:
        """Resolve a chain-extension request against the shared index.

        ``have``/``want`` count k ≥ 1 terms (the signal itself is never
        stored). Returns ``(served, claimed)``: ``served`` holds
        read-only views for orders ``have+1 … have+len(served)``;
        ``claimed`` means this process now owns computing the remainder
        and MUST finish with :meth:`publish_terms` or
        :meth:`abandon_claim`. Blocks (bounded by ``wait_timeout_s``)
        while another live process's claim covers the remainder.
        """
        served: List[np.ndarray] = []
        if self._disabled or have >= want:
            return served, False
        deadline = time.monotonic() + self.config.wait_timeout_s

        def step(index):
            dirty = False
            entry = index["chains"].get(fp)
            arrays: List[np.ndarray] = []
            position = have + len(served)
            if entry is not None and len(entry["terms"]) > position:
                for term in entry["terms"][position:want]:
                    arrays.append(self._attach_array(
                        term["seg"], term["off"],
                        entry["dtype"], entry["shape"]))
                index["stats"]["hits"] += len(arrays)
                telemetry.inc_counter("shm.terms.hit", len(arrays))
                dirty = True
                position += len(arrays)
            if position >= want:
                return ("done", arrays), dirty
            now = time.time()
            claim = entry.get("claim") if entry is not None else None
            if claim is not None and not self._claim_stale(claim, now):
                return ("wait", arrays), dirty
            if entry is None:
                entry = {"dtype": None, "shape": None, "nbytes": 0,
                         "terms": [], "claim": None}
                index["chains"][fp] = entry
            if claim is not None:
                index["stats"]["adoptions"] += 1
                telemetry.inc_counter("shm.claims.adopted")
            entry["claim"] = {"pid": os.getpid(), "ts": now,
                              "upto": int(want)}
            return ("claimed", arrays), True

        while True:
            outcome = self._with_index(step)
            if outcome is None:
                return served, False
            action, arrays = outcome
            served.extend(arrays)
            if action == "done":
                return served, False
            if action == "claimed":
                return served, True
            if time.monotonic() > deadline:
                telemetry.inc_counter("shm.claims.timeout")
                return served, False
            time.sleep(self.config.poll_interval_s)

    def publish_terms(self, fp: str, first_order: int,
                      terms: Sequence[np.ndarray]) -> bool:
        """Publish computed orders ``first_order …`` of a chain.

        Copies the suffix into one fresh data segment, then appends the
        term records and clears this process's claim in a single locked
        index update. Returns False (and unlinks the orphan segment) if
        the store is unavailable or a concurrent publisher got there
        first — the caller's locally computed terms stay valid either
        way.
        """
        if self._disabled or not terms:
            return False
        arrays = [np.ascontiguousarray(term) for term in terms]
        dtype = arrays[0].dtype.str
        shape = list(arrays[0].shape)
        nbytes = int(arrays[0].nbytes)
        total = nbytes * len(arrays)
        try:
            segment = self._new_segment(total)
        except (OSError, ValueError):
            telemetry.inc_counter("shm.publish.failed")
            return False
        for position, array in enumerate(arrays):
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=position * nbytes)
            np.copyto(view, array)

        def step(index):
            entry = index["chains"].get(fp)
            if entry is None:
                entry = {"dtype": None, "shape": None, "nbytes": 0,
                         "terms": [], "claim": None}
                index["chains"][fp] = entry
            if entry["dtype"] is None:
                entry["dtype"], entry["shape"] = dtype, shape
                entry["nbytes"] = nbytes
            stale = (len(entry["terms"]) != first_order - 1
                     or entry["dtype"] != dtype or entry["shape"] != shape)
            dirty = self._clear_own_claim(entry)
            if stale:
                return False, dirty
            entry["terms"].extend(
                {"seg": segment.name, "off": position * nbytes}
                for position in range(len(arrays)))
            if ["c", fp] not in index["order"]:
                index["order"].append(["c", fp])
            index["bytes"] += total
            index["stats"]["publishes"] += len(arrays)
            telemetry.inc_counter("shm.terms.publish", len(arrays))
            self._evict_over_budget(index, protect=frozenset((fp,)))
            self._set_gauges(index)
            return True, True

        published = self._with_index(step)
        if not published:
            self._discard_segment(segment)
            return False
        return True

    def _discard_segment(self, segment) -> None:
        """Drop a just-created segment that never made it into the index."""
        self._segments.pop(segment.name, None)
        _unlink_segment(segment)
        try:
            segment.close()
        except BufferError:  # pragma: no cover
            pass

    @staticmethod
    def _clear_own_claim(entry: dict) -> bool:
        claim = entry.get("claim")
        if claim is not None and claim.get("pid") == os.getpid():
            entry["claim"] = None
            return True
        return False

    def abandon_claim(self, fp: str) -> None:
        """Drop this process's claim so siblings stop waiting on it."""

        def step(index):
            entry = index["chains"].get(fp)
            if entry is None:
                return None, False
            return None, self._clear_own_claim(entry)

        self._with_index(step)

    # -- blob protocol (normalized-operator CSR) ------------------------
    def fetch_blob(self, fp: str) -> Optional[Tuple[Dict[str, np.ndarray],
                                                    dict]]:
        """Attach a published blob: ``(name → read-only array, meta)``."""
        if self._disabled:
            return None

        def step(index):
            blob = index["blobs"].get(fp)
            if blob is None:
                return None, False
            arrays = {
                record["name"]: self._attach_array(
                    blob["seg"], record["off"],
                    record["dtype"], record["shape"])
                for record in blob["arrays"]
            }
            index["stats"]["hits"] += 1
            telemetry.inc_counter("shm.blobs.hit")
            return (arrays, blob.get("meta") or {}), True

        return self._with_index(step)

    def publish_blob(self, fp: str, arrays: Dict[str, np.ndarray],
                     meta: Optional[dict] = None) -> bool:
        """Publish named arrays as one blob (first publisher wins)."""
        if self._disabled or not arrays:
            return False
        packed = [(name, np.ascontiguousarray(array))
                  for name, array in arrays.items()]
        offsets, cursor = [], 0
        for _name, array in packed:
            offsets.append(cursor)
            cursor += int(array.nbytes)
        try:
            segment = self._new_segment(cursor)
        except (OSError, ValueError):
            telemetry.inc_counter("shm.publish.failed")
            return False
        records = []
        for (name, array), offset in zip(packed, offsets):
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=offset)
            np.copyto(view, array)
            records.append({"name": name, "dtype": array.dtype.str,
                            "shape": list(array.shape), "off": offset})

        def step(index):
            if fp in index["blobs"]:
                return False, False
            index["blobs"][fp] = {"seg": segment.name, "bytes": cursor,
                                  "arrays": records, "meta": meta or {}}
            if ["b", fp] not in index["order"]:
                index["order"].append(["b", fp])
            index["bytes"] += cursor
            index["stats"]["publishes"] += 1
            telemetry.inc_counter("shm.blobs.publish")
            self._evict_over_budget(index, protect=frozenset((fp,)))
            self._set_gauges(index)
            return True, True

        published = self._with_index(step)
        if not published:
            self._discard_segment(segment)
            return False
        return True


class WorkerHandle(_StoreClient):
    """A worker-side view of the store: attach/publish, never unlink.

    Created by :meth:`SharedTermStore.worker_handle` and shipped to pool
    workers through ``Process`` args (the embedded lock only pickles on
    that path). :meth:`close` drops this process's mappings; segment
    *names* stay live until the owner's scope exit unlinks them.
    """

    def close(self) -> None:
        for segment in list(self._segments.values()) + self._retired:
            self._close_segment(segment)
        self._segments.clear()
        self._retired.clear()
        if self._index_seg is not None:
            try:
                self._index_seg.close()
            except BufferError:  # pragma: no cover
                _keepalive.append(self._index_seg)
            self._index_seg = None


class SharedTermStore(_StoreClient):
    """Sweep-scoped owner of the shared index + published segments.

    Creating the store sweeps leaked segments from crashed runs, then
    publishes an empty index under a fresh 8-hex run id.
    :meth:`close` snapshots cross-process stats and unlinks every
    segment of the run by name — lock-free, so a worker SIGKILLed while
    holding the lock can never wedge cleanup.
    """

    def __init__(self, config: Optional[StoreConfig] = None,
                 mp_context=None):
        if not supported():
            raise RuntimeError("multiprocessing.shared_memory unavailable; "
                               "shared term store requires POSIX")
        config = config or StoreConfig()
        sweep_leaked_segments()
        context = mp_context if mp_context is not None else _default_context()
        run_id = uuid.uuid4().hex[:_RUN_ID_LEN]
        index_name = f"{SEGMENT_PREFIX}{run_id}idx"
        super().__init__(index_name, context.Lock(), config, run_id,
                         context.get_start_method())
        segment = _create_segment(index_name, config.index_bytes)
        _write_index_buf(segment.buf, {
            "schema": _SCHEMA, "owner": os.getpid(), "run": run_id,
            "bytes": 0, "peak_bytes": 0, "chains": {}, "blobs": {},
            "order": [],
            "stats": {"hits": 0, "publishes": 0, "adoptions": 0},
        })
        self._index_seg = segment
        self._closed = False
        self._final_stats: Optional[dict] = None

    def worker_handle(self) -> WorkerHandle:
        """A picklable client for one pool worker process."""
        return WorkerHandle(self._index_name, self._lock, self.config,
                            self.run_id, self.start_method)

    def _snapshot(self) -> Optional[dict]:
        def step(index):
            terms = sum(len(entry["terms"])
                        for entry in index["chains"].values())
            return {
                "chains": len(index["chains"]),
                "blobs": len(index["blobs"]),
                "terms": terms,
                "bytes": int(index.get("bytes", 0)),
                "peak_bytes": int(index.get("peak_bytes", 0)),
                **{key: int(value)
                   for key, value in (index.get("stats") or {}).items()},
            }, False

        return self._with_index(step)

    def close(self) -> dict:
        """Snapshot stats, then unlink every segment of this run."""
        if self._closed:
            return self._final_stats or {}
        self._closed = True
        stats = self._snapshot() or {}
        stats["segments_unlinked"] = self._unlink_all()
        self._final_stats = stats
        return stats

    def _unlink_all(self) -> int:
        prefix = f"{SEGMENT_PREFIX}{self.run_id}"
        names = set()
        if os.path.isdir(_SHM_DIR):
            try:
                names.update(name for name in os.listdir(_SHM_DIR)
                             if name.startswith(prefix))
            except OSError:  # pragma: no cover
                pass
        names.update(name for name in self._segments
                     if name.startswith(prefix))
        names.add(self._index_name)
        unlinked = 0
        for name in sorted(names):
            segment = self._segments.pop(name, None)
            if segment is None and name == self._index_name:
                segment, self._index_seg = self._index_seg, None
            if segment is not None:
                if _unlink_segment(segment):
                    unlinked += 1
                self._close_segment(segment)
            elif _unlink_name(name):
                unlinked += 1
        for segment in self._retired:
            self._close_segment(segment)
        self._retired.clear()
        return unlinked

    def stats(self) -> dict:
        """Cross-process traffic summary (final snapshot after close)."""
        if self._final_stats is not None:
            return dict(self._final_stats)
        return self._snapshot() or {}


# ======================================================================
# leaked-segment sweep
# ======================================================================
def _probe_owner(path: str) -> Optional[int]:
    """Lock-free read of a (possibly torn) index segment's owner pid."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    if len(raw) < 4:
        return None
    index = _read_index_buf(memoryview(raw))
    if not isinstance(index, dict):
        return None
    owner = index.get("owner")
    return int(owner) if isinstance(owner, int) else None


def sweep_leaked_segments(max_age_s: float = 300.0) -> int:
    """Reap ``rsm*`` segments leaked by crashed runs; returns the count.

    A run's segments are leaked when its index segment is missing
    (orphan data — the index is always created first and unlinked last
    by a clean close) or its owner pid is dead. A torn/unreadable index
    is only reaped once older than ``max_age_s``, so a store mid-write
    on scope entry is never swept out from under its owner.
    """
    if not supported() or not os.path.isdir(_SHM_DIR):
        return 0
    try:
        names = [name for name in os.listdir(_SHM_DIR)
                 if name.startswith(SEGMENT_PREFIX)
                 and len(name) > len(SEGMENT_PREFIX) + _RUN_ID_LEN]
    except OSError:  # pragma: no cover
        return 0
    groups: Dict[str, List[str]] = {}
    for name in names:
        run = name[len(SEGMENT_PREFIX):len(SEGMENT_PREFIX) + _RUN_ID_LEN]
        groups.setdefault(run, []).append(name)
    removed = 0
    for run, members in groups.items():
        index_name = f"{SEGMENT_PREFIX}{run}idx"
        if index_name in members:
            path = os.path.join(_SHM_DIR, index_name)
            owner = _probe_owner(path)
            if owner is not None:
                if _pid_alive(owner):
                    continue
            else:
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    age = max_age_s + 1.0
                if age <= max_age_s:
                    continue
        for name in members:
            if _unlink_name(name):
                removed += 1
    if removed:
        telemetry.inc_counter("shm.segments.swept", removed)
    return removed


# ======================================================================
# scope management
# ======================================================================
_scope_lock = threading.RLock()
_active_store: Optional[SharedTermStore] = None
_active_handle: Optional[WorkerHandle] = None


@contextmanager
def store_scope(store: SharedTermStore) -> Iterator[SharedTermStore]:
    """Install a store for the dynamic extent of a sweep (parent side).

    The store is closed — stats snapshotted, every segment unlinked —
    on exit, crash or not.
    """
    global _active_store
    with _scope_lock:
        previous = _active_store
        _active_store = store
    try:
        yield store
    finally:
        with _scope_lock:
            _active_store = previous
        store.close()


def active_store() -> Optional[SharedTermStore]:
    """The sweep's store (parent process), or None."""
    return _active_store


@contextmanager
def worker_scope(handle: Optional[WorkerHandle]) -> Iterator[
        Optional[WorkerHandle]]:
    """Install a worker's store handle for one cell execution."""
    global _active_handle
    if handle is None:
        yield None
        return
    with _scope_lock:
        previous = _active_handle
        _active_handle = handle
    try:
        yield handle
    finally:
        with _scope_lock:
            _active_handle = previous
        handle.close()


def active_handle() -> Optional[WorkerHandle]:
    """The serving store client, or None when sharing is off.

    Consulted by the planner (:func:`repro.runtime.plan`) and the CSR
    caches; ``--no-cache`` turns it off with the rest of the cache
    layer.
    """
    handle = _active_handle
    if handle is None:
        return None
    from . import cache as runtime_cache
    if not runtime_cache.is_enabled():
        return None
    return handle
