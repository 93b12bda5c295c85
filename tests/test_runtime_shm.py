"""Cross-process shared term store (:mod:`repro.runtime.shm`) tests.

The store's contract has four faces, each covered here:

1. **Index mechanics** — fingerprints are content addresses; the
   length-prefixed JSON index round-trips, reads torn/garbage buffers as
   an explicit miss, and refuses writes that do not fit.
2. **Protocol** — blob publish/fetch is first-publisher-wins; chain
   claims are exclusive, adoptable when their holder dies, abandonable,
   and a publish against stale offsets is refused (the orphan segment is
   reclaimed). FIFO eviction keeps payload bytes under budget without
   ever evicting the entry being published. A client that cannot take
   the lock degrades to local compute instead of blocking the sweep.
3. **Crash safety** — scope exit unlinks every segment of the run by
   name; :func:`~repro.runtime.shm.sweep_leaked_segments` reaps groups
   whose owner died or whose index vanished; a SIGKILLed attacher never
   wedges cleanup (the lock-holder variant lives in
   ``tests/test_runtime_pool.py`` with the slow marker).
4. **Invisibility** — with a worker handle installed, planner-served
   shared terms and shared CSR blobs are byte-identical to local
   computation across the full 27-filter taxonomy (parametrized + a
   hypothesis property), and ``--no-cache`` semantics turn the store
   off via :func:`~repro.runtime.shm.active_handle`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.runtime import cache, plan, shm
from repro.runtime.shm import (
    SharedTermStore,
    StoreConfig,
    blob_fingerprint,
    chain_fingerprint,
    sweep_leaked_segments,
)

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="POSIX shared memory unavailable")


@pytest.fixture(autouse=True)
def _clean_state():
    """Isolate tests from global cache switches and leftover telemetry."""
    cache.set_enabled(True)
    plan.set_enabled(True)
    telemetry.shutdown()
    yield
    cache.set_enabled(True)
    plan.set_enabled(True)
    telemetry.shutdown()


@pytest.fixture()
def store():
    instance = SharedTermStore()
    yield instance
    instance.close()
    assert not _run_segments(instance.run_id), \
        "store close left segments in /dev/shm"


def _run_segments(run_id: str) -> list:
    prefix = f"{shm.SEGMENT_PREFIX}{run_id}"
    if not os.path.isdir("/dev/shm"):
        return []
    return [name for name in os.listdir("/dev/shm")
            if name.startswith(prefix)]


def _dead_pid() -> int:
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    return probe.pid


# ---------------------------------------------------------------------------
# 1. fingerprints + index serialization
# ---------------------------------------------------------------------------

class TestFingerprints:
    MTOK = ((4, 4), 8, "<f8", 3.25)
    XTOK = ("x", 16, "<f4", 1.5)

    def test_chain_fingerprint_deterministic(self):
        first = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                  "monomial_adj", (0.5,))
        again = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                  "monomial_adj", (0.5,))
        assert first == again and len(first) == 64

    def test_chain_fingerprint_sensitivity(self):
        base = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                 "monomial_adj", (0.5,))
        assert base != chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                         "monomial_lap", (0.5,))
        assert base != chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                         "monomial_adj", (0.25,))
        assert base != chain_fingerprint(self.MTOK, "autodiff", self.XTOK,
                                         "monomial_adj", (0.5,))
        other_x = ("x", 16, "<f4", 2.5)
        assert base != chain_fingerprint(self.MTOK, "numpy", other_x,
                                         "monomial_adj", (0.5,))

    def test_blob_fingerprint_kind_scoped(self):
        token = self.MTOK
        assert blob_fingerprint("spmm_t", token) \
            != blob_fingerprint("norm", token)
        assert blob_fingerprint("spmm_t", token) \
            == blob_fingerprint("spmm_t", token)


class TestIndexBuffer:
    def test_round_trip(self):
        buf = bytearray(4096)
        doc = {"schema": "x", "chains": {"fp": {"terms": []}}}
        assert shm._write_index_buf(buf, doc)
        assert shm._read_index_buf(buf) == doc

    def test_zero_length_reads_none(self):
        assert shm._read_index_buf(bytearray(64)) is None

    def test_garbage_reads_none(self):
        buf = bytearray(64)
        shm._write_index_buf(buf, {"k": 1})
        buf[4:10] = b"\xff" * 6
        assert shm._read_index_buf(buf) is None

    def test_oversized_write_refused(self):
        buf = bytearray(32)
        assert not shm._write_index_buf(buf, {"k": "v" * 64})
        assert shm._read_index_buf(buf) is None


# ---------------------------------------------------------------------------
# 2. protocol: blobs, chains, claims, eviction, degradation
# ---------------------------------------------------------------------------

class TestBlobProtocol:
    def test_publish_fetch_round_trip(self, store):
        arrays = {"data": np.arange(6, dtype=np.float64),
                  "indices": np.arange(6, dtype=np.int32)}
        fp = blob_fingerprint("spmm_t", ("t",))
        assert store.publish_blob(fp, arrays, meta={"shape": [2, 3]})
        fetched = store.fetch_blob(fp)
        assert fetched is not None
        got, meta = fetched
        assert meta == {"shape": [2, 3]}
        for name, array in arrays.items():
            np.testing.assert_array_equal(got[name], array)
            assert not got[name].flags.writeable

    def test_first_publisher_wins(self, store):
        fp = blob_fingerprint("norm", ("n",))
        assert store.publish_blob(fp, {"a": np.ones(3)})
        assert not store.publish_blob(fp, {"a": np.zeros(3)})
        got, _meta = store.fetch_blob(fp)
        np.testing.assert_array_equal(got["a"], np.ones(3))

    def test_refused_publish_reclaims_segment(self, store):
        fp = blob_fingerprint("norm", ("again",))
        store.publish_blob(fp, {"a": np.ones(3)})
        before = set(_run_segments(store.run_id))
        assert not store.publish_blob(fp, {"a": np.zeros(3)})
        assert set(_run_segments(store.run_id)) == before

    def test_unknown_blob_misses(self, store):
        assert store.fetch_blob(blob_fingerprint("norm", ("nope",))) is None


class TestChainProtocol:
    FP = chain_fingerprint(((3, 3), 4, "<f8", 1.0), "numpy",
                           ("x", 9, "<f4", 0.5), "monomial_adj", ())

    def _terms(self, count, offset=0):
        return [np.full((3, 2), float(offset + k), dtype=np.float32)
                for k in range(count)]

    def test_claim_publish_serve(self, store):
        served, claimed = store.plan_chain(self.FP, have=0, want=3)
        assert served == [] and claimed
        terms = self._terms(3)
        assert store.publish_terms(self.FP, first_order=1, terms=terms)
        handle = store.worker_handle()
        served, claimed = handle.plan_chain(self.FP, have=0, want=3)
        assert not claimed and len(served) == 3
        for expected, got in zip(terms, served):
            np.testing.assert_array_equal(got, expected)
            assert not got.flags.writeable
        handle.close()

    def test_incremental_extension(self, store):
        store.plan_chain(self.FP, have=0, want=2)
        store.publish_terms(self.FP, first_order=1, terms=self._terms(2))
        served, claimed = store.plan_chain(self.FP, have=2, want=4)
        assert served == [] and claimed, \
            "extension past published depth must claim the remainder"
        assert store.publish_terms(self.FP, first_order=3,
                                   terms=self._terms(2, offset=2))
        served, claimed = store.plan_chain(self.FP, have=0, want=4)
        assert not claimed and len(served) == 4
        np.testing.assert_array_equal(served[3],
                                      np.full((3, 2), 3.0, np.float32))

    def test_stale_offset_publish_refused(self, store):
        store.plan_chain(self.FP, have=0, want=2)
        store.publish_terms(self.FP, first_order=1, terms=self._terms(2))
        before = set(_run_segments(store.run_id))
        assert not store.publish_terms(self.FP, first_order=1,
                                       terms=self._terms(2, offset=9))
        assert set(_run_segments(store.run_id)) == before
        served, _ = store.plan_chain(self.FP, have=0, want=2)
        np.testing.assert_array_equal(served[0],
                                      np.zeros((3, 2), np.float32))

    def test_abandon_claim_releases(self, store):
        _, claimed = store.plan_chain(self.FP, have=0, want=2)
        assert claimed
        store.abandon_claim(self.FP)
        handle = store.worker_handle()
        _, claimed = handle.plan_chain(self.FP, have=0, want=2)
        assert claimed, "abandoned claim must be immediately re-claimable"
        handle.close()

    def test_dead_claimant_adopted(self, store):
        dead = _dead_pid()

        def forge(index):
            index["chains"][self.FP] = {
                "dtype": None, "shape": None, "nbytes": 0, "terms": [],
                "claim": {"pid": dead, "ts": time.time(), "upto": 2}}
            return None, True

        store._with_index(forge)
        served, claimed = store.plan_chain(self.FP, have=0, want=2)
        assert served == [] and claimed
        assert store.stats()["adoptions"] == 1

    def test_live_claimant_waiter_times_out(self, store):
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            def forge(index):
                index["chains"][self.FP] = {
                    "dtype": None, "shape": None, "nbytes": 0, "terms": [],
                    "claim": {"pid": holder.pid, "ts": time.time(),
                              "upto": 2}}
                return None, True

            store._with_index(forge)
            handle = shm.WorkerHandle(
                store._index_name, store._lock,
                StoreConfig(wait_timeout_s=0.05, poll_interval_s=0.005),
                store.run_id, store.start_method)
            start = time.monotonic()
            served, claimed = handle.plan_chain(self.FP, have=0, want=2)
            assert served == [] and not claimed, \
                "waiter must give up and compute locally, never claim over"
            assert time.monotonic() - start < 5.0
            handle.close()
        finally:
            holder.kill()
            holder.wait()


class TestEvictionAndDegradation:
    def test_fifo_eviction_respects_budget(self):
        store = SharedTermStore(config=StoreConfig(budget_bytes=4096))
        try:
            chunk = np.zeros(384, dtype=np.float64)  # 3 KiB each
            first = blob_fingerprint("norm", ("first",))
            second = blob_fingerprint("norm", ("second",))
            assert store.publish_blob(first, {"a": chunk})
            assert store.publish_blob(second, {"a": chunk})
            assert store.fetch_blob(first) is None, \
                "oldest entry must be evicted past the byte budget"
            assert store.fetch_blob(second) is not None, \
                "the entry being published is protected from eviction"
            assert store.stats()["bytes"] <= 4096
        finally:
            store.close()

    def test_lock_timeout_degrades_to_local(self, store):
        handle = shm.WorkerHandle(
            store._index_name, store._lock,
            StoreConfig(lock_timeout_s=0.05),
            store.run_id, store.start_method)
        assert store._lock.acquire()
        try:
            fp = blob_fingerprint("norm", ("locked",))
            assert handle.fetch_blob(fp) is None
            assert handle._disabled, \
                "a lock timeout must disable the client for the session"
        finally:
            store._lock.release()
        # Degradation is sticky: the store stays off even once the lock
        # frees up — liveness over sharing.
        assert handle.fetch_blob(blob_fingerprint("norm", ("free",))) is None
        handle.close()

    def test_index_overflow_disables_instead_of_corrupting(self):
        store = SharedTermStore(config=StoreConfig(index_bytes=4096))
        try:
            for attempt in range(64):
                fp = blob_fingerprint("norm", ("bulk", attempt))
                if not store.publish_blob(fp, {"a": np.ones(2)},
                                          meta={"pad": "p" * 128}):
                    break
            # Either eviction kept the document inside the segment, or
            # the store disabled itself; both leave the index readable
            # (or the store off) — never a torn document.
            if not store._disabled:
                assert store.stats() != {}
        finally:
            store.close()


# ---------------------------------------------------------------------------
# 3. crash safety: lifecycle, leaked-segment sweep, cross-process
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_close_unlinks_and_is_idempotent(self):
        store = SharedTermStore()
        store.publish_blob(blob_fingerprint("norm", ("x",)),
                           {"a": np.ones(4)})
        assert _run_segments(store.run_id)
        stats = store.close()
        assert stats["segments_unlinked"] >= 2  # index + data
        assert stats["blobs"] == 1
        assert not _run_segments(store.run_id)
        assert store.close() == stats, "second close must be a no-op"

    def test_worker_handle_state_never_ships_segments(self, store):
        store.publish_blob(blob_fingerprint("norm", ("y",)),
                           {"a": np.ones(4)})
        handle = store.worker_handle()
        handle.fetch_blob(blob_fingerprint("norm", ("y",)))
        state = handle.__getstate__()
        assert state["_segments"] == {} and state["_index_seg"] is None
        handle.close()

    def test_store_survives_view_outliving_fetch(self, store):
        fp = blob_fingerprint("norm", ("held",))
        store.publish_blob(fp, {"a": np.arange(8.0)})
        got, _ = store.fetch_blob(fp)
        view = got["a"]  # keep a live view across close
        stats = store.close()
        assert stats["segments_unlinked"] >= 2
        np.testing.assert_array_equal(view, np.arange(8.0)), \
            "POSIX unlink must not invalidate live mappings"


class TestLeakedSegmentSweep:
    def test_dead_owner_group_reaped(self):
        store = SharedTermStore()
        store.publish_blob(blob_fingerprint("norm", ("leak",)),
                           {"a": np.ones(16)})
        run_id, dead = store.run_id, _dead_pid()

        def forge(index):
            index["owner"] = dead
            return None, True

        store._with_index(forge)
        assert sweep_leaked_segments() >= 2
        assert not _run_segments(run_id)
        store._closed = True  # segments already gone; skip double unlink

    def test_orphan_data_segment_reaped(self):
        name = f"{shm.SEGMENT_PREFIX}deadbeefd1x0"
        segment = shm._create_segment(name, 64)
        segment.close()
        assert sweep_leaked_segments() >= 1
        assert not _run_segments("deadbeef")

    def test_live_store_never_swept(self, store):
        store.publish_blob(blob_fingerprint("norm", ("live",)),
                           {"a": np.ones(4)})
        sweep_leaked_segments()
        assert _run_segments(store.run_id), \
            "a store with a live owner must survive the sweep"


def _child_roundtrip(handle, fp_in, fp_out, conn):
    """Fork-child: fetch the parent's blob, publish one back."""
    try:
        with shm.worker_scope(handle) as active:
            got, _meta = active.fetch_blob(fp_in)
            value = np.asarray(got["a"]).copy()
            active.publish_blob(fp_out, {"b": value * 2.0})
        conn.send(value.tolist())
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        conn.send(f"error: {exc}")
    finally:
        conn.close()


class TestCrossProcess:
    def test_fork_child_fetches_and_publishes(self, store):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        fp_in = blob_fingerprint("norm", ("parent",))
        fp_out = blob_fingerprint("norm", ("child",))
        payload = np.arange(5.0)
        assert store.publish_blob(fp_in, {"a": payload})
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_roundtrip,
                           args=(store.worker_handle(), fp_in, fp_out,
                                 child_conn))
        proc.start()
        child_conn.close()
        assert parent_conn.poll(30.0), "fork child never reported"
        result = parent_conn.recv()
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
        assert result == payload.tolist()
        got, _meta = store.fetch_blob(fp_out)
        np.testing.assert_array_equal(got["b"], payload * 2.0)


# ---------------------------------------------------------------------------
# 4. invisibility: planner/cache integration across the taxonomy
# ---------------------------------------------------------------------------

def _random_graph(n: int, seed: int, num_features: int = 3) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = max(2 * n, 1)
    edges = np.stack([rng.integers(0, n, size=num_edges),
                      rng.integers(0, n, size=num_edges)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]]) if n > 1 else np.zeros((0, 2), int)
    features = rng.normal(size=(n, num_features)).astype(np.float32)
    return Graph.from_edges(n, edges, features=features, name=f"rand{seed}")


def _shared_vs_local(name: str, graph: Graph, num_hops: int, rho: float):
    """(local bytes, publisher-pass bytes, served-pass bytes)."""
    x = np.asarray(graph.features, dtype=np.float32)
    filter_ = make_filter(name, num_hops=num_hops, num_features=x.shape[1])
    with plan.plan_scope(fresh=True):
        local = filter_.precompute(graph, x, rho=rho)
    store = SharedTermStore()
    try:
        with shm.worker_scope(store.worker_handle()):
            # Fresh plan scopes per pass model isolated pool workers:
            # pass 1 computes and publishes, pass 2 must be served the
            # same bytes from shared memory.
            with plan.plan_scope(fresh=True):
                published = filter_.precompute(graph, x, rho=rho)
            with plan.plan_scope(fresh=True):
                served = filter_.precompute(graph, x, rho=rho)
    finally:
        stats = store.close()
    return local, published, served, stats


class TestSharedStoreInvisibility:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_taxonomy_byte_identity(self, name):
        """Shared-store on/off is invisible for all 27 filters."""
        graph = _random_graph(24, seed=11)
        local, published, served, _stats = _shared_vs_local(
            name, graph, num_hops=6, rho=0.5)
        assert local.tobytes() == published.tobytes(), name
        assert local.tobytes() == served.tobytes(), name

    def test_second_pass_is_served_from_shared_memory(self):
        graph = _random_graph(24, seed=13)
        _local, _pub, _served, stats = _shared_vs_local(
            "monomial", graph, num_hops=6, rho=0.5)
        assert stats["publishes"] > 0, "first pass must publish its chain"
        assert stats["hits"] > 0, "second pass must hit the shared chain"

    @given(seed=st.integers(0, 40), num_hops=st.integers(1, 7),
           rho=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           name=st.sampled_from(["monomial", "ppr", "hk", "gaussian",
                                 "horner", "chebyshev", "clenshaw",
                                 "legendre", "jacobi", "fbgnn2", "fagnn"]))
    @settings(max_examples=15, deadline=None)
    def test_shared_on_off_byte_identity_property(self, seed, num_hops,
                                                  rho, name):
        """Random graph/order/ρ across every chain family: identical."""
        graph = _random_graph(12 + seed % 9, seed=seed)
        local, published, served, _stats = _shared_vs_local(
            name, graph, num_hops=num_hops, rho=rho)
        assert local.tobytes() == published.tobytes(), name
        assert local.tobytes() == served.tobytes(), name


class TestCsrBlobIntegration:
    def _csr(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        matrix = sp.random(n, n, density=0.3, random_state=rng,
                           format="csr", dtype=np.float64)
        matrix.sort_indices()
        return matrix

    def test_shared_csr_round_trip(self, store):
        matrix = self._csr()
        fp = blob_fingerprint("norm", cache.digest(matrix))
        assert cache.shared_csr_publish(store, fp, matrix)
        fetched = cache.shared_csr_fetch(store, fp)
        assert fetched is not None
        assert (fetched != matrix).nnz == 0
        assert fetched.has_sorted_indices

    def test_normalization_routes_through_store(self, store):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        with shm.worker_scope(store.worker_handle()):
            first = Graph.from_edges(4, edges.copy(),
                                     name="n1").normalized_adjacency()
            second = Graph.from_edges(4, edges.copy(),
                                      name="n2").normalized_adjacency()
        assert (first != second).nnz == 0
        stats = store.stats()
        assert stats["blobs"] >= 1 and stats["hits"] >= 1, \
            "identical graphs must share one normalization blob"


class TestScopes:
    def test_store_scope_installs_and_closes(self):
        store = SharedTermStore()
        with shm.store_scope(store) as active:
            assert shm.active_store() is active
        assert shm.active_store() is None
        assert not _run_segments(store.run_id), \
            "scope exit must close the store"

    def test_worker_scope_none_passthrough(self):
        with shm.worker_scope(None) as handle:
            assert handle is None
        assert shm.active_handle() is None

    def test_no_cache_disables_active_handle(self, store):
        with shm.worker_scope(store.worker_handle()) as handle:
            assert shm.active_handle() is handle
            cache.set_enabled(False)
            assert shm.active_handle() is None, \
                "--no-cache must turn the shared store off too"
            cache.set_enabled(True)
            assert shm.active_handle() is handle
