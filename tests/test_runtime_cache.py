"""The sparse-compute cache layer must be *invisible*.

`repro.runtime.cache` provides the exact content digest every cache key
is built on and the per-graph memo of normalized operators. These tests
prove the contracts the layer makes:

1. **Exact identity** (hypothesis property + adversarial cases):
   ``digest(a) == digest(b)`` iff shape, dtype and bytes are equal, so
   colliding-by-checksum inputs (rings with different shifts, swapped
   elements, ``±0.0``) get distinct cache entries in the per-graph memo,
   the planner, the shared term store and the spill store.
2. **Bit-identity** (hypothesis property tests): cached and uncached
   paths — ``normalized_adjacency``, ``laplacian``, eigenpairs — produce
   byte-for-byte identical arrays, also after an in-place edit, and the
   ``spmm`` backward equals the materialized-transpose reference.
3. **Boundedness**: every cache is a bounded LRU; entry counts never
   exceed capacity no matter the access sequence.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor
from repro.autodiff.sparse import spmm
from repro.filters.base import PropagationContext
from repro.graph import Graph
from repro.runtime import blocked, cache, plan, shm
from repro.spectral import laplacian_eigendecomposition


@pytest.fixture(autouse=True)
def _clean_cache_state():
    """Isolate tests from each other's global cache switch."""
    cache.set_enabled(True)
    yield
    cache.set_enabled(True)


def _random_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = max(n - 1, 1)
    edges = np.stack([rng.integers(0, n, size=num_edges),
                      rng.integers(0, n, size=num_edges)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]]) if n > 1 else np.zeros((0, 2), int)
    features = rng.normal(size=(n, 3)).astype(np.float32)
    return Graph.from_edges(n, edges, features=features, name=f"rand{seed}")


def _random_csr(n: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    matrix = sp.random(n, n, density=0.3, format="csr",
                       random_state=np.random.RandomState(seed),
                       dtype=np.float64).astype(np.float32)
    if matrix.nnz == 0:
        matrix = sp.csr_matrix(
            ([np.float32(rng.normal())], ([0], [n - 1])), shape=(n, n))
    return matrix


# ----------------------------------------------------------------------
# LRUCache mechanics
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_counts(self):
        lru = cache.LRUCache(4)
        assert lru.get("a") is cache.MISSING
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.stats()["hits"] == 1
        assert lru.stats()["misses"] == 1

    def test_capacity_bound_and_eviction_order(self):
        lru = cache.LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")            # refresh "a" → "b" becomes LRU
        lru.put("c", 3)
        assert len(lru) == 2
        assert "b" not in lru
        assert lru.get("a") == 1
        assert lru.stats()["evictions"] == 1

    def test_get_or_compute_calls_factory_once(self):
        lru = cache.LRUCache(4)
        calls = []
        for _ in range(3):
            value = lru.get_or_compute("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1

    def test_clear_resets_entries_and_stats(self):
        lru = cache.LRUCache(2)
        lru.put("a", 1)
        lru.get("a")
        lru.get("zzz")
        lru.clear()
        stats = lru.stats()
        assert stats == {"entries": 0, "capacity": 2, "hits": 0,
                         "misses": 0, "evictions": 0}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            cache.LRUCache(0)

    @settings(max_examples=30, deadline=None)
    @given(capacity=st.integers(1, 8),
           keys=st.lists(st.integers(0, 20), max_size=60))
    def test_property_entry_count_never_exceeds_capacity(self, capacity, keys):
        lru = cache.LRUCache(capacity)
        for key in keys:
            if lru.get(key) is cache.MISSING:
                lru.put(key, key * 2)
            assert len(lru) <= capacity
        for key in keys[-capacity:]:
            # the most recent `capacity` distinct puts must still resolve
            if len(set(keys[-capacity:])) <= capacity:
                assert lru.get(key) == key * 2


# ----------------------------------------------------------------------
# exact content digest
# ----------------------------------------------------------------------
class TestMatrixToken:
    def test_stable_across_calls(self):
        matrix = _random_csr(12, seed=0)
        assert cache.digest(matrix) == cache.digest(matrix)

    def test_changes_on_value_mutation(self):
        matrix = _random_csr(12, seed=1)
        before = cache.digest(matrix)
        matrix.data[0] += 1.0
        assert cache.digest(matrix) != before

    def test_changes_on_structure_change(self):
        matrix = _random_csr(12, seed=2)
        before = cache.digest(matrix)
        matrix.setdiag(1.0)
        assert cache.digest(matrix) != before


def _same_content(a, b) -> bool:
    """The digest's contract: format, shape, dtypes and bytes all equal."""
    if sp.issparse(a) != sp.issparse(b):
        return False
    if sp.issparse(a):
        pairs = [(a.indptr, b.indptr), (a.indices, b.indices),
                 (a.data, b.data)]
    else:
        pairs = [(a, b)]
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in pairs)


def _variant(value: np.ndarray, how: str, i: int, j: int) -> np.ndarray:
    """A copy of ``value`` perturbed the way sampled checksums miss."""
    out = value.copy()
    flat = out.reshape(-1)
    if flat.size == 0:
        return out
    i, j = i % flat.size, j % flat.size
    if how == "swap":
        flat[i], flat[j] = flat[j], flat[i]
    elif how == "negzero":
        flat[i] = 0.0 if np.signbit(flat[i]) else -0.0
    elif how == "astype":
        out = out.astype(np.float64 if out.dtype == np.float32
                         else np.float32)
    elif how == "reshape":
        out = out.reshape(-1)
    return out


class TestDigest:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(0, 6), cols=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 10_000),
           how=st.sampled_from(["copy", "swap", "negzero", "astype",
                                "reshape"]),
           i=st.integers(0, 99), j=st.integers(0, 99))
    def test_property_dense_digest_iff_same_bytes(self, rows, cols, dtype,
                                                  seed, how, i, j):
        rng = np.random.default_rng(seed)
        # A small value alphabet (zeros included) makes swaps of equal
        # values and ±0.0 flips common.
        a = rng.choice([0.0, 1.0, -1.0, 0.5], size=(rows, cols)).astype(dtype)
        b = _variant(a, how, i, j)
        assert (cache.digest(a) == cache.digest(b)) == _same_content(a, b)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000),
           how=st.sampled_from(["copy", "swap_data", "swap_indices",
                                "negzero", "astype"]),
           i=st.integers(0, 99), j=st.integers(0, 99))
    def test_property_csr_digest_iff_same_bytes(self, n, seed, how, i, j):
        rng = np.random.default_rng(seed)
        dense = rng.choice([0.0, 0.0, 1.0, 2.0], size=(n, n))
        a = sp.csr_matrix(dense, dtype=np.float32)
        b = a.copy()
        if a.nnz:
            i, j = i % a.nnz, j % a.nnz
            if how == "swap_data":
                b.data[i], b.data[j] = b.data[j], b.data[i]
            elif how == "swap_indices":
                # Reverse one row's column order: same matrix, unsorted
                # indices — different bytes, so a different digest.
                row = int(np.searchsorted(a.indptr, i, side="right")) - 1
                lo, hi = a.indptr[row], a.indptr[row + 1]
                b.indices[lo:hi] = b.indices[lo:hi][::-1].copy()
                b.data[lo:hi] = b.data[lo:hi][::-1].copy()
                b.has_sorted_indices = False
            elif how == "negzero":
                b.data[i] = -0.0
        if how == "astype":
            b = b.astype(np.float64)
        assert (cache.digest(a) == cache.digest(b)) == _same_content(a, b)

    def test_dense_and_sparse_never_collide(self):
        dense = np.eye(3, dtype=np.float32)
        assert cache.digest(dense) != cache.digest(sp.csr_matrix(dense))

    def test_element_swap_changes_signal_digest(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        swapped = x.copy()
        swapped[1, 0], swapped[2, 2] = x[2, 2], x[1, 0]
        assert cache.digest(swapped) != cache.digest(x)
        x[1, 0], x[2, 2] = x[2, 2], x[1, 0]  # the same swap, in place
        assert cache.digest(x) == cache.digest(swapped)


# ----------------------------------------------------------------------
# adversarial identity: inputs a sampled checksum could not tell apart
# ----------------------------------------------------------------------
def _ring(shift: int, n: int = 100) -> Graph:
    """A ring with edges ``i — (i + shift) mod n``. Shifts 1 and 7 give
    adjacencies of equal shape, nnz and values (all ones) that differ in
    400 entries."""
    nodes = np.arange(n)
    edges = np.stack([nodes, (nodes + shift) % n], axis=1)
    return Graph.from_edges(n, edges, name=f"ring{shift}")


def _ring_signal(n: int = 100) -> np.ndarray:
    return np.random.default_rng(0).normal(size=(n, 4)).astype(np.float32)


def _reference(shift: int, x: np.ndarray, count: int):
    """The uncached operator and streamed chain terms for one ring."""
    with cache.caches_disabled():
        adj = _ring(shift).normalized_adjacency(0.5)
        terms = [np.array(t) for t in plan.chain_bases(
            PropagationContext(adj), x, "monomial_adj", (), count)]
    return adj, terms


def _csr_bytes(matrix) -> tuple:
    return (matrix.indptr.tobytes(), matrix.indices.tobytes(),
            matrix.data.tobytes())


class TestAdversarialIdentity:
    SHIFTS = (1, 7)

    def test_rings_get_distinct_digests_and_fingerprints(self):
        one, seven = _ring(1), _ring(7)
        assert one.adjacency.nnz == seven.adjacency.nnz
        assert (one.adjacency != seven.adjacency).nnz == 400
        adj_digests = [cache.digest(g.adjacency) for g in (one, seven)]
        assert adj_digests[0] != adj_digests[1]
        norm_fps = {shm.blob_fingerprint("norm", ("adj", 0.5, True), d)
                    for d in adj_digests}
        assert len(norm_fps) == 2
        x_digest = cache.digest(_ring_signal())
        chain_fps = {
            shm.chain_fingerprint(
                cache.digest(g.normalized_adjacency(0.5)), "csr", x_digest,
                "monomial_adj", ())
            for g in (one, seven)}
        assert len(chain_fps) == 2

    @pytest.mark.skipif(not shm.supported(),
                        reason="POSIX shared memory unavailable")
    def test_shared_store_serves_each_ring_its_own(self):
        x = _ring_signal()
        expected = {s: _reference(s, x, 5) for s in self.SHIFTS}
        store = shm.SharedTermStore()
        try:
            with shm.worker_scope(store.worker_handle()):
                # Pass 0 publishes, pass 1 is served from shared memory;
                # fresh graphs and planners model isolated pool workers.
                for _ in range(2):
                    for shift in self.SHIFTS:
                        adj = _ring(shift).normalized_adjacency(0.5)
                        with plan.plan_scope(fresh=True):
                            terms = list(plan.chain_bases(
                                PropagationContext(adj), x, "monomial_adj",
                                (), 5))
                        ref_adj, ref_terms = expected[shift]
                        assert _csr_bytes(adj) == _csr_bytes(ref_adj)
                        assert [t.tobytes() for t in terms] \
                            == [t.tobytes() for t in ref_terms]
            assert store.stats()["hits"] > 0
        finally:
            store.close()

    def test_spill_store_serves_each_ring_its_own(self, tmp_path):
        x = _ring_signal()
        expected = {s: _reference(s, x, 5)[1] for s in self.SHIFTS}
        contexts = {s: PropagationContext(_ring(s).normalized_adjacency(0.5))
                    for s in self.SHIFTS}
        with blocked.blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                                   spill_dir=tmp_path / "spill") as tier:
            # Every chain spills as soon as another needs room, and each
            # re-request maps its terms back from the spill files.
            tier.term_budget_bytes = 1
            with plan.plan_scope() as planner:
                for shift in self.SHIFTS * 2:
                    terms = planner.chain_terms(contexts[shift], x,
                                                "monomial_adj", (), 5)
                    assert [t.tobytes() for t in terms] \
                        == [t.tobytes() for t in expected[shift]]
                stats = planner.stats()
        assert stats["terms_spilled"] > 0 and stats["terms_loaded"] > 0

    def test_in_place_adjacency_edit_is_never_stale(self):
        graph = _random_graph(20, seed=3)
        graph.normalized_adjacency(0.5)
        graph.laplacian(0.5)
        laplacian_eigendecomposition(graph)
        graph.adjacency.data[:4] = 3.0  # same object, new payload
        cached = (graph.normalized_adjacency(0.5), graph.laplacian(0.5),
                  laplacian_eigendecomposition(graph))
        with cache.caches_disabled():
            fresh = (graph.normalized_adjacency(0.5), graph.laplacian(0.5),
                     laplacian_eigendecomposition(graph))
        assert _csr_bytes(cached[0]) == _csr_bytes(fresh[0])
        assert _csr_bytes(cached[1]) == _csr_bytes(fresh[1])
        for got, want in zip(cached[2], fresh[2]):
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# normalization memo
# ----------------------------------------------------------------------
class TestNormalizationMemo:
    def test_hit_returns_same_object(self):
        graph = _random_graph(20, seed=7)
        a = graph.normalized_adjacency(0.5)
        b = graph.normalized_adjacency(0.5)
        assert a is b
        stats = graph.norm_memo_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_laplacian_memoized(self):
        graph = _random_graph(20, seed=8)
        assert graph.laplacian(0.5) is graph.laplacian(0.5)

    def test_distinct_keys_distinct_entries(self):
        graph = _random_graph(20, seed=9)
        a = graph.normalized_adjacency(0.5, self_loops=True)
        b = graph.normalized_adjacency(0.5, self_loops=False)
        c = graph.normalized_adjacency(1.0, self_loops=True)
        assert a is not b and a is not c
        assert graph.norm_memo_stats()["entries"] == 3

    def test_disabled_recomputes_equal_values(self):
        graph = _random_graph(20, seed=10)
        cached = graph.normalized_adjacency(0.5)
        with cache.caches_disabled():
            fresh = graph.normalized_adjacency(0.5)
        assert fresh is not cached
        np.testing.assert_array_equal(fresh.toarray(), cached.toarray())

    def test_lru_bound_over_rho_sweep(self):
        graph = _random_graph(16, seed=11)
        rhos = np.linspace(0.0, 1.0, cache.NORM_MEMO_ENTRIES * 2 + 1)
        for rho in rhos:
            graph.normalized_adjacency(float(rho))
        assert graph.norm_memo_stats()["entries"] <= cache.NORM_MEMO_ENTRIES

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 10_000),
           rho=st.floats(0.0, 1.0), self_loops=st.booleans())
    def test_property_normalized_adjacency_bit_identical(self, n, seed, rho,
                                                         self_loops):
        """Memoized and bypass paths agree byte-for-byte on CSR payloads."""
        graph = _random_graph(n, seed=seed)
        cached = graph.normalized_adjacency(rho, self_loops)
        cached_again = graph.normalized_adjacency(rho, self_loops)
        with cache.caches_disabled():
            fresh = graph.normalized_adjacency(rho, self_loops)
        assert cached is cached_again
        np.testing.assert_array_equal(cached.data, fresh.data)
        np.testing.assert_array_equal(cached.indices, fresh.indices)
        np.testing.assert_array_equal(cached.indptr, fresh.indptr)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 10_000),
           rho=st.floats(0.0, 1.0))
    def test_property_laplacian_bit_identical(self, n, seed, rho):
        graph = _random_graph(n, seed=seed)
        cached = graph.laplacian(rho)
        with cache.caches_disabled():
            fresh = graph.laplacian(rho)
        np.testing.assert_array_equal(cached.toarray(), fresh.toarray())


# ----------------------------------------------------------------------
# spmm backward: byte-identical to the materialized-transpose reference
# ----------------------------------------------------------------------
def _unsorted_csr(n: int, seed: int) -> sp.csr_matrix:
    """A CSR matrix whose column indices are shuffled within each row."""
    matrix = _random_csr(n, seed=seed)
    rng = np.random.default_rng(seed)
    indices, data = matrix.indices.copy(), matrix.data.copy()
    for row in range(n):
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        order = lo + rng.permutation(hi - lo)
        indices[lo:hi], data[lo:hi] = indices[order], data[order]
    shuffled = sp.csr_matrix((data, indices, matrix.indptr.copy()),
                             shape=matrix.shape)
    shuffled.has_sorted_indices = False
    return shuffled


class TestSpmmCacheInvisibility:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 24), width=st.integers(1, 64),
           dtype=st.sampled_from([np.float32, np.float64]),
           unsorted=st.booleans(), seed=st.integers(0, 10_000))
    def test_property_forward_backward_bit_identical(self, n, width, dtype,
                                                     unsorted, seed):
        """The backward through the CSC view equals ``csr.T.tocsr() @
        grad`` byte for byte, sorted or unsorted indices, any grad dtype,
        with caches on and off."""
        matrix = _unsorted_csr(n, seed) if unsorted \
            else _random_csr(n, seed=seed)
        rng = np.random.default_rng(seed)
        payload = rng.normal(size=(n, width)).astype(dtype)
        grad = rng.normal(size=(n, width)).astype(dtype)
        reference = matrix.T.tocsr() @ grad

        def run() -> tuple:
            x = Tensor(payload.copy(), requires_grad=True)
            out = spmm(matrix, x)
            out.backward(grad)
            return out.data, x.grad

        cached_out, cached_grad = run()
        with cache.caches_disabled():
            plain_out, plain_grad = run()

        assert cached_grad.tobytes() == np.asarray(reference).tobytes()
        np.testing.assert_array_equal(cached_out, plain_out)
        np.testing.assert_array_equal(cached_grad, plain_grad)


# ----------------------------------------------------------------------
# telemetry counter names (pinned: dashboards and the CI gate read these)
# ----------------------------------------------------------------------
class TestCounterNames:
    def test_cache_and_op_counter_names(self):
        telemetry.configure()
        try:
            graph = _random_graph(18, seed=14)
            graph.normalized_adjacency(0.5)
            graph.normalized_adjacency(0.5)
            matrix = graph.normalized_adjacency(0.5)
            x = Tensor(np.ones((18, 2), dtype=np.float32), requires_grad=True)
            out = spmm(matrix, x)
            (out * 2.0).sum().backward()
            spmm(matrix, Tensor(np.ones((18, 2), dtype=np.float32),
                                requires_grad=True)).sum().backward()
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.shutdown()
        assert counters["cache.norm_adj.miss"] == 1
        assert counters["cache.norm_adj.hit"] == 2
        # elementwise ops feed the same hook (ROADMAP coverage gap closed)
        for name in ("ops.ewise.calls", "ops.ewise.flops", "ops.ewise.bytes"):
            assert counters[name] > 0
