"""The benchmark's named workloads and the metrics it reports.

Every workload is one ``efficiency`` sweep (paper Figure 2 / Tables 9
and 11) driven through ``repro.bench.__main__.main``. ``BENCHMARK.json``
at the repository root must list the same workload and metric names;
``test_perfbench.py`` checks that it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Nine filters from five basis families (monomial, Chebyshev, Bernstein,
#: Favard, Horner) plus the fixed PPR/HK/Gaussian ones: the planner shares
#: basis chains across them.
NINE_FILTERS: Tuple[str, ...] = (
    "monomial", "ppr", "hk", "gaussian", "chebyshev", "chebinterp",
    "bernstein", "favard", "horner",
)


@dataclass(frozen=True)
class Workload:
    """One named ``efficiency`` sweep."""

    name: str
    dataset: str
    scale: float
    filters: Tuple[str, ...]
    schemes: Tuple[str, ...]
    epochs: int
    #: Extra CLI flags (``--blocked``, ``--workers``) after the grid.
    flags: Tuple[str, ...] = ()
    why: str = ""

    def argv(self, serial: bool = False) -> List[str]:
        """The ``python -m repro.bench`` arguments of this sweep.

        ``serial`` drops ``--workers``: the same cells run in-process,
        the reference a pooled sweep's payload must equal.
        """
        flags = list(self.flags)
        if serial and "--workers" in flags:
            at = flags.index("--workers")
            del flags[at:at + 2]
        return ["efficiency", "--datasets", self.dataset,
                "--scale", repr(self.scale),
                "--filters", *self.filters,
                "--schemes", *self.schemes,
                "--epochs", str(self.epochs), *flags]

    @property
    def workers(self) -> int:
        flags = list(self.flags)
        return int(flags[flags.index("--workers") + 1]) \
            if "--workers" in flags else 1

    @property
    def pooled(self) -> bool:
        return self.workers > 1

    @property
    def cells(self) -> List[Tuple[str, str]]:
        """``(scheme, filter)`` of every cell, in the sweep's grid order."""
        return [(scheme, name) for scheme in self.schemes
                for name in self.filters]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fb_train",
        dataset="pubmed", scale=0.5,
        filters=("ppr", "chebyshev", "bernstein", "fbgnn2"),
        schemes=("full_batch", "graph_partition"), epochs=6,
        why="autodiff forward/backward and in-graph spmm dominate; the "
            "planner is bypassed (Tensors are not plannable); GP adds "
            "graph partitioning"),
    Workload(
        name="mb_precompute",
        dataset="pubmed", scale=1.0, filters=NINE_FILTERS,
        schemes=("mini_batch",), epochs=2,
        why="filter precompute and planner/cache chain sharing across 9 "
            "filters of 5 bases do half the work; --no-plan trades "
            "precompute time for peak RSS"),
    Workload(
        name="blocked_fullscale",
        dataset="chameleon", scale=1.0, filters=NINE_FILTERS,
        schemes=("full_batch", "mini_batch", "graph_partition"), epochs=5,
        flags=("--blocked", "--ram-budget", "64"),
        why="only workload on the blocked tier (tiled spmm, spill, mmap "
            "reload) at paper size; spill volume kept near 290 MB because "
            "disk discard makes large purges measure the disk"),
    Workload(
        name="pooled_sweep",
        dataset="arxiv", scale=0.2, filters=NINE_FILTERS,
        schemes=("mini_batch",), epochs=2, flags=("--workers", "2"),
        why="only workload where the process pool and the shared-memory "
            "term store run; its payload must equal the serial payload"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Which end-to-end metric this layer metric should move, on which
    #: workloads (per-layer metrics only).
    moves: str = ""


#: Reported with ``--trace 0``: medians over the run's sweeps.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("precompute_s", "s", "lower"),
    Metric("train_s_per_epoch", "s", "lower"),
    Metric("inference_s", "s", "lower"),
    Metric("peak_rss_mib", "MiB", "lower"),
    Metric("ok_frac", "ratio", "higher"),
)

#: Reported with ``--trace 1``. Every ``*_s`` layer time is a self time:
#: the wrapped call's duration minus the part its nested wrapped calls
#: cover, so the layer times of one process add up without overlap.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("datasets.synthesize_s", "s", "lower",
           "setup_s on every workload"),
    Metric("graph.normalized_adjacency_s", "s", "lower",
           "setup_s on every workload"),
    Metric("graph.partition_s", "s", "lower",
           "setup_s on every workload; run_s on fb_train through GP"),
    Metric("filters.propagate_s", "s", "lower",
           "run_s on fb_train; precompute_s on mb_precompute"),
    Metric("filters.propagate_calls", "count", "lower",
           "run_s on fb_train; precompute_s on mb_precompute"),
    Metric("filters.propagate_gbps", "GB/s", "higher",
           "computed bytes (ops.spmm.bytes) per inclusive propagate "
           "second; run_s on fb_train, precompute_s on mb_precompute"),
    Metric("filters.precompute_s", "s", "lower",
           "precompute_s on mb_precompute; no effect on fb_train"),
    Metric("models.forward_self_s", "s", "lower",
           "train_s_per_epoch and run_s: large on fb_train, small on "
           "mb_precompute"),
    Metric("autodiff.backward_s", "s", "lower",
           "train_s_per_epoch and run_s: large on fb_train, small on "
           "mb_precompute"),
    Metric("autodiff.optim_step_s", "s", "lower",
           "train_s_per_epoch and run_s: large on fb_train, small on "
           "mb_precompute"),
    Metric("training.fit_self_s", "s", "lower",
           "train_s_per_epoch on mb_precompute"),
    Metric("runtime.plan.chain_terms_s", "s", "lower",
           "precompute_s and peak_rss_mib on mb_precompute; no effect "
           "on fb_train"),
    Metric("runtime.plan.spmm_avoided", "count", "higher",
           "precompute_s and peak_rss_mib on mb_precompute; no effect "
           "on fb_train"),
    Metric("runtime.plan.hit_ratio", "ratio", "higher",
           "precompute_s and peak_rss_mib on mb_precompute; no effect "
           "on fb_train"),
    Metric("runtime.cache.spmm_t_hit_ratio", "ratio", "higher",
           "precompute_s and peak_rss_mib on mb_precompute; no effect "
           "on fb_train"),
    Metric("runtime.blocked.spmm_s", "s", "lower",
           "run_s and peak_rss_mib on blocked_fullscale only"),
    Metric("runtime.blocked.spill_put_s", "s", "lower",
           "run_s and peak_rss_mib on blocked_fullscale only"),
    Metric("runtime.blocked.spill_get_s", "s", "lower",
           "run_s and peak_rss_mib on blocked_fullscale only"),
    Metric("runtime.blocked.close_s", "s", "lower",
           "run_s on blocked_fullscale only"),
    Metric("runtime.blocked.spill_bytes", "bytes", "lower",
           "run_s and peak_rss_mib on blocked_fullscale only"),
    Metric("runtime.pool.efficiency", "ratio", "higher",
           "run_s and peak_rss_mib on pooled_sweep only"),
    Metric("runtime.shm.hits", "count", "higher",
           "run_s and peak_rss_mib on pooled_sweep only"),
    Metric("telemetry.overhead_s", "s", "lower",
           "run_s on every workload (run_s minus run_s under "
           "--no-telemetry)"),
    Metric("bench.sweep_self_s", "s", "lower",
           "run_s on every workload: sweep time outside every wrapped "
           "layer (argument parsing, cell scheduling, row building)"),
    Metric("trace.overhead_s", "s", "lower",
           "none: traced run_s minus untraced run_s, the cost of the "
           "layer wrappers"),
    Metric("host.triad_gbps", "GB/s", "higher",
           "none: single-threaded triad bandwidth of the host"),
    Metric("filters.propagate_roofline_frac", "ratio", "higher",
           "run_s on fb_train; precompute_s on mb_precompute "
           "(filters.propagate_gbps / host.triad_gbps)"),
)
