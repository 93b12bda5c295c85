"""One sweep of one workload in a fresh interpreter (run by ``run.py``).

The process times its own set-up, then runs the workload's ``efficiency``
sweep through ``repro.bench.__main__.main`` with the workload seed, and
writes what it measured to ``--out`` as JSON. Cell-level records (test
score, pid, and with ``--mode trace`` the layer times of pool workers)
are appended to ``--cells`` by whichever process ran the cell.

Modes: ``telemetry`` is the program's default; ``no-telemetry`` adds
``--no-telemetry``; ``trace`` is the default plus the layer wrappers of
:mod:`layers`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import telemetry  # noqa: E402
from repro.bench import __main__ as bench_main  # noqa: E402
from repro.bench import experiments  # noqa: E402
from repro.bench.io import canonical_rows, jsonify  # noqa: E402
from repro.datasets import synthesize  # noqa: E402
from repro.runtime import pool as runtime_pool  # noqa: E402
from repro.runtime import shm as runtime_shm  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORTED_AT = time.time()

#: Program counters the traced run reports ratios or totals of.
COUNTERS = ("ops.spmm.bytes", "plan.spmm_avoided", "plan.terms.hit",
            "plan.terms.miss", "cache.spmm_t.hit", "cache.spmm_t.miss",
            "blocked.spill_bytes")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="telemetry",
                        choices=("telemetry", "no-telemetry", "trace"))
    parser.add_argument("--serial", action="store_true",
                        help="drop --workers (the pooled sweep's reference)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall time just before this process was spawned")
    parser.add_argument("--out", required=True)
    parser.add_argument("--cells", required=True)
    parser.add_argument("--scratch", required=True,
                        help="directory for spill files")
    return parser.parse_args(argv)


def set_up(workload, seed: int) -> dict:
    """Dataset synthesis and operator normalization, timed."""
    start = time.perf_counter()
    graph = synthesize(workload.dataset, scale=workload.scale, seed=seed)
    synthesized = time.perf_counter()
    graph.normalized_adjacency()
    normalized = time.perf_counter()
    return {"synthesize_s": synthesized - start,
            "normalize_s": normalized - synthesized}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_s = IMPORTED_AT - args.spawned_at
    setup = set_up(workload, args.seed)
    gc.collect()

    parent_pid = os.getpid()
    cells_fd = os.open(args.cells, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    tracer = layers.LayerTracer() if args.mode == "trace" else None
    patch = layers.Patch()

    # Test scores leave the worker through the cells file: a pool worker
    # is a forked process whose memory the parent never sees.
    run_cell = experiments.run_node_classification
    shipped = {}
    if tracer is not None:
        # A forked worker starts from the parent's totals; ship only its own.
        os.register_at_fork(
            after_in_child=lambda: shipped.update(tracer.snapshot()))

    def record_cell(graph, filter_name, scheme="full_batch", **kwargs):
        result = run_cell(graph, filter_name, scheme=scheme, **kwargs)
        record = {"pid": os.getpid(), "scheme": scheme,
                  "filter": filter_name, "status": result.status,
                  "test_score": float(result.test_score)}
        if tracer is not None and os.getpid() != parent_pid:
            now = tracer.snapshot()
            record["layers"] = layers.subtract(now, shipped)
            shipped.update(now)
        os.write(cells_fd, (json.dumps(record) + "\n").encode())
        return result

    rows = []
    counters = {}

    def seeded_sweep(**kwargs):
        out = experiments.efficiency_experiment(seed=args.seed, **kwargs)
        rows.extend(out)
        metrics = telemetry.get_metrics()
        if metrics is not None:
            values = metrics.counter_values()
            counters.update({name: values.get(name, 0) for name in COUNTERS})
        return out

    _, artifact, takes_config = bench_main.EXPERIMENTS["efficiency"]
    if tracer is not None:
        layers.install(tracer, layers.program_targets(),
                       layers.program_counters(), patch)
    patch.set(experiments, "run_node_classification", record_cell)
    patch.set(bench_main, "EXPERIMENTS", dict(
        bench_main.EXPERIMENTS,
        efficiency=(seeded_sweep, artifact, takes_config)))
    shm_stats = {}
    store_stats = runtime_shm.SharedTermStore.stats

    def capture_shm_stats(store):
        stats = store_stats(store)
        shm_stats.update(stats)
        return stats
    patch.set(runtime_shm.SharedTermStore, "stats", capture_shm_stats)

    argv = workload.argv(serial=args.serial) + ["--no-registry"]
    if "--blocked" in argv:
        argv += ["--spill-dir", args.scratch]
    if args.mode == "no-telemetry":
        argv += ["--no-telemetry"]

    sweep = bench_main.main if tracer is None \
        else tracer.wrap("bench.sweep", bench_main.main)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = sweep(argv)
    run_s = time.perf_counter() - start
    patch.undo()
    os.close(cells_fd)

    pool_stats = runtime_pool.last_run_stats() or {}
    result = {
        "status": status,
        "import_s": import_s,
        **setup,
        "run_s": run_s,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rows": jsonify(rows),
        "canonical": [json.dumps(row, sort_keys=True)
                      for row in canonical_rows(rows)],
        "counters": counters,
        "cell_seconds": [cell["seconds"]
                         for cell in pool_stats.get("per_cell", [])],
        "shm_hits": shm_stats.get("hits", 0),
        "layers": tracer.snapshot() if tracer is not None else {},
    }
    Path(args.out).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
