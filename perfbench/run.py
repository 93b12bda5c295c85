"""Benchmark of the ``efficiency`` sweep: four named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fb_train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each sweep runs in a fresh interpreter (``sweep.py``), the way a user
runs ``python -m repro.bench``, so per-process caches start cold and
peak RSS belongs to that sweep alone. A run repeats the sweep while
another one still fits in ``--seconds`` (at least three times with
``--trace 0``) and reports medians. With ``--trace 1`` the time is
shared, round robin, between three variants: the program's default,
``--no-telemetry``, and the default under the layer wrappers of
``layers.py``; the per-layer metrics come from the last, the overheads
from the differences, and each is printed with the end-to-end metric it
should move.

Every cell of every sweep is checked (status ``ok``, sane stage times,
test score in [0, 1], the sweep's mean test score within the tolerance
of ``reference.json``, the same scores and payload as the run's first
sweep, and for ``pooled_sweep`` the same payload and scores as the
serial sweep of the same cells). A cell that
fails a check counts in ``failed``; any failure makes the exit code 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import merge  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload  # noqa: E402

#: Sweeps a ``--trace 0`` run makes at least, so its median is a median.
MIN_SWEEPS = 3
#: A sweep that takes longer than this is killed and its cells fail.
SWEEP_TIMEOUT_S = 120.0
#: Interval of the process-tree RSS sampler, and how many samples reuse
#: one scan of ``/proc`` for the group's members.
RSS_INTERVAL_S = 0.01
RSS_RESCAN_EVERY = 10
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
REFERENCE_PATH = HERE / "reference.json"
METRICS = {m.name: m for m in END_TO_END + PER_LAYER}


# ======================================================================
# process tree: RSS sampling and clean-up
# ======================================================================
def _group_members(pgid: int) -> List[int]:
    """Pids of the live processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * PAGE_BYTES
    except (OSError, IndexError, ValueError):
        return 0


class TreeRssSampler(threading.Thread):
    """Peak of the summed RSS of one process group (a sweep and its pool
    workers), sampled every :data:`RSS_INTERVAL_S`."""

    def __init__(self, pgid: int):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.peak_bytes = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        members, tick = [], 0
        while not self._stop_event.wait(RSS_INTERVAL_S):
            if tick % RSS_RESCAN_EVERY == 0:
                members = _group_members(self.pgid)
            tick += 1
            total = sum(_rss_bytes(pid) for pid in members)
            self.peak_bytes = max(self.peak_bytes, total)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait for what is left of a sweep's process group; kill stragglers."""
    deadline = time.monotonic() + grace_s
    while _group_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.02)


def _read_records(path: Path) -> List[Dict]:
    """JSON lines of a cells file; a line torn by a killed worker is
    skipped, which leaves its cell without a score."""
    records = []
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


# ======================================================================
# one sweep
# ======================================================================
class Sweeper:
    """Spawns ``sweep.py`` children under one scratch directory."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.count = 0
        self.env = dict(os.environ, TMPDIR=str(scratch / "tmp"))
        (scratch / "tmp").mkdir(parents=True, exist_ok=True)

    def sweep(self, mode: str = "telemetry", serial: bool = False) -> Dict:
        self.count += 1
        tag = f"{self.count:03d}-{mode}{'-serial' if serial else ''}"
        out, cells = self.scratch / f"{tag}.json", self.scratch / f"{tag}.cells"
        spill = self.scratch / f"{tag}.spill"
        for stale in (out, cells):
            stale.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "sweep.py"),
                   "--workload", self.workload.name, "--seed", str(self.seed),
                   "--mode", mode, "--out", str(out), "--cells", str(cells),
                   "--scratch", str(spill)]
        if serial:
            command.append("--serial")
        spawned_at = time.time()
        proc = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)],
                                stdout=subprocess.DEVNULL, env=self.env,
                                cwd=str(ROOT), start_new_session=True)
        # Pool workers are processes of their own: sample the group's RSS.
        # A serial sweep's peak is its own exact high-water mark instead.
        sampler = TreeRssSampler(proc.pid) if self.workload.pooled else None
        if sampler is not None:
            sampler.start()
        try:
            proc.wait(timeout=SWEEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Timed out, or this run is being stopped: end the sweep now.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            if sampler is not None:
                sampler.stop()
            _reap_group(proc.pid)
        result = {"mode": mode, "returncode": proc.returncode,
                  "tree_peak_mib": (sampler.peak_bytes / 2 ** 20
                                    if sampler is not None else 0.0)}
        if proc.returncode == 0 and out.exists():
            result.update(json.loads(out.read_text()))
        result["cells"] = _read_records(cells)
        shutil.rmtree(spill, ignore_errors=True)
        out.unlink(missing_ok=True)
        cells.unlink(missing_ok=True)
        return result


# ======================================================================
# correctness
# ======================================================================
def load_reference(path: Path = REFERENCE_PATH) -> Dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _scores(result: Dict) -> Dict[tuple, float]:
    return {(cell["scheme"], cell["filter"]): cell["test_score"]
            for cell in result.get("cells", [])}


def check_sweep(workload: Workload, result: Dict, reference: Dict,
                baseline: Optional[Dict]) -> List[str]:
    """Problems with each failed cell of one sweep, one string per cell.

    ``baseline`` is the sweep this one must reproduce exactly (scores and
    canonical payload), or ``None`` for the run's first sweep.
    """
    cells = workload.cells
    if result.get("returncode") != 0 or "rows" not in result:
        return [f"{scheme}/{name}: sweep exited {result.get('returncode')}"
                for scheme, name in cells]
    rows, canonical = result["rows"], result["canonical"]
    scores = _scores(result)
    base_scores = _scores(baseline) if baseline is not None else None
    problems = []
    for i, (scheme, name) in enumerate(cells):
        label = f"{scheme}/{name}"
        row = rows[i] if i < len(rows) else None
        score = scores.get((scheme, name))
        if row is None or row.get("scheme") != scheme:
            problems.append(f"{label}: row missing")
        elif row.get("status") != "ok":
            problems.append(f"{label}: status {row.get('status')}")
        elif not all(math.isfinite(row.get(key, float("nan")))
                     and row[key] >= 0 for key in
                     ("precompute_s", "train_s_per_epoch", "inference_s")):
            problems.append(f"{label}: bad stage times")
        elif score is None or not 0.0 <= score <= 1.0:
            problems.append(f"{label}: test score {score!r}")
        elif base_scores is not None and \
                base_scores.get((scheme, name)) != score:
            problems.append(f"{label}: test score {score!r} differs from "
                            f"{base_scores.get((scheme, name))!r}")
        elif baseline is not None and (
                i >= len(baseline["canonical"])
                or canonical[i] != baseline["canonical"][i]):
            problems.append(f"{label}: payload differs")
    # A single cell's score is heavy-tailed across seeds (a short run on
    # a small graph now and then collapses to chance), so the reference
    # band holds the sweep's mean score over its cells.
    ref = reference.get(workload.name)
    if not problems:
        mean = statistics.fmean(scores.values())
        if ref is None or abs(mean - ref["mean"]) > ref["tol"]:
            band = "no reference" if ref is None \
                else f"{ref['mean']:.4f} +- {ref['tol']:.4f}"
            problems += [f"{scheme}/{name}: sweep mean test score "
                         f"{mean:.4f} outside {band}"
                         for scheme, name in cells]
    if len(rows) > len(cells):
        problems.append(f"{len(rows)} rows for {len(cells)} cells")
    return problems


# ======================================================================
# metrics
# ======================================================================
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(sweeps: List[Dict], attempted: int, failed: int) -> Dict:
    sweeps = [s for s in sweeps if "rows" in s]

    # Sum over cells of each cell's median over the sweeps: a burst of
    # host noise that slows one cell of one sweep drops out entirely.
    def stage(key):
        return sum(_median([row[key] for row in cell])
                   for cell in zip(*(s["rows"] for s in sweeps)))

    return {
        "setup_s": _median([s["import_s"] + s["synthesize_s"]
                            + s["normalize_s"] for s in sweeps]),
        "run_s": _median([s["run_s"] for s in sweeps]),
        "precompute_s": stage("precompute_s"),
        "train_s_per_epoch": stage("train_s_per_epoch"),
        "inference_s": stage("inference_s"),
        "peak_rss_mib": _median([max(s["maxrss_mib"], s["tree_peak_mib"])
                                 for s in sweeps]),
        "ok_frac": (attempted - failed) / attempted,
    }


def sweep_layers(result: Dict) -> Dict[str, List[float]]:
    """The sweep's per-layer totals: its own plus its pool workers'."""
    totals = merge({}, result.get("layers", {}))
    for cell in result.get("cells", []):
        merge(totals, cell.get("layers", {}))
    return totals


def per_layer(workload: Workload, by_mode: Dict[str, List[Dict]],
              host: Dict) -> Dict[str, float]:
    def median_of(fn, mode="trace"):
        return _median([fn(s) for s in by_mode[mode] if "rows" in s])

    def self_s(layer):
        return median_of(lambda s: sweep_layers(s).get(layer, [0] * 4)[2])

    def ratio(hit, miss):
        def fn(s):
            h, m = s["counters"].get(hit, 0), s["counters"].get(miss, 0)
            return h / (h + m) if h + m else 0.0
        return median_of(fn)

    def propagate_gbps(s):
        _, total, _, nbytes = sweep_layers(s).get("filters.propagate",
                                                  [0] * 4)
        return nbytes / total / 1e9 if total else 0.0

    def pool_efficiency(s):
        wall = sweep_layers(s).get("runtime.pool.execute", [0] * 4)[1]
        return sum(s["cell_seconds"]) / (workload.workers * wall) \
            if wall else 0.0

    run_s = {mode: median_of(lambda s: s["run_s"], mode) for mode in by_mode}
    gbps = median_of(propagate_gbps)
    out = {
        "datasets.synthesize_s": self_s("datasets.synthesize"),
        "graph.normalized_adjacency_s": self_s("graph.normalized_adjacency"),
        "graph.partition_s": self_s("graph.partition"),
        "filters.propagate_s": self_s("filters.propagate"),
        "filters.propagate_calls": median_of(
            lambda s: sweep_layers(s).get("filters.propagate", [0])[0]),
        "filters.propagate_gbps": gbps,
        "filters.precompute_s": self_s("filters.precompute"),
        "models.forward_self_s": self_s("models.forward"),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.optim_step_s": self_s("autodiff.optim_step"),
        "training.fit_self_s": self_s("training.fit"),
        "runtime.plan.chain_terms_s": self_s("runtime.plan.chain_terms"),
        "runtime.plan.spmm_avoided": median_of(
            lambda s: s["counters"].get("plan.spmm_avoided", 0)),
        "runtime.plan.hit_ratio": ratio("plan.terms.hit", "plan.terms.miss"),
        "runtime.cache.spmm_t_hit_ratio": ratio("cache.spmm_t.hit",
                                                "cache.spmm_t.miss"),
        "runtime.blocked.spmm_s": self_s("runtime.blocked.spmm"),
        "runtime.blocked.spill_put_s": self_s("runtime.blocked.spill_put"),
        "runtime.blocked.spill_get_s": self_s("runtime.blocked.spill_get"),
        "runtime.blocked.close_s": self_s("runtime.blocked.close"),
        "runtime.blocked.spill_bytes": median_of(
            lambda s: s["counters"].get("blocked.spill_bytes", 0)),
        "runtime.pool.efficiency": median_of(pool_efficiency),
        "runtime.shm.hits": median_of(lambda s: s["shm_hits"]),
        "telemetry.overhead_s": run_s["telemetry"] - run_s["no-telemetry"],
        "bench.sweep_self_s": self_s("bench.sweep")
        + self_s("runtime.pool.execute"),
        "trace.overhead_s": run_s["trace"] - run_s["telemetry"],
        "host.triad_gbps": host["triad_gbps"],
        "filters.propagate_roofline_frac": gbps / host["triad_gbps"],
    }
    return out


# ======================================================================
# one run of one workload
# ======================================================================
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 host: Dict, scratch: Path) -> Dict:
    reference = load_reference()
    sweeper = Sweeper(workload, seed, scratch)
    modes = ("telemetry", "no-telemetry", "trace") if trace else ("telemetry",)
    minimum = 1 if trace else MIN_SWEEPS
    by_mode: Dict[str, List[Dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    baseline = sweeper.sweep(serial=True) if workload.pooled else None
    problems: List[str] = []
    if baseline is not None:
        problems += [f"serial reference: {p}" for p in
                     check_sweep(workload, baseline, reference, None)]
        if "rows" not in baseline:
            baseline = None
    attempted = failed = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            result = sweeper.sweep(mode)
            found = check_sweep(workload, result, reference, baseline)
            if baseline is None and "rows" in result:
                baseline = result
            by_mode[mode].append(result)
            attempted += len(workload.cells)
            failed += len(found)
            problems += [f"sweep {sweeper.count} ({mode}): {p}" for p in found]
        # Stop once another round of the same length would overrun, or
        # at once when a sweep died: the run has failed either way.
        done = min(len(sweeps) for sweeps in by_mode.values())
        now = time.monotonic()
        crashed = any(s[-1].get("returncode") != 0 for s in by_mode.values())
        if crashed or (done >= minimum
                       and 2 * now - round_start - start > seconds):
            break
    if problems and attempted:
        failed = max(failed, 1)
    metrics = per_layer(workload, by_mode, host) if trace \
        else end_to_end(by_mode["telemetry"], attempted, failed)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics,
            "sweeps": {mode: len(s) for mode, s in by_mode.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the sweep in flight is killed
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2

    from host import probe

    host = probe()
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"l3_mib={host['l3_mib']} triad_gbps={host['triad_gbps']:.2f} "
          f"(single thread, 3 arrays of {host['triad_array_mib']:.0f} MiB)")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch_root = ROOT / ".perfbench_runs" / f"{os.getpid()}"
    results = {}
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), host, scratch_root / name)
            results[name] = result
            for problem in result["problems"]:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
            print(f"== {name}: sweeps {result['sweeps']}, cells "
                  f"{result['attempted']}, failed {result['failed']} "
                  f"(failed_frac {result['failed'] / result['attempted']:.4f})")
            for metric, value in result["metrics"].items():
                moves = METRICS[metric].moves
                print(f"{name}  {metric:36s} {value:14.6g} "
                      f"{METRICS[metric].unit:6s}"
                      + (f"  moves: {moves}" if moves else ""))
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        if scratch_root.parent.exists() and not any(scratch_root.parent.iterdir()):
            scratch_root.parent.rmdir()

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name in names
                   for metric, value in results[name]["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {metric: {"value": value,
                             "unit": METRICS[metric.split(".", 1)[1]
                                             if len(names) > 1
                                             else metric].unit}
                    for metric, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
