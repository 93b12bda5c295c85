"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_wrappers_split_self_time():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(0.5)

    def top():
        clock.advance(3.0)
        wrapped_middle()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    stats = tracer.snapshot()
    assert stats["leaf"][:3] == [2, 4.0, 4.0]
    assert stats["middle"][:3] == [1, 5.5, 1.5]
    assert stats["top"][:3] == [1, 8.5, 3.0]
    # Self times partition the outermost call's duration.
    assert sum(s[2] for s in stats.values()) == stats["top"][1]


def test_recursive_layer_counts_time_once():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def call(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap("layer", call)
    wrapped(2)
    calls, total, self_s, _ = tracer.snapshot()["layer"]
    assert calls == 3 and self_s == 3.0 and total == 6.0  # 3 + 2 + 1


def test_wrapper_survives_exceptions_and_reads_counter():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    counter = {"bytes": 0}

    def failing():
        clock.advance(1.0)
        counter["bytes"] += 64
        raise ValueError("boom")

    wrapped = tracer.wrap("layer", failing, counter=lambda: counter["bytes"])
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.snapshot()["layer"] == [1, 1.0, 1.0, 64]
    assert tracer._stack() == []


def test_subtract_and_merge():
    before = {"a": [1, 1.0, 0.5, 0.0]}
    after = {"a": [3, 4.0, 2.5, 8.0], "b": [0, 0.0, 0.0, 0.0]}
    delta = layers.subtract(after, before)
    assert delta == {"a": [2, 3.0, 2.0, 8.0]}
    assert layers.merge({"a": [1, 1.0, 1.0, 0.0]}, delta) == \
        {"a": [3, 4.0, 3.0, 8.0]}


def test_patch_undo_restores_attributes():
    class Owner:
        def method(self):
            return "original"

    class Child(Owner):
        pass

    tracer = layers.LayerTracer()
    patch = layers.install(tracer, [(Owner, "method", "layer")])
    assert Child().method() == "original"
    assert tracer.snapshot()["layer"][0] == 1
    patch.undo()
    assert not hasattr(Owner.method, "__wrapped_layer__")


def test_every_program_target_exists_and_is_callable():
    targets = layers.program_targets()
    assert {layer for _, _, layer in targets} >= {
        "datasets.synthesize", "graph.normalized_adjacency",
        "graph.partition", "filters.propagate", "filters.precompute",
        "models.forward", "autodiff.backward", "autodiff.optim_step",
        "training.fit", "runtime.plan.chain_terms", "runtime.blocked.spmm",
        "runtime.blocked.spill_put", "runtime.blocked.spill_get",
        "runtime.blocked.close", "runtime.pool.execute"}
    for owner, attr, _ in targets:
        assert callable(vars(owner)[attr]), (owner, attr)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_are_all_computed():
    sweep = {"rows": [], "run_s": 1.0, "counters": {}, "cell_seconds": [],
             "shm_hits": 0, "layers": {}, "cells": []}
    by_mode = {"telemetry": [sweep], "no-telemetry": [sweep],
               "trace": [sweep]}
    out = run.per_layer(WORKLOADS["fb_train"], by_mode, {"triad_gbps": 10.0})
    assert list(out) == [m.name for m in PER_LAYER]


def test_workload_argv_parses_with_the_program_parser():
    from repro.bench.__main__ import build_parser

    for workload in WORKLOADS.values():
        for argv in (workload.argv(), workload.argv(serial=True)):
            args = build_parser().parse_args(argv)
            assert args.experiment == "efficiency"
            assert args.datasets == [workload.dataset]
            assert tuple(args.filters) == workload.filters
            assert tuple(args.schemes) == workload.schemes
        assert "--workers" not in workload.argv(serial=True)


def _sweep(workload, score=0.5, status="ok"):
    rows, cells, canonical = [], [], []
    for scheme, name in workload.cells:
        rows.append({"scheme": scheme, "filter": name, "status": status,
                     "precompute_s": 0.1, "train_s_per_epoch": 0.1,
                     "inference_s": 0.1})
        cells.append({"scheme": scheme, "filter": name, "test_score": score})
        canonical.append(json.dumps({"scheme": scheme, "filter": name}))
    return {"returncode": 0, "rows": rows, "cells": cells,
            "canonical": canonical, "import_s": 0.1, "synthesize_s": 0.1,
            "normalize_s": 0.1, "run_s": 1.0, "maxrss_mib": 10.0,
            "tree_peak_mib": 0.0}


def _reference(workload, mean=0.5, tol=0.05):
    return {workload.name: {"mean": mean, "tol": tol}}


def test_clean_sweep_passes():
    workload = WORKLOADS["fb_train"]
    sweep = _sweep(workload)
    assert run.check_sweep(workload, sweep, _reference(workload), None) == []
    assert run.check_sweep(workload, sweep, _reference(workload), sweep) == []


def test_forced_failed_cell_raises_failed_frac():
    workload = WORKLOADS["fb_train"]
    sweep = _sweep(workload)
    sweep["rows"][2]["status"] = "failed:crash"
    problems = run.check_sweep(workload, sweep, _reference(workload), None)
    assert len(problems) == 1 and "failed:crash" in problems[0]
    attempted = len(workload.cells)
    metrics = run.end_to_end([sweep], attempted, len(problems))
    assert metrics["ok_frac"] == (attempted - 1) / attempted


def test_score_and_payload_mismatch_fail_their_cells():
    workload = WORKLOADS["pooled_sweep"]
    reference = _reference(workload)
    serial = _sweep(workload)
    invalid = _sweep(workload)
    invalid["cells"][3]["test_score"] = float("nan")
    problems = run.check_sweep(workload, invalid, reference, None)
    assert len(problems) == 1 and "nan" in problems[0]
    pooled = _sweep(workload)
    pooled["cells"][0]["test_score"] = 0.51
    pooled["canonical"][1] = "{}"
    problems = run.check_sweep(workload, pooled, reference, serial)
    assert len(problems) == 2
    assert "differs" in problems[0] and "payload" in problems[1]


def test_sweep_mean_drift_fails_every_cell():
    workload = WORKLOADS["blocked_fullscale"]
    reference = _reference(workload, tol=0.02)
    # One collapsed cell among many stays inside the band ...
    one_low = _sweep(workload)
    one_low["cells"][0]["test_score"] = 0.2
    assert run.check_sweep(workload, one_low, reference, None) == []
    # ... a shift of the whole sweep does not.
    problems = run.check_sweep(workload, _sweep(workload, score=0.6),
                               reference, None)
    assert len(problems) == len(workload.cells)
    assert "sweep mean" in problems[0]
    assert len(run.check_sweep(workload, _sweep(workload), {}, None)) == \
        len(workload.cells)


def test_crashed_sweep_fails_every_cell():
    workload = WORKLOADS["mb_precompute"]
    problems = run.check_sweep(workload, {"returncode": 1}, {}, None)
    assert len(problems) == len(workload.cells)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fb_train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
