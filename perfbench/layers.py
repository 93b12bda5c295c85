"""Timing wrappers the benchmark puts around the program's layer calls.

Nothing here changes what a wrapped call computes: a wrapper times the
call and passes its arguments and result through untouched. Wrappers
nest, and :class:`LayerTracer` keeps a stack so every layer gets a self
time (its duration minus the part its nested wrapped calls cover) as
well as an inclusive time.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (owner, attribute, layer) — the attribute is replaced on the owner.
Target = Tuple[Any, str, str]


class LayerTracer:
    """Self-time accounting for nested timing wrappers.

    Each wrapped call pushes a frame that collects the inclusive time of
    the wrapped calls nested inside it; on exit the call's self time is
    its own duration minus that sum, and its duration is added to the
    enclosing frame. The stack is per thread.

    Per layer the tracer keeps ``[calls, total_s, self_s, counted]``,
    where ``counted`` is the change of a program counter across the
    calls (see :meth:`wrap`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             counter: Optional[Callable[[], float]] = None) -> Callable:
        """Return ``fn`` timed under ``layer``.

        ``counter`` reads a monotone program counter; its change across
        each call accumulates in the layer's ``counted`` total.
        """
        clock = self.clock
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            before = counter() if counter is not None else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if counter is not None:
                    stats[3] += counter() - before

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def snapshot(self) -> Dict[str, List[float]]:
        """``layer -> [calls, total_s, self_s, counted]``."""
        return {name: list(values) for name, values in self.stats.items()}


def subtract(after: Dict[str, List[float]],
             before: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-layer difference of two snapshots (layers that moved only)."""
    out = {}
    for name, values in after.items():
        base = before.get(name, [0, 0.0, 0.0, 0.0])
        delta = [a - b for a, b in zip(values, base)]
        if delta[0]:
            out[name] = delta
    return out


def merge(into: Dict[str, List[float]],
          other: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Add ``other``'s per-layer totals into ``into`` (returned)."""
    for name, values in other.items():
        base = into.setdefault(name, [0, 0.0, 0.0, 0.0])
        for i, value in enumerate(values):
            base[i] += value
    return into


class Patch:
    """Replaced attributes, restored in reverse order by :meth:`undo`."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, had, old = self._saved.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def install(tracer: LayerTracer, targets: Iterable[Target],
            counters: Optional[Dict[str, Callable[[], float]]] = None,
            patch: Optional[Patch] = None) -> Patch:
    """Wrap every target attribute with ``tracer``; returns the patch."""
    patch = patch or Patch()
    counters = counters or {}
    for owner, attr, layer in targets:
        original = vars(owner)[attr]
        patch.set(owner, attr,
                  tracer.wrap(layer, original, counters.get(layer)))
    return patch


def _defining(base: type, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def program_targets() -> List[Target]:
    """The public calls into each ``src/repro`` layer, by layer name.

    Module-level functions are patched where the caller looks them up
    (``experiments.synthesize``, ``schemes.bfs_partition``), methods on
    their class (and on every subclass that overrides them).
    """
    from repro.autodiff.optim import Adam
    from repro.autodiff.tensor import Tensor
    from repro.bench import experiments
    from repro.filters import registry as _registry  # noqa: F401 (loads filters)
    from repro.filters.base import PropagationContext, SpectralFilter
    from repro.graph.graph import Graph
    from repro.nn.module import Module
    from repro.runtime.blocked import BlockedTier, SpillStore
    from repro.runtime.plan import BasisPlanner
    from repro.training import schemes

    trainers = sorted(set(schemes.SCHEMES.values()),
                      key=lambda cls: cls.__name__)
    return [
        (experiments, "synthesize", "datasets.synthesize"),
        (Graph, "normalized_adjacency", "graph.normalized_adjacency"),
        (schemes, "bfs_partition", "graph.partition"),
        (Graph, "subgraph", "graph.partition"),
        (PropagationContext, "adj", "filters.propagate"),
        *[(cls, "precompute", "filters.precompute")
          for cls in _defining(SpectralFilter, "precompute")],
        *[(cls, "__call__", "models.forward")
          for cls in _defining(Module, "__call__")],
        (Tensor, "backward", "autodiff.backward"),
        *[(cls, "step", "autodiff.optim_step")
          for cls in _defining(Adam, "step")],
        *[(cls, "fit", "training.fit") for cls in trainers],
        (BasisPlanner, "chain_terms", "runtime.plan.chain_terms"),
        (BlockedTier, "spmm", "runtime.blocked.spmm"),
        (SpillStore, "put", "runtime.blocked.spill_put"),
        (SpillStore, "get", "runtime.blocked.spill_get"),
        (BlockedTier, "close", "runtime.blocked.close"),
        (experiments, "execute_cells", "runtime.pool.execute"),
    ]


def program_counters() -> Dict[str, Callable[[], float]]:
    """Program counters read across calls of a layer."""
    from repro import telemetry

    def spmm_bytes() -> float:
        metrics = telemetry.get_metrics()
        counter = metrics.get_counter("ops.spmm.bytes") if metrics else None
        return counter.value if counter is not None else 0.0

    return {"filters.propagate": spmm_bytes}
