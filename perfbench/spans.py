"""Spans around the program's public entry points, recorded from outside it.

``Tracer.install`` replaces each entry point with a wrapper that records a
span (name, duration, time covered by child spans, and an optional work
count) and ``Tracer.restore`` puts the originals back.  Spans stay in
memory; ``summary`` folds them into totals per name.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

from dearest import cli, metrics, objectives, optimizer, topology


class Span:
    __slots__ = ("name", "dur", "child", "work")

    def __init__(self, name: str) -> None:
        self.name = name
        self.dur = 0.0
        self.child = 0.0
        self.work = 0


# (owners, attribute, span name, work count from (args, kwargs, result)).  A
# function imported by name into several modules is replaced in each, so
# every caller is seen.
ENTRY_POINTS = [
    ((topology, cli), "build_ring", "topology.graph", None),
    ((topology, cli), "laplacian", "topology.graph", None),
    ((topology, cli), "gossip_from_laplacian", "topology.gossip", None),
    ((optimizer,), "fastmix", "mixing.fastmix", lambda a, k, r: a[2]),
    ((optimizer,), "estimator_update", "optimizer.estimator", None),
    ((optimizer,), "step", "optimizer.step", lambda a, k, r: r.y_last),
    ((optimizer,), "init", "optimizer.init", None),
    ((optimizer, cli), "derive_config", "optimizer.derive_config", None),
    ((optimizer, cli), "run", "optimizer.run", None),
    ((optimizer.IterateHistory,), "record", "optimizer.history", None),
    ((metrics,), "record", "metrics.record", None),
    ((cli,), "parse_libsvm", "datasets.parse", lambda a, k, r: r.n_samples),
    ((cli,), "partition", "datasets.shard", None),
    ((cli,), "shard_matrices", "datasets.shard", None),
    ((cli,), "run_experiment", "cli.run_experiment", None),
]
OBJECTIVE_METHODS = {
    "batch_grad_mean": ("objectives.batch", lambda a, k, r: len(a[2])),
    "local_grad": ("objectives.full", None),
    "local_value": ("objectives.full", None),
    "grad_rows": ("objectives.grad_rows", None),
    "global_value": ("objectives.global", None),
    "global_grad": ("objectives.global", None),
}


class Tracer:
    """Records spans while installed; restores the program on ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, original, name: str, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name)
            stack.append(span)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1].child += span.dur
                spans.append(span)
            if count is not None:
                span.work = count(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, count))

    def install(self) -> None:
        for owners, attr, name, count in ENTRY_POINTS:
            for owner in owners:
                self._patch(owner, attr, name, count)
        classes = (objectives.FiniteSumObjective, objectives.LogisticNCObjective,
                   objectives.QuadraticObjective)
        for cls in classes:
            for attr, (name, count) in OBJECTIVE_METHODS.items():
                if attr in vars(cls):
                    self._patch(cls, attr, name, count)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += span.dur
            entry["self_s"] += span.dur - span.child
            entry["work"] += span.work
        return out
