"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

``Tracer.install`` replaces each entry point it lists by name and raises
``AttributeError`` for a name the package no longer binds, so a refactor
that renames or drops one breaks the benchmark's traced runs.  This test
installs the tracer over a small run and restores it.  It executes the
tracer's source without importing it as a module, so nothing is written
under ``perfbench/``.
"""

import types
from pathlib import Path

import numpy as np

from dearest import objectives, optimizer
from dearest.objectives import make_synthetic_logistic
from dearest.topology import build_ring, gossip_from_laplacian, laplacian

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def bound(spans):
    """What each owner binds, now, under each name the tracer may patch."""
    owners = [(owner, attr) for owners, attr, _, _ in spans.ENTRY_POINTS for owner in owners]
    classes = (objectives.FiniteSumObjective, objectives.LogisticNCObjective,
               objectives.QuadraticObjective)
    owners += [(cls, attr) for cls in classes for attr in spans.OBJECTIVE_METHODS]
    return [vars(owner).get(attr) for owner, attr in owners]


def test_tracer_installs_over_a_run_and_restores():
    spans = load_spans()
    before = bound(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        obj = make_synthetic_logistic(3, 8, 2, 1e-3, seed=0)
        w = gossip_from_laplacian(laplacian(build_ring(3)))
        cfg = optimizer.RunConfig(eta=0.1, b=2, p=0.3, big_k=2, hat_k=2, k_in=2, t_max=20,
                                  shared_seed=0, agent_seeds=(0, 1, 2), output_seed=0)
        optimizer.run(obj, w, cfg, np.zeros(2))
        summary = tracer.summary()
    finally:
        tracer.restore()
    assert all(now is was for now, was in zip(bound(spans), before))
    assert summary["optimizer.run"]["calls"] == 1
    assert summary["optimizer.init"]["calls"] == 1
    assert summary["metrics.record"]["calls"] == 20
    # Two gossip calls per step, one at init.
    assert summary["mixing.fastmix"]["calls"] == 41
