"""Convergence diagnostics computed from the aggregate optimizer state.

``record`` writes one telemetry row: four scalar health measures plus the
function value and stationarity norm at the mean iterate.

* ``u_t``, the global estimation error -- squared norm of the network-mean
  gap between the gradient estimators and the exact local gradients at each
  agent's own iterate;
* ``v_t``, the local estimation error -- mean squared per-agent gap (always
  at least the global one, by convexity of the squared norm);
* ``c_t``, the consensus error -- squared spread of the iterates plus eta^2
  times the squared spread of the trackers around their network means;
* ``phi_t``, the Lyapunov value -- f(mean iterate) + (eta/p) * (u_t + v_t)
  + c_t / (m * eta), the potential whose expected decrease drives
  convergence; NaN at eta = 0, where it is undefined.

All exact gradients used here are diagnostics and are never charged to the
run's oracle counters.

A row makes two independent passes over all the data: the local gradients
at each agent's own iterate (for u_t and v_t) and the value and gradient at
the mean iterate (for f_bar and the gradient norm).  They run at the same
time, the second on one worker thread (``dearest._worker``); each runs the
code it would run alone, so rows are bitwise those of a serial pass.  BLAS
threading is left as the environment sets it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ._worker import concurrently
from .objectives import FiniteSumObjective

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .optimizer import AggregateState, RunConfig

__all__ = [
    "TelemetryRecord",
    "CSV_HEADER",
    "consensus_error",
    "spread",
    "record",
    "format_csv_row",
]

@dataclass(frozen=True)
class TelemetryRecord:
    """Per-iteration diagnostics row.

    ``y_t``/``k_t`` are the refresh flag and round count of the step taken
    from iteration t; the counters are the cumulative cost of reaching it.
    """

    t: int
    y_t: int
    k_t: int
    f_bar: float
    grad_norm: float
    u_t: float
    v_t: float
    c_t: float
    phi_t: float
    ifo_cum: int
    comm_cum: int


_CSV_FIELDS = tuple(f.name for f in fields(TelemetryRecord))
CSV_HEADER = ",".join(_CSV_FIELDS)


def spread(rows: np.ndarray) -> float:
    """Squared Frobenius distance of stacked per-agent rows from their network mean."""
    return float(np.sum((rows - rows.mean(axis=0)) ** 2))


def consensus_error(state: "AggregateState", cfg: "RunConfig") -> float:
    """Squared deviation of iterates and (eta-weighted) trackers from their means."""
    return spread(state.x) + cfg.eta**2 * spread(state.s)


def record(
    state: "AggregateState",
    obj: FiniteSumObjective,
    cfg: "RunConfig",
    y_t: int,
    k_t: int,
) -> TelemetryRecord:
    """Full telemetry row for the given state.

    The single place the Lyapunov potential is written.  One ``grad_rows``
    pass gives both estimation errors, and one pass at the mean iterate gives
    f_bar and the gradient norm.  The second pass runs on the worker thread
    while the calling thread makes the first and the consensus error.  An
    exception in either reaches the caller (the caller's own when both
    raise), and the worker has finished when this returns.
    """
    m = state.x.shape[0]
    x_bar = state.x.mean(axis=0)

    def errors() -> tuple[float, float, float]:
        gap = state.g - obj.grad_rows(state.x)
        mean_gap = gap.mean(axis=0)
        u, v = float(mean_gap @ mean_gap), float(np.sum(gap * gap)) / m
        return u, v, consensus_error(state, cfg)

    (f_bar, grad), (u, v, c) = concurrently(lambda: obj.global_value_and_grad(x_bar), errors)
    grad_norm = float(np.linalg.norm(grad))
    phi = f_bar + (cfg.eta / cfg.p) * (u + v) + c / (m * cfg.eta) if cfg.eta > 0.0 else float("nan")
    return TelemetryRecord(
        t=state.t,
        y_t=int(y_t),
        k_t=int(k_t),
        f_bar=f_bar,
        grad_norm=grad_norm,
        u_t=u,
        v_t=v,
        c_t=c,
        phi_t=phi,
        ifo_cum=state.ifo_count,
        comm_cum=state.comm_rounds,
    )


def format_csv_row(rec: TelemetryRecord) -> str:
    """Stable text row matching CSV_HEADER; floats use shortest round-trip repr."""
    values = (getattr(rec, name) for name in _CSV_FIELDS)
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)
