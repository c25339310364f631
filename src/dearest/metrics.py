"""Convergence diagnostics computed from the aggregate optimizer state.

Four scalar health measures plus the stationarity norm:

* global estimation error -- squared norm of the network-mean gap between
  the gradient estimators and the exact local gradients at each agent's own
  iterate;
* local estimation error -- mean squared per-agent gap (always at least the
  global one, by convexity of the squared norm);
* consensus error -- squared spread of the iterates plus eta^2 times the
  squared spread of the trackers around their network means;
* Lyapunov value -- f(mean iterate) + (eta/p) * (global + local errors)
  + consensus error / (m * eta), the potential whose expected decrease
  drives convergence.

All exact gradients used here are diagnostics and are never charged to the
run's oracle counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .objectives import FiniteSumObjective

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .optimizer import AggregateState, RunConfig

__all__ = [
    "TelemetryRecord",
    "CSV_HEADER",
    "global_estimation_error",
    "local_estimation_error",
    "consensus_error",
    "lyapunov",
    "record",
    "format_csv_row",
]

CSV_HEADER = "t,y_t,k_t,f_bar,grad_norm,u_t,v_t,c_t,phi_t,ifo_cum,comm_cum"


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


def _estimation_errors(state: "AggregateState", obj: FiniteSumObjective) -> tuple[float, float]:
    """(u_t, v_t): the global and local estimation errors, from one ``grad_rows`` pass."""
    gap = state.g - obj.grad_rows(state.x)
    mean_gap = gap.mean(axis=0)
    return float(mean_gap @ mean_gap), float(np.sum(gap * gap)) / gap.shape[0]


def global_estimation_error(state: "AggregateState", obj: FiniteSumObjective) -> float:
    """Squared norm of the mean estimator error across agents."""
    return _estimation_errors(state, obj)[0]


def local_estimation_error(state: "AggregateState", obj: FiniteSumObjective) -> float:
    """Mean squared per-agent estimator error (realized, not an expectation)."""
    return _estimation_errors(state, obj)[1]


def consensus_error(state: "AggregateState", cfg: "RunConfig") -> float:
    """Squared deviation of iterates and (eta-weighted) trackers from their means."""
    dev_x = state.x - state.x.mean(axis=0)
    dev_s = state.s - state.s.mean(axis=0)
    return float(np.sum(dev_x * dev_x) + cfg.eta**2 * np.sum(dev_s * dev_s))


def lyapunov(state: "AggregateState", obj: FiniteSumObjective, cfg: "RunConfig") -> float:
    """f at the mean iterate plus the weighted error and consensus penalties."""
    if cfg.eta <= 0.0:
        raise ValueError("the Lyapunov value is undefined for a zero stepsize")
    return record(state, obj, cfg, y_t=state.y_last, k_t=state.k_last).phi_t


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
    f_bar and the gradient norm.
    """
    m = state.x.shape[0]
    u, v = _estimation_errors(state, obj)
    c = consensus_error(state, cfg)
    x_bar = state.x.mean(axis=0)
    f_bar, grad = obj.global_value_and_grad(x_bar)
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
    return (
        f"{rec.t},{rec.y_t},{rec.k_t},{rec.f_bar!r},{rec.grad_norm!r},"
        f"{rec.u_t!r},{rec.v_t!r},{rec.c_t!r},{rec.phi_t!r},{rec.ifo_cum},{rec.comm_cum}"
    )
