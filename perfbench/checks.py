"""Output checks computed apart from the program.

Every check returns a list of failure messages, empty when it passes.  The
reference values come from the raw input arrays and numpy/LAPACK alone, or
from properties every DEAREST run must have: the counter law replayed from
the shared Bernoulli stream, the guarantee-derived b, p and eta, the
tracker-mean identity, and the telemetry formulas.  None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# The header the README documents, spelled out here rather than read from the program.
CSV_HEADER = "t,y_t,k_t,f_bar,grad_norm,u_t,v_t,c_t,phi_t,ifo_cum,comm_cum".split(",")
REL_TOL = 1e-9
TRACKER_TOL = 1e-10
CONSENSUS_TOL = 1e-8


def ring_lambda2(m: int) -> float:
    """lambda2 of W = I - L/lambda1(L) on the m-ring, from LAPACK's spectrum of L."""
    lap = 2.0 * np.eye(m) - np.roll(np.eye(m), 1, axis=1) - np.roll(np.eye(m), -1, axis=1)
    mu = np.linalg.eigvalsh(lap)
    return float(1.0 - mu[1] / mu[-1])


def logistic_smoothness(nnz: int, lam: float) -> float:
    """Smoothness bound when every row has ``nnz`` unit entries: ||a||^2/4 + 2 lambda."""
    return nnz / 4.0 + 2.0 * lam


def guarantee_batch(m: int, n: int) -> tuple[int, float]:
    """Mini-batch size b = ceil(6 sqrt(n/m)) and refresh probability p = b/(b+n)."""
    b = math.ceil(6.0 * math.sqrt(n / m))
    return b, b / (b + n)


class LogisticGrad:
    """Global gradient of the logistic loss with the bounded nonconvex regularizer.

    Rows are given by their column indices (every stored entry is 1), so
    the gradient needs no sparse-matrix code: margins are sums of gathered
    coordinates and the data term is one bincount.
    """

    def __init__(self, cols: np.ndarray, labels: np.ndarray, lam: float, d: int) -> None:
        self.cols = cols
        self.labels = labels
        self.lam = lam
        self.d = d

    def __call__(self, x: np.ndarray) -> np.ndarray:
        z = self.labels * x[self.cols].sum(axis=1)
        # sigma(-z) = 1 / (1 + e^z), written with tanh so it cannot overflow
        coef = -self.labels * 0.5 * (1.0 - np.tanh(0.5 * z)) / len(z)
        lin = np.bincount(self.cols.ravel(), weights=np.repeat(coef, self.cols.shape[1]),
                          minlength=self.d)
        return lin + self.lam * 2.0 * x / (1.0 + x * x) ** 2


class QuadraticGrad:
    """Global gradient and least-squares minimizer of sum_ij 0.5 ||A_ij x - c_ij||^2 / (mn)."""

    def __init__(self, a: np.ndarray, c: np.ndarray) -> None:
        self.rows = a.reshape(-1, a.shape[-1])
        self.rhs = c.reshape(-1)
        self.count = a.shape[0] * a.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.rows.T @ (self.rows @ x - self.rhs) / self.count

    def minimizer(self) -> np.ndarray:
        return np.linalg.lstsq(self.rows, self.rhs, rcond=None)[0]


def replay_counters(cfg, m: int, n: int) -> tuple[int, int, int]:
    """(ifo_count, comm_rounds, comm_rounds_all_calls) after cfg.t_max steps.

    Replays the shared stream: step t refreshes when its draw is below p,
    costing n oracle calls per agent and big_k rounds, else b calls and
    hat_k rounds.  The start costs m n calls and k_in rounds.
    """
    refresh = np.random.default_rng(cfg.shared_seed).random(cfg.t_max) < cfg.p
    n_refresh = int(refresh.sum())
    n_cheap = cfg.t_max - n_refresh
    rounds = n_refresh * cfg.big_k + n_cheap * cfg.hat_k
    ifo = m * n + m * (n * n_refresh + cfg.b * n_cheap)
    return ifo, cfg.k_in + rounds, cfg.k_in + 2 * rounds


def check_counters(expected: tuple[int, int, int], got: tuple[int, int, int]) -> list[str]:
    names = ("ifo_count", "comm_rounds", "comm_rounds_all_calls")
    return [f"{name} is {g}, replay gives {e}"
            for name, e, g in zip(names, expected, got) if e != g]


def check_tracker_mean(s: np.ndarray, g: np.ndarray) -> list[str]:
    """Gradient tracking keeps mean(s) == mean(g) up to rounding."""
    gap = float(np.max(np.abs(s.mean(axis=0) - g.mean(axis=0))))
    scale = max(1.0, float(np.max(np.abs(g))))
    if gap > TRACKER_TOL * scale:
        return [f"tracker mean is {gap:.3e} from the estimator mean"]
    return []


def check_config(cfg, lambda2: float, lambda2_ref: float, m: int, n: int,
                 smoothness: float | None) -> list[str]:
    """The spectrum agrees with LAPACK, and b, p and eta follow the guarantee."""
    failures = []
    if abs(lambda2 - lambda2_ref) > REL_TOL:
        failures.append(f"lambda2 is {lambda2!r}, LAPACK gives {lambda2_ref!r}")
    b, p = guarantee_batch(m, n)
    if cfg.b != b or not math.isclose(cfg.p, p, rel_tol=REL_TOL):
        failures.append(f"(b, p) is ({cfg.b}, {cfg.p!r}), expected ({b}, {p!r})")
    if smoothness is not None and not math.isclose(cfg.eta, 0.5 / smoothness, rel_tol=REL_TOL):
        failures.append(f"eta is {cfg.eta!r}, expected 1/(2L) = {0.5 / smoothness!r}")
    return failures


def check_first_row(rec, f0: float, g0: float) -> list[str]:
    """The first telemetry row describes the start x = 0."""
    failures = []
    if not math.isclose(rec.f_bar, f0, rel_tol=REL_TOL):
        failures.append(f"f_bar at t = 0 is {rec.f_bar!r}, expected {f0!r}")
    if not math.isclose(rec.grad_norm, g0, rel_tol=REL_TOL):
        failures.append(f"grad_norm at t = 0 is {rec.grad_norm!r}, expected {g0!r}")
    return failures


def check_grad_fraction(grad: np.ndarray, g0: float, fraction: float) -> list[str]:
    norm = float(np.linalg.norm(grad))
    if not norm <= fraction * g0:
        return [f"gradient norm at the mean iterate is {norm / g0:.3e} g0, "
                f"expected at most {fraction:g} g0"]
    return []


def check_distance(x: np.ndarray, x_star: np.ndarray, fraction: float) -> list[str]:
    dist = float(np.linalg.norm(x - x_star))
    ref = float(np.linalg.norm(x_star))
    if not dist <= fraction * ref:
        return [f"mean iterate is {dist / ref:.3e} ||x*|| from the least-squares "
                f"minimizer, expected at most {fraction:g}"]
    return []


def check_consensus(x: np.ndarray) -> list[str]:
    """The agents' final iterates agree: ||x - 1 x_bar||_F <= 1e-8 sqrt(m) ||x_bar||.

    Derived K_t-round mixing leaves about 1e-11 on a9a-ring20 and 1e-15 on
    ring100-quad; one round per step leaves 6e-4 on a9a-ring20.
    """
    x_bar = x.mean(axis=0)
    spread = float(np.linalg.norm(x - x_bar)) / (math.sqrt(x.shape[0]) * float(np.linalg.norm(x_bar)))
    if not spread <= CONSENSUS_TOL:
        return [f"consensus spread of the final iterates is {spread:.3e}, "
                f"expected at most {CONSENSUS_TOL:g}"]
    return []


def check_cli_run(path: Path, summary: dict | None, m: int, n: int, t_max: int,
                  smoothness: float, g0: float, fraction: float) -> list[str]:
    """One seed of ``dearest run`` with telemetry_stride = 1: CSV and summary row."""
    if summary is None:
        return ["no summary.csv row"]
    try:
        with path.open() as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if not rows or rows[0] != CSV_HEADER:
        return [f"{path.name} header is {rows[:1]}"]
    body = rows[1:]
    if len(body) != t_max:
        return [f"{path.name} has {len(body)} rows, expected {t_max}"]
    t, y, k, ifo, comm = (np.array([int(r[i]) for r in body])
                          for i in (0, 1, 2, 9, 10))
    f_bar, grad_norm, u, v, c, phi = (np.array([float(r[i]) for r in body])
                                      for i in (3, 4, 5, 6, 7, 8))
    b, p = guarantee_batch(m, n)
    eta = 0.5 / smoothness
    cost = np.where(y == 1, m * n, m * b)
    failures = []
    if not np.array_equal(t, np.arange(t_max)):
        failures.append("t column is not 0, 1, ..., t_max - 1")
    if not np.isin(y, (0, 1)).all():
        failures.append("y_t is not 0 or 1")
    if len(set(k[y == 1])) > 1 or len(set(k[y == 0])) > 1 or k.min() < 1:
        failures.append("k_t is not one round count per flag value")
    if ifo[0] != m * n:
        failures.append(f"ifo_cum at t = 0 is {ifo[0]}, expected m n = {m * n}")
    if not np.array_equal(np.diff(ifo), cost[:-1]):
        failures.append("an ifo_cum step differs from m n (refresh) or m b (cheap step)")
    if not np.array_equal(np.diff(comm), k[:-1]):
        failures.append("a comm_cum step differs from k_t")
    if not math.isclose(f_bar[0], math.log(2.0), rel_tol=REL_TOL):
        failures.append(f"f_bar at t = 0 is {f_bar[0]!r}, expected log 2")
    if not math.isclose(grad_norm[0], g0, rel_tol=REL_TOL):
        failures.append(f"grad_norm at t = 0 is {grad_norm[0]!r}, expected {g0!r}")
    phi_ref = f_bar + (eta / p) * (u + v) + c / (m * eta)
    if not np.allclose(phi, phi_ref, rtol=REL_TOL, atol=0.0):
        failures.append("phi_t differs from f_bar + (eta/p)(u_t + v_t) + c_t/(m eta)")
    if not grad_norm[-1] <= fraction * g0:
        failures.append(f"last grad_norm is {grad_norm[-1] / g0:.3e} g0, expected at most {fraction:g}")
    ifo_total = int(ifo[-1] + cost[-1])
    comm_total = int(comm[-1] + k[-1])
    expected = {"n": n, "ifo_total": ifo_total, "comm_rounds": comm_total,
                "comm_rounds_all_calls": 2 * comm_total - int(comm[0])}
    for key, value in expected.items():
        if int(summary[key]) != value:
            failures.append(f"summary {key} is {summary[key]}, telemetry gives {value}")
    return failures
