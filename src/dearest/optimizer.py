"""DEAREST: decentralized probabilistic recursive gradient descent.

Single-loop decentralized optimizer for finite sums.  Every iteration draws
one Bernoulli(p) flag from a stream shared by all agents; on a refresh
(probability p) each agent recomputes its full local gradient, otherwise it
applies a mini-batch correction to its previous estimate (probabilistic
recursive, PAGE-style variance reduction).  A gradient-tracking sequence
accumulates estimator differences so that its network mean always equals the
mean gradient estimator, and both the iterate matrix and the tracker are
driven toward consensus with accelerated gossip.  Refresh steps mix
``big_k`` rounds and cheap steps ``hat_k``; under ``theorem_config``'s
formulas the two are equal unless ln((sqrt(mn) + 6) / (24m)) > 12, so derived
configs give refresh steps more rounds only at that scale.

Cost accounting: one component-gradient evaluation is the oracle unit.  A
paired difference grad(x_new) - grad(x_old) on the same sample is charged a
single unit (``ifo_count``) because the two evaluations share the sample;
the raw count of evaluations (2 per pair) is kept in ``raw_grad_evals``.
Communication is counted both ways: ``comm_rounds`` charges the per-step
round count K_t once (the iterate and tracker mixes can share gossip
messages in a deployment), ``comm_rounds_all_calls`` charges every gossip
call separately (2 K_t per step).

Randomness: ``step`` draws a refresh flag from the shared stream and, on a
cheap step, b indices from each agent's stream.  ``run`` draws the same
numbers ahead: all t_max flags in one call, then per draw block one
``integers`` call per agent, in agent order, for the indices of all the
block's cheap steps.  A block holds the most steps whose (m, b) int32
indices fit ``_BLOCK_BYTES``, 160 KiB, so that a few dozen cheap steps fill
it and what a run holds beside the data is a constant, whatever t_max; the
last block holds the steps left.  Each cheap step hands its own indices to
one ``batch_diff`` call.  A generator's draws do not depend on how they are
split into calls, and for n < 2**31 an int32 draw gives the values of an
int64 one and leaves the stream in the same state, so every stream ends
where a loop of ``step`` leaves it: the run is bitwise that loop.

Output rule: the returned point is one iterate row drawn uniformly over all
(t, i) pairs with t < t_max.  The draws are seeded, so ``IterateHistory``
resolves each seed registered before the run to its pair and keeps only
those rows, never the trajectory.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from .mixing import fastmix, mixing_polynomials
from .objectives import FiniteSumObjective
from .topology import GossipMatrix

__all__ = [
    "RunConfig",
    "AggregateState",
    "IterateHistory",
    "RunResult",
    "ConfigError",
    "DivergenceError",
    "theorem_config",
    "derive_config",
    "init",
    "estimator_update",
    "step",
    "run",
]

DIVERGENCE_LIMIT = 1e12
# The most bytes a draw block's int32 indices may hold (at least one step's).
_BLOCK_BYTES = 160 * 2**10


class ConfigError(ValueError):
    """Inconsistent or out-of-range run parameters."""


class DivergenceError(RuntimeError):
    """The iterates left the finite range; carries the failing iteration."""


def _require_finite(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _require_int(**fields: object) -> None:
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """All run hyperparameters plus the seeds of every random stream.

    ``eta`` is the stepsize, ``b`` the mini-batch size, ``p`` the refresh
    probability, ``big_k``/``hat_k`` the gossip round counts for refresh and
    regular steps, ``k_in`` the initial round count and ``t_max`` the
    iteration budget.  ``shared_seed`` drives the network-wide Bernoulli
    stream, ``agent_seeds`` the per-agent sampling streams, and
    ``output_seed`` the final uniform output draw.
    """

    eta: float
    b: int
    p: float
    big_k: int
    hat_k: int
    k_in: int
    t_max: int
    shared_seed: int
    agent_seeds: tuple[int, ...]
    output_seed: int = 0

    def __post_init__(self) -> None:
        seeds = tuple(self.agent_seeds)
        _require_int(b=self.b, big_k=self.big_k, hat_k=self.hat_k, k_in=self.k_in,
                     t_max=self.t_max, shared_seed=self.shared_seed, output_seed=self.output_seed,
                     **{f"agent_seeds[{i}]": s for i, s in enumerate(seeds)})
        object.__setattr__(self, "agent_seeds", tuple(int(s) for s in seeds))
        _require_finite(eta=self.eta)
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"refresh probability must be in (0, 1], got {self.p}")
        if self.b < 1:
            raise ConfigError(f"mini-batch size must be >= 1, got {self.b}")
        # eta = 0 is allowed as a diagnostic (frozen iterates); only negative
        # stepsizes are rejected.
        if self.eta < 0.0:
            raise ConfigError(f"stepsize must be >= 0, got {self.eta}")
        if not self.big_k >= self.hat_k >= 0:
            raise ConfigError(
                f"round counts must satisfy big_k >= hat_k >= 0, got {self.big_k}, {self.hat_k}"
            )
        if self.k_in < 0:
            raise ConfigError(f"initial round count must be >= 0, got {self.k_in}")
        if self.t_max < 0:
            raise ConfigError(f"iteration budget must be >= 0, got {self.t_max}")


def theorem_config(
    m: int,
    n: int,
    smoothness: float,
    lambda2: float,
    epsilon: float,
    f0_minus_fstar_bound: float,
    g0_consensus_norm_sq: float,
    *,
    seed: int = 0,
) -> RunConfig:
    """Hyperparameters from the convergence guarantee.

    eta = 1/(2L); b = ceil(6 sqrt(n/m)); p = b/(b+n);
    T = ceil(16 L (f(x0) - f*) / eps^2);
    K = ceil(max(12, ln((sqrt(mn)+6)/(24m))) / (2 sqrt(1 - lambda2)));
    K_hat = ceil(6 / sqrt(1 - lambda2));
    K_in = ceil(ln(||g0 - mean||_F^2 / (m eps^2)) / sqrt(1 - lambda2)),
    clamped below at 0 (logs are natural; a nonpositive log argument also
    clamps to the floor).  T is a worst-case stationarity bound and can be
    enormous for small eps; cap it with ``dataclasses.replace`` when running
    to a wall-clock or oracle budget instead.

    Seeds for the shared/agent/output streams are derived from ``seed``.
    """
    if m < 1 or n < 1:
        raise ConfigError(f"agent and sample counts must be positive, got m={m}, n={n}")
    _require_finite(
        smoothness=smoothness,
        lambda2=lambda2,
        epsilon=epsilon,
        f0_minus_fstar_bound=f0_minus_fstar_bound,
        g0_consensus_norm_sq=g0_consensus_norm_sq,
    )
    if smoothness <= 0.0:
        raise ConfigError(f"smoothness constant must be > 0, got {smoothness}")
    if not 0.0 <= lambda2 < 1.0:
        raise ConfigError(f"lambda2 must be in [0, 1), got {lambda2}")
    if epsilon <= 0.0:
        raise ConfigError(f"stationarity target must be > 0, got {epsilon}")
    if f0_minus_fstar_bound < 0.0:
        raise ConfigError(f"initial gap bound must be >= 0, got {f0_minus_fstar_bound}")
    if g0_consensus_norm_sq < 0.0:
        raise ConfigError(f"initial consensus norm must be >= 0, got {g0_consensus_norm_sq}")
    sqrt_gap = math.sqrt(1.0 - lambda2)
    b = math.ceil(6.0 * math.sqrt(n / m))
    t_max = math.ceil(16.0 * smoothness * f0_minus_fstar_bound / epsilon**2)
    big_k = math.ceil(max(12.0, math.log((math.sqrt(m * n) + 6.0) / (24.0 * m))) / (2.0 * sqrt_gap))
    hat_k = math.ceil(6.0 / sqrt_gap)
    if g0_consensus_norm_sq <= 0.0:
        k_in = 0
    else:
        k_in = max(0, math.ceil(math.log(g0_consensus_norm_sq / (m * epsilon**2)) / sqrt_gap))
    rng = np.random.default_rng(seed)
    shared_seed, output_seed = (int(v) for v in rng.integers(2**63, size=2))
    agent_seeds = tuple(int(v) for v in rng.integers(2**63, size=m))
    return RunConfig(
        eta=1.0 / (2.0 * smoothness),
        b=b,
        p=b / (b + n),
        big_k=big_k,
        hat_k=hat_k,
        k_in=k_in,
        t_max=t_max,
        shared_seed=shared_seed,
        agent_seeds=agent_seeds,
        output_seed=output_seed,
    )


def derive_config(
    obj: FiniteSumObjective,
    w: GossipMatrix,
    epsilon: float,
    x0_bar: np.ndarray,
    *,
    seed: int = 0,
) -> RunConfig:
    """theorem_config with the instance-dependent inputs measured on the spot.

    Uses the objective's smoothness bound, f(x0) minus its value lower bound,
    and the consensus norm of the exact initial gradients (this preparatory
    pass is not charged to any run counters).
    """
    x0_bar = np.asarray(x0_bar, dtype=float)
    g0 = obj.grad_rows(np.tile(x0_bar, (obj.m, 1)))
    g0_sq = float(np.sum((g0 - g0.mean(axis=0)) ** 2))
    delta0 = obj.global_value(x0_bar) - obj.value_lower_bound
    return theorem_config(
        obj.m, obj.n, obj.smoothness, w.lambda2, epsilon,
        max(delta0, 0.0), g0_sq, seed=seed,
    )


@dataclass
class AggregateState:
    """Stacked per-agent state: iterates x, estimators g, trackers s (m x d).

    Carries the cumulative cost counters and the live random streams; the
    row means of s and g coincide at every iteration, and the iterate mean
    moves by exactly -eta times the tracker mean per step.  ``y_last`` and
    ``k_last`` describe the transition that produced this state (-1/k_in for
    the initial state).
    """

    x: np.ndarray
    g: np.ndarray
    s: np.ndarray
    t: int
    ifo_count: int
    raw_grad_evals: int
    comm_rounds: int
    comm_rounds_all_calls: int
    shared_rng: np.random.Generator
    agent_rngs: tuple[np.random.Generator, ...]
    y_last: int = -1
    k_last: int = 0


def init(
    obj: FiniteSumObjective,
    w: GossipMatrix,
    cfg: RunConfig,
    x0_bar: np.ndarray,
) -> AggregateState:
    """Consensual start: x0 = 1 x0_bar^T, exact local gradients, mixed tracker.

    Costs n oracle calls per agent for the exact g0 and k_in gossip rounds
    for s0 = fastmix(g0, k_in).  Builds the run's mixing polynomials, of
    k_in, hat_k and big_k rounds, from one recursion.
    """
    x0_bar = np.asarray(x0_bar, dtype=float)
    if x0_bar.shape != (obj.d,):
        raise ConfigError(f"x0 has shape {x0_bar.shape}, expected ({obj.d},)")
    if w.m != obj.m:
        raise ConfigError(f"gossip matrix is for {w.m} agents but the objective has {obj.m}")
    if len(cfg.agent_seeds) != obj.m:
        raise ConfigError(f"{len(cfg.agent_seeds)} agent seeds for {obj.m} agents")
    mixing_polynomials(w, (cfg.k_in, cfg.hat_k, cfg.big_k))
    x0 = np.tile(x0_bar, (obj.m, 1))
    g0 = obj.grad_rows(x0)
    s0 = fastmix(g0, w, cfg.k_in)
    return AggregateState(
        x=x0,
        g=g0,
        s=s0,
        t=0,
        ifo_count=obj.m * obj.n,
        raw_grad_evals=obj.m * obj.n,
        comm_rounds=cfg.k_in,
        comm_rounds_all_calls=cfg.k_in,
        shared_rng=np.random.default_rng(cfg.shared_seed),
        agent_rngs=tuple(np.random.default_rng(s) for s in cfg.agent_seeds),
        y_last=-1,
        k_last=cfg.k_in,
    )


def _draw(rngs: tuple[np.random.Generator, ...], n: int, b: int, steps: int) -> np.ndarray:
    """The next ``steps`` cheap steps' (steps, m, b) int32 indices, one draw per agent stream."""
    return np.stack([rng.integers(0, n, size=(steps, b), dtype=np.int32) for rng in rngs], 1)


def _estimate(state: AggregateState, obj: FiniteSumObjective, x_next: np.ndarray,
              idx: np.ndarray | None) -> np.ndarray:
    """Exact local gradients (``idx`` None), else the cheap step on (m, b) indices ``idx``."""
    if idx is None:
        return obj.grad_rows(x_next)
    return state.g + obj.batch_diff(idx, x_next, state.x)


def _cheap_batches(rngs: tuple[np.random.Generator, ...], n: int, b: int,
                   count: int) -> Iterator[np.ndarray]:
    """The (m, b) indices of each of ``count`` cheap steps, drawn by blocks."""
    block = max(1, _BLOCK_BYTES // (len(rngs) * b * np.dtype(np.int32).itemsize))
    for start in range(0, count, block):
        yield from _draw(rngs, n, b, min(block, count - start))


def estimator_update(
    state: AggregateState,
    obj: FiniteSumObjective,
    cfg: RunConfig,
    y_t: int,
    x_next: np.ndarray,
) -> np.ndarray:
    """Next gradient estimator rows for a given refresh flag.

    y_t = 1: exact local gradients at the new iterates.  y_t = 0: each agent
    draws b sample indices uniformly with replacement from its private
    stream, in agent order, and adds the mean paired gradient difference to
    its previous estimate; one ``batch_diff`` call serves all agents.
    Consumes the per-agent streams; counters are updated by ``step``.
    """
    idx = None if y_t else _draw(state.agent_rngs, obj.n, cfg.b, 1)[0]
    return _estimate(state, obj, x_next, idx)


def _advance(
    state: AggregateState,
    obj: FiniteSumObjective,
    w: GossipMatrix,
    cfg: RunConfig,
    idx: np.ndarray | None,
) -> AggregateState:
    """A refresh step (``idx`` None) or a cheap one on (m, b) indices ``idx``."""
    y_t = 1 if idx is None else 0
    k_t = cfg.big_k if y_t else cfg.hat_k
    x_next = fastmix(state.x - cfg.eta * state.s, w, k_t)
    g_next = _estimate(state, obj, x_next, idx)
    s_next = fastmix(state.s + (g_next - state.g), w, k_t)
    # One test passes a healthy step: NaN fails a comparison, a max cannot overflow.
    if not (np.abs(x_next).max() <= DIVERGENCE_LIMIT and np.abs(s_next).max() < np.inf):
        if not (np.isfinite(x_next).all() and np.isfinite(s_next).all()):
            raise DivergenceError(f"non-finite iterate or tracker at iteration {state.t}")
        raise DivergenceError(f"iterate norm exceeded {DIVERGENCE_LIMIT:g} at iteration {state.t}")
    cost = obj.n if y_t else cfg.b
    raw = obj.n if y_t else 2 * cfg.b
    return AggregateState(
        x=x_next,
        g=g_next,
        s=s_next,
        t=state.t + 1,
        ifo_count=state.ifo_count + obj.m * cost,
        raw_grad_evals=state.raw_grad_evals + obj.m * raw,
        comm_rounds=state.comm_rounds + k_t,
        comm_rounds_all_calls=state.comm_rounds_all_calls + 2 * k_t,
        shared_rng=state.shared_rng,
        agent_rngs=state.agent_rngs,
        y_last=y_t,
        k_last=k_t,
    )


def step(
    state: AggregateState,
    obj: FiniteSumObjective,
    w: GossipMatrix,
    cfg: RunConfig,
) -> AggregateState:
    """One barrier-synchronized round: mix the descent step, update estimators,
    mix the tracker difference.

    The shared Bernoulli draw picks the refresh flag and with it the round
    count K_t (big_k on refresh, hat_k otherwise); both gossip calls of the
    step use K_t rounds.  Raises DivergenceError when any entry goes
    non-finite or beyond 1e12.
    """
    y_t = 1 if state.shared_rng.random() < cfg.p else 0
    idx = None if y_t else _draw(state.agent_rngs, obj.n, cfg.b, 1)[0]
    return _advance(state, obj, w, cfg, idx)


class IterateHistory:
    """Uniform output draws over all (iteration, agent) pairs of a run.

    Each seed resolves to one (t, i) pair, uniform over all m * t_max pairs.
    Only the rows selected by the seeds registered up front are captured, so
    the output rule is realized without storing the trajectory; drawing an
    unregistered seed fails.
    """

    def __init__(self, m: int, t_max: int, output_seeds: tuple[int, ...]) -> None:
        if t_max < 1:
            raise ConfigError("the output rule needs at least one iterate: t_max >= 1")
        self.m = m
        self.t_max = t_max
        self._captured: dict[int, np.ndarray] = {}
        self._wanted_by_t: dict[int, list[tuple[int, int]]] = {}
        for s in dict.fromkeys(int(s) for s in output_seeds):
            t, agent = self.pair_for_seed(s)
            self._wanted_by_t.setdefault(t, []).append((s, agent))

    def pair_for_seed(self, seed: int) -> tuple[int, int]:
        """(iteration, agent) pair a seed resolves to; uniform over all pairs."""
        flat = int(np.random.default_rng(seed).integers(self.m * self.t_max))
        return flat // self.m, flat % self.m

    def record(self, t: int, x: np.ndarray) -> None:
        for seed, agent in self._wanted_by_t.get(t, ()):
            self._captured[seed] = x[agent].copy()

    def draw(self, seed: int) -> np.ndarray:
        """The iterate row selected by this seed's uniform (t, i) draw."""
        seed = int(seed)
        if seed in self._captured:
            return self._captured[seed].copy()
        t, agent = self.pair_for_seed(seed)
        if (seed, agent) in self._wanted_by_t.get(t, ()):
            raise RuntimeError(f"history is incomplete: iteration {t} was never recorded")
        raise KeyError(f"output seed {seed} was not registered before the run")


@dataclass
class RunResult:
    """Output draw, draw history, telemetry records, and the final state."""

    x_out: np.ndarray
    history: IterateHistory
    telemetry: list["_metrics.TelemetryRecord"]
    final_state: AggregateState


def run(
    obj: FiniteSumObjective,
    w: GossipMatrix,
    cfg: RunConfig,
    x0_bar: np.ndarray,
    *,
    telemetry_stride: int = 1,
    output_seeds: tuple[int, ...] = (),
) -> RunResult:
    """Execute t_max iterations and draw the output uniformly over iterates.

    Telemetry (exact diagnostic gradients, never charged to the counters) is
    recorded every ``telemetry_stride`` iterations; the record at iteration t
    describes the state entering the step together with the flag and round
    count of the step taken from it.  ``x_out`` is the draw of
    ``cfg.output_seed``; ``history`` can also draw every seed in
    ``output_seeds``.  Deterministic: identical config and seeds reproduce
    telemetry and output bitwise.
    """
    if telemetry_stride < 1:
        raise ConfigError(f"telemetry stride must be >= 1, got {telemetry_stride}")
    history = IterateHistory(obj.m, cfg.t_max, (cfg.output_seed, *output_seeds))
    state = init(obj, w, cfg, x0_bar)
    flags = state.shared_rng.random(size=cfg.t_max) < cfg.p
    cheap = _cheap_batches(state.agent_rngs, obj.n, cfg.b, cfg.t_max - int(np.count_nonzero(flags)))
    telemetry: list[_metrics.TelemetryRecord] = []
    for t in range(cfg.t_max):
        history.record(t, state.x)
        before = state
        state = _advance(state, obj, w, cfg, None if flags[t] else next(cheap))
        if t % telemetry_stride == 0:
            telemetry.append(
                _metrics.record(before, obj, cfg, y_t=state.y_last, k_t=state.k_last)
            )
    return RunResult(
        x_out=history.draw(cfg.output_seed),
        history=history,
        telemetry=telemetry,
        final_state=state,
    )
