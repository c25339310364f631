"""Optimizer loop: derived parameters, estimator, identities, counters, output rule."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dearest import mixing, objectives, optimizer
from dearest.metrics import record
from dearest.objectives import LogisticNCObjective, make_quadratic, make_synthetic_logistic
from dearest.optimizer import (
    ConfigError,
    DivergenceError,
    IterateHistory,
    RunConfig,
    derive_config,
    estimator_update,
    init,
    run,
    step,
    theorem_config,
)
from dearest.topology import (
    build_complete,
    build_random,
    build_ring,
    gossip_from_laplacian,
    laplacian,
)

from reference import (
    BincountLogistic,
    ScipyOperatorLogistic,
    batch_grad_mean,
    mixing_polynomial,
    reference_run,
)


def make_w(graph):
    return gossip_from_laplacian(laplacian(graph))


# Connected graphs on up to 8 agents: rings, complete graphs and G(m, 0.5)
# samples (build_random resamples until connected).
graphs = st.one_of(
    st.integers(3, 8).map(build_ring),
    st.integers(2, 8).map(build_complete),
    st.builds(lambda m, seed: build_random(m, 0.5, seed), st.integers(2, 8), st.integers(0, 10_000)),
)


def manual_config(m, *, eta=0.1, b=2, p=0.25, big_k=3, hat_k=2, k_in=2, t_max=50, seed=0):
    rng = np.random.default_rng(seed)
    return RunConfig(
        eta=eta, b=b, p=p, big_k=big_k, hat_k=hat_k, k_in=k_in, t_max=t_max,
        shared_seed=int(rng.integers(2**63)),
        agent_seeds=tuple(int(v) for v in rng.integers(2**63, size=m)),
        output_seed=int(rng.integers(2**63)),
    )


class TestTheoremConfig:
    def test_a9a_scale_values(self):
        cfg = theorem_config(20, 1628, 3.5, 0.9755, 0.05, 1.0, 0.0)
        assert cfg.b == 55  # ceil(6 sqrt(1628/20))
        assert cfg.p == pytest.approx(55.0 / 1683.0, rel=1e-12)
        assert cfg.eta == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert cfg.hat_k == 39  # ceil(6 / sqrt(0.0245))
        assert cfg.big_k == 39  # log term is negative, so max(12, .) = 12

    def test_equal_m_n_batch(self):
        for m in (4, 9):
            cfg = theorem_config(m, m, 1.0, 0.5, 0.1, 1.0, 0.0)
            assert cfg.b == 6
            assert cfg.p == pytest.approx(6.0 / (6.0 + m), rel=1e-12)

    def test_iteration_budget_formula(self):
        cfg = theorem_config(4, 16, 2.0, 0.5, 0.1, 1.5, 0.0)
        assert cfg.t_max == math.ceil(16.0 * 2.0 * 1.5 / 0.01)  # 4800

    def test_zero_gap_derives_one_iteration(self):
        # f(x0) = f* makes 16 L Delta / eps^2 zero; the output rule needs one iterate.
        assert theorem_config(4, 16, 1.0, 0.5, 0.1, 0.0, 0.0).t_max == 1

    def test_k_in_from_initial_consensus_norm(self):
        m, eps = 4, 0.1
        # arg = e^3 -> k_in = ceil(3 / sqrt(0.25)) = 6
        g0_sq = m * eps**2 * math.exp(3.0)
        cfg = theorem_config(m, 16, 1.0, 0.75, eps, 1.0, g0_sq)
        assert cfg.k_in == 6

    def test_k_in_clamps_to_zero(self):
        cfg = theorem_config(4, 16, 1.0, 0.75, 0.1, 1.0, 0.0)
        assert cfg.k_in == 0
        tiny = theorem_config(4, 16, 1.0, 0.75, 0.1, 1.0, 1e-12)
        assert tiny.k_in == 0

    def test_refresh_rounds_dominate(self):
        for lam2 in (0.0, 0.5, 0.9755, 0.999):
            cfg = theorem_config(20, 400, 1.0, lam2, 0.01, 1.0, 5.0)
            assert cfg.big_k >= cfg.hat_k >= 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError, match="smoothness"):
            theorem_config(4, 16, 0.0, 0.5, 0.1, 1.0, 0.0)
        with pytest.raises(ConfigError, match="lambda2"):
            theorem_config(4, 16, 1.0, 1.0, 0.1, 1.0, 0.0)
        with pytest.raises(ConfigError, match="target"):
            theorem_config(4, 16, 1.0, 0.5, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "field, position",
        [("smoothness", 2), ("lambda2", 3), ("epsilon", 4),
         ("f0_minus_fstar_bound", 5), ("g0_consensus_norm_sq", 6)],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, field, position, bad):
        args = [4, 16, 1.0, 0.5, 0.1, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            theorem_config(*args)

    def test_seed_determinism(self):
        a = theorem_config(4, 16, 1.0, 0.5, 0.1, 1.0, 0.0, seed=7)
        b = theorem_config(4, 16, 1.0, 0.5, 0.1, 1.0, 0.0, seed=7)
        assert a == b
        c = theorem_config(4, 16, 1.0, 0.5, 0.1, 1.0, 0.0, seed=8)
        assert c.shared_seed != a.shared_seed

    def test_runconfig_validation(self):
        with pytest.raises(ConfigError, match="probability"):
            manual_config(2, p=0.0)
        with pytest.raises(ConfigError, match="batch"):
            manual_config(2, b=0)
        with pytest.raises(ConfigError, match="big_k >= hat_k"):
            manual_config(2, big_k=1, hat_k=2)
        with pytest.raises(ConfigError, match="stepsize"):
            manual_config(2, eta=-0.1)
        # eta = 0 is a legal diagnostic configuration
        assert manual_config(2, eta=0.0).eta == 0.0

    @pytest.mark.parametrize("field", ["eta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_runconfig_rejects_non_finite(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            manual_config(2, **{field: bad})

    @pytest.mark.parametrize("field", ["b", "big_k", "hat_k", "k_in", "t_max", "shared_seed",
                                       "output_seed", "agent_seeds"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_runconfig_rejects_non_integer_counts(self, field, bad):
        # Counts and seeds that are not integers would fail inside numpy, be
        # truncated by int(), or (bools) run as 0 or 1.
        cfg = manual_config(2)
        name = field
        if field == "agent_seeds":
            bad, name = (cfg.agent_seeds[0], bad), r"agent_seeds\[1\]"
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            dataclasses.replace(cfg, **{field: bad})

    @pytest.mark.parametrize("field", ["eta", "p"])
    @pytest.mark.parametrize("bad", [True, "0.1", None])
    def test_runconfig_rejects_non_real_floats(self, field, bad):
        # A bool ran as 0 or 1 (p = True made every step a refresh), and a
        # string or None failed inside math.isfinite with a TypeError.
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            manual_config(2, **{field: bad})

    @pytest.mark.parametrize("field", ["eta", "p"])
    def test_runconfig_rejects_ints_beyond_float_range(self, field):
        # math.isfinite raised OverflowError for such an int.
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got an integer beyond"):
            manual_config(2, **{field: 10**400})

    def test_runconfig_accepts_numpy_reals(self):
        cfg = manual_config(2, eta=np.float32(0.25), p=np.float64(0.5))
        assert cfg.eta == 0.25 and cfg.p == 0.5

    @pytest.mark.parametrize("field", ["shared_seed", "output_seed", "agent_seeds"])
    def test_runconfig_rejects_negative_seeds(self, field):
        # numpy's default_rng rejects a negative seed without naming the field.
        cfg = manual_config(5)
        bad, name = -1, field
        if field == "agent_seeds":
            bad, name = (*cfg.agent_seeds[:3], -1, cfg.agent_seeds[4]), r"agent_seeds\[3\]"
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got -1$"):
            dataclasses.replace(cfg, **{field: bad})

    def test_run_field_table_lists_the_runconfig_fields(self):
        assert list(optimizer._FIELDS) == [f.name for f in dataclasses.fields(RunConfig)]

    def test_runconfig_accepts_numpy_integers(self):
        cfg = dataclasses.replace(manual_config(2), b=np.int32(3), t_max=np.int64(5),
                                  agent_seeds=(np.uint64(7), np.int8(1)))
        assert cfg.b == 3 and cfg.t_max == 5
        assert cfg.agent_seeds == (7, 1) and all(type(s) is int for s in cfg.agent_seeds)


class TestInit:
    def test_exact_initial_estimators(self):
        obj = make_quadratic(4, 8, 3, seed=0)
        w = make_w(build_ring(4))
        cfg = manual_config(4)
        state = init(obj, w, cfg, np.zeros(3))
        rec = record(state, obj, cfg, y_t=1, k_t=cfg.big_k)
        assert rec.u_t == 0.0 and rec.v_t == 0.0

    def test_mean_iterate_is_x0(self):
        obj = make_quadratic(4, 8, 3, seed=0)
        w = make_w(build_ring(4))
        x0 = np.array([1.0, -2.0, 0.5])
        state = init(obj, w, manual_config(4), x0)
        np.testing.assert_array_equal(state.x.mean(axis=0), x0)

    def test_complete_graph_tracker_is_mean_gradient(self):
        obj = make_quadratic(4, 8, 3, seed=1)
        w = make_w(build_complete(4))
        state = init(obj, w, manual_config(4, k_in=1), np.zeros(3))
        g_bar = state.g.mean(axis=0)
        np.testing.assert_allclose(state.s, np.tile(g_bar, (4, 1)), atol=1e-12)

    def test_counters(self):
        obj = make_quadratic(3, 7, 2, seed=2)
        w = make_w(build_ring(3))
        cfg = manual_config(3, k_in=5)
        state = init(obj, w, cfg, np.zeros(2))
        assert state.ifo_count == 3 * 7
        assert state.raw_grad_evals == 3 * 7
        assert state.comm_rounds == 5
        assert state.comm_rounds_all_calls == 5
        assert state.t == 0 and state.y_last == -1 and state.k_last == 5

    def test_shape_validation(self):
        obj = make_quadratic(3, 7, 2, seed=2)
        w = make_w(build_ring(3))
        with pytest.raises(ConfigError, match="x0"):
            init(obj, w, manual_config(3), np.zeros(5))
        with pytest.raises(ConfigError, match="agent seeds"):
            init(obj, w, manual_config(4), np.zeros(2))
        with pytest.raises(ConfigError, match="gossip"):
            init(obj, make_w(build_ring(4)), manual_config(3), np.zeros(2))


class TestEstimatorUpdate:
    def setup_method(self):
        self.obj = make_synthetic_logistic(3, 12, 4, 1e-3, seed=5)
        self.w = make_w(build_ring(3))
        self.cfg = manual_config(3, b=4)
        self.state = init(self.obj, self.w, self.cfg, np.zeros(4))

    def test_refresh_is_exact(self):
        x_next = self.state.x + 0.1
        g_next = estimator_update(self.state, self.obj, self.cfg, 1, x_next)
        np.testing.assert_array_equal(g_next, self.obj.grad_rows(x_next))

    def test_stationary_iterate_keeps_estimator(self):
        g_next = estimator_update(self.state, self.obj, self.cfg, 0, self.state.x.copy())
        np.testing.assert_array_equal(g_next, self.state.g)

    def test_minibatch_mean_matches_exact_difference(self):
        # Conditional mean of the correction equals the true local gradient
        # difference; 10^4 resamples, 3 standard errors, every coordinate.
        rng = np.random.default_rng(17)
        x_next = self.state.x + 0.2 * rng.standard_normal(self.state.x.shape)
        reps = 10_000
        total = np.zeros_like(self.state.g)
        total_sq = np.zeros_like(self.state.g)
        for _ in range(reps):
            g1 = estimator_update(self.state, self.obj, self.cfg, 0, x_next)
            total += g1
            total_sq += g1 * g1
        mean = total / reps
        se = np.sqrt(np.maximum(total_sq / reps - mean**2, 0.0) / reps)
        target = self.state.g + self.obj.grad_rows(x_next) - self.obj.grad_rows(self.state.x)
        assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)


class TestFusedEstimatorUpdate:
    """The fused cheap step consumes exactly the per-agent draws of the loop."""

    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_replays_the_agent_loop(self, kind):
        if kind == "quadratic":
            obj = make_quadratic(3, 10, 4, seed=8)
        else:
            obj = make_synthetic_logistic(3, 10, 4, 1e-3, seed=8)
            if kind == "csr":
                obj = LogisticNCObjective(
                    [sp.csr_matrix(f) for f in obj.features], obj.labels, obj.lambda_reg
                )
        cfg = manual_config(3, b=6)
        state = init(obj, make_w(build_ring(3)), cfg, np.zeros(4))
        replay = [np.random.default_rng(s) for s in cfg.agent_seeds]
        rng = np.random.default_rng(9)
        for _ in range(3):
            x_next = state.x + 0.3 * rng.standard_normal(state.x.shape)
            g_next = estimator_update(state, obj, cfg, 0, x_next)
            reference = np.empty_like(state.g)
            for i in range(obj.m):
                idx = replay[i].integers(0, obj.n, size=cfg.b)
                reference[i] = state.g[i] + (
                    batch_grad_mean(obj, i, idx, x_next[i]) - batch_grad_mean(obj, i, idx, state.x[i])
                )
            np.testing.assert_allclose(g_next, reference, rtol=1e-12, atol=1e-15)
            state = dataclasses.replace(state, x=x_next, g=g_next)
        # the streams stand where the loop leaves them
        for live, replayed in zip(state.agent_rngs, replay):
            assert live.integers(2**62) == replayed.integers(2**62)


class TestStep:
    def test_zero_stepsize_freezes_iterates(self):
        obj = make_quadratic(4, 6, 3, seed=3)
        w = make_w(build_ring(4))
        cfg = manual_config(4, eta=0.0, t_max=20)
        state = init(obj, w, cfg, np.ones(3))
        x0 = state.x.copy()
        for _ in range(20):
            state = step(state, obj, w, cfg)
        assert np.max(np.abs(state.x - x0)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs, d=st.integers(1, 6), data_seed=st.integers(0, 1000),
           cfg_seed=st.integers(0, 2**32 - 1))
    @example(graph=build_ring(5), d=4, data_seed=6, cfg_seed=0)
    def test_tracking_identities_along_run(self, graph, d, data_seed, cfg_seed):
        m = graph.m
        obj = make_synthetic_logistic(m, 10, d, 1e-4, seed=data_seed)
        w = make_w(graph)
        cfg = manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=3, p=0.3, seed=cfg_seed)
        state = init(obj, w, cfg, np.zeros(d))
        for _ in range(60):
            x_bar = state.x.mean(axis=0)
            s_bar = state.s.mean(axis=0)
            g_bar = state.g.mean(axis=0)
            assert np.linalg.norm(s_bar - g_bar) <= 1e-9 * (1.0 + np.linalg.norm(g_bar))
            state = step(state, obj, w, cfg)
            drift = state.x.mean(axis=0) - (x_bar - cfg.eta * s_bar)
            assert np.linalg.norm(drift) <= 1e-10 * (1.0 + np.linalg.norm(x_bar))

    def test_full_refresh_on_complete_graph_is_centralized_gd(self):
        obj = make_quadratic(4, 10, 5, seed=7)
        w = make_w(build_complete(4))
        eta = 1.0 / (2.0 * obj.smoothness)
        cfg = manual_config(4, eta=eta, b=1, p=1.0, big_k=1, hat_k=1, k_in=1)
        state = init(obj, w, cfg, np.zeros(5))
        # independent oracle: a plain centralized gradient-descent loop
        x_gd = np.zeros(5)
        for _ in range(100):
            np.testing.assert_allclose(
                state.x.mean(axis=0), x_gd, atol=1e-8 * (1.0 + np.linalg.norm(x_gd))
            )
            x_gd = x_gd - eta * obj.global_grad(x_gd)
            state = step(state, obj, w, cfg)

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs, d=st.integers(1, 6), data_seed=st.integers(0, 1000),
           cfg_seed=st.integers(0, 2**32 - 1))
    @example(graph=build_ring(4), d=3, data_seed=8, cfg_seed=0)
    def test_counter_law_exact(self, graph, d, data_seed, cfg_seed):
        m = graph.m
        obj = make_synthetic_logistic(m, 9, d, 1e-4, seed=data_seed)
        w = make_w(graph)
        cfg = manual_config(m, b=2, p=0.4, big_k=5, hat_k=2, k_in=3, t_max=80, seed=cfg_seed)
        state = init(obj, w, cfg, np.zeros(d))
        for _ in range(80):
            state = step(state, obj, w, cfg)
        # the refresh flags, replayed from the shared stream
        shared = np.random.default_rng(cfg.shared_seed)
        ys = [1 if shared.random() < cfg.p else 0 for _ in range(80)]
        n, b = obj.n, cfg.b
        expected_ifo = m * n + sum(m * n if y else m * b for y in ys)
        expected_raw = m * n + sum(m * n if y else 2 * m * b for y in ys)
        expected_comm = cfg.k_in + sum(cfg.big_k if y else cfg.hat_k for y in ys)
        assert state.ifo_count == expected_ifo
        assert state.raw_grad_evals == expected_raw
        assert state.comm_rounds == expected_comm
        assert state.comm_rounds_all_calls == cfg.k_in + 2 * (expected_comm - cfg.k_in)
        assert 0 < sum(ys) < 80  # both branches exercised

    def test_rounds_follow_refresh_flag(self):
        obj = make_quadratic(3, 5, 2, seed=9)
        w = make_w(build_ring(3))
        cfg = manual_config(3, p=0.5, big_k=7, hat_k=2, t_max=40)
        state = init(obj, w, cfg, np.zeros(2))
        for _ in range(40):
            state = step(state, obj, w, cfg)
            assert state.k_last == (cfg.big_k if state.y_last else cfg.hat_k)

    def test_divergence_guard(self):
        obj = make_quadratic(3, 5, 2, seed=10)
        w = make_w(build_ring(3))
        cfg = manual_config(3, eta=1e9, p=1.0, b=1, t_max=50)
        state = init(obj, w, cfg, np.zeros(2))
        with pytest.raises(DivergenceError, match="iteration"):
            for _ in range(50):
                state = step(state, obj, w, cfg)


class TestDivergenceChecks:
    """``_advance`` runs one test on a healthy step and the exact checks only
    when it fails: the same error, message and iteration as the exact checks."""

    NON_FINITE = "non-finite iterate or tracker at iteration 7"
    TOO_LARGE = "iterate norm exceeded 1e+12 at iteration 7"

    @staticmethod
    def advance(monkeypatch, x_next, s_next):
        # A refresh step whose two gossip calls return x_next and then s_next.
        obj = make_quadratic(2, 3, 2, seed=60)
        w = make_w(build_complete(2))
        cfg = manual_config(2, p=1.0, t_max=10)
        state = dataclasses.replace(init(obj, w, cfg, np.zeros(2)), t=7)
        mixed = iter([np.array(x_next, dtype=float), np.array(s_next, dtype=float)])
        monkeypatch.setattr(optimizer, "fastmix", lambda u, w, k: next(mixed))
        return optimizer._advance(state, obj, w, cfg, None)

    @pytest.mark.parametrize("x_next, s_next, message", [
        ([[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], NON_FINITE),
        ([[0.0, -np.inf], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], NON_FINITE),
        ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.inf, 0.0]], NON_FINITE),
        ([[0.0, 0.0], [0.0, 0.0]], [[0.0, np.nan], [0.0, 0.0]], NON_FINITE),
        ([[2e12, 0.0], [0.0, np.nan]], [[0.0, 0.0], [0.0, 0.0]], NON_FINITE),
        ([[0.0, 0.0], [-2e12, 0.0]], [[0.0, 0.0], [0.0, 0.0]], TOO_LARGE),
    ], ids=["nan-x", "inf-x", "inf-s", "nan-s", "nan-before-norm", "large-x"])
    def test_raises_the_exact_checks_error(self, monkeypatch, x_next, s_next, message):
        with pytest.raises(DivergenceError) as err:
            self.advance(monkeypatch, x_next, s_next)
        assert str(err.value) == message

    def test_oracle_is_not_called_at_a_divergent_iterate(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_estimate", lambda *args: pytest.fail("oracle called"))
        with pytest.raises(DivergenceError) as err:
            self.advance(monkeypatch, [[0.0, 0.0], [-2e12, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert str(err.value) == self.TOO_LARGE

    def test_limit_itself_passes(self, monkeypatch):
        state = self.advance(monkeypatch, [[1e12, 0.0], [0.0, -1e12]], [[0.0, 0.0], [0.0, 0.0]])
        assert state.t == 8

    def test_overflowing_tracker_sum_passes(self, monkeypatch):
        # Every entry is finite, so nothing may raise, not even the overflow
        # of a sum (the suite turns numpy's warnings into errors).
        s_next = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(s_next.sum())
        state = self.advance(monkeypatch, [[0.0, 0.0], [0.0, 0.0]], s_next)
        np.testing.assert_array_equal(state.s, s_next)


class TestRun:
    def test_empty_budget_rejected(self):
        obj = make_quadratic(3, 5, 2, seed=11)
        w = make_w(build_ring(3))
        with pytest.raises(ConfigError, match="t_max"):
            run(obj, w, manual_config(3, t_max=0), np.zeros(2))

    def test_deterministic_replay(self):
        obj = make_synthetic_logistic(4, 8, 3, 1e-4, seed=12)
        w = make_w(build_ring(4))
        cfg = manual_config(4, t_max=30)
        r1 = run(obj, w, cfg, np.zeros(3))
        r2 = run(obj, w, cfg, np.zeros(3))
        np.testing.assert_array_equal(r1.x_out, r2.x_out)
        assert len(r1.telemetry) == len(r2.telemetry) == 30
        for a, b in zip(r1.telemetry, r2.telemetry):
            assert a == b

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(2, 12),
        graph_seed=st.integers(0, 10_000),
        seed=st.integers(0, 2**32 - 1),
        rounds=st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(0, 60)),
    )
    def test_replay_is_bitwise_with_cached_and_fresh_polynomials(self, m, graph_seed, seed, rounds):
        # A second run on the same gossip matrix reuses its cached mixing
        # polynomials; a third on a rebuilt matrix recomputes them.
        graph = build_random(m, 0.5, graph_seed)
        obj = make_quadratic(m, 5, 3, seed=seed % 1000)
        hat_k, big_k, k_in = sorted(rounds[:2]) + [rounds[2]]
        cfg = manual_config(m, eta=0.05, big_k=big_k, hat_k=hat_k, k_in=k_in, t_max=12, seed=seed)
        w = make_w(graph)
        runs = [run(obj, w, cfg, np.ones(3)), run(obj, w, cfg, np.ones(3)),
                run(obj, make_w(graph), cfg, np.ones(3))]
        first = runs[0]
        for other in runs[1:]:
            np.testing.assert_array_equal(other.x_out, first.x_out)
            for name in ("x", "g", "s"):
                np.testing.assert_array_equal(getattr(other.final_state, name),
                                              getattr(first.final_state, name))
            for name in ("ifo_count", "raw_grad_evals", "comm_rounds", "comm_rounds_all_calls"):
                assert getattr(other.final_state, name) == getattr(first.final_state, name)
            assert other.telemetry == first.telemetry
        assert set(w.polynomials) <= {big_k, hat_k, k_in}

    def test_init_builds_every_polynomial_from_one_recursion(self, monkeypatch):
        # init builds P_k for k_in, hat_k and big_k with one call, and the
        # steps mix through fastmix without building another.  The run is
        # bitwise one whose polynomials were each built alone.
        obj = make_quadratic(5, 6, 3, seed=14)
        cfg = manual_config(5, big_k=9, hat_k=4, k_in=13, t_max=20)
        calls = []
        real = optimizer.mixing_polynomials

        def counting(w, rounds):
            calls.append(tuple(rounds))
            real(w, rounds)

        def unexpected(w, rounds):
            raise AssertionError(f"fastmix built P_k for {tuple(rounds)}")

        monkeypatch.setattr(optimizer, "mixing_polynomials", counting)
        monkeypatch.setattr(mixing, "mixing_polynomials", unexpected)
        w = make_w(build_ring(5))
        res = run(obj, w, cfg, np.zeros(3))
        assert calls == [(13, 4, 9)] and set(w.polynomials) == {13, 4, 9}
        alone = make_w(build_ring(5))
        for k in (13, 4, 9):
            alone.polynomials[k] = mixing_polynomial(alone, k)
        ref = run(obj, alone, cfg, np.zeros(3))
        for name in ("x", "g", "s"):
            np.testing.assert_array_equal(getattr(res.final_state, name),
                                          getattr(ref.final_state, name))
        np.testing.assert_array_equal(res.x_out, ref.x_out)
        assert res.telemetry == ref.telemetry

    def test_output_seed_changes_draw(self):
        obj = make_quadratic(4, 6, 3, seed=13)
        w = make_w(build_ring(4))
        cfg = manual_config(4, t_max=40)
        res = run(obj, w, cfg, np.zeros(3), output_seeds=(cfg.output_seed + 1,))
        alt = res.history.draw(cfg.output_seed + 1)
        assert res.history.pair_for_seed(cfg.output_seed) != res.history.pair_for_seed(
            cfg.output_seed + 1
        ) or np.array_equal(res.x_out, alt)

    def test_registered_draws_match_hand_loop(self):
        obj = make_synthetic_logistic(4, 8, 3, 1e-4, seed=14)
        w = make_w(build_ring(4))
        cfg = manual_config(4, t_max=25)
        seeds = (101, 202, 303)
        res = run(obj, w, cfg, np.zeros(3), output_seeds=seeds)
        # every iterate x_0 .. x_{t_max - 1}, from init/step directly
        state = init(obj, w, cfg, np.zeros(3))
        iterates = []
        for _ in range(cfg.t_max):
            iterates.append(state.x)
            state = step(state, obj, w, cfg)
        for s in (cfg.output_seed, *seeds):
            t, i = res.history.pair_for_seed(s)
            np.testing.assert_array_equal(res.history.draw(s), iterates[t][i])
        np.testing.assert_array_equal(res.x_out, res.history.draw(cfg.output_seed))
        with pytest.raises(KeyError, match="not registered"):
            res.history.draw(999)

    def test_telemetry_stride(self):
        obj = make_quadratic(3, 5, 2, seed=15)
        w = make_w(build_ring(3))
        cfg = manual_config(3, t_max=20)
        res = run(obj, w, cfg, np.zeros(2), telemetry_stride=7)
        assert [r.t for r in res.telemetry] == [0, 7, 14]

    def test_quadratic_run_converges(self):
        obj = make_quadratic(4, 20, 6, seed=16)
        w = make_w(build_ring(4))
        cfg = derive_config(obj, w, 1e-3, np.zeros(6), seed=0)
        cfg = dataclasses.replace(cfg, t_max=400)
        res = run(obj, w, cfg, np.zeros(6), telemetry_stride=400)
        final_grad = np.linalg.norm(obj.global_grad(res.final_state.x.mean(axis=0)))
        start_grad = np.linalg.norm(obj.global_grad(np.zeros(6)))
        assert final_grad < 1e-6 * start_grad

    def test_quadratic_output_rule_hits_target(self):
        # the derived worst-case budget (~1e8 iterations) is capped; the
        # centralized least-squares solve pins where the run should end up
        obj = make_quadratic(4, 50, 10, seed=18)
        w = make_w(build_ring(4))
        cfg = derive_config(obj, w, 1e-3, np.zeros(10), seed=0)
        cfg = dataclasses.replace(cfg, t_max=4000)
        res = run(obj, w, cfg, np.zeros(10), telemetry_stride=cfg.t_max,
                  output_seeds=tuple(range(20)))
        x_star = obj.solution()
        final = res.final_state.x.mean(axis=0)
        assert np.linalg.norm(final - x_star) <= 1e-4 * (1.0 + np.linalg.norm(x_star))
        good = sum(
            np.linalg.norm(obj.global_grad(res.history.draw(s))) <= 1e-3 for s in range(20)
        )
        assert good >= 18

    def test_derive_config_uses_instance_quantities(self):
        obj = make_quadratic(4, 16, 3, seed=17)
        w = make_w(build_ring(4))
        cfg = derive_config(obj, w, 1e-2, np.zeros(3), seed=1)
        assert cfg.eta == pytest.approx(1.0 / (2.0 * obj.smoothness), rel=1e-12)
        assert cfg.b == math.ceil(6.0 * math.sqrt(16 / 4))
        assert cfg.k_in >= 0
        assert len(cfg.agent_seeds) == 4


class TestIterateHistory:
    def test_pair_mapping_uniform_range(self):
        hist = IterateHistory(3, 7, ())
        seen = set()
        for seed in range(200):
            t, i = hist.pair_for_seed(seed)
            assert 0 <= t < 7 and 0 <= i < 3
            seen.add((t, i))
        assert len(seen) == 21  # every pair reachable

    def test_unrecorded_iteration_refuses_draw(self):
        seeds = tuple(range(40))
        hist = IterateHistory(2, 5, seeds)
        hist.record(0, np.zeros((2, 2)))
        late = next(s for s in seeds if hist.pair_for_seed(s)[0] > 0)
        with pytest.raises(RuntimeError, match="incomplete"):
            hist.draw(late)
        early = next(s for s in seeds if hist.pair_for_seed(s)[0] == 0)
        np.testing.assert_array_equal(hist.draw(early), np.zeros(2))

    @pytest.mark.parametrize("seed, message", [
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        ("7", "must be an integer, got '7'"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_output_seeds_follow_the_seed_rule(self, seed, message):
        with pytest.raises(ConfigError, match=r"output_seeds\[1\] " + message):
            IterateHistory(2, 5, (3, seed))
        hist = IterateHistory(2, 5, (3,))
        for method in (hist.draw, hist.pair_for_seed):
            with pytest.raises(ConfigError, match="output seed " + message):
                method(seed)
        obj = make_quadratic(2, 4, 2, seed=1)
        cfg = manual_config(2, t_max=5)
        with pytest.raises(ConfigError, match=r"output_seeds\[0\] " + message):
            run(obj, make_w(build_complete(2)), cfg, np.zeros(2), output_seeds=(seed,))


KINDS = ["dense", "csr", "quadratic"]


def make_objective(kind, m, n, d, seed):
    if kind == "quadratic":
        return make_quadratic(m, n, d, seed=seed, q=2)
    obj = make_synthetic_logistic(m, n, d, 1e-3, seed=seed)
    if kind == "csr":
        obj = LogisticNCObjective([sp.csr_matrix(f) for f in obj.features], obj.labels, obj.lambda_reg)
    return obj


def step_loop(obj, w, cfg, x0):
    """init/step for cfg.t_max iterations: final state, every iterate, telemetry rows."""
    state = init(obj, w, cfg, x0)
    iterates, telemetry = [], []
    for _ in range(cfg.t_max):
        iterates.append(state.x)
        before = state
        state = step(state, obj, w, cfg)
        telemetry.append(record(before, obj, cfg, y_t=state.y_last, k_t=state.k_last))
    return state, iterates, telemetry


def cheap_flags(cfg):
    return np.random.default_rng(cfg.shared_seed).random(cfg.t_max) >= cfg.p


def cheap_steps(cfg):
    return int(np.count_nonzero(cheap_flags(cfg)))


def index_draws(cfg, block):
    """Draw blocks of ``block`` steps holding a cheap step: one ``integers`` call per agent each."""
    cheap = cheap_flags(cfg)
    return sum(bool(cheap[start:start + block].any()) for start in range(0, cfg.t_max, block))


def stream_states(state):
    return [rng.bit_generator.state for rng in (state.shared_rng, *state.agent_rngs)]


COUNTERS = ("ifo_count", "raw_grad_evals", "comm_rounds", "comm_rounds_all_calls")


def set_block(monkeypatch, m, b, steps):
    """Size the draw blocks to ``steps`` steps of m agents' b int32 indices."""
    monkeypatch.setattr(optimizer, "_BLOCK_BYTES", steps * m * b * 4)


def count_draws(monkeypatch, m):
    """Patch ``init`` so that each agent stream counts its ``integers`` calls."""
    calls = [0] * m

    class CountingRng:
        def __init__(self, rng, i):
            self.rng, self.i = rng, i

        def integers(self, *args, **kwargs):
            calls[self.i] += 1
            return self.rng.integers(*args, **kwargs)

    real_init = optimizer.init

    def counting_init(*args, **kwargs):
        state = real_init(*args, **kwargs)
        rngs = tuple(CountingRng(rng, i) for i, rng in enumerate(state.agent_rngs))
        return dataclasses.replace(state, agent_rngs=rngs)

    monkeypatch.setattr(optimizer, "init", counting_init)
    return calls


class TestChunkedRun:
    """``run`` draws its flags and its cheap steps' indices by draw blocks of
    steps; a loop of ``step`` draws them one step at a time.  The two must
    agree bitwise, whatever the block."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block", [1, 2, 3, None])
    def test_run_is_bitwise_a_step_loop(self, kind, block, monkeypatch):
        obj = make_objective(kind, 4, 9, 3, seed=50)
        w = make_w(build_ring(4))
        cfg = manual_config(4, b=3, p=0.3, t_max=41, seed=52)
        if block is not None:
            set_block(monkeypatch, obj.m, cfg.b, block)
        # with blocks of 2 or 3 steps the last block is a short one, and some
        # block of 2 holds no cheap step, so it draws no indices
        assert cfg.t_max % 2 and cfg.t_max % 3
        assert index_draws(cfg, 2) < math.ceil(cfg.t_max / 2)
        seeds = tuple(range(10))
        res = run(obj, w, cfg, np.zeros(3), output_seeds=seeds)
        state, iterates, telemetry = step_loop(obj, w, cfg, np.zeros(3))
        fs = res.final_state
        for name in ("x", "g", "s"):
            np.testing.assert_array_equal(getattr(fs, name), getattr(state, name))
        for name in COUNTERS:
            assert getattr(fs, name) == getattr(state, name)
        assert res.telemetry == telemetry
        assert stream_states(fs) == stream_states(state)
        for s in (cfg.output_seed, *seeds):
            t, i = res.history.pair_for_seed(s)
            np.testing.assert_array_equal(res.history.draw(s), iterates[t][i])

    @pytest.mark.parametrize("kind", KINDS)
    def test_divergence_names_the_step_loops_iteration(self, kind):
        obj = make_objective(kind, 3, 6, 2, seed=52)
        w = make_w(build_ring(3))
        # far beyond 2/L; the logistic gradients are bounded, so they need a
        # much larger step to leave the range
        scale = 10.0 if kind == "quadratic" else 1e12
        cfg = manual_config(3, eta=scale / obj.smoothness, b=2, p=0.3, t_max=200, seed=53)
        with pytest.raises(DivergenceError) as from_loop:
            step_loop(obj, w, cfg, np.ones(2))
        with pytest.raises(DivergenceError) as from_run:
            run(obj, w, cfg, np.ones(2))
        assert str(from_run.value) == str(from_loop.value)
        failed_at = int(str(from_run.value).rsplit(" ", 1)[1])
        # cheap steps come before the failure
        assert cheap_steps(dataclasses.replace(cfg, t_max=failed_at)) > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_huge_stepsize_raises_divergence_not_overflow(self, kind):
        # The suite turns numpy's warnings into errors: evaluating the
        # logistic regularizer at an iterate of about 1e300 used to end the
        # run with "overflow encountered in multiply".
        obj = make_objective(kind, 4, 6, 3, seed=61)
        cfg = manual_config(4, eta=1e300, t_max=5)
        with pytest.raises(DivergenceError, match="^iterate norm exceeded 1e\\+12 at iteration 0$"):
            run(obj, make_w(build_ring(4)), cfg, np.ones(3))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_index_draw_per_agent_per_chunk(self, kind, monkeypatch):
        # A structural guard: run calls each agent's integers() once per draw
        # block that holds a cheap step, a logistic cheap step copies its rows
        # with one csr_row_index call, and the step's products (two CSR, one
        # CSC) read that copy in place.
        obj = make_objective(kind, 4, 9, 3, seed=54)
        w = make_w(build_ring(4))
        cfg = manual_config(4, b=3, p=0.3, t_max=40, seed=55)
        block = 3
        set_block(monkeypatch, obj.m, cfg.b, block)
        calls = count_draws(monkeypatch, obj.m)
        copies, products = [], {"csr": [], "csc": []}
        real_copy = objectives.csr_row_index

        def recording_copy(n_row, rows, indptr, indices, data, out_indices, out_data):
            copies.append((out_indices, out_data))
            return real_copy(n_row, rows, indptr, indices, data, out_indices, out_data)

        def recording(fmt, kernel):
            def call(n_row, n_col, indptr, indices, data, v, out):
                products[fmt].append((indices, data))
                return kernel(n_row, n_col, indptr, indices, data, v, out)
            return call

        monkeypatch.setattr(objectives, "csr_row_index", recording_copy)
        monkeypatch.setattr(objectives, "csr_matvec", recording("csr", objectives.csr_matvec))
        monkeypatch.setattr(objectives, "csc_matvec", recording("csc", objectives.csc_matvec))
        run(obj, w, cfg, np.zeros(3))
        assert calls == [index_draws(cfg, block)] * obj.m
        assert cheap_steps(cfg) > block
        if kind != "quadratic":
            assert len(copies) == cheap_steps(cfg)
            assert len(products["csr"]) == 2 * cheap_steps(cfg)
            assert len(products["csc"]) == cheap_steps(cfg)
            for per_step, fmt in ((2, "csr"), (1, "csc")):
                for k, (indices, data) in enumerate(products[fmt]):
                    step_indices, step_data = copies[k // per_step]
                    assert indices is step_indices and data is step_data
        else:
            assert copies == [] and products == {"csr": [], "csc": []}

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_run_over_several_draw_blocks_is_a_step_loop(self, kind, monkeypatch):
        # Blocks of 7 steps, at least 3 of them and a short last one.
        obj = make_objective(kind, 4, 9, 3, seed=56)
        w = make_w(build_ring(4))
        cfg = manual_config(4, b=3, p=0.3, t_max=60, seed=57)
        block = 7
        set_block(monkeypatch, obj.m, cfg.b, block)
        assert cfg.t_max > 2 * block and cfg.t_max % block
        calls = count_draws(monkeypatch, obj.m)
        res = run(obj, w, cfg, np.zeros(3))
        assert calls == [index_draws(cfg, block)] * obj.m
        state, _, telemetry = step_loop(obj, w, cfg, np.zeros(3))
        fs = res.final_state
        for name in ("x", "g", "s"):
            np.testing.assert_array_equal(getattr(fs, name), getattr(state, name))
        assert res.telemetry == telemetry
        assert [rng.rng.bit_generator.state for rng in fs.agent_rngs] == stream_states(state)[1:]


class TestIndexDraws:
    """``run`` holds its flag and int32 index draws in blocks of a bounded size."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1628, 8140, 65537, 2**31 - 1])
    @pytest.mark.parametrize("shape", [(1, 1), (188, 55), (3, 271)])
    def test_int32_draws_are_the_int64_draws(self, n, shape):
        # For n < 2**31 numpy draws the same values into int32 as into int64
        # and leaves each generator in the same state, so streams stay bitwise.
        narrow = tuple(np.random.default_rng(s) for s in (5, 6))
        wide = tuple(np.random.default_rng(s) for s in (5, 6))
        got = optimizer._draw(narrow, n, shape[1], shape[0])
        want = np.stack([rng.integers(0, n, size=shape) for rng in wide], 1)
        assert got.dtype == np.int32 and want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert [r.bit_generator.state for r in narrow] == [r.bit_generator.state for r in wide]

    @pytest.mark.parametrize("split", [1, 37, 1000])
    def test_flags_drawn_in_splits_are_one_draw(self, split, monkeypatch):
        # As for the index draws: a stream's flags drawn ``split`` at a time
        # are the flags of one draw and leave the stream in the same state.
        # ``_draws`` called for ``split`` steps at a time, in blocks of 5
        # steps, gives the flags and indices of one call for all steps.
        t_max, n, b, p = 1000, 7, 3, 0.3
        starts = range(0, t_max, split)
        rng, one = np.random.default_rng(9), np.random.default_rng(9)
        flags = np.concatenate([rng.random(size=min(split, t_max - s)) for s in starts])
        np.testing.assert_array_equal(flags, one.random(size=t_max))
        assert rng.bit_generator.state == one.bit_generator.state

        set_block(monkeypatch, 2, b, 5)
        split_rngs, one_rngs = ([np.random.default_rng(s) for s in (10, 11, 12)] for _ in range(2))
        got = [idx for s in starts for idx in optimizer._draws(
            split_rngs[0], tuple(split_rngs[1:]), n, b, p, min(split, t_max - s))]
        want = list(optimizer._draws(one_rngs[0], tuple(one_rngs[1:]), n, b, p, t_max))
        refresh = np.random.default_rng(10).random(size=t_max) < p
        assert [idx is None for idx in got] == [idx is None for idx in want] == refresh.tolist()
        for g, w in zip(got, want):
            if w is not None:
                assert g.dtype == w.dtype == np.int32
                np.testing.assert_array_equal(g, w)
        assert ([r.bit_generator.state for r in split_rngs]
                == [r.bit_generator.state for r in one_rngs])

    @staticmethod
    def run_peaks(obj, w, cfgs):
        """Tracemalloc peak of each config's run, one telemetry row each."""
        # The first run also makes what later runs reuse: the gossip matrix's
        # polynomials.
        x0 = np.zeros(obj.d)
        run(obj, w, next(iter(cfgs.values())), x0)
        peaks = {}
        for t_max, cfg in cfgs.items():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run(obj, w, cfg, x0, telemetry_stride=t_max)
                peaks[t_max] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return peaks

    def test_run_working_set_does_not_grow_with_t_max(self, monkeypatch):
        # cli-telemetry's shape: 4 agents, b = 271, rows of 14 of 123
        # features, so a draw block is 37 steps.  A run of 40 steps already
        # fills a draw block, so a run of ten times the steps holds no more.
        m, n, d, nnz = 4, 500, 123, 14
        rng = np.random.default_rng(61)
        cols = np.sort(rng.random((m * n, d)).argsort(axis=1)[:, :nnz], axis=1)
        feats = sp.csr_matrix((rng.standard_normal(cols.size), cols.ravel(),
                               np.arange(0, cols.size + 1, nnz)), shape=(m * n, d))
        labels = np.where(rng.random(m * n) < 0.5, 1.0, -1.0)
        obj = LogisticNCObjective.from_rows(feats, labels, np.arange(m * n).reshape(m, n), 1e-3)
        block = optimizer._BLOCK_BYTES // (m * 271 * np.dtype(np.int32).itemsize)
        assert block == 37
        blocks = []
        real_draw = optimizer._draw

        def recording_draw(rngs, n, b, steps):
            blocks.append(steps)
            return real_draw(rngs, n, b, steps)

        monkeypatch.setattr(optimizer, "_draw", recording_draw)
        cfgs = {t_max: manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=271, p=0.03,
                                     t_max=t_max, seed=62) for t_max in (40, 400)}
        peaks = self.run_peaks(obj, make_w(build_ring(m)), cfgs)
        # Each index draw is the cheap steps of one block of 37 steps.
        assert max(blocks) <= block and len(blocks) > 2
        assert abs(peaks[400] - peaks[40]) < 64 * 1024

    def test_run_peak_does_not_grow_over_two_orders_of_t_max(self, monkeypatch):
        # Nothing a run holds grows with t_max: neither flags drawn for all
        # t_max steps up front (9 bytes a step, 176 KiB at 20,000) nor rows
        # kept for every step.  At 37-step blocks a logistic cheap step's row
        # copy and the block's index draw peak near 430 KiB and would hide
        # such an array, so this run, of 4 agents and b = 271, is a
        # least-squares one with one-step blocks: its steps peak near 65 KiB.
        m, b = 4, 271
        obj = make_quadratic(m, 500, 2, 63, q=1)
        set_block(monkeypatch, m, b, 1)
        cfgs = {t_max: manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=b, p=0.03,
                                     t_max=t_max, seed=64) for t_max in (200, 20_000)}
        peaks = self.run_peaks(obj, make_w(build_ring(m)), cfgs)
        assert abs(peaks[20_000] - peaks[200]) < 64 * 1024


class TestAgainstReference:
    @settings(max_examples=15, deadline=None)
    @given(graph=graphs, n=st.integers(2, 12), d=st.integers(1, 5), kind=st.sampled_from(KINDS),
           block=st.sampled_from([1, 2, 3, None]), data_seed=st.integers(0, 1000),
           cfg_seed=st.integers(0, 2**32 - 1))
    @example(graph=build_ring(5), n=9, d=3, kind="csr", block=2, data_seed=7, cfg_seed=0)
    def test_run_matches_reference_loop(self, graph, n, d, kind, block, data_seed, cfg_seed):
        m = graph.m
        obj = make_objective(kind, m, n, d, data_seed)
        w = make_w(graph)
        cfg = manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=3, p=0.3, big_k=4, hat_k=2,
                            k_in=2, t_max=30, seed=cfg_seed)
        x0 = np.linspace(-1.0, 1.0, d)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                set_block(mp, m, cfg.b, block)
            res = run(obj, w, cfg, x0)
        ref = reference_run(obj, w, cfg, x0)
        fs = res.final_state
        assert [r.y_t for r in res.telemetry] == ref.flags
        for name in COUNTERS:
            assert getattr(fs, name) == getattr(ref, name)
        assert stream_states(fs) == [rng.bit_generator.state
                                     for rng in (ref.shared_rng, *ref.agent_rngs)]
        for got, want in ((fs.x, ref.x), (res.x_out, ref.x_out)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.max(np.abs(fs.s - ref.s)) <= 1e-10 * np.max(np.abs(ref.g))


def sparse_shards(m, n, d, density, rng):
    """Random CSR shards, rows often empty at low density, and their labels."""
    feats = [sp.random(n, d, density=density, format="csr", random_state=rng) for _ in range(m)]
    for f in feats:
        f.data = rng.standard_normal(f.nnz)
    return feats, [np.where(rng.random(n) < 0.5, 1.0, -1.0) for _ in range(m)]


class TestNumpyKernelReference:
    """The CSR-product cheap step against ``BincountLogistic``'s numpy kernel."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 6), d=st.integers(1, 5), b=st.integers(1, 6),
           steps=st.sampled_from([1, 2, 3]), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(m=1, n=5, d=3, b=4, steps=2, density=0.5, seed=1)
    @example(m=3, n=4, d=3, b=1, steps=3, density=0.3, seed=2)
    @example(m=2, n=1, d=2, b=5, steps=1, density=1.0, seed=3)
    def test_bitwise_the_numpy_kernel(self, m, n, d, b, steps, density, seed):
        rng = np.random.default_rng(seed)
        feats, labels = sparse_shards(m, n, d, density, rng)
        obj = LogisticNCObjective(feats, labels, 1e-3)
        ref = BincountLogistic(feats, labels, 1e-3)
        # Direct calls: n < b forces repeated indices within a batch.
        for step_idx in rng.integers(0, n, size=(steps, m, b)):
            x_new, x_old = rng.standard_normal((2, m, d))
            np.testing.assert_array_equal(obj.batch_diff(step_idx, x_new, x_old),
                                          ref.batch_diff(step_idx, x_new, x_old))
        if m == 1:
            return
        # Whole runs on each side.
        w = make_w(build_complete(m))
        cfg = manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=b, p=0.3, t_max=30, seed=seed)
        res, want = (run(o, w, cfg, np.linspace(-1.0, 1.0, d)) for o in (obj, ref))
        for name in ("x", "g", "s"):
            np.testing.assert_array_equal(getattr(res.final_state, name),
                                          getattr(want.final_state, name))
        np.testing.assert_array_equal(res.x_out, want.x_out)
        assert res.telemetry == want.telemetry
        for name in COUNTERS:
            assert getattr(res.final_state, name) == getattr(want.final_state, name)
        assert stream_states(res.final_state) == stream_states(want.final_state)


def widen(mat):
    """``mat`` with int64 ``indices`` and ``indptr``, in place."""
    mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    return mat


class TestScipyOperatorReference:
    """The kernel-call cheap step against ``ScipyOperatorLogistic``'s scipy
    operators: row indexing of the stacked matrix and ``@`` on each step."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 6), d=st.integers(1, 5), b=st.integers(1, 8),
           steps=st.sampled_from([1, 2, 3]), density=st.floats(0.0, 1.0),
           wide=st.sampled_from(["", "shards", "stacked"]), seed=st.integers(0, 2**32 - 1))
    @example(m=2, n=4, d=3, b=3, steps=3, density=0.0, wide="", seed=1)
    @example(m=3, n=2, d=2, b=7, steps=2, density=0.4, wide="", seed=2)
    @example(m=2, n=5, d=4, b=3, steps=3, density=0.5, wide="shards", seed=3)
    @example(m=3, n=5, d=4, b=6, steps=2, density=0.3, wide="stacked", seed=4)
    def test_bitwise_the_scipy_operators(self, m, n, d, b, steps, density, wide, seed):
        # density 0 and low densities give empty rows, b > n repeated rows,
        # and a chain of steps reuses regularizer gradients.  "shards" builds
        # from int64-indexed shards; "stacked" gives the stacked matrix itself
        # int64 indices and indptr.
        rng = np.random.default_rng(seed)
        feats, labels = sparse_shards(m, n, d, density, rng)
        if wide == "shards":
            feats = [widen(f) for f in feats]
        obj = LogisticNCObjective(feats, labels, 1e-3)
        ref = ScipyOperatorLogistic(feats, labels, 1e-3)
        if wide == "stacked":
            widen(obj._x), widen(ref._x)
        idx = rng.integers(0, n, size=(steps, m, b))
        # A step's row copy holds what scipy's row indexing gives.  scipy may
        # shrink the index dtype of its copy; the library's keeps the stacked
        # matrix's, so its kernels copy nothing.
        picked = (idx[0] + obj._starts[:, None]).ravel()
        copied, want = objectives._copy_rows(obj._x, obj._row_nnz, picked), ref._x[picked]
        for got, ref_array in zip(copied, (want.indptr, want.indices, want.data)):
            np.testing.assert_array_equal(got, ref_array)
        assert copied[0].dtype == copied[1].dtype == obj._x.indices.dtype
        assert (obj._x.indices.dtype == np.int64) == (wide == "stacked")
        # A chain of iterates, each step's x_old the previous step's x_new.
        xs = list(rng.standard_normal((steps + 1, m, d)))
        for c in range(steps):
            np.testing.assert_array_equal(obj.batch_diff(idx[c], xs[c + 1], xs[c]),
                                          ref.batch_diff(idx[c], xs[c + 1], xs[c]))
        if m == 1:
            return
        w = make_w(build_complete(m))
        cfg = manual_config(m, eta=1.0 / (2.0 * obj.smoothness), b=b, p=0.3, t_max=30, seed=seed)
        res, want = (run(o, w, cfg, np.linspace(-1.0, 1.0, d)) for o in (obj, ref))
        for name in ("x", "g", "s"):
            np.testing.assert_array_equal(getattr(res.final_state, name),
                                          getattr(want.final_state, name))
        np.testing.assert_array_equal(res.x_out, want.x_out)
        assert res.telemetry == want.telemetry

    def test_regularizer_gradient_reused_only_for_the_same_array(self, monkeypatch):
        obj = make_objective("csr", 3, 6, 4, seed=56)
        ref = ScipyOperatorLogistic(obj.features, obj.labels, obj.lambda_reg)
        rng = np.random.default_rng(57)
        idx = rng.integers(0, obj.n, size=(4, obj.m, 2))
        x0, x1, x2 = rng.standard_normal((3, obj.m, obj.d))
        calls = []
        real = objectives._regularizer_grad

        def counting(x, lam):
            calls.append(x)
            return real(x, lam)

        monkeypatch.setattr(objectives, "_regularizer_grad", counting)
        # First call, then x_old is the last x_new, then an equal copy of it,
        # then the same array after another array came between.
        for c, (x_new, x_old, evaluated) in enumerate([(x1, x0, [x1, x0]), (x2, x1, [x2]),
                                                       (x1, x2.copy(), [x1, None]),
                                                       (x2, x2, [x2, x2])]):
            del calls[:]
            np.testing.assert_array_equal(obj.batch_diff(idx[c], x_new, x_old),
                                          ref.batch_diff(idx[c], x_new, x_old))
            assert len(calls) == len(evaluated)
            assert all(e is None or got is e for got, e in zip(calls, evaluated))
