"""Diagnostics: estimation errors, consensus error, Lyapunov value, telemetry rows."""

import math

import numpy as np
import pytest

from dearest.metrics import CSV_HEADER, consensus_error, format_csv_row, record
from dearest.mixing import fastmix
from dearest.objectives import make_quadratic, make_synthetic_logistic
from dearest.optimizer import AggregateState, RunConfig, init, run, step
from dearest.topology import build_ring, gossip_from_laplacian, laplacian

from reference import local_grad


def make_w(m):
    return gossip_from_laplacian(laplacian(build_ring(m)))


def config(m, **kw):
    defaults = dict(eta=0.1, b=2, p=0.25, big_k=3, hat_k=2, k_in=2, t_max=50, epsilon=1e-3)
    defaults.update(kw)
    return RunConfig(
        shared_seed=0, agent_seeds=tuple(range(m)), output_seed=0, **defaults
    )


def raw_state(x, g, s):
    m = x.shape[0]
    return AggregateState(
        x=x, g=g, s=s, t=0, ifo_count=0, raw_grad_evals=0, comm_rounds=0,
        comm_rounds_all_calls=0, shared_rng=np.random.default_rng(0),
        agent_rngs=tuple(np.random.default_rng(i) for i in range(m)),
    )


def errors(state, obj):
    """(u_t, v_t) of the telemetry row for ``state``."""
    rec = record(state, obj, config(state.x.shape[0]), y_t=0, k_t=0)
    return rec.u_t, rec.v_t


class TestEstimationErrors:
    def test_symmetric_perturbation_cancels_in_the_mean(self):
        # m=2, n=2, d=1: estimators off by (+delta, -delta) leave the mean
        # estimator exact but the per-agent error at delta^2.
        obj = make_quadratic(2, 2, 1, seed=0)
        delta = 0.3
        x = np.zeros((2, 1))
        exact = obj.grad_rows(x)
        g = exact + np.array([[delta], [-delta]])
        u, v = errors(raw_state(x, g, g.copy()), obj)
        assert u == pytest.approx(0.0, abs=1e-15)
        assert v == pytest.approx(delta**2, rel=1e-12)

    def test_zero_at_exact_estimators(self):
        obj = make_quadratic(3, 4, 2, seed=1)
        x = np.tile(np.array([0.5, -1.0]), (3, 1))
        g = obj.grad_rows(x)
        assert errors(raw_state(x, g, g.copy()), obj) == (0.0, 0.0)

    def test_jensen_inequality_on_random_states(self):
        obj = make_quadratic(5, 4, 3, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.standard_normal((5, 3))
            g = obj.grad_rows(x) + rng.standard_normal((5, 3))
            u, v = errors(raw_state(x, g, g.copy()), obj)
            assert u <= v * (1.0 + 1e-12)

    def test_zero_after_refresh_and_at_start(self):
        obj = make_synthetic_logistic(3, 8, 3, 1e-4, seed=4)
        w = make_w(3)
        cfg = config(3, p=0.5)
        state = init(obj, w, cfg, np.zeros(3))
        assert errors(state, obj) == (0.0, 0.0)  # t = 0
        saw_refresh = False
        for _ in range(30):
            state = step(state, obj, w, cfg)
            if state.y_last == 1:
                saw_refresh = True
                assert errors(state, obj) == (0.0, 0.0)
        assert saw_refresh


class TestConsensusError:
    def test_consensual_state_is_zero(self):
        x = np.tile(np.array([1.0, 2.0]), (4, 1))
        state = raw_state(x, x.copy(), x.copy())
        assert consensus_error(state, config(4)) == 0.0

    def test_hand_value_m2(self):
        state = raw_state(np.array([[1.0], [0.0]]), np.zeros((2, 1)), np.zeros((2, 1)))
        for eta in (0.0, 0.1, 3.0):
            assert consensus_error(state, config(2, eta=eta)) == pytest.approx(0.5, rel=1e-14)

    def test_tracker_term_weighted_by_eta_squared(self):
        state = raw_state(np.zeros((2, 1)), np.zeros((2, 1)), np.array([[1.0], [0.0]]))
        cfg = config(2, eta=0.2)
        assert consensus_error(state, cfg) == pytest.approx(0.04 * 0.5, rel=1e-14)

    def test_mixing_contracts_consensus_error(self):
        # Applying k gossip rounds to both blocks shrinks the error by at
        # least the squared asymptotic factor once the momentum transient is
        # over (k = 40 is safely past it on the 8-ring and still well above
        # the float noise floor).
        w = make_w(8)
        cfg = config(8, eta=0.15)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 4))
        s = rng.standard_normal((8, 4))
        before = consensus_error(raw_state(x, s.copy(), s), cfg)
        k = 40
        x_mixed = fastmix(x, w, k)
        s_mixed = fastmix(s, w, k)
        after = consensus_error(raw_state(x_mixed, s_mixed.copy(), s_mixed), cfg)
        rate = 1.0 - math.sqrt(w.gap)
        assert after <= rate ** (2 * k) * before


class TestLyapunov:
    def test_consensual_exact_state_reduces_to_f(self):
        obj = make_quadratic(4, 6, 3, seed=6)
        x_bar = np.array([0.4, -0.2, 1.0])
        x = np.tile(x_bar, (4, 1))
        g = obj.grad_rows(x)
        s = np.tile(g.mean(axis=0), (4, 1))
        state = raw_state(x, g, s)
        assert record(state, obj, config(4), y_t=0, k_t=0).phi_t == pytest.approx(
            obj.global_value(x_bar), rel=1e-12
        )

    def test_component_sum_identity(self):
        obj = make_synthetic_logistic(4, 8, 3, 1e-4, seed=7)
        w = make_w(4)
        cfg = config(4)
        state = init(obj, w, cfg, np.zeros(3))
        for _ in range(5):
            state = step(state, obj, w, cfg)
        # The estimation errors from the per-agent reference gradients, not
        # from the row under test.
        gap = state.g - np.stack([local_grad(obj, i, state.x[i]) for i in range(4)])
        u = float(np.sum(gap.mean(axis=0) ** 2))
        v = float(np.sum(gap * gap)) / 4
        assert v > 0.0
        c = consensus_error(state, cfg)
        f_bar = obj.global_value(state.x.mean(axis=0))
        composed = f_bar + (cfg.eta / cfg.p) * (u + v) + c / (4 * cfg.eta)
        rec = record(state, obj, cfg, y_t=state.y_last, k_t=state.k_last)
        assert rec.phi_t == pytest.approx(composed, rel=1e-12)


class TestTelemetryRecord:
    def test_fields_and_counters(self):
        obj = make_synthetic_logistic(3, 8, 3, 1e-4, seed=9)
        w = make_w(3)
        for eta in (0.1, 0.0):
            cfg = config(3, eta=eta)
            state = init(obj, w, cfg, np.zeros(3))
            rec = record(state, obj, cfg, y_t=1, k_t=cfg.big_k)
            assert rec.t == 0
            assert rec.y_t == 1 and rec.k_t == cfg.big_k
            assert rec.u_t == 0.0 and rec.v_t == 0.0
            assert rec.ifo_cum == state.ifo_count
            assert rec.comm_cum == state.comm_rounds
            x_bar = state.x.mean(axis=0)
            assert rec.f_bar == obj.global_value(x_bar)
            assert rec.grad_norm == pytest.approx(np.linalg.norm(obj.global_grad(x_bar)), rel=1e-12)
            if eta > 0.0:
                # Exact estimators at t = 0: phi is f_bar plus the consensus term.
                assert rec.phi_t == pytest.approx(rec.f_bar + rec.c_t / (3 * eta), rel=1e-12)
            else:
                # The Lyapunov value is undefined for a zero stepsize.
                assert math.isnan(rec.phi_t)

    def test_csv_row_matches_header(self):
        obj = make_quadratic(3, 4, 2, seed=10)
        w = make_w(3)
        cfg = config(3)
        res = run(obj, w, cfg, np.zeros(2))
        row = format_csv_row(res.telemetry[0])
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        # round-trip the floats
        parts = row.split(",")
        assert float(parts[3]) == res.telemetry[0].f_bar
        assert int(parts[9]) == res.telemetry[0].ifo_cum

    def test_u_le_v_along_a_run(self):
        obj = make_synthetic_logistic(4, 10, 3, 1e-4, seed=11)
        w = make_w(4)
        cfg = config(4, t_max=40)
        res = run(obj, w, cfg, np.zeros(3))
        for rec in res.telemetry:
            assert rec.u_t <= rec.v_t * (1.0 + 1e-12) + 1e-18
            # multi-round mixing keeps the consensus error tiny on this
            # instance (observed ~1e-5 peak); 1e-3 guards against blowup
            assert 0.0 <= rec.c_t <= 1e-3
