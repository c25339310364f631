"""Diagnostics: estimation errors, consensus error, Lyapunov value, telemetry rows."""

import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

import dearest
from dearest.metrics import CSV_HEADER, consensus_error, format_csv_row, record
from dearest.mixing import fastmix
from dearest.objectives import (
    LogisticNCObjective,
    QuadraticObjective,
    make_quadratic,
    make_synthetic_logistic,
)
from dearest.optimizer import AggregateState, RunConfig, init, run, step
from dearest.topology import build_ring, gossip_from_laplacian, laplacian

from reference import local_grad


def make_w(m):
    return gossip_from_laplacian(laplacian(build_ring(m)))


def config(m, **kw):
    defaults = dict(eta=0.1, b=2, p=0.25, big_k=3, hat_k=2, k_in=2, t_max=50)
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


class WorkerFailure(Exception):
    pass


class CallerFailure(Exception):
    pass


class FailingGlobalPass(QuadraticObjective):
    def global_value_and_grad(self, x):
        raise WorkerFailure("global pass")


class SlowGlobalPassFailingRows(QuadraticObjective):
    """The worker's half sleeps, then notes that it finished; the caller's half raises."""

    finished = False

    def global_value_and_grad(self, x):
        time.sleep(0.2)
        result = super().global_value_and_grad(x)
        self.finished = True
        return result

    def grad_rows(self, x):
        raise CallerFailure("grad_rows")


class OverflowingGlobalPass(QuadraticObjective):
    def global_value_and_grad(self, x):
        value, grad = super().global_value_and_grad(x)
        return value * float(np.exp(np.full(1, 1000.0))[0]), grad


def quadratic_like(cls, seed=12):
    base = make_quadratic(3, 4, 2, seed=seed)
    return cls(base.a, base.c)


def random_state(obj, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((obj.m, obj.d))
    g = obj.grad_rows(x) + 0.1 * rng.standard_normal((obj.m, obj.d))
    return raw_state(x, g, rng.standard_normal((obj.m, obj.d)))


def csr_logistic(m, n, d, seed):
    rng = np.random.default_rng(seed)
    feats = [sp.random(n, d, density=0.3, format="csr", random_state=rng) for _ in range(m)]
    labels = [np.where(rng.random(n) < 0.5, 1.0, -1.0) for _ in range(m)]
    return LogisticNCObjective(feats, labels, 1e-3)


class TestConcurrentPasses:
    """``record`` runs the mean-iterate pass on a worker thread beside ``grad_rows``."""

    @pytest.mark.parametrize("kind", ["dense logistic", "csr logistic", "quadratic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_the_serial_composition(self, kind, seed):
        obj = {
            "dense logistic": lambda: make_synthetic_logistic(4, 9, 5, 1e-3, seed=seed),
            "csr logistic": lambda: csr_logistic(4, 9, 5, seed),
            "quadratic": lambda: make_quadratic(4, 6, 3, seed=seed),
        }[kind]()
        state = random_state(obj, seed + 100)
        cfg = config(4)
        gap = state.g - obj.grad_rows(state.x)
        u = float(gap.mean(axis=0) @ gap.mean(axis=0))
        v = float(np.sum(gap * gap)) / 4
        c = consensus_error(state, cfg)
        f_bar, grad = obj.global_value_and_grad(state.x.mean(axis=0))
        phi = f_bar + (cfg.eta / cfg.p) * (u + v) + c / (4 * cfg.eta)
        rec = record(state, obj, cfg, y_t=0, k_t=0)
        got = (rec.f_bar, rec.grad_norm, rec.u_t, rec.v_t, rec.c_t, rec.phi_t)
        want = (f_bar, float(np.linalg.norm(grad)), u, v, c, phi)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_worker_exception_reaches_the_caller(self):
        obj = quadratic_like(FailingGlobalPass)
        with pytest.raises(WorkerFailure, match="global pass"):
            record(random_state(obj, 0), obj, config(3), y_t=0, k_t=0)

    def test_caller_exception_waits_for_the_worker(self):
        obj = quadratic_like(SlowGlobalPassFailingRows)
        state = raw_state(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(CallerFailure):
            record(state, obj, config(3), y_t=0, k_t=0)
        assert obj.finished

    def test_errstate_applies_in_the_worker(self):
        obj = quadratic_like(OverflowingGlobalPass)
        state = random_state(obj, 1)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            record(state, obj, config(3), y_t=0, k_t=0)
        # Outside the caller's errstate the overflow would warn, and this
        # suite's warning filter would turn it into an error.
        with np.errstate(over="ignore"):
            assert record(state, obj, config(3), y_t=0, k_t=0).f_bar == math.inf

    def test_import_starts_no_thread_and_rows_reuse_one(self):
        code = textwrap.dedent("""
            import threading
            before = threading.active_count()
            import numpy as np
            import dearest
            from dearest.metrics import record
            from dearest.objectives import make_quadratic
            from dearest.optimizer import AggregateState, RunConfig
            after_import = threading.active_count()
            obj = make_quadratic(3, 4, 2, seed=0)
            x = np.random.default_rng(0).standard_normal((3, 2))
            state = AggregateState(
                x=x, g=obj.grad_rows(x), s=x.copy(), t=0, ifo_count=0, raw_grad_evals=0,
                comm_rounds=0, comm_rounds_all_calls=0, shared_rng=np.random.default_rng(0),
                agent_rngs=tuple(np.random.default_rng(i) for i in range(3)))
            cfg = RunConfig(eta=0.1, b=2, p=0.25, big_k=3, hat_k=2, k_in=2, t_max=50,
                            shared_seed=0, agent_seeds=(0, 1, 2), output_seed=0)
            for _ in range(1000):
                record(state, obj, cfg, y_t=0, k_t=0)
            print(before, after_import, threading.active_count())
        """)
        src = os.path.dirname(os.path.dirname(dearest.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120).stdout
        before, after_import, after_rows = map(int, out.split())
        assert after_import == before
        assert after_rows <= before + 1

    def test_concurrent_callers_get_serial_rows(self):
        # More calling threads than cores, switching often, all sharing the one worker.
        objs = [make_quadratic(3, 4, 2, seed=20), make_synthetic_logistic(3, 6, 4, 1e-3, seed=21)]
        states = [random_state(obj, 30 + k) for k, obj in enumerate(objs)]
        cfg = config(3)
        want = [record(state, obj, cfg, y_t=0, k_t=0) for obj, state in zip(objs, states)]
        mismatches = []

        def caller(k):
            for _ in range(50):
                if record(states[k % 2], objs[k % 2], cfg, y_t=0, k_t=0) != want[k % 2]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert sum(t.name.startswith("dearest-worker") for t in threading.enumerate()) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12+ warns that forking a multi-threaded process may deadlock;
    # not forking one that has recorded a row is what this test checks.
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    def test_forked_child_records(self):
        obj = make_quadratic(3, 4, 2, seed=13)
        state = random_state(obj, 2)
        cfg = config(3)
        want = record(state, obj, cfg, y_t=0, k_t=0)
        assert any(t.name.startswith("dearest-worker") for t in threading.enumerate())
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits without returning
            code = 1
            try:
                code = 0 if record(state, obj, cfg, y_t=0, k_t=0) == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on its first telemetry row")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
