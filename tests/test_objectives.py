"""Objective oracles: values, gradients, smoothness bounds, batching."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dearest
from dearest import objectives
from dearest.datasets import Partition, SampleSet, normalize_rows, partition, shard_matrices
from dearest.objectives import (
    FiniteSumObjective,
    LogisticNCObjective,
    QuadraticObjective,
    _regularizer_grad,
    _sigmoid,
    make_quadratic,
    make_synthetic_logistic,
)

import reference
from reference import (
    BatchedMatmulQuadratic,
    batch_grad_mean,
    component_value,
    global_grad,
    local_grad,
    local_value,
    smoothness_bound,
    stacked_global_value_and_grad,
)


def central_diff_grad(func, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for k in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[k] = h
        g[k] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


def assert_grads_match_fd(obj, x, rel):
    """The library's global gradient and ``grad_rows`` against central differences.

    The global gradient is checked against differences of ``global_value``,
    and row i of ``grad_rows`` at x on every agent against differences of
    the reference's ``local_value`` of agent i.
    """
    def check(g, fd):
        assert np.linalg.norm(g - fd) <= rel * max(1.0, np.linalg.norm(fd))

    check(obj.global_grad(x), central_diff_grad(obj.global_value, x))
    rows = obj.grad_rows(np.tile(x, (obj.m, 1)))
    for i in range(obj.m):
        check(rows[i], central_diff_grad(partial(local_value, obj, i), x))


def tiny_logistic(lambda_reg=1e-4, m=2, n=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((n, d)) for _ in range(m)]
    labels = [np.where(rng.random(n) < 0.5, 1.0, -1.0) for _ in range(m)]
    return LogisticNCObjective(feats, labels, lambda_reg)


class TestLogisticValues:
    def test_value_at_origin_is_log_two(self):
        obj = tiny_logistic()
        zero = np.zeros(obj.d)
        assert obj.global_value(zero) == pytest.approx(math.log(2.0), rel=1e-12)
        for i in range(obj.m):
            for j in range(obj.n):
                assert component_value(obj, i, j, zero) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_huge_margin_does_not_overflow(self):
        obj = LogisticNCObjective(
            [np.array([[1.0, 0.0]])], [np.array([1.0])], lambda_reg=0.0
        )
        val = obj.global_value(np.array([100.0, 0.0]))
        assert val == pytest.approx(math.exp(-100.0), rel=1e-10)  # ~3.72e-44
        # the mirrored margin is the linear regime, not an overflow
        val_neg = obj.global_value(np.array([-100.0, 0.0]))
        assert val_neg == pytest.approx(100.0, rel=1e-12)

    def test_pure_regularizer_value(self):
        d = 7
        obj = LogisticNCObjective([np.zeros((1, d))], [np.array([1.0])], lambda_reg=1.0)
        val = obj.global_value(np.ones(d))
        assert val == pytest.approx(math.log(2.0) + d / 2.0, rel=1e-12)

    def test_values_nonnegative(self):
        obj = tiny_logistic(lambda_reg=1e-4)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(obj.d)
            assert obj.global_value(x) >= 0.0
        assert obj.value_lower_bound == 0.0


class TestSigmoid:
    def test_matches_scipy_expit(self):
        # The only test that loads scipy.special: the library's tanh form
        # against scipy's expit, within one unit of 2**-52 everywhere.
        from scipy.special import expit

        t = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                            np.random.default_rng(50).standard_normal(100_000)])
        with np.errstate(all="raise"):
            got = _sigmoid(t)
            assert np.max(np.abs(got - expit(t))) <= 2.0**-52
            assert np.all((got >= 0.0) & (got <= 1.0))
            edge = _sigmoid(np.array([0.0, np.inf, -np.inf, np.nan]))
        assert edge[0] == 0.5 and edge[1] == 1.0 and edge[2] == 0.0
        assert np.isnan(edge[3])

    def test_a_logistic_run_does_not_load_scipy_special(self):
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import dearest
            obj = dearest.make_synthetic_logistic(3, 8, 2, 1e-3, seed=0)
            w = dearest.gossip_from_laplacian(dearest.laplacian(dearest.build_ring(3)))
            cfg = dearest.RunConfig(eta=0.1, b=2, p=0.3, big_k=2, hat_k=2, k_in=2, t_max=20,
                                    epsilon=1e-3, shared_seed=0, agent_seeds=(0, 1, 2),
                                    output_seed=0)
            res = dearest.run(obj, w, cfg, np.zeros(2))
            assert len(res.telemetry) > 0
            print(sorted(name for name in sys.modules if name.startswith("scipy.special")))
        """)
        src = os.path.dirname(os.path.dirname(dearest.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "[]"


class TestLogisticGradients:
    def test_grad_at_origin(self):
        # Every component's gradient at 0 is -(b / 2) a: row i is their mean.
        obj = tiny_logistic(lambda_reg=1e-4)
        rows = obj.grad_rows(np.zeros((obj.m, obj.d)))
        for i in range(obj.m):
            a, b = obj.features[i].toarray(), obj.labels[i]
            np.testing.assert_allclose(rows[i], np.mean(-(b[:, None] / 2.0) * a, axis=0),
                                       rtol=1e-12, atol=1e-15)

    def test_regularizer_grad_value(self):
        obj = LogisticNCObjective(
            [np.zeros((1, 3))], [np.array([1.0])], lambda_reg=1e-4
        )
        g = obj.global_grad(np.array([1.0, 0.0, 0.0]))
        assert g[0] == pytest.approx(1e-4 * 2.0 / 4.0, rel=1e-12)  # 5e-5
        assert g[1] == 0.0 and g[2] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 3.0])
    def test_regularizer_grad_bitwise_the_expression(self, lam):
        # Zero, signed zero, tiny, negative and large values: at |x| >= 1e77
        # denom * denom overflows to inf and the gradient is a signed zero,
        # or NaN where lam * 2.0 * x overflows too.
        x = np.array([0.0, -0.0, 1e-300, 0.5, -0.5, 1.0, -3.7, 12.25, 1e75, -1e75,
                      1e77, -1e77, 1e200, -1e200, 1.7976931348623157e308, -1.7976931348623157e308])
        with np.errstate(over="ignore", invalid="ignore"):
            for arr in (x, x.reshape(4, 4), x[::-1].reshape(2, 8)):
                got, ref = _regularizer_grad(arr, lam), reference._regularizer_grad(arr, lam)
                assert got.tobytes() == ref.tobytes()

    def test_matches_finite_differences(self):
        obj = tiny_logistic(lambda_reg=1e-3)
        rng = np.random.default_rng(2)
        for _ in range(25):
            assert_grads_match_fd(obj, rng.standard_normal(obj.d), rel=1e-5)

    def test_local_grad_is_component_mean(self):
        obj = tiny_logistic()
        rng = np.random.default_rng(3)
        for i in range(obj.m):
            x = rng.standard_normal(obj.d)
            mean = np.mean([batch_grad_mean(obj, i, [j], x) for j in range(obj.n)], axis=0)
            row = obj.grad_rows(np.tile(x, (obj.m, 1)))[i]
            for lg in (local_grad(obj, i, x), row):
                assert np.linalg.norm(lg - mean) <= 1e-12 * max(1.0, np.linalg.norm(mean))

    def test_global_is_mean_of_locals(self):
        obj = tiny_logistic()
        x = np.array([0.3, -1.2, 0.7])
        np.testing.assert_allclose(
            obj.global_grad(x),
            np.mean([local_grad(obj, i, x) for i in range(obj.m)], axis=0),
            rtol=1e-12,
        )
        assert obj.global_value(x) == pytest.approx(
            np.mean([local_value(obj, i, x) for i in range(obj.m)]), rel=1e-12
        )
        assert obj.global_value(x) == obj.global_value_and_grad(x)[0]

    def test_batch_grad_mean_matches_loop(self):
        obj = tiny_logistic(n=6)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(obj.d)
        idx = np.array([0, 2, 2, 5])  # with replacement
        loop = np.mean([batch_grad_mean(obj, 0, [j], x) for j in idx], axis=0)
        np.testing.assert_allclose(batch_grad_mean(obj, 0, idx, x), loop, rtol=1e-12)

    def test_grad_rows_shape_and_values(self):
        obj = tiny_logistic()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((obj.m, obj.d))
        rows = obj.grad_rows(x)
        assert rows.shape == (obj.m, obj.d)
        np.testing.assert_allclose(rows[1], local_grad(obj, 1, x[1]), rtol=1e-14)


class TestSparseDenseParity:
    def test_same_results_via_csr(self):
        rng = np.random.default_rng(8)
        shards = [rng.standard_normal((5, 4)) for _ in range(2)]
        labels = [np.where(rng.random(5) < 0.5, 1.0, -1.0) for _ in range(2)]
        dense = LogisticNCObjective(shards, labels, 1e-4)
        sparse_obj = LogisticNCObjective([sp.csr_matrix(f) for f in shards], labels, 1e-4)
        x = rng.standard_normal(4)
        rows = rng.standard_normal((2, 4))
        assert sparse_obj.smoothness == dense.smoothness
        assert local_value(sparse_obj, 0, x) == local_value(dense, 0, x)
        np.testing.assert_array_equal(sparse_obj.grad_rows(rows), dense.grad_rows(rows))
        assert component_value(sparse_obj, 0, 2, x) == component_value(dense, 0, 2, x)
        np.testing.assert_array_equal(
            batch_grad_mean(sparse_obj, 0, [2], x), batch_grad_mean(dense, 0, [2], x)
        )
        for got, want in zip(sparse_obj.global_value_and_grad(x), dense.global_value_and_grad(x)):
            np.testing.assert_array_equal(got, want)
        idx = rng.integers(0, 5, size=(3, 2, 4))
        x_old = rows + 0.1 * rng.standard_normal((2, 4))
        sparse_batch, dense_batch = sparse_obj.gather(idx), dense.gather(idx)
        for c in range(3):
            np.testing.assert_array_equal(sparse_obj.batch_diff(sparse_batch, c, rows, x_old),
                                          dense.batch_diff(dense_batch, c, rows, x_old))
        np.testing.assert_array_equal(
            batch_grad_mean(sparse_obj, 0, idx[0, 0], x), batch_grad_mean(dense, 0, idx[0, 0], x)
        )


class TestSmoothness:
    def test_bitwise_the_scipy_operator_bound(self):
        # The row norms come from the CSR product kernel called directly; the
        # reference multiplies scipy matrices over the same arrays with ``@``.
        rng = np.random.default_rng(11)
        feats, labels = a9a_shaped_shards()
        weighted = [sp.csr_matrix((rng.standard_normal(f.nnz), f.indices, f.indptr), shape=f.shape)
                    for f in feats]
        sparse_rows = [sp.random(7, 5, density=0.3, format="csr", random_state=rng)
                       for _ in range(3)]
        dense = make_synthetic_logistic(4, 9, 5, 1e-3, seed=12)
        for obj in (LogisticNCObjective(feats, labels, 1e-4),
                    LogisticNCObjective(weighted, labels, 1e-4),
                    LogisticNCObjective(sparse_rows, [np.ones(7)] * 3, 1e-3),
                    dense):
            assert obj.smoothness.hex() == smoothness_bound(obj).hex()

    def test_degenerate_objective_has_zero_bound(self):
        obj = LogisticNCObjective([np.zeros((2, 3))], [np.ones(2)], lambda_reg=0.0)
        assert obj.smoothness == 0.0

    def test_single_sample_hand_value(self):
        obj = LogisticNCObjective(
            [np.array([[2.0, 0.0]])], [np.array([-1.0])], lambda_reg=0.0
        )
        assert obj.smoothness == pytest.approx(1.0, rel=1e-14)  # ||a||^2 / 4

    def test_average_smoothness_inequality_monte_carlo(self):
        # Step c of ``every`` samples component c on each agent, so row i of
        # its batch_diff is grad f_ic(x[i]) - grad f_ic(x2[i]).
        obj = tiny_logistic(lambda_reg=1e-3, m=3, n=12, d=4, seed=10)
        lsq = obj.smoothness**2
        every = obj.gather(np.repeat(np.arange(obj.n)[:, None, None], obj.m, axis=1))
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = 2.0 * rng.standard_normal((obj.m, obj.d))
            x2 = x + rng.standard_normal((obj.m, obj.d))
            mean_sq = np.mean(
                [np.sum(obj.batch_diff(every, c, x, x2) ** 2, axis=1) for c in range(obj.n)],
                axis=0,
            )
            assert np.all(mean_sq <= lsq * np.sum((x - x2) ** 2, axis=1) * (1.0 + 1e-12))

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticNCObjective([np.ones((2, 2))], [np.array([1.0, 0.5])], 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LogisticNCObjective([np.ones((1, 2))], [np.array([1.0])], -1e-3)


class TestQuadratic:
    def test_scalar_identity_instance(self):
        # f_ij(x) = x^2 / 2 for every component: gradient x, minimizer 0
        a = np.ones((2, 3, 1, 1))
        c = np.zeros((2, 3, 1))
        obj = QuadraticObjective(a, c)
        assert obj.global_value(np.array([1.7])) == pytest.approx(1.7**2 / 2.0, rel=1e-14)
        np.testing.assert_allclose(obj.global_grad(np.array([1.7])), [1.7], rtol=1e-14)
        np.testing.assert_allclose(obj.global_grad(np.array([0.5])), [0.5], rtol=1e-14)
        np.testing.assert_allclose(obj.solution(), [0.0], atol=1e-14)

    def test_matches_finite_differences(self):
        obj = make_quadratic(2, 5, 4, seed=3)
        rng = np.random.default_rng(12)
        for _ in range(25):
            assert_grads_match_fd(obj, rng.standard_normal(obj.d), rel=1e-6)

    def test_gradient_vanishes_at_normal_equation_solution(self):
        obj = make_quadratic(3, 8, 6, seed=4)
        assert np.linalg.norm(obj.global_grad(obj.solution())) <= 1e-8

    def test_lower_bound_is_attained_value(self):
        obj = make_quadratic(2, 4, 3, seed=5)
        assert obj.value_lower_bound == pytest.approx(obj.global_value(obj.solution()), rel=1e-12)
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert obj.global_value(rng.standard_normal(obj.d)) >= obj.value_lower_bound - 1e-12

    def test_batch_grad_mean_matches_loop(self):
        obj = make_quadratic(2, 6, 3, seed=6)
        x = np.array([0.2, -0.4, 1.0])
        idx = np.array([5, 0, 0])
        loop = np.mean([batch_grad_mean(obj, 1, [j], x) for j in idx], axis=0)
        np.testing.assert_allclose(batch_grad_mean(obj, 1, idx, x), loop, rtol=1e-12)

    def test_grad_rows_is_the_local_grad_loop(self):
        obj = make_quadratic(5, 6, 3, seed=8, q=2)
        x = np.random.default_rng(14).standard_normal((obj.m, obj.d))
        loop = np.stack([local_grad(obj, i, x[i]) for i in range(obj.m)])
        np.testing.assert_allclose(obj.grad_rows(x), loop, rtol=1e-13, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 6),
        q=st.integers(1, 7),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, n=1, q=2, d=5, seed=0)
    @example(m=1, n=3, q=6, d=2, seed=1)
    @example(m=3, n=1, q=1, d=4, seed=2)
    def test_gram_form_matches_residual_form(self, m, n, q, d, seed):
        # Each bound scales with the terms whose difference is taken,
        # ||A||^2 ||x|| + ||A|| ||c||, since near the minimizer the
        # gradient itself is only rounding.
        obj = make_quadratic(m, n, d, seed=seed, q=q)
        x = np.random.default_rng(seed).standard_normal((m, d))
        rows = obj.grad_rows(x)
        for i in range(m):
            norm_a, norm_c = np.linalg.norm(obj.a[i]), np.linalg.norm(obj.c[i])
            scale = (norm_a**2 * np.linalg.norm(x[i]) + norm_a * norm_c) / n
            assert np.linalg.norm(rows[i] - local_grad(obj, i, x[i])) <= 1e-12 * scale
        norm_a, norm_c = np.linalg.norm(obj.a), np.linalg.norm(obj.c)
        scale = (norm_a**2 * np.linalg.norm(x[0]) + norm_a * norm_c) / (m * n)
        assert np.linalg.norm(obj.global_grad(x[0]) - global_grad(obj, x[0])) <= 1e-12 * scale
        if m * n * q >= d:  # else the normal equations are singular
            x_star = obj.solution()
            scale = (norm_a**2 * np.linalg.norm(x_star) + norm_a * norm_c) / (m * n)
            assert np.linalg.norm(global_grad(obj, x_star)) <= 1e-12 * scale

    def test_construction_peak_memory(self):
        # ring100-quad's shape.  The Gram sums are built from views of a, so
        # the largest temporary is the bool finiteness mask, an eighth of a's
        # bytes.  A temporary of a quarter of a or more fails this.
        rng = np.random.default_rng(15)
        a = rng.standard_normal((100, 32, 20, 20))
        c = rng.standard_normal((100, 32, 20))
        tracemalloc.start()
        try:
            QuadraticObjective(a, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * a.nbytes

    def test_seeded_determinism(self):
        a = make_quadratic(2, 3, 4, seed=7)
        b = make_quadratic(2, 3, 4, seed=7)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.c, b.c)


class TestSyntheticLogistic:
    def test_shapes_and_determinism(self):
        obj1 = make_synthetic_logistic(4, 16, 5, 1e-4, seed=21)
        obj2 = make_synthetic_logistic(4, 16, 5, 1e-4, seed=21)
        assert obj1.m == 4 and obj1.n == 16 and obj1.d == 5
        for f1, f2 in zip(obj1.features, obj2.features):
            np.testing.assert_array_equal(f1.toarray(), f2.toarray())
        for l1, l2 in zip(obj1.labels, obj2.labels):
            np.testing.assert_array_equal(l1, l2)

    def test_labels_are_signs(self):
        obj = make_synthetic_logistic(3, 10, 4, 0.0, seed=22)
        for lab in obj.labels:
            assert np.all(np.abs(lab) == 1.0)

    @pytest.mark.parametrize("flip_fraction", [-0.1, 1.5, np.nan])
    def test_flip_fraction_outside_unit_interval_rejected(self, flip_fraction):
        with pytest.raises(ValueError, match=r"flip_fraction must be in \[0, 1\]"):
            make_synthetic_logistic(2, 50, 3, 1e-3, seed=23, flip_fraction=flip_fraction)

    @pytest.mark.parametrize("flip_fraction", [0.0, 1.0])
    def test_flip_fraction_endpoints_flip_none_or_all(self, flip_fraction):
        kept = make_synthetic_logistic(2, 50, 3, 1e-3, seed=23, flip_fraction=0.0)
        obj = make_synthetic_logistic(2, 50, 3, 1e-3, seed=23, flip_fraction=flip_fraction)
        sign = -1.0 if flip_fraction == 1.0 else 1.0
        for lab, want in zip(obj.labels, kept.labels):
            np.testing.assert_array_equal(lab, sign * want)


def one_step_diff(obj, idx, x_new, x_old):
    """``batch_diff`` of one cheap step, from an (m, b) index matrix."""
    return obj.batch_diff(obj.gather(idx[None]), 0, x_new, x_old)


def loop_paired_diff(obj, idx, x_new, x_old):
    """The per-agent reference: two ``batch_grad_mean`` calls per agent."""
    return np.stack([
        batch_grad_mean(obj, i, idx[i], x_new[i]) - batch_grad_mean(obj, i, idx[i], x_old[i])
        for i in range(obj.m)
    ])


def assert_rel_close(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


def a9a_shaped_shards(m=20, n=1628, d=123, nnz=14, seed=0):
    """Per-agent binary CSR rows with ``nnz`` distinct features each, as in a9a, and labels."""
    rng = np.random.default_rng(seed)
    cols = np.sort(np.argsort(rng.random((m * n, d)), axis=1)[:, :nnz], axis=1)
    full = sp.csr_matrix(
        (np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, nnz)), shape=(m * n, d)
    )
    labels = np.where(rng.random(m * n) < 0.5, 1.0, -1.0)
    return [full[i * n:(i + 1) * n] for i in range(m)], [labels[i * n:(i + 1) * n] for i in range(m)]


def a9a_shaped_logistic(m=20, n=1628, **kwargs):
    return LogisticNCObjective(*a9a_shaped_shards(m, n, **kwargs), 1e-4)


def fused_instances():
    dense = make_synthetic_logistic(4, 9, 5, 1e-3, seed=30)
    sparse_obj = LogisticNCObjective(
        [sp.csr_matrix(f) for f in dense.features], dense.labels, dense.lambda_reg
    )
    return {"dense": dense, "csr": sparse_obj, "quadratic": make_quadratic(4, 9, 5, seed=31)}


class TestPairedBatchDiff:
    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_matches_loop_with_repeats(self, kind):
        obj = fused_instances()[kind]
        rng = np.random.default_rng(32)
        idx = np.array([[0, 2, 2, 8], [5, 5, 5, 5], [1, 3, 1, 0], [8, 7, 6, 8]])
        x_new = rng.standard_normal((obj.m, obj.d))
        x_old = rng.standard_normal((obj.m, obj.d))
        assert_rel_close(one_step_diff(obj, idx, x_new, x_old), loop_paired_diff(obj, idx, x_new, x_old))

    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_single_sample_batch(self, kind):
        obj = fused_instances()[kind]
        rng = np.random.default_rng(33)
        idx = rng.integers(0, obj.n, size=(obj.m, 1))
        x_new = rng.standard_normal((obj.m, obj.d))
        x_old = rng.standard_normal((obj.m, obj.d))
        assert_rel_close(one_step_diff(obj, idx, x_new, x_old), loop_paired_diff(obj, idx, x_new, x_old))

    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_single_agent(self, kind):
        if kind == "quadratic":
            obj = make_quadratic(1, 7, 3, seed=34)
        else:
            dense = make_synthetic_logistic(1, 7, 3, 1e-3, seed=34)
            obj = dense if kind == "dense" else LogisticNCObjective(
                [sp.csr_matrix(dense.features[0])], dense.labels, dense.lambda_reg
            )
        rng = np.random.default_rng(35)
        idx = rng.integers(0, obj.n, size=(1, 5))
        x_new = rng.standard_normal((1, obj.d))
        x_old = rng.standard_normal((1, obj.d))
        assert_rel_close(one_step_diff(obj, idx, x_new, x_old), loop_paired_diff(obj, idx, x_new, x_old))

    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_equal_points_give_exact_zero(self, kind):
        obj = fused_instances()[kind]
        x = np.random.default_rng(36).standard_normal((obj.m, obj.d))
        idx = np.zeros((obj.m, 3), dtype=np.int64)
        np.testing.assert_array_equal(one_step_diff(obj, idx, x, x.copy()), 0.0)

    def test_a9a_shape(self):
        obj = a9a_shaped_logistic()
        rng = np.random.default_rng(37)
        idx = rng.integers(0, obj.n, size=(obj.m, 55))
        x_old = 0.1 * rng.standard_normal((obj.m, obj.d))
        x_new = x_old + 0.01 * rng.standard_normal((obj.m, obj.d))
        assert_rel_close(one_step_diff(obj, idx, x_new, x_old), loop_paired_diff(obj, idx, x_new, x_old))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 12),
        d=st.integers(1, 6),
        b=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dense", "csr", "quadratic"]),
    )
    def test_fused_matches_loop_property(self, m, n, d, b, seed, kind):
        if kind == "quadratic":
            obj = make_quadratic(m, n, d, seed=seed, q=2)
        else:
            obj = make_synthetic_logistic(m, n, d, 1e-3, seed=seed)
            if kind == "csr":
                obj = LogisticNCObjective(
                    [sp.csr_matrix(f) for f in obj.features], obj.labels, obj.lambda_reg
                )
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(m, b))
        x_new = rng.standard_normal((m, d))
        x_old = rng.standard_normal((m, d))
        assert_rel_close(one_step_diff(obj, idx, x_new, x_old), loop_paired_diff(obj, idx, x_new, x_old))


class TestQuadraticAgentBlocks:
    """The quadratic cheap step, made agent block by agent block, is bitwise
    ``reference.BatchedMatmulQuadratic``'s products over all agents at once."""

    @staticmethod
    def assert_bitwise(obj, idx, x, agents_per_block=None):
        # Steps c = 0.. of one gathered chunk, from x[c] to x[c + 1].
        ref = BatchedMatmulQuadratic(obj.a, obj.c)
        steps, _, b = idx.shape
        q, d = obj.a.shape[2:]
        budget = objectives._GATHER_BYTES
        if agents_per_block is not None:
            budget = agents_per_block * 8 * b * q * d
        with mock.patch.object(objectives, "_GATHER_BYTES", budget):
            batch, ref_batch = obj.gather(idx), ref.gather(idx)
            for c in range(steps):
                got = obj.batch_diff(batch, c, x[c + 1], x[c])
                assert got.shape == (obj.m, obj.d)
                assert got.tobytes() == ref.batch_diff(ref_batch, c, x[c + 1], x[c]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 9),
        n=st.integers(1, 6),
        q=st.integers(1, 9),
        d=st.integers(1, 12),
        b=st.integers(1, 9),
        steps=st.integers(1, 3),
        agents=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=7, n=5, q=4, d=4, b=3, steps=1, agents=3, seed=0)  # m not a multiple of the block
    @example(m=1, n=4, q=3, d=5, b=2, steps=2, agents=2, seed=1)  # one agent
    @example(m=3, n=2, q=2, d=3, b=7, steps=1, agents=1, seed=2)  # b > n: every agent repeats
    @example(m=4, n=6, q=7, d=9, b=4, steps=3, agents=2, seed=3)  # q != d, c > 0
    @example(m=5, n=3, q=1, d=10, b=5, steps=2, agents=0, seed=4)  # q = 1, a block under one agent
    def test_bitwise_the_batched_matmul(self, m, n, q, d, b, steps, agents, seed):
        obj = make_quadratic(m, n, d, seed=seed, q=q)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(steps, m, b))
        self.assert_bitwise(obj, idx, rng.standard_normal((steps + 1, m, d)), agents)

    @pytest.mark.parametrize("m", [100, 45])
    def test_ring100_shape_at_the_real_budget(self, m):
        # n = 32, q = d = 20, b = 4: 20 agents a block, so m = 45 ends in a short one.
        obj = make_quadratic(m, 32, 20, seed=41)
        rng = np.random.default_rng(42)
        idx = rng.integers(0, obj.n, size=(3, m, 4))
        self.assert_bitwise(obj, idx, rng.standard_normal((4, m, obj.d)))


def held_nbytes(batch):
    """Bytes of the arrays a gathered batch holds: arrays, sparse matrices, tuples of them."""
    if sp.issparse(batch):
        return batch.data.nbytes + batch.indices.nbytes + batch.indptr.nbytes
    if isinstance(batch, np.ndarray):
        return batch.nbytes
    return sum(held_nbytes(part) for part in batch)


class TestBatchNbytes:
    # The optimizer sizes its chunks by batch_nbytes, so it must track what
    # gather holds per step.  Every instance here has the same number of
    # nonzeros in each row, so the estimate is all but exact: the a9a shape
    # holds 198,004 bytes per step at C = 1 against 198,000.
    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic", "a9a"])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_tracks_what_gather_holds(self, kind, steps):
        obj = a9a_shaped_logistic() if kind == "a9a" else fused_instances()[kind]
        b = 55 if kind == "a9a" else 4
        # int32 indices, as the optimizer's _draw makes them
        idx = np.random.default_rng(38).integers(0, obj.n, size=(steps, obj.m, b), dtype=np.int32)
        per_step = held_nbytes(obj.gather(idx)) / steps
        assert per_step == pytest.approx(obj.batch_nbytes(b), rel=0.01)


class TestStackedLayout:
    def test_block_diagonal_layout(self):
        rng = np.random.default_rng(40)
        shards = [rng.standard_normal((5, 4)) for _ in range(3)]
        labels = [np.ones(5), -np.ones(5), np.ones(5)]
        for feats in (shards, [sp.csr_matrix(f) for f in shards]):
            obj = LogisticNCObjective(feats, labels, 1e-3)
            assert obj.n == 5 and len(obj.features) == 3
            assert obj._x.shape == (15, 12) and obj._xt.shape == (12, 15)
            assert np.shares_memory(obj._xt.data, obj._x.data)
            np.testing.assert_array_equal(obj.labels[2], obj._y[10:15])
            assert np.shares_memory(obj.labels[2], obj._y)
            full = obj._x.toarray()
            for i, f in enumerate(shards):
                np.testing.assert_array_equal(full[5 * i:5 * i + 5, 4 * i:4 * i + 4], f)
                np.testing.assert_array_equal(obj.features[i].toarray(), f)
            assert np.count_nonzero(full) == 60

    def test_column_range_guard(self):
        # m*d = 2**31 columns do not fit int32 indices; nothing of that size is built.
        feats = [sp.csr_matrix((1, 2**30)) for _ in range(2)]
        with pytest.raises(ValueError, match=r"m\*d = 2147483648"):
            LogisticNCObjective(feats, [np.ones(1)] * 2, 1e-4)

    def test_construction_peak_memory(self):
        # What the constructor allocates on the way, beyond what the object
        # keeps, stays below half of it: no temporary the size of the data.
        m, n = 4, 8140
        feats, labels = a9a_shaped_shards(m, n)
        tracemalloc.start()
        try:
            obj = LogisticNCObjective(feats, labels, 1e-4)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obj._x.nnz == 14 * m * n
        assert peak <= 1.5 * held

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grad_rows_is_the_local_grad_loop_on_csr(self, m, n, d, density, seed):
        rng = np.random.default_rng(seed)
        feats = [sp.random(n, d, density=density, format="csr", random_state=rng) for _ in range(m)]
        for f in feats:
            f.data = rng.standard_normal(f.nnz)
        labels = [np.where(rng.random(n) < 0.5, 1.0, -1.0) for _ in range(m)]
        obj = LogisticNCObjective(feats, labels, 1e-3)
        x = rng.standard_normal((m, d))
        rows = obj.grad_rows(x)
        for i in range(m):
            np.testing.assert_array_equal(rows[i], local_grad(obj, i, x[i]))
            mean = np.mean([batch_grad_mean(obj, i, [j], x[i]) for j in range(n)], axis=0)
            assert np.linalg.norm(rows[i] - mean) <= 1e-12 * max(1.0, np.linalg.norm(mean))

    @pytest.mark.parametrize("kind", ["dense", "csr", "quadratic"])
    def test_global_value_and_grad_is_mean_of_locals(self, kind):
        obj = fused_instances()[kind]
        x = np.random.default_rng(41).standard_normal(obj.d)
        value, grad = obj.global_value_and_grad(x)
        assert obj.global_value(x) == value
        assert value == pytest.approx(np.mean([local_value(obj, i, x) for i in range(obj.m)]), rel=1e-12)
        assert_rel_close(grad, np.mean([local_grad(obj, i, x) for i in range(obj.m)], axis=0))


def file_like_samples(n_rows, d, seed):
    """A parsed-file stand-in: CSR rows of varying length, every seventh one empty."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, d)) * (rng.random((n_rows, d)) < 0.4)
    dense[::7] = 0.0
    labels = np.where(rng.random(n_rows) < 0.5, 1.0, -1.0)
    return SampleSet(features=sp.csr_matrix(dense), labels=labels)


def assert_same_objective(obj, ref):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(obj._x, name), getattr(ref._x, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert obj._x.shape == ref._x.shape
    assert (obj.m, obj.n, obj.d) == (ref.m, ref.n, ref.d)
    np.testing.assert_array_equal(obj._y, ref._y)
    for got, want in zip(obj.labels, ref.labels, strict=True):
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, obj._y)
    assert obj.smoothness == ref.smoothness


class TestFromRows:
    # from_rows gathers the stacked matrix straight from one CSR matrix; it
    # must be bitwise the list constructor over shard_matrices' copies.
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_bitwise_the_list_constructor(self, m, normalize):
        samples = file_like_samples(31, 6, seed=60 + m)
        part = partition(samples, m, seed=m)
        ref = LogisticNCObjective(*shard_matrices(samples, part, normalize=normalize), 1e-3)
        src = normalize_rows(samples) if normalize else samples
        obj = LogisticNCObjective.from_rows(src.features, src.labels, part.shards, 1e-3)
        assert part.dropped == 31 % m
        assert np.any(np.diff(obj._x.indptr) == 0)
        assert_same_objective(obj, ref)
        rng = np.random.default_rng(61)
        x = rng.standard_normal((m, obj.d))
        np.testing.assert_array_equal(obj.grad_rows(x), ref.grad_rows(x))
        value, grad = obj.global_value_and_grad(x[0])
        ref_value, ref_grad = ref.global_value_and_grad(x[0])
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    def test_repeated_and_unsorted_rows(self):
        samples = file_like_samples(12, 5, seed=62)
        shards = [np.array([3, 3, 0]), np.array([11, 2, 3])]
        ref = LogisticNCObjective([samples.features[s] for s in shards],
                                  [samples.labels[s] for s in shards], 0.0)
        assert_same_objective(
            LogisticNCObjective.from_rows(samples.features, samples.labels, shards, 0.0), ref)

    def test_non_finite_value_names_the_agent(self):
        samples = file_like_samples(6, 3, seed=63)
        f = samples.features
        row = np.flatnonzero(np.diff(f.indptr))[-1]
        f.data[f.indptr[row]] = np.nan
        others = [r for r in range(6) if r != row]
        shards = [np.array(others[:2]), np.array([others[2], row]), np.array(others[3:])]
        for build in (
            lambda: LogisticNCObjective.from_rows(samples.features, samples.labels, shards, 1e-4),
            lambda: LogisticNCObjective(*shard_matrices(samples, Partition(tuple(shards), 0, 0)), 1e-4),
        ):
            with pytest.raises(ValueError, match="agent 1 features are not finite"):
                build()

    def test_bad_label_names_the_agent(self):
        samples = file_like_samples(6, 3, seed=64)
        samples.labels[4] = 0.5
        shards = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        for build in (
            lambda: LogisticNCObjective.from_rows(samples.features, samples.labels, shards, 1e-4),
            lambda: LogisticNCObjective(*shard_matrices(samples, Partition(tuple(shards), 0, 0)), 1e-4),
        ):
            with pytest.raises(ValueError, match=r"agent 2 labels must be exactly \+1 or -1, got 0.5"):
                build()

    def test_column_range_guard(self):
        features = sp.csr_matrix((2, 2**30))
        with pytest.raises(ValueError, match=r"m\*d = 2147483648"):
            LogisticNCObjective.from_rows(features, np.ones(2), [np.array([0]), np.array([1])], 1e-4)

    @pytest.mark.parametrize("shards", [
        [np.array([0, 1]), np.array([2])],
        [np.array([0, -1]), np.array([2, 3])],
        [np.array([0, 1]), np.array([2, 6])],
        [np.array([0.0, 1.0]), np.array([2.0, 3.0])],
    ])
    def test_bad_shards_never_reach_the_kernel(self, shards, monkeypatch):
        samples = file_like_samples(6, 3, seed=65)

        def kernel(*args):
            raise AssertionError("the row-copy kernel was called")

        monkeypatch.setattr(objectives, "csr_row_index", kernel)
        with pytest.raises(ValueError, match="shards must have equal lengths|row indices must"):
            LogisticNCObjective.from_rows(samples.features, samples.labels, shards, 1e-4)


class TestFullPassMemory:
    # A full pass computes in place in one array of m*n margins.  The
    # out-of-place expressions held three such arrays at once in grad_rows
    # and four in global_value_and_grad.
    @staticmethod
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peaks(self):
        obj = a9a_shaped_logistic(m=4, n=8140)
        x = np.random.default_rng(66).standard_normal((obj.m, obj.d)) * 0.1
        margins = 8 * obj.m * obj.n
        assert self.peak(lambda: obj.grad_rows(x)) <= 1.1 * margins
        assert self.peak(lambda: obj.global_value(x[0])) <= 2.1 * margins
        assert self.peak(lambda: obj.global_value_and_grad(x[0])) <= 3.1 * margins

    @pytest.mark.parametrize("kind", ["dense", "csr", "a9a"])
    def test_bitwise_the_expressions(self, kind):
        obj = a9a_shaped_logistic(m=3, n=50) if kind == "a9a" else fused_instances()[kind]
        rng = np.random.default_rng(67)
        for scale in (0.1, 1e3):
            x = rng.standard_normal(obj.d) * scale
            value, grad = obj.global_value_and_grad(x)
            ref_value, ref_grad = stacked_global_value_and_grad(obj, x)
            assert value == ref_value == obj.global_value(x)
            np.testing.assert_array_equal(grad, ref_grad)


def test_the_objective_contract_is_what_the_program_calls():
    # The optimizer and telemetry call these; no single-component oracle.
    assert FiniteSumObjective.__abstractmethods__ == {
        "grad_rows", "batch_diff", "global_value_and_grad", "smoothness", "value_lower_bound",
    }


class TestNonFiniteInput:
    @pytest.mark.parametrize("sparse_input", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_features_rejected_naming_the_agent(self, sparse_input, bad):
        feats = [np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2))]
        feats[1][2, 0] = bad
        if sparse_input:
            feats = [sp.csr_matrix(f) for f in feats]
        with pytest.raises(ValueError, match="agent 1 features are not finite"):
            LogisticNCObjective(feats, [np.ones(3)] * 3, 1e-4)

    def test_labels_rejected_naming_the_agent(self):
        with pytest.raises(ValueError, match="agent 1 labels .* got nan"):
            LogisticNCObjective([np.ones((2, 2))] * 2, [np.ones(2), np.array([1.0, np.nan])], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lambda_rejected(self, bad):
        with pytest.raises(ValueError, match="regularization weight must be finite"):
            LogisticNCObjective([np.ones((1, 2))], [np.array([1.0])], bad)

    @pytest.mark.parametrize("field", ["a", "c"])
    def test_quadratic_rejected_naming_the_agent(self, field):
        a = np.ones((3, 2, 2, 2))
        c = np.zeros((3, 2, 2))
        (a if field == "a" else c)[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match=f"agent 2 has non-finite entries in {field}"):
            QuadraticObjective(a, c)
