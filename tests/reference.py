"""Plain reference versions of what ``dearest`` computes in stacked form.

Each function here is written per agent, per sample or per gossip round, as
directly from the definitions as possible, so that the fast paths in
``src/`` can be checked against it:

* ``component_value``, ``local_value``, ``local_grad`` and
  ``batch_grad_mean`` -- one component's value, one agent's local value,
  local gradient and mini-batch mean gradient, for both objectives, from the
  stored arrays (``a`` and ``c``, ``features`` and ``labels``).  The library
  has no single-component oracle: component j's gradient is
  ``batch_grad_mean(obj, i, [j], x)``;
* ``global_grad`` -- the quadratic's global gradient from the residuals of
  all components, where ``QuadraticObjective`` uses its stored Gram sums;
* ``stacked_global_value_and_grad`` -- the logistic global value and
  gradient as expressions over the stacked matrix, each making a new array,
  where the library computes in place in one array of margins;
* ``BincountLogistic`` -- ``LogisticNCObjective`` with the numpy cheap-step
  kernel (index arithmetic and ``np.bincount``) that scipy's CSR products
  replaced;
* ``ScipyOperatorLogistic`` -- ``LogisticNCObjective`` with its cheap step
  written with scipy's sparse-matrix operators (row indexing and ``@``)
  where the library calls their kernels directly, and ``smoothness_bound``,
  the logistic smoothness bound from the same operators;
* ``BatchedMatmulQuadratic`` -- ``QuadraticObjective`` whose cheap step
  gathers every agent's blocks at once and makes one 4-D product and one
  batched product over them, where the library goes by agent blocks;
* ``_regularizer_grad`` -- the logistic regularizer's gradient as one
  expression, where the library computes it in place;
* ``mixing_polynomial`` -- one mixing polynomial P_k(W), its eigenvalue
  recursion run up to k alone;
* ``reference_fastmix`` -- the accelerated-gossip momentum recursion, round
  by round;
* ``reference_run`` -- a whole DEAREST run: per agent and round by round,
  with scalar flag draws and ``size=b`` index draws from the same streams as
  ``dearest.optimizer``.

The logistic functions share the library's ``_sigmoid``, so that the
layout and kernel checks can compare bitwise; ``tests/test_objectives.py``
checks that sigmoid against scipy's ``expit``.  Only tests import this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from dearest.mixing import chebyshev_momentum
from dearest.objectives import LogisticNCObjective, QuadraticObjective, _sigmoid


def _regularizer_value(x, lam):
    return lam * float(np.sum(x * x / (1.0 + x * x)))


def _regularizer_grad(x, lam):
    """Gradient of lam * sum_k x_k^2 / (1 + x_k^2)."""
    return lam * 2.0 * x / (1.0 + x * x) ** 2


def component_value(obj, i, j, x):
    """Value of component j on agent i."""
    if isinstance(obj, QuadraticObjective):
        r = obj.a[i, j] @ x - obj.c[i, j]
        return 0.5 * float(r @ r)
    z = obj.labels[i][j] * (obj.features[i][j] @ x)[0]
    return float(np.logaddexp(0.0, -z)) + _regularizer_value(x, obj.lambda_reg)


def local_value(obj, i, x):
    """Agent i's local function: the mean of its n component values."""
    if isinstance(obj, QuadraticObjective):
        r = np.einsum("jqd,d->jq", obj.a[i], x) - obj.c[i]
        return 0.5 * float(np.sum(r * r)) / obj.n
    z = obj.labels[i] * np.asarray(obj.features[i] @ x).ravel()
    return float(np.mean(np.logaddexp(0.0, -z))) + _regularizer_value(x, obj.lambda_reg)


def local_grad(obj, i, x):
    """Agent i's local gradient: the mean of its n component gradients."""
    if isinstance(obj, QuadraticObjective):
        r = np.einsum("jqd,d->jq", obj.a[i], x) - obj.c[i]
        return np.einsum("jqd,jq->d", obj.a[i], r) / obj.n
    f, lab = obj.features[i], obj.labels[i]
    z = lab * np.asarray(f @ x).ravel()
    coef = -(lab * _sigmoid(-z)) / obj.n
    return np.asarray(f.T @ coef).ravel() + _regularizer_grad(x, obj.lambda_reg)


def global_grad(obj, x):
    """Global gradient of a ``QuadraticObjective``: sum_ij A_ij^T (A_ij x - c_ij) / (m n)."""
    r = np.einsum("ijqd,d->ijq", obj.a, x) - obj.c
    return np.einsum("ijqd,ijq->d", obj.a, r) / (obj.m * obj.n)


def stacked_global_value_and_grad(obj, x):
    """``LogisticNCObjective.global_value_and_grad``, one new array per operation."""
    z = obj._y * (obj._x @ np.tile(x, obj.m))
    loss = np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    coef = -(obj._y * _sigmoid(-z)) / obj._y.size
    lin = (obj._xt @ coef).reshape(obj.m, obj.d).sum(axis=0)
    value = float(np.mean(loss)) + _regularizer_value(x, obj.lambda_reg)
    return value, lin + _regularizer_grad(x, obj.lambda_reg)


def batch_grad_mean(obj, i, indices, x):
    """Mean component gradient of agent i over ``indices``, with multiplicity."""
    indices = np.asarray(indices, dtype=np.intp)
    if isinstance(obj, QuadraticObjective):
        asub = obj.a[i, indices]
        r = np.einsum("jqd,d->jq", asub, x) - obj.c[i, indices]
        return np.einsum("jqd,jq->d", asub, r) / len(indices)
    f = obj.features[i][indices]
    lab = obj.labels[i][indices]
    z = lab * np.asarray(f @ x).ravel()
    coef = -(lab * _sigmoid(-z)) / len(indices)
    return np.asarray(f.T @ coef).ravel() + _regularizer_grad(x, obj.lambda_reg)


class BincountLogistic(LogisticNCObjective):
    """``LogisticNCObjective`` whose cheap steps use numpy index arithmetic.

    ``batch_diff`` spells out every nonzero of the step's rows: its value,
    its column in the stacked layout and its row within the step.  It then
    forms the step's margins and its transposed product with three
    ``np.bincount`` calls.  The library's CSR and CSC products add the same
    terms in the same order, so the two are bitwise equal.
    """

    def batch_diff(self, idx, x_new, x_old):
        m, d = x_new.shape
        rows = (idx + self._starts[:, None]).ravel()
        lab = self._y[rows]
        x = self._x
        counts = x.indptr[rows + 1] - x.indptr[rows]
        pos = np.repeat(x.indptr[rows] - np.cumsum(counts) + counts, counts)
        pos += np.arange(pos.size)
        row = np.repeat(np.arange(rows.size), counts)
        data, flat = x.data[pos], x.indices[pos].astype(np.intp, copy=False)
        z_new = lab * np.bincount(row, data * x_new.ravel()[flat], minlength=rows.size)
        z_old = lab * np.bincount(row, data * x_old.ravel()[flat], minlength=rows.size)
        coef = lab * (_sigmoid(-z_old) - _sigmoid(-z_new)) / idx.shape[1]
        lin = np.bincount(flat, data * coef[row], minlength=m * d)
        return lin.reshape(m, d) + (_regularizer_grad(x_new, self.lambda_reg)
                                    - _regularizer_grad(x_old, self.lambda_reg))


class ScipyOperatorLogistic(LogisticNCObjective):
    """``LogisticNCObjective`` whose cheap steps use scipy's matrix operators.

    ``batch_diff`` indexes the stacked CSR matrix by the step's rows, wraps
    their arrays in a CSC matrix for the transpose and multiplies with
    ``@``, and computes both regularizer gradients every call.  Row indexing
    and ``@`` run the same scipy kernels on the same arrays as the library,
    so the two are bitwise equal.
    """

    def batch_diff(self, idx, x_new, x_old):
        m, d = x_new.shape
        rows = (idx + self._starts[:, None]).ravel()
        lab, sub = self._y[rows], self._x[rows]
        z_new, z_old = lab * (sub @ x_new.ravel()), lab * (sub @ x_old.ravel())
        coef = lab * (_sigmoid(-z_old) - _sigmoid(-z_new)) / idx.shape[1]
        lin = sp.csc_matrix((sub.data, sub.indices, sub.indptr), shape=(m * d, lab.size)) @ coef
        return lin.reshape(m, d) + (_regularizer_grad(x_new, self.lambda_reg)
                                    - _regularizer_grad(x_old, self.lambda_reg))


class BatchedMatmulQuadratic(QuadraticObjective):
    """``QuadraticObjective`` whose cheap step makes one gather and two products.

    ``batch_diff`` gathers all m agents' (b, q, d) blocks at once, forms the
    residual differences with one 4-D product, and each agent's transposed
    product with one batched product.  The library makes the same products
    agent block by agent block, so the two are bitwise equal.
    """

    def batch_diff(self, idx, x_new, x_old):
        asub = self.a[np.arange(self.m)[:, None], idx]
        m, b, q, d = asub.shape
        r = asub @ (x_new - x_old)[:, None, :, None]
        return (r.reshape(m, 1, b * q) @ asub.reshape(m, b * q, d))[:, 0] / b


def smoothness_bound(obj):
    """A ``LogisticNCObjective``'s smoothness bound, row norms from scipy's ``@``.

    Per agent, the squared entries of its rows of the stacked matrix times a
    vector of ones give the rows' squared norms.
    """
    x, n = obj._x, obj.n
    ones = np.ones(x.shape[1])
    row_sq = []
    for s in range(0, obj.m * n, n):
        lo, hi = x.indptr[s], x.indptr[s + n]
        rows = sp.csr_matrix((x.data[lo:hi] ** 2, x.indices[lo:hi], x.indptr[s:s + n + 1] - lo),
                             shape=(n, ones.size))
        row_sq.append(rows @ ones)
    ell = (np.concatenate(row_sq) / 4.0 + 2.0 * obj.lambda_reg).reshape(obj.m, n)
    return float(np.max(np.sqrt(np.mean(ell * ell, axis=1))))


def mixing_polynomial(w, k):
    """P_k(W) = V diag(p_k(lambda)) V^T, with p_k(1) set to exactly 1."""
    eta_u = chebyshev_momentum(w.lambda2)
    lam, v = w.spectrum
    prev = cur = np.ones_like(lam)
    for _ in range(k):
        prev, cur = cur, (1.0 + eta_u) * lam * cur - eta_u * prev
    cur = cur.copy()
    cur[-1] = 1.0
    return (v * cur) @ v.T


def reference_fastmix(u0, w, k):
    """k rounds of u(j+1) = (1 + eta_u) W u(j) - eta_u u(j-1), from u(-1) = u(0) = u0."""
    eta_u = chebyshev_momentum(w.lambda2)
    prev = cur = np.asarray(u0, dtype=float)
    for _ in range(k):
        prev, cur = cur, (1.0 + eta_u) * (w.w @ cur) - eta_u * prev
    return cur.copy()


@dataclass
class ReferenceRun:
    """Final state, output draw, refresh flags, counters and streams of a run."""

    x: np.ndarray
    g: np.ndarray
    s: np.ndarray
    x_out: np.ndarray
    flags: list
    ifo_count: int
    raw_grad_evals: int
    comm_rounds: int
    comm_rounds_all_calls: int
    shared_rng: np.random.Generator
    agent_rngs: list


def reference_run(obj, w, cfg, x0_bar):
    """DEAREST for cfg.t_max iterations, one agent and one gossip round at a time.

    Every iteration draws its flag with one scalar ``random()`` from the
    shared stream; on a cheap step each agent, in order, draws b indices with
    one ``integers(0, n, size=b)`` call from its own stream.  The output is
    the iterate row at the (t, i) pair that ``cfg.output_seed`` draws
    uniformly from the m * t_max pairs.
    """
    m, n, b = obj.m, obj.n, cfg.b
    shared = np.random.default_rng(cfg.shared_seed)
    agents = [np.random.default_rng(s) for s in cfg.agent_seeds]
    t_out, i_out = divmod(int(np.random.default_rng(cfg.output_seed).integers(m * cfg.t_max)), m)
    x = np.tile(np.asarray(x0_bar, dtype=float), (m, 1))
    g = np.stack([local_grad(obj, i, x[i]) for i in range(m)])
    s = reference_fastmix(g, w, cfg.k_in)
    ifo = raw = m * n
    comm = comm_all = cfg.k_in
    flags, x_out = [], None
    for t in range(cfg.t_max):
        if t == t_out:
            x_out = x[i_out].copy()
        y = 1 if shared.random() < cfg.p else 0
        k = cfg.big_k if y else cfg.hat_k
        x_new = reference_fastmix(x - cfg.eta * s, w, k)
        g_new = np.empty_like(g)
        for i in range(m):
            if y:
                g_new[i] = local_grad(obj, i, x_new[i])
            else:
                idx = agents[i].integers(0, n, size=b)
                g_new[i] = g[i] + (batch_grad_mean(obj, i, idx, x_new[i])
                                   - batch_grad_mean(obj, i, idx, x[i]))
        s = reference_fastmix(s + (g_new - g), w, k)
        x, g = x_new, g_new
        flags.append(y)
        ifo += m * (n if y else b)
        raw += m * (n if y else 2 * b)
        comm += k
        comm_all += 2 * k
    return ReferenceRun(x, g, s, x_out, flags, ifo, raw, comm, comm_all, shared, agents)
