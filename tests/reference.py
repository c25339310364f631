"""Plain reference versions of what ``dearest`` computes in stacked form.

Each function here is written per agent, per sample or per gossip round, as
directly from the definitions as possible, so that the fast paths in
``src/`` can be checked against it:

* ``local_value``, ``local_grad`` and ``batch_grad_mean`` -- one agent's
  local value, local gradient and mini-batch mean gradient, for both
  objectives;
* ``global_grad`` -- the quadratic's global gradient from the residuals of
  all components, where ``QuadraticObjective`` uses its stored Gram sums;
* ``BincountLogistic`` -- ``LogisticNCObjective`` with the numpy cheap-step
  kernel (index arithmetic and ``np.bincount``) that scipy's CSR products
  replaced;
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

import math

import numpy as np

from dearest.mixing import chebyshev_momentum
from dearest.objectives import LogisticNCObjective, QuadraticObjective, _sigmoid


def _regularizer_value(x, lam):
    return lam * float(np.sum(x * x / (1.0 + x * x)))


def _regularizer_grad(x, lam):
    return lam * 2.0 * x / (1.0 + x * x) ** 2


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

    ``gather`` spells out every gathered nonzero: its value, its column in
    the stacked layout and its row within the step.  ``batch_diff`` then
    forms the step's margins and its transposed product with three
    ``np.bincount`` calls.  The library's CSR and CSC products add the same
    terms in the same order, so the two are bitwise equal.
    """

    def gather(self, idx):
        steps, m, b = idx.shape
        rows = (idx + self._starts[:, None]).ravel()
        lab = self._y[rows].reshape(steps, m * b)
        x = self._x
        counts = x.indptr[rows + 1] - x.indptr[rows]
        ends = np.cumsum(counts)
        pos = np.repeat(x.indptr[rows] - ends + counts, counts)
        pos += np.arange(pos.size)
        row = np.repeat(np.arange(rows.size) % (m * b), counts)
        flat = x.indices[pos].astype(np.intp, copy=False)
        return lab, x.data[pos], flat, row, np.concatenate(([0], ends[m * b - 1::m * b]))

    def batch_diff(self, batch, c, x_new, x_old):
        m, d = x_new.shape
        lab = batch[0][c]
        b = lab.size // m
        lo, hi = batch[4][c], batch[4][c + 1]
        data, flat, row = batch[1][lo:hi], batch[2][lo:hi], batch[3][lo:hi]
        z_new = lab * np.bincount(row, data * x_new.ravel()[flat], minlength=m * b)
        z_old = lab * np.bincount(row, data * x_old.ravel()[flat], minlength=m * b)
        coef = lab * (_sigmoid(-z_old) - _sigmoid(-z_new)) / b
        lin = np.bincount(flat, data * coef[row], minlength=m * d)
        return lin.reshape(m, d) + (_regularizer_grad(x_new, self.lambda_reg)
                                    - _regularizer_grad(x_old, self.lambda_reg))

    def batch_nbytes(self, b):
        # A label per row and 24 bytes per nonzero.
        return math.ceil(self.m * b * (8 + 24 * self._x.nnz / self._x.shape[0]))


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
