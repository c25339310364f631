"""Finite-sum objectives split across agents.

An objective is an m x n grid of component functions: agent i holds n
components and its local function is their average; the global function is
the average of the local ones.  The optimizer touches component gradients
(the costed oracle) in two shapes only: full local gradients, one row per
agent (``grad_rows``), and the cheap-step paired difference of mini-batch
means for all agents at once.  A chunk of C cheap steps shares one row
gather: ``gather`` takes their (C, m, b) indices and ``batch_diff`` computes
step c, bitwise the same for every C.  Exact global values and gradients
exist for diagnostics.

Two concrete instances:

* ``LogisticNCObjective`` -- binary logistic loss with the bounded nonconvex
  regularizer lambda * sum_k x_k^2 / (1 + x_k^2).  The per-agent features,
  dense or sparse, are stored once as one block-diagonal (m*n, m*d) CSR
  matrix: a full pass is one sparse product each way, a chunk of cheap
  steps one scipy row gather, and a step three products over a view of it.
  The sigmoid is numpy's tanh, 0.5 + 0.5 * tanh(t / 2), which cannot
  overflow.
* ``QuadraticObjective`` -- 0.5 * ||A_ij x - c_ij||^2 with a closed-form
  minimizer, used as an oracle in tests; gradients come from Gram sums.
"""

from __future__ import annotations

import abc
import copy
import functools
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._worker import concurrently

__all__ = [
    "FiniteSumObjective",
    "LogisticNCObjective",
    "QuadraticObjective",
    "make_quadratic",
    "make_synthetic_logistic",
]


class FiniteSumObjective(abc.ABC):
    """Average of m local functions, each an average of n components.

    Subclasses set ``m``, ``n``, ``d`` and implement the component oracle,
    the full local gradients of all agents, the gathered paired mini-batch
    difference and the exact global value and gradient.
    """

    m: int
    n: int
    d: int

    @abc.abstractmethod
    def component_value(self, i: int, j: int, x: np.ndarray) -> float:
        """Value of component j on agent i."""

    @abc.abstractmethod
    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        """Gradient of component j on agent i."""

    @abc.abstractmethod
    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        """Local gradients, (m, d): row i is agent i's local gradient at row i of x."""

    def gather(self, idx: np.ndarray) -> object:
        """One batch of what a (C, m, b) index array samples: C steps, m agents.

        By default the batch is the indices, and ``batch_diff`` reads step c's
        components itself.
        """
        return idx

    def batch_nbytes(self, b: int) -> int:
        """About how many bytes ``gather`` holds per step at mini-batch size b."""
        return 8 * self.m * b

    @abc.abstractmethod
    def batch_diff(self, batch: object, c: int, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        """Step c's paired differences, (m, d): row i is the mean, over idx[c, i]
        with multiplicity, of grad f_ij(x_new[i]) - grad f_ij(x_old[i])."""

    @abc.abstractmethod
    def global_value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact global value and gradient at x, from one pass over the data."""

    @property
    @abc.abstractmethod
    def smoothness(self) -> float:
        """Upper bound on the average-smoothness constant of the components."""

    @property
    @abc.abstractmethod
    def value_lower_bound(self) -> float:
        """A lower bound on the global infimum (used to bound f(x0) - f*)."""

    def global_value(self, x: np.ndarray) -> float:
        return self.global_value_and_grad(x)[0]

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        return self.global_value_and_grad(x)[1]


def _regularizer_value(x: np.ndarray, lam: float) -> float:
    return lam * float(np.sum(x * x / (1.0 + x * x)))


def _regularizer_grad(x: np.ndarray, lam: float) -> np.ndarray:
    denom = 1.0 + x * x
    return lam * 2.0 * x / (denom * denom)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # The logistic 1 / (1 + exp(-t)) through tanh: no exp to overflow, no warning.
    return 0.5 + 0.5 * np.tanh(0.5 * t)


def _stable_logistic_loss(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(-z)) without overflow: max(-z, 0) + log1p(exp(-|z|))
    return np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@functools.lru_cache(maxsize=64)
def _empty(fmt: type, shape: tuple[int, int]) -> sp.spmatrix:
    return fmt(shape, dtype=float)


def _sparse_view(fmt: type, shape: tuple[int, int], data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray) -> sp.spmatrix:
    """A ``fmt`` (CSR or CSC) matrix of ``shape`` over the given arrays, without copying them.

    scipy's constructors copy index arrays that view a larger one and check the
    format, which costs more than a cheap step's product; a shallow copy does neither.
    """
    mat = copy.copy(_empty(fmt, shape))
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    return mat


class LogisticNCObjective(FiniteSumObjective):
    """Binary logistic loss with a bounded nonconvex regularizer.

    Component (i, j) is log(1 + exp(-b_ij * a_ij.x)) + lambda * sum_k
    x_k^2/(1 + x_k^2).  Both terms are nonnegative, so the global infimum is
    >= 0.  Features are per-agent (n, d) arrays, dense or sparse; labels are
    per-agent vectors with entries exactly +1 or -1.

    The shards are stored once, at construction, as one block-diagonal CSR
    matrix of shape (m*n, m*d): agent i's rows start at i*n and its columns
    at i*d, so ``x.ravel()`` of stacked iterates meets each agent's rows with
    its own row of x.  ``labels`` are views of one label vector; ``features``
    builds per-agent (n, d) CSR copies on each access.  Evaluation is
    overflow-safe.
    """

    def __init__(
        self,
        features: Sequence[np.ndarray | sp.spmatrix],
        labels: Sequence[np.ndarray],
        lambda_reg: float,
    ) -> None:
        if len(features) == 0 or len(features) != len(labels):
            raise ValueError("need one feature matrix and one label vector per agent")
        if not (math.isfinite(lambda_reg) and lambda_reg >= 0.0):
            raise ValueError(f"regularization weight must be finite and >= 0, got {lambda_reg}")
        feats = [f if sp.issparse(f) else sp.csr_matrix(np.asarray(f, dtype=float)) for f in features]
        labs = [np.asarray(lab, dtype=float).ravel() for lab in labels]
        self.m = len(feats)
        self.n, self.d = feats[0].shape
        self.lambda_reg = float(lambda_reg)
        for i, (f, lab) in enumerate(zip(feats, labs)):
            if f.shape != (self.n, self.d):
                raise ValueError(f"agent {i} features have shape {f.shape}, expected {(self.n, self.d)}")
            if lab.shape != (self.n,):
                raise ValueError(f"agent {i} has {lab.shape[0]} labels for {self.n} samples")
        if self.m * self.d > np.iinfo(np.int32).max:
            raise ValueError(f"m*d = {self.m * self.d} columns exceed scipy's int32 index range")
        x = sp.vstack(feats, format="csr", dtype=float)
        bad_rows = np.searchsorted(x.indptr, np.flatnonzero(~np.isfinite(x.data)), side="right") - 1
        if bad_rows.size:
            raise ValueError(f"agent {bad_rows[0] // self.n} features are not finite")
        self._y = np.concatenate(labs)
        bad = np.flatnonzero(np.abs(self._y) != 1.0)
        if bad.size:
            raise ValueError(
                f"agent {bad[0] // self.n} labels must be exactly +1 or -1, got {self._y[bad[0]]}"
            )
        for i in range(1, self.m):
            x.indices[x.indptr[i * self.n]:x.indptr[(i + 1) * self.n]] += i * self.d
        x.resize((self.m * self.n, self.m * self.d))
        self._x, self._xt = x, x.T
        self._starts = np.arange(self.m) * self.n
        self.labels = [self._y[s:s + self.n] for s in self._starts]
        self._smoothness = self._smoothness_bound()

    @property
    def features(self) -> list[sp.csr_matrix]:
        """Per-agent (n, d) feature matrices: CSR copies of the diagonal blocks."""
        return [self._x[s:s + self.n, i * self.d:(i + 1) * self.d] for i, s in enumerate(self._starts)]

    def _row(self, i: int, j: int) -> np.ndarray:
        x, k = self._x, i * self.n + j
        lo, hi = x.indptr[k], x.indptr[k + 1]
        return np.bincount(x.indices[lo:hi] - i * self.d, x.data[lo:hi], minlength=self.d)

    def component_value(self, i: int, j: int, x: np.ndarray) -> float:
        z = self._y[i * self.n + j] * float(self._row(i, j) @ x)
        return float(_stable_logistic_loss(np.asarray(z))) + _regularizer_value(x, self.lambda_reg)

    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        b = self._y[i * self.n + j]
        a = self._row(i, j)
        z = b * float(a @ x)
        return -b * float(_sigmoid(-z)) * a + _regularizer_grad(x, self.lambda_reg)

    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        z = self._y * (self._x @ x.ravel())
        coef = -(self._y * _sigmoid(-z)) / self.n
        return (self._xt @ coef).reshape(self.m, self.d) + _regularizer_grad(x, self.lambda_reg)

    def gather(self, idx: np.ndarray) -> tuple:
        # Labels, (C, m*b), and the chunk's rows of the stacked matrix: one CSR row gather.
        rows = (idx + self._starts[:, None]).ravel()
        return self._y[rows].reshape(idx.shape[0], -1), self._x[rows]

    def batch_diff(self, batch: tuple, c: int, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        m, d = x_new.shape
        lab, chunk = batch[0][c], batch[1]
        ptr = chunk.indptr[c * lab.size:(c + 1) * lab.size + 1]
        view = (chunk.data[ptr[0]:ptr[-1]], chunk.indices[ptr[0]:ptr[-1]], ptr - ptr[0])
        # Step c's rows, and their transpose as a CSC matrix over the same arrays.
        sc = _sparse_view(sp.csr_matrix, (lab.size, m * d), *view)
        z_new, z_old = lab * (sc @ x_new.ravel()), lab * (sc @ x_old.ravel())
        coef = lab * (_sigmoid(-z_old) - _sigmoid(-z_new)) / (lab.size // m)
        lin = _sparse_view(sp.csc_matrix, (m * d, lab.size), *view) @ coef
        reg = _regularizer_grad(x_new, self.lambda_reg) - _regularizer_grad(x_old, self.lambda_reg)
        return lin.reshape(m, d) + reg

    def batch_nbytes(self, b: int) -> int:
        # A label and an indptr entry per row, 12 bytes (value, column) per nonzero.
        x = self._x
        return math.ceil(self.m * b * (8 + x.indptr.itemsize + 12 * x.nnz / x.shape[0]))

    def _global_value_and_margins(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        z = self._y * (self._x @ np.tile(x, self.m))
        return float(np.mean(_stable_logistic_loss(z))) + _regularizer_value(x, self.lambda_reg), z

    def global_value(self, x: np.ndarray) -> float:
        return self._global_value_and_margins(x)[0]

    def global_value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        value, z = self._global_value_and_margins(x)
        coef = -(self._y * _sigmoid(-z)) / self._y.size
        lin = (self._xt @ coef).reshape(self.m, self.d).sum(axis=0)
        return value, lin + _regularizer_grad(x, self.lambda_reg)

    def _smoothness_bound(self) -> float:
        # Per-component Lipschitz constant: ||a||^2 / 4 from the logistic
        # term (sigmoid curvature peaks at 1/4) plus 2*lambda from the
        # regularizer (|d^2/dx^2 of x^2/(1+x^2)| peaks at 2).  Squared one
        # agent's rows at a time, so that no temporary is the size of the
        # whole data.
        x, n, starts, ones = self._x, self.n, self._starts, np.ones(self._x.shape[1])
        row_sq = np.concatenate([
            _sparse_view(sp.csr_matrix, (n, ones.size), x.data[lo:hi] ** 2, x.indices[lo:hi],
                         x.indptr[s:s + n + 1] - lo) @ ones
            for s, lo, hi in zip(starts, x.indptr[starts], x.indptr[starts + n])
        ])
        ell = (row_sq / 4.0 + 2.0 * self.lambda_reg).reshape(self.m, self.n)
        return float(np.max(np.sqrt(np.mean(ell * ell, axis=1))))

    @property
    def smoothness(self) -> float:
        return self._smoothness

    @property
    def value_lower_bound(self) -> float:
        return 0.0


class QuadraticObjective(FiniteSumObjective):
    """Least-squares components 0.5 * ||A_ij x - c_ij||^2.

    ``a`` is (m, n, q, d) and ``c`` is (m, n, q).  Construction stores each
    agent's sums H_i = sum_j A_ij^T A_ij, (m, d, d), and r_i = sum_j A_ij^T
    c_ij, (m, d): m*d*(d + 1) floats beside the m*n*q*d of ``a``.  Gradients
    are affine in x: (H_i x_i - r_i) / n locally, H_bar x - r_bar globally
    (means over all m*n components), and ``solution()`` solves H_bar x =
    r_bar.  Values stay in residual form, one pass over ``a``: the expanded
    quadratic cancels near the minimizer, where f_bar and f(x0) - f* are read.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray) -> None:
        a = np.asarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        if a.ndim != 4 or c.ndim != 3 or a.shape[:3] != c.shape:
            raise ValueError(f"incompatible shapes a={a.shape}, c={c.shape}")
        for name, arr in (("a", a), ("c", c)):
            bad = np.flatnonzero(~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1))
            if bad.size:
                raise ValueError(f"agent {bad[0]} has non-finite entries in {name}")
        self.a = a
        self.c = c
        self.m, self.n, _, self.d = a.shape
        # Transposed views: matmul reads them in place, with no copy of a.
        at = a.reshape(self.m, -1, self.d).transpose(0, 2, 1)
        self._gram = at @ at.transpose(0, 2, 1)
        self._rhs = (at @ c.reshape(self.m, -1, 1))[:, :, 0]
        self._gram_bar = self._gram.sum(axis=0) / (self.m * self.n)
        self._rhs_bar = self._rhs.sum(axis=0) / (self.m * self.n)
        self._smoothness = self._smoothness_bound()

    def component_value(self, i: int, j: int, x: np.ndarray) -> float:
        r = self.a[i, j] @ x - self.c[i, j]
        return 0.5 * float(r @ r)

    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        return self.a[i, j].T @ (self.a[i, j] @ x - self.c[i, j])

    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        return ((self._gram @ x[:, :, None])[:, :, 0] - self._rhs) / self.n

    def batch_diff(self, batch: np.ndarray, c: int, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        # The batch is the indices: a chunk of (q, d) blocks would outgrow
        # the optimizer's chunk budget.  The residual difference is
        # A_ij (x_new - x_old): c cancels.
        asub = self.a[np.arange(self.m)[:, None], batch[c]]
        m, b, q, d = asub.shape
        r = asub @ (x_new - x_old)[:, None, :, None]
        return (r.reshape(m, 1, b * q) @ asub.reshape(m, b * q, d))[:, 0] / b

    def global_value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        r = self.a.reshape(-1, self.d) @ x - self.c.ravel()
        return 0.5 * float(np.sum(r * r)) / (self.m * self.n), self.global_grad(x)

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        return self._gram_bar @ x - self._rhs_bar

    def _smoothness_bound(self) -> float:
        # Per-component constant ||A_ij||_2^2: one SVD per component, half of
        # the components on the worker thread and half on the caller's.
        blocks = self.a.reshape(self.m * self.n, *self.a.shape[2:])
        half = blocks.shape[0] // 2
        norms = concurrently(lambda: np.linalg.norm(blocks[:half], 2, axis=(-2, -1)),
                             lambda: np.linalg.norm(blocks[half:], 2, axis=(-2, -1)))
        ell = (np.concatenate(norms) ** 2).reshape(self.m, self.n)
        return float(np.max(np.sqrt(np.mean(ell * ell, axis=1))))

    @property
    def smoothness(self) -> float:
        return self._smoothness

    def solution(self) -> np.ndarray:
        """Global minimizer: the solution of H_bar x = r_bar."""
        return np.linalg.solve(self._gram_bar, self._rhs_bar)

    def optimal_value(self) -> float:
        return self.global_value(self.solution())

    @property
    def value_lower_bound(self) -> float:
        return self.optimal_value()


def make_quadratic(m: int, n: int, d: int, seed: int, q: int | None = None) -> QuadraticObjective:
    """Seeded random least-squares objective with well-scaled curvature."""
    if min(m, n, d) < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}, d={d}")
    q = d if q is None else q
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, q, d)) / np.sqrt(d)
    c = rng.standard_normal((m, n, q))
    return QuadraticObjective(a, c)


def make_synthetic_logistic(
    m: int,
    n: int,
    d: int,
    lambda_reg: float,
    seed: int,
    flip_fraction: float = 0.1,
) -> LogisticNCObjective:
    """Gaussian-feature binary classification data from a noisy linear teacher.

    ``flip_fraction`` of the labels are flipped so the problem is not
    separable and keeps curvature at the optimum.
    """
    if min(m, n, d) < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}, d={d}")
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(d)
    teacher /= np.linalg.norm(teacher)
    features, labels = [], []
    for _ in range(m):
        f = rng.standard_normal((n, d))
        lab = np.where(f @ teacher >= 0.0, 1.0, -1.0)
        flips = rng.random(n) < flip_fraction
        lab[flips] = -lab[flips]
        features.append(f)
        labels.append(lab)
    return LogisticNCObjective(features, labels, lambda_reg)
