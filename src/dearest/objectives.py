"""Finite-sum objectives split across agents.

An objective is an m x n grid of component functions: agent i holds n
components and its local function is their average; the global function is
the average of the local ones.  The optimizer calls component gradients (the
costed oracle) only in stacked form, so an objective implements no single
component: full local gradients, one row per agent (``grad_rows``), and the
cheap-step paired difference of mini-batch means for all agents at once,
from one step's (m, b) indices, checked to lie in [0, n) (``batch_diff``).
Exact global values and gradients exist for diagnostics.

Two concrete instances:

* ``LogisticNCObjective`` -- binary logistic loss with the bounded nonconvex
  regularizer lambda * sum_k x_k^2 / (1 + x_k^2).  The per-agent features,
  dense or sparse, are stored once as one block-diagonal (m*n, m*d) CSR
  matrix, which ``from_rows`` gathers straight from the rows of one CSR
  matrix.  A full pass is one sparse product each way, with the margins,
  sigmoid and coefficients computed in place in one array.  Cheap steps
  call scipy's sparse kernels directly, with no matrix object: a step's
  ``csr_row_index`` copies its rows, and two ``csr_matvec`` calls and one
  ``csc_matvec`` read that copy; no scratch is kept between calls.
  These private ``scipy.sparse._sparsetools`` names are imported at load,
  so a scipy without them fails at import.  The sigmoid is numpy's tanh,
  0.5 + 0.5 * tanh(t / 2), which cannot overflow.
* ``QuadraticObjective`` -- 0.5 * ||A_ij x - c_ij||^2 with a closed-form
  minimizer, used as an oracle in tests; gradients come from Gram sums.  A
  cheap step gathers the sampled A_ij one block of agents at a time, sized
  so that its two products read the block from cache.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index

from ._worker import concurrently

# About how many bytes of A_ij blocks one agent block of a quadratic cheap
# step gathers: small enough for its two products to read them from cache.
_GATHER_BYTES = 2**18

__all__ = [
    "FiniteSumObjective",
    "LogisticNCObjective",
    "QuadraticObjective",
    "make_quadratic",
    "make_synthetic_logistic",
]


class FiniteSumObjective(abc.ABC):
    """Average of m local functions, each an average of n components.

    Subclasses set ``m``, ``n``, ``d`` and implement the abstract methods.
    """

    m: int
    n: int
    d: int

    @abc.abstractmethod
    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        """Local gradients, (m, d): row i is agent i's local gradient at row i of x."""

    @abc.abstractmethod
    def batch_diff(self, idx: np.ndarray, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        """One cheap step's paired differences, (m, d), from its (m, b) indices:
        row i is the mean, over idx[i] with multiplicity, of grad f_ij(x_new[i])
        - grad f_ij(x_old[i]).  Indices outside [0, n) raise ValueError."""

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
    # lam * 2.0 * x / (denom * denom) with denom = 1.0 + x * x, the same
    # operations in the same order, into two arrays.
    denom = np.multiply(x, x)
    np.add(1.0, denom, out=denom)
    np.multiply(denom, denom, out=denom)
    out = np.multiply(lam * 2.0, x)
    return np.divide(out, denom, out=out)


def _sigmoid(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The logistic 1 / (1 + exp(-t)) through tanh: no exp to overflow, no
    # warning.  0.5 + 0.5 * tanh(0.5 * t), one operation at a time into
    # ``out``, which may be t itself.
    out = np.multiply(0.5, t, out=np.empty(np.shape(t)) if out is None else out)
    np.tanh(out, out=out)
    np.multiply(0.5, out, out=out)
    return np.add(0.5, out, out=out)


def _stable_logistic_loss(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # log(1 + exp(-z)) without overflow: max(-z, 0) + log1p(exp(-|z|)), one
    # operation at a time, with one temporary besides ``out``, which may be
    # z itself.
    head = np.negative(z)
    np.maximum(head, 0.0, out=head)
    tail = np.abs(z, out=out)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return np.add(head, tail, out=tail)


def _check_indices(idx: np.ndarray, n: int, what: str = "sample") -> None:
    # Viewed unsigned, a negative index is huge: one max checks [0, n).
    if idx.dtype.kind not in "iu" or idx.size and idx.view(f"u{idx.itemsize}").max() >= n:
        raise ValueError(f"{what} indices must be integers in [0, {n})")


def _average_smoothness(ell: np.ndarray) -> float:
    # L = max_i sqrt(mean_j ell_ij^2) from (m, n) per-component constants,
    # squared in place.
    np.multiply(ell, ell, out=ell)
    return float(np.max(np.sqrt(np.mean(ell, axis=1))))


def _copy_rows(x: sp.csr_matrix, row_nnz: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    # The CSR arrays (indptr, indices, data) of rows ``rows`` of x, in order,
    # from the kernel under scipy's row indexing, which does not bounds-check
    # them.  Fancy indexing is fastest with intp rows; the kernel takes x's
    # index type.
    indptr = np.zeros(rows.size + 1, dtype=x.indptr.dtype)
    np.cumsum(row_nnz[rows], out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=x.indices.dtype), np.empty(indptr[-1])
    csr_row_index(rows.size, rows.astype(x.indices.dtype, copy=False), x.indptr, x.indices,
                  x.data, indices, data)
    return indptr, indices, data


class LogisticNCObjective(FiniteSumObjective):
    """Binary logistic loss with a bounded nonconvex regularizer.

    Component (i, j) is log(1 + exp(-b_ij * a_ij.x)) + lambda * sum_k
    x_k^2/(1 + x_k^2).  Both terms are nonnegative, so the global infimum is
    >= 0.  Features are per-agent (n, d) arrays, dense or sparse; labels are
    per-agent vectors with entries exactly +1 or -1.

    The shards are stored once, at construction, as one block-diagonal CSR
    matrix of shape (m*n, m*d): agent i's rows start at i*n and its columns
    at i*d, so ``x.ravel()`` of stacked iterates meets each agent's rows with
    its own row of x; ``from_rows`` gathers it from one CSR matrix.
    ``labels`` are views of one label vector; ``features`` builds per-agent
    (n, d) CSR copies on each access.  Evaluation is overflow-safe.
    ``batch_diff`` reuses the regularizer gradient of its last x_new when
    that array comes back as x_old: do not change it in place.
    """

    def __init__(
        self,
        features: Sequence[np.ndarray | sp.spmatrix],
        labels: Sequence[np.ndarray],
        lambda_reg: float,
    ) -> None:
        if len(features) == 0 or len(features) != len(labels):
            raise ValueError("need one feature matrix and one label vector per agent")
        feats = [f if sp.issparse(f) else sp.csr_matrix(np.asarray(f, dtype=float)) for f in features]
        labs = [np.asarray(lab, dtype=float).ravel() for lab in labels]
        n, d = feats[0].shape
        for i, (f, lab) in enumerate(zip(feats, labs)):
            if f.shape != (n, d):
                raise ValueError(f"agent {i} features have shape {f.shape}, expected {(n, d)}")
            if lab.shape != (n,):
                raise ValueError(f"agent {i} has {lab.shape[0]} labels for {n} samples")
        self._store(sp.vstack(feats, format="csr", dtype=float), np.concatenate(labs),
                    len(feats), lambda_reg)

    @classmethod
    def from_rows(
        cls,
        features: sp.spmatrix,
        labels: np.ndarray,
        shards: Sequence[np.ndarray],
        lambda_reg: float,
    ) -> LogisticNCObjective:
        """Agent i holds rows ``shards[i]`` of the CSR matrix ``features`` and their labels.

        Bitwise the objective that the list constructor builds from the
        per-agent matrices ``features[shards[i]]``, without them: one
        ``csr_row_index`` call copies all m*n rows, in shard order, straight
        into the stacked arrays.  The kernel does not bounds-check, so the
        shard lengths and row indices are checked first.
        """
        features = sp.csr_matrix(features, dtype=float)
        labels = np.asarray(labels, dtype=float).ravel()
        n_rows, d = features.shape
        if len(shards) == 0:
            raise ValueError("need at least one shard")
        if labels.shape != (n_rows,):
            raise ValueError(f"{labels.size} labels for {n_rows} rows")
        n = len(shards[0])
        if any(len(s) != n for s in shards):
            raise ValueError(f"shards must have equal lengths, got {sorted({len(s) for s in shards})}")
        rows = np.concatenate([np.asarray(s) for s in shards])
        _check_indices(rows, n_rows, "row")
        row_nnz = np.diff(features.indptr)
        if row_nnz[rows].sum(dtype=np.int64) > np.iinfo(features.indices.dtype).max:
            raise ValueError(f"the shards hold more nonzeros than {features.indices.dtype} can index")
        indptr, indices, data = _copy_rows(features, row_nnz, rows)
        y = labels[rows]
        del rows, row_nnz  # not held while _store runs
        obj = cls.__new__(cls)
        obj._store(sp.csr_matrix((data, indices, indptr), shape=(y.size, d)), y, len(shards),
                   lambda_reg)
        return obj

    def _store(self, x: sp.csr_matrix, y: np.ndarray, m: int, lambda_reg: float) -> None:
        # x holds the m agents' (n, d) shards one above the other and y their
        # labels.  Checks them, then shifts agent i's columns by i*d in place.
        if not (math.isfinite(lambda_reg) and lambda_reg >= 0.0):
            raise ValueError(f"regularization weight must be finite and >= 0, got {lambda_reg}")
        self.m = m
        self.n, self.d = x.shape[0] // m, x.shape[1]
        self.lambda_reg = float(lambda_reg)
        if self.m * self.d > np.iinfo(np.int32).max:
            raise ValueError(f"m*d = {self.m * self.d} columns exceed scipy's int32 index range")
        if not np.isfinite(x.data).all():
            bad = np.searchsorted(x.indptr, np.argmin(np.isfinite(x.data)), side="right") - 1
            raise ValueError(f"agent {bad // self.n} features are not finite")
        self._y = y
        bad = np.flatnonzero(np.abs(self._y) != 1.0)
        if bad.size:
            raise ValueError(
                f"agent {bad[0] // self.n} labels must be exactly +1 or -1, got {self._y[bad[0]]}"
            )
        for i in range(1, self.m):
            x.indices[x.indptr[i * self.n]:x.indptr[(i + 1) * self.n]] += i * self.d
        x.resize((self.m * self.n, self.m * self.d))
        self._x, self._xt = x, x.T
        self._row_nnz = np.diff(x.indptr)
        self._starts = np.arange(self.m) * self.n
        self.labels = [self._y[s:s + self.n] for s in self._starts]
        self._smoothness = self._smoothness_bound()
        self._last_reg: tuple = (None, None)  # batch_diff's last x_new, its regularizer grad

    @property
    def features(self) -> list[sp.csr_matrix]:
        """Per-agent (n, d) feature matrices: CSR copies of the diagonal blocks."""
        return [self._x[s:s + self.n, i * self.d:(i + 1) * self.d] for i, s in enumerate(self._starts)]

    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        coef = self._coefficients(self._margins_at(x.ravel()), self.n)
        return (self._xt @ coef).reshape(self.m, self.d) + _regularizer_grad(x, self.lambda_reg)

    def batch_diff(self, idx: np.ndarray, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        # One copy of the step's rows of the stacked matrix: CSR margins, the
        # coefficients in place in them, CSC transpose.
        _check_indices(idx, self.n)
        picked = (idx + self._starts[:, None]).ravel()
        lab = self._y[picked]
        ptr, indices, data = _copy_rows(self._x, self._row_nnz, picked)
        rows = lab.size
        z = np.zeros((2, rows))
        csr_matvec(rows, x_new.size, ptr, indices, data, x_new.ravel(), z[0])
        csr_matvec(rows, x_old.size, ptr, indices, data, x_old.ravel(), z[1])
        np.multiply(lab, z, out=z)
        _sigmoid(np.negative(z, out=z), out=z)
        coef = np.subtract(z[1], z[0], out=z[1])
        np.multiply(lab, coef, out=coef)
        np.divide(coef, rows // len(x_new), out=coef)
        lin = np.zeros(x_new.size)
        csc_matvec(lin.size, rows, ptr, indices, data, coef, lin)
        last_x, last_reg = self._last_reg
        reg_new = _regularizer_grad(x_new, self.lambda_reg)
        reg_old = last_reg if x_old is last_x else _regularizer_grad(x_old, self.lambda_reg)
        self._last_reg = (x_new, reg_new)
        lin += (reg_new - reg_old).ravel()
        return lin.reshape(x_new.shape)

    # A full pass holds one array of m*n margins and computes in place in
    # it: y * (X v), then the coefficients -(y * sigmoid(-z)) / count, one
    # operation at a time.  Passes may run on two threads at once, so the
    # array is not kept between calls.
    def _margins_at(self, v: np.ndarray) -> np.ndarray:
        z = self._x @ v
        return np.multiply(self._y, z, out=z)

    def _coefficients(self, z: np.ndarray, count: int) -> np.ndarray:
        _sigmoid(np.negative(z, out=z), out=z)
        np.multiply(self._y, z, out=z)
        np.negative(z, out=z)
        return np.divide(z, count, out=z)

    def _value_from_margins(self, x: np.ndarray, z: np.ndarray, out: np.ndarray | None) -> float:
        loss = float(np.mean(_stable_logistic_loss(z, out=out)))
        return loss + _regularizer_value(x, self.lambda_reg)

    def global_value(self, x: np.ndarray) -> float:
        z = self._margins_at(np.tile(x, self.m))
        return self._value_from_margins(x, z, out=z)

    def global_value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        z = self._margins_at(np.tile(x, self.m))
        value = self._value_from_margins(x, z, out=None)
        coef = self._coefficients(z, self._y.size)
        lin = (self._xt @ coef).reshape(self.m, self.d).sum(axis=0)
        return value, lin + _regularizer_grad(x, self.lambda_reg)

    def _smoothness_bound(self) -> float:
        # Per-component Lipschitz constant: ||a||^2 / 4 from the logistic
        # term (sigmoid curvature peaks at 1/4) plus 2*lambda from the
        # regularizer (|d^2/dx^2 of x^2/(1+x^2)| peaks at 2).  Squared in
        # row slices of about 2**13 squares (64 KiB); the rest in place.
        x, ones = self._x, np.ones(self._x.shape[1])
        row_sq = np.zeros(x.shape[0])
        rows = max(1, 2**13 * x.shape[0] // (x.nnz + 1))
        for lo in range(0, x.shape[0], rows):
            ptr, out = x.indptr[lo:lo + rows + 1], row_sq[lo:lo + rows]
            csr_matvec(out.size, ones.size, ptr - ptr[0], x.indices[ptr[0]:ptr[-1]],
                       x.data[ptr[0]:ptr[-1]] ** 2, ones, out)
        ell = np.add(np.divide(row_sq, 4.0, out=row_sq), 2.0 * self.lambda_reg, out=row_sq)
        return _average_smoothness(ell.reshape(self.m, self.n))

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
        a = np.ascontiguousarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        if a.ndim != 4 or c.ndim != 3 or a.shape[:3] != c.shape:
            raise ValueError(f"incompatible shapes a={a.shape}, c={c.shape}")
        for name, arr in (("a", a), ("c", c)):
            bad = np.flatnonzero(~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1))
            if bad.size:
                raise ValueError(f"agent {bad[0]} has non-finite entries in {name}")
        self.a = a
        self.c = c
        self.m, self.n, q, self.d = a.shape
        self._flat = a.reshape(self.m * self.n, q * self.d)  # a view, one row per A_ij
        self._starts = np.arange(self.m) * self.n
        # Transposed views: matmul reads them in place, with no copy of a.
        at = a.reshape(self.m, -1, self.d).transpose(0, 2, 1)
        self._gram = at @ at.transpose(0, 2, 1)
        self._rhs = (at @ c.reshape(self.m, -1, 1))[:, :, 0]
        self._gram_bar = self._gram.sum(axis=0) / (self.m * self.n)
        self._rhs_bar = self._rhs.sum(axis=0) / (self.m * self.n)
        self._smoothness = self._smoothness_bound()

    def grad_rows(self, x: np.ndarray) -> np.ndarray:
        return ((self._gram @ x[:, :, None])[:, :, 0] - self._rhs) / self.n

    def batch_diff(self, idx: np.ndarray, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        # The residual difference is A_ij (x_new - x_old): c_ij cancels.  Per
        # block of agents, one gather, r = A_ij dx_i per sample, then
        # r_i^T A_i,sub per agent.  dx is repeated per sample: matmul is
        # slower when it broadcasts.
        _check_indices(idx, self.n)
        rows = idx + self._starts[:, None]
        b, (q, d) = rows.shape[1], self.a.shape[2:]
        agents = max(1, _GATHER_BYTES // (8 * b * q * d))
        dx = np.repeat(x_new - x_old, b, axis=0)[:, :, None]
        out = np.empty((self.m, 1, d))
        for lo in range(0, self.m, agents):
            hi = min(lo + agents, self.m)
            asub = self._flat.take(rows[lo:hi].ravel(), axis=0).reshape((hi - lo) * b, q, d)
            r = asub @ dx[lo * b:hi * b]
            np.matmul(r.reshape(hi - lo, 1, b * q), asub.reshape(hi - lo, b * q, d), out=out[lo:hi])
        out /= b
        return out[:, 0]

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
        return _average_smoothness((np.concatenate(norms) ** 2).reshape(self.m, self.n))

    @property
    def smoothness(self) -> float:
        return self._smoothness

    def solution(self) -> np.ndarray:
        """Global minimizer: the solution of H_bar x = r_bar."""
        return np.linalg.solve(self._gram_bar, self._rhs_bar)

    @property
    def value_lower_bound(self) -> float:
        """The global minimum, attained at ``solution()``."""
        return self.global_value(self.solution())


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

    ``flip_fraction`` of the labels, a fraction in [0, 1], are flipped so the
    problem is not separable and keeps curvature at the optimum.
    """
    if min(m, n, d) < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}, d={d}")
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
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
