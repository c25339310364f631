"""Chebyshev-accelerated gossip averaging (multi-consensus).

One communication round multiplies the aggregate matrix by the gossip matrix
W; plain repetition contracts the consensus residual by roughly lambda2(W)
per round.  Adding a heavy-ball momentum term turns k rounds into a degree-k
polynomial in W whose asymptotic contraction factor is
1 - sqrt(1 - lambda2(W)) per round, a quadratic improvement when the
spectral gap is small.  Every iterate preserves the network-wide column
means exactly (up to float rounding) because 1^T W = 1^T.

Note the per-round factor above is asymptotic: for small k the momentum
recursion transiently overshoots it (the critical mode decays like
k * sqrt(eta_u)^k).  Two all-k bounds hold and the tests pin both down:

* the FastMix lemma (Ye, Luo, Zhou & Zhang 2020, Prop. 1) that DEAREST uses,
  ||u(k) - 1 u_bar|| <= sqrt(14) (1 - sqrt(1 - lambda2))^k ||u0 - 1 u_bar||;
* the transient envelope (1 + k * (1 + sqrt(eta_u))) * sqrt(eta_u)^k.

k rounds of the recursion apply a fixed matrix, the mixing polynomial
P_k(W) = V diag(p_k(lambda)) V^T, where W = V diag(lambda) V^T and p_k is the
scalar recursion p(-1) = p(0) = 1, p(j+1) = (1 + eta_u) lambda p(j) -
eta_u p(j-1).  ``mixing_polynomials`` builds P_k(W) for several k from one
pass of that recursion over the eigenvalues of ``GossipMatrix.spectrum``, the
eigendecomposition that the matrix's constructor computed, so mixing makes no
LAPACK call; ``dearest.optimizer.init`` calls it once per run for the run's
k_in, hat_k and big_k.  The polynomials are kept in
``GossipMatrix.polynomials``, and ``fastmix`` mixes with one matrix product,
building a k it does not find there.  The recursion stays the definition; the
tests run it round by round as the reference.  Each cached k costs m^2 * 8
bytes (8 MB at m = 1000) on top of W's eigenvectors, and a run uses at most
three values of k.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .topology import GossipMatrix

__all__ = ["MixingError", "chebyshev_momentum", "fastmix", "mixing_polynomials"]


class MixingError(ValueError):
    """Invalid input to the consensus subroutine."""


def chebyshev_momentum(lambda2: float) -> float:
    """Momentum weight for the accelerated gossip recursion.

    Needs no branch at lambda2 = 0 (plain gossip averaging): for lambda2 up
    to about 7.5e-9 (2**-27), 1 - lambda2^2 rounds to exactly 1, so the
    weight is exactly 0.0.  ``topology`` already clamps rounding noise in
    lambda2 to zero.
    """
    if not 0.0 <= lambda2 < 1.0:
        raise MixingError(f"lambda2 must be in [0, 1), got {lambda2}")
    root = math.sqrt(1.0 - lambda2 * lambda2)
    return (1.0 - root) / (1.0 + root)


def _check_rounds(k: object) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise MixingError(f"round count must be a nonnegative integer, got {k!r}")
    return int(k)


def mixing_polynomials(w: GossipMatrix, rounds: Iterable[int]) -> None:
    """Build and cache on ``w`` the P_k(W) of every k in ``rounds`` it lacks.

    One pass of the eigenvalue recursion up to the largest such k keeps each
    wanted k as it passes, bitwise what a pass up to that k alone gives.
    k = 0 needs no polynomial (``fastmix`` copies its input).
    """
    wanted = {k for k in map(_check_rounds, rounds) if k and k not in w.polynomials}
    eta_u = chebyshev_momentum(w.lambda2)
    lam, v = w.spectrum
    # (1 + eta_u) * lam * cur - eta_u * prev, in the same order, in place.
    scaled = (1.0 + eta_u) * lam
    prev, cur, tmp = np.ones_like(lam), np.ones_like(lam), np.empty_like(lam)
    for k in range(1, max(wanted, default=0) + 1):
        np.multiply(scaled, cur, out=tmp)
        np.multiply(eta_u, prev, out=prev)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
        if k in wanted:
            # p_k(1) = 1 for every k, and W's top eigenvalue is 1 (checked at
            # construction).  LAPACK returns it only to within rounding, which
            # the recursion would amplify by p_k'(1) ~ k (1 + eta_u) / (1 - eta_u)
            # into a drift of the column means.
            p_k = cur.copy()
            p_k[-1] = 1.0
            poly = (v * p_k) @ v.T
            poly.setflags(write=False)
            w.polynomials[k] = poly


def fastmix(u0: np.ndarray, w: GossipMatrix, k: int) -> np.ndarray:
    """Apply k rounds of momentum gossip to the rows of u0.

    Starting from u(-1) = u(0) = u0, each round computes
    u(j+1) = (1 + eta_u) * W @ u(j) - eta_u * u(j-1) and the result is u(k),
    computed as P_k(W) @ u0 with the cached mixing polynomial; k = 0 returns
    a copy of u0.  Column means are preserved every round, and
    the consensus residual decays at the asymptotic rate
    (1 - sqrt(1 - lambda2))^k; for every k it is at most sqrt(14) times
    that factor times the initial residual (FastMix lemma).

    Accepts an (m, d) matrix or an (m,) vector (returned in the same shape).
    """
    u = np.asarray(u0, dtype=float)
    if u.ndim not in (1, 2):
        raise MixingError(f"expected an (m, d) matrix or (m,) vector, got shape {u.shape}")
    if u.shape[0] != w.m:
        raise MixingError(f"input has {u.shape[0]} rows but the gossip matrix has {w.m}")
    k = _check_rounds(k)
    chebyshev_momentum(w.lambda2)  # rejects a lambda2 outside [0, 1) for every k
    if k == 0:
        return u.copy()
    if k not in w.polynomials:
        mixing_polynomials(w, (k,))
    return w.polynomials[k] @ u
