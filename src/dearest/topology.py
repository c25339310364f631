"""Network topologies, graph Laplacians, and gossip matrices.

Agents sit on the vertices of an undirected connected graph and may only
exchange information along edges.  The mixing (gossip) matrix is built as
W = I - L/lambda1(L), where L is the combinatorial Laplacian and lambda1(L)
its largest eigenvalue.  The second-largest eigenvalue of W and the spectral
gap 1 - lambda2(W) govern how fast repeated gossip averages the network.

Each constructor makes one LAPACK call, ``np.linalg.eigh``, and everything
spectral reads its result: the validation checks, lambda2, and the mixing
polynomials that ``dearest.mixing.fastmix`` builds.  W = I - L/lambda1 has
the eigenvectors of L, so a Laplacian's decomposition serves W as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GossipMatrix",
    "TopologyError",
    "GossipMatrixError",
    "build_ring",
    "build_random",
    "build_complete",
    "read_graph_file",
    "write_graph_file",
    "laplacian",
    "gossip_from_laplacian",
    "gossip_from_matrix",
]

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-10

_MAX_RESAMPLES = 1000


class TopologyError(ValueError):
    """Invalid graph parameters or an unusable (e.g. disconnected) graph."""


class GossipMatrixError(ValueError):
    """A matrix violates the gossip-matrix requirements."""


def _canonical_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _is_connected(m: int, edges: frozenset[tuple[int, int]]) -> bool:
    if m <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == m


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..m-1.

    Edges are canonical (lo, hi) pairs.  Construction rejects self-loops,
    out-of-range endpoints, and disconnected graphs; every downstream
    algorithm assumes connectivity.
    """

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise TopologyError(f"agent count must be positive, got {self.m}")
        canon = set()
        for i, j in self.edges:
            if i == j:
                raise TopologyError(f"self-loop at agent {i}")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise TopologyError(f"edge ({i}, {j}) out of range for m={self.m}")
            canon.add(_canonical_edge(i, j))
        object.__setattr__(self, "edges", frozenset(canon))
        if not _is_connected(self.m, self.edges):
            raise TopologyError(f"graph on {self.m} agents is not connected")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    def degrees(self) -> np.ndarray:
        lo, hi = self._endpoints()
        return np.bincount(np.concatenate([lo, hi]), minlength=self.m)

    def adjacency(self) -> np.ndarray:
        lo, hi = self._endpoints()
        a = np.zeros((self.m, self.m))
        a[lo, hi] = 1.0
        a[hi, lo] = 1.0
        return a


def build_ring(m: int) -> Graph:
    """Cycle graph: agent i is connected to (i +/- 1) mod m.  Requires m >= 3."""
    if m < 3:
        raise TopologyError(f"ring needs at least 3 agents, got {m}")
    return Graph(m, frozenset(_canonical_edge(i, (i + 1) % m) for i in range(m)))


def build_complete(m: int) -> Graph:
    """Complete graph on m >= 2 agents."""
    if m < 2:
        raise TopologyError(f"complete graph needs at least 2 agents, got {m}")
    return Graph(m, frozenset((i, j) for i in range(m) for j in range(i + 1, m)))


def build_random(m: int, prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(m, prob), resampled until connected.

    Each attempt draws every pair (i < j, fixed order) independently with the
    given probability from a generator seeded with ``seed + attempt``, so the
    result is deterministic for a given seed.  Rejection-resampling keeps n
    agents reachable from each other; it gives up after 1000 attempts.
    """
    if m < 2:
        raise TopologyError(f"random graph needs at least 2 agents, got {m}")
    if not 0.0 < prob <= 1.0:
        raise TopologyError(f"edge probability must be in (0, 1], got {prob}")
    lo, hi = np.triu_indices(m, k=1)  # the pairs i < j in row-major order
    for attempt in range(_MAX_RESAMPLES):
        rng = np.random.default_rng(seed + attempt)
        keep = rng.random(m * (m - 1) // 2) < prob
        edges = frozenset(zip(lo[keep].tolist(), hi[keep].tolist()))
        if _is_connected(m, edges):
            return Graph(m, edges)
    raise TopologyError(
        f"no connected G({m}, {prob}) sample in {_MAX_RESAMPLES} attempts "
        f"starting from seed {seed}"
    )


def read_graph_file(path: str | Path) -> Graph:
    """Read a graph from text: header line ``m <count>``, then one ``i j`` edge per line.

    Indices are 0-based.  Blank lines and ``#`` comments are ignored.
    """
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except OSError as exc:
        raise TopologyError(f"cannot read graph file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TopologyError(f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})") from None
    m: int | None = None
    edges = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if m is None:
            if len(tokens) != 2 or tokens[0] != "m":
                raise TopologyError(f"{path}:{lineno}: expected header 'm <count>', got {raw!r}")
            try:
                m = int(tokens[1])
            except ValueError:
                raise TopologyError(f"{path}:{lineno}: agent count {tokens[1]!r} is not an integer") from None
            continue
        if len(tokens) != 2:
            raise TopologyError(f"{path}:{lineno}: expected an 'i j' edge, got {raw!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise TopologyError(f"{path}:{lineno}: non-integer edge endpoint in {raw!r}") from None
        edges.add(_canonical_edge(i, j))
    if m is None:
        raise TopologyError(f"{path}: missing 'm <count>' header")
    return Graph(m, frozenset(edges))


def write_graph_file(g: Graph, path: str | Path) -> None:
    """Write a graph in the same text format ``read_graph_file`` accepts."""
    lines = [f"m {g.m}"]
    lines += [f"{i} {j}" for i, j in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n")


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A.  Rows sum to zero."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


@dataclass(frozen=True, eq=False)
class GossipMatrix:
    """Symmetric mixing matrix with its eigendecomposition.

    ``lambda2`` is the second-largest eigenvalue and ``gap = 1 - lambda2``.
    ``spectrum`` is (eigenvalues ascending, orthonormal eigenvectors as
    columns) of W.  Instances come from ``gossip_from_laplacian`` or
    ``gossip_from_matrix``, which enforce symmetry, unit row sums, the edge
    sparsity pattern, and a simple unit eigenvalue; the arrays are frozen
    read-only.  ``polynomials`` holds the mixing polynomials P_K(W) by round
    count K that ``fastmix`` builds, so every run that shares one instance
    shares them; ``dataclasses.replace`` starts a copy with an empty one.
    Instances compare and hash by identity, as arrays have no single truth
    value.
    """

    w: np.ndarray
    lambda2: float
    spectrum: tuple[np.ndarray, np.ndarray] = field(repr=False)
    polynomials: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2


def _require_finite(a: np.ndarray, what: str) -> None:
    # NaN passes every tolerance comparison below, so test for it first.
    if not np.isfinite(a).all():
        raise GossipMatrixError(f"{what} has non-finite entries")


def _finish_gossip(w: np.ndarray, lam: np.ndarray, v: np.ndarray) -> GossipMatrix:
    # The checks accept eigenvalues down to -1e-10 for rounding; clamp such a
    # lambda2 (and tiny positive ones) to zero, where chebyshev_momentum takes
    # plain averaging and sqrt(1 - lambda2^2) never sees rounding noise.
    lambda2 = float(lam[-2]) if lam.size >= 2 else 0.0
    if lambda2 < 1e-15:
        lambda2 = 0.0
    for a in (w, lam, v):
        a.setflags(write=False)
    return GossipMatrix(w=w, lambda2=lambda2, spectrum=(lam, v))


def gossip_from_laplacian(lap: np.ndarray) -> GossipMatrix:
    """Build W = I - L/lambda1(L) from a connected-graph Laplacian.

    The Laplacian's eigendecomposition gives W's: eigenvalues of W are
    1 - mu/lambda1 for Laplacian eigenvalues mu, on the same eigenvectors,
    so they all lie in [0, 1] with 1 attained exactly once when the graph is
    connected.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise GossipMatrixError(f"Laplacian must be square, got shape {lap.shape}")
    _require_finite(lap, "Laplacian")
    m = lap.shape[0]
    if m < 2:
        raise GossipMatrixError("a single-agent graph has no gossip matrix")
    if np.max(np.abs(lap - lap.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(lap))):
        raise GossipMatrixError("Laplacian is not symmetric")
    if np.max(np.abs(lap.sum(axis=1))) > ROW_SUM_TOL:
        raise GossipMatrixError("Laplacian rows must sum to zero")
    mu, v = np.linalg.eigh(lap)
    if abs(mu[0]) > 1e-8:
        raise GossipMatrixError(f"smallest Laplacian eigenvalue {mu[0]:.3e} is not ~0")
    if mu[1] <= 1e-12:
        raise GossipMatrixError("Laplacian has a repeated zero eigenvalue: graph is disconnected")
    lam1 = float(mu[-1])
    return _finish_gossip(np.eye(m) - lap / lam1, 1.0 - mu[::-1] / lam1, v[:, ::-1])


def gossip_from_matrix(w: np.ndarray, graph: Graph | None = None) -> GossipMatrix:
    """Validate a user-supplied mixing matrix (weighted entries allowed).

    Checks symmetry (1e-12 per entry), unit row sums (1e-10 per row), zeros
    off the edge set when a graph is given, a simple eigenvalue at 1, and all
    other eigenvalues in [0, 1) (-1e-10 allowed for rounding): FastMix's
    momentum contracts at its promised rate only on a nonnegative spectrum.
    The matrix is copied, so freezing it leaves the caller's array writable.
    """
    w = np.array(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise GossipMatrixError(f"mixing matrix must be square, got shape {w.shape}")
    _require_finite(w, "mixing matrix")
    m = w.shape[0]
    if np.max(np.abs(w - w.T)) > SYMMETRY_TOL:
        raise GossipMatrixError("mixing matrix is not symmetric to 1e-12")
    rows = w.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
        worst = int(np.argmax(np.abs(rows - 1.0)))
        raise GossipMatrixError(f"row {worst} sums to {float(rows[worst])}, expected 1")
    if graph is not None:
        if graph.m != m:
            raise GossipMatrixError(f"matrix is {m}x{m} but graph has {graph.m} agents")
        off_edge = np.triu(graph.adjacency() == 0.0, k=1) & (w != 0.0)
        if off_edge.any():
            i, j = (int(x) for x in np.argwhere(off_edge)[0])
            raise GossipMatrixError(f"nonzero weight {float(w[i, j])} on non-edge ({i}, {j})")
    lam, v = np.linalg.eigh(w)
    if abs(lam[-1] - 1.0) > 1e-8:
        raise GossipMatrixError(f"largest eigenvalue {float(lam[-1])} is not 1")
    if m >= 2 and lam[-2] >= 1.0 - 1e-12:
        raise GossipMatrixError("eigenvalue 1 is not simple: the graph is effectively disconnected")
    if lam[0] < -1e-10:
        raise GossipMatrixError(f"smallest eigenvalue {float(lam[0])} is negative; expected [0, 1)")
    return _finish_gossip(w, lam, v)
