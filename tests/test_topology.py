"""Graph builders, Laplacians, LAPACK-backed spectra, and gossip matrices."""

import math

import numpy as np
import pytest

from dearest.topology import (
    GossipMatrixError,
    Graph,
    TopologyError,
    build_complete,
    build_random,
    build_ring,
    gossip_from_laplacian,
    gossip_from_matrix,
    laplacian,
    read_graph_file,
    write_graph_file,
)

# Oracle (2000 independent seeds): mean edge count of the connected-resampled
# G(20, 0.15) sampler.  Rejecting disconnected draws biases the mean above
# the unconditional 190 * 0.15 = 28.5 because sparse samples are the ones
# that fail the connectivity check.
RANDOM_20_EDGE_MEAN = 31.27


def w_spectrum(g):
    """Eigenvalues of g's gossip matrix, ascending, from its LAPACK spectrum."""
    return gossip_from_laplacian(laplacian(g)).spectrum[0]


def w_closed_form(mu):
    """W = I - L/lambda1(L) maps Laplacian eigenvalues mu to 1 - mu/max(mu)."""
    mu = np.asarray(mu, dtype=float)
    return np.sort(1.0 - mu / mu.max())


def build_random_loop(m, prob, seed):
    """Reference for build_random's edge draw: one pair at a time, i < j in order."""
    for attempt in range(1000):
        draws = np.random.default_rng(seed + attempt).random(m * (m - 1) // 2)
        edges = set()
        k = 0
        for i in range(m):
            for j in range(i + 1, m):
                if draws[k] < prob:
                    edges.add((i, j))
                k += 1
        try:
            return Graph(m, frozenset(edges))
        except TopologyError:
            continue
    raise AssertionError("reference sampler found no connected graph")


class TestGraphBuilders:
    def test_ring_m3_is_triangle(self):
        g = build_ring(3)
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_ring_m4_degrees(self):
        g = build_ring(4)
        assert g.n_edges == 4
        assert np.all(g.adjacency().sum(axis=1) == 2)

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            build_ring(2)

    def test_complete_edge_counts(self):
        assert build_complete(2).n_edges == 1
        assert build_complete(4).n_edges == 6

    def test_complete_too_small(self):
        with pytest.raises(TopologyError):
            build_complete(1)

    def test_random_forced_complete(self):
        g = build_random(2, 1.0, seed=0)
        assert g.edges == frozenset({(0, 1)})

    def test_random_is_connected_and_deterministic(self):
        g1 = build_random(20, 0.15, seed=5)
        g2 = build_random(20, 0.15, seed=5)
        assert g1.edges == g2.edges

    def test_random_edge_count_matches_oracle(self):
        counts = [build_random(20, 0.15, seed=s * 65537).n_edges for s in range(1000)]
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - RANDOM_20_EDGE_MEAN) <= 3.0 * se

    def test_random_gap_order_of_magnitude(self):
        # instance-dependent; only the scale is pinned
        g = build_random(20, 0.15, seed=3)
        w = gossip_from_laplacian(laplacian(g))
        assert 1e-3 < w.gap < 0.5

    @pytest.mark.parametrize(
        "m, prob, seed", [(2, 0.5, 0), (5, 0.3, 4), (12, 0.25, 7), (20, 0.15, 3), (37, 0.6, 91)]
    )
    def test_random_matches_loop_reference(self, m, prob, seed):
        assert build_random(m, prob, seed).edges == build_random_loop(m, prob, seed).edges

    def test_degrees_and_adjacency(self):
        g = Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (3, 4)}))
        a = g.adjacency()
        np.testing.assert_array_equal(a.sum(axis=1), [3, 1, 1, 2, 1])
        np.testing.assert_array_equal(a, a.T)
        assert {(int(i), int(j)) for i, j in np.argwhere(np.triu(a))} == g.edges
        assert a.sum() == 2 * g.n_edges

    def test_random_invalid_prob(self):
        with pytest.raises(TopologyError):
            build_random(5, 0.0, seed=0)

    def test_random_gives_up_when_connectivity_is_hopeless(self):
        with pytest.raises(TopologyError, match="1000 attempts"):
            build_random(20, 1e-4, seed=0)

    def test_graph_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Graph(3, frozenset({(0, 0), (0, 1), (1, 2)}))

    def test_graph_rejects_disconnected(self):
        with pytest.raises(TopologyError, match="not connected"):
            Graph(4, frozenset({(0, 1), (2, 3)}))

    def test_graph_rejects_out_of_range(self):
        with pytest.raises(TopologyError, match="out of range"):
            Graph(2, frozenset({(0, 5)}))

    def test_duplicate_edges_collapse(self):
        g = Graph(3, frozenset({(0, 1), (1, 0), (1, 2), (0, 2)}))
        assert g.n_edges == 3


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        g = build_random(9, 0.4, seed=11)
        path = tmp_path / "g.txt"
        write_graph_file(g, path)
        back = read_graph_file(path)
        assert back.m == g.m and back.edges == g.edges

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# triangle\nm 3\n\n0 1\n1 2  # closing\n0 2\n")
        g = read_graph_file(path)
        assert g.n_edges == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(TopologyError, match="header"):
            read_graph_file(path)

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("m 3\n0 1\n0 x\n1 2\n")
        with pytest.raises(TopologyError, match="g.txt:3"):
            read_graph_file(path)

    @pytest.mark.parametrize("edge, message", [
        ("2 2", "self-loop at agent 2"),
        ("1 5", r"edge \(1, 5\) out of range for m=3"),
        ("-1 0", r"edge \(-1, 0\) out of range for m=3"),
    ])
    def test_bad_edge_names_its_line(self, tmp_path, edge, message):
        path = tmp_path / "g.txt"
        path.write_text(f"m 3\n0 1\n\n{edge}\n1 2\n")
        with pytest.raises(TopologyError, match=rf"g.txt:4: {message}$"):
            read_graph_file(path)

    def test_non_utf8_bytes_name_file_and_offset(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"m 3\n0 1 # \xff\n")
        with pytest.raises(TopologyError, match=r"g.txt: byte 10 is not UTF-8 text"):
            read_graph_file(path)

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(TopologyError, match=r"cannot read graph file .*nosuch.txt"):
            read_graph_file(tmp_path / "nosuch.txt")


class TestLaplacian:
    def test_path_m2(self):
        g = build_complete(2)
        np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_cycle_m4_closed_form(self):
        lap = laplacian(build_ring(4))
        assert np.all(np.diag(lap) == 2.0)
        # eigenvalues 2 - 2 cos(2 pi k / m)
        expected = np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / 4) for k in range(4)])
        np.testing.assert_allclose(w_spectrum(build_ring(4)), w_closed_form(expected), atol=1e-10)

    def test_complete_m3_closed_form(self):
        lap = laplacian(build_complete(3))
        np.testing.assert_array_equal(lap, 3.0 * np.eye(3) - np.ones((3, 3)))
        np.testing.assert_allclose(
            w_spectrum(build_complete(3)), w_closed_form([0.0, 3.0, 3.0]), atol=1e-10
        )

    def test_rows_sum_to_zero(self):
        lap = laplacian(build_random(12, 0.3, seed=2))
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-14)


class TestJacobi:
    """Closed-form spectra, checked on the LAPACK path (``GossipMatrix.spectrum``
    and the lambda2 that ``gossip_from_laplacian`` finds).

    The class name is kept from the retired cyclic-Jacobi solver so that these
    cases keep their test ids.
    """

    @staticmethod
    def assert_spectrum(g, mu):
        expected = w_closed_form(mu)
        np.testing.assert_allclose(w_spectrum(g), expected, atol=1e-12)
        assert gossip_from_laplacian(laplacian(g)).lambda2 == pytest.approx(expected[-2], abs=1e-12)

    def test_agrees_with_cycle_closed_form(self):
        for m in (3, 5, 8, 20):
            self.assert_spectrum(
                build_ring(m), [2.0 - 2.0 * math.cos(2.0 * math.pi * k / m) for k in range(m)]
            )

    def test_agrees_with_complete_closed_form(self):
        for m in (2, 3, 7):
            self.assert_spectrum(build_complete(m), [0.0] + [float(m)] * (m - 1))

    def test_path_graph_closed_form(self):
        # path on m vertices: eigenvalues 2 - 2 cos(pi k / m)
        m = 6
        g = Graph(m, frozenset((i, i + 1) for i in range(m - 1)))
        self.assert_spectrum(g, [2.0 - 2.0 * math.cos(math.pi * k / m) for k in range(m)])

    def test_rejects_non_symmetric(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(GossipMatrixError, match="symmetric"):
            gossip_from_laplacian(bad)
        with pytest.raises(GossipMatrixError, match="symmetric"):
            gossip_from_matrix(bad)

    def test_ring_400_gap_closed_form(self):
        w = gossip_from_laplacian(laplacian(build_ring(400)))
        expected = (1.0 - math.cos(2.0 * math.pi / 400)) / 2.0
        assert w.gap == pytest.approx(expected, abs=1e-12)
        assert w.lambda2 == pytest.approx(1.0 - expected, abs=1e-12)

    @pytest.mark.parametrize("case", ["ring", "complete", "random", "weighted"])
    def test_spectrum_rebuilds_w_with_ascending_eigenvalues(self, case):
        if case == "weighted":
            # Lazy Metropolis weights on a 7-agent random graph: edge (i, j)
            # weighs 1 / (2 (1 + max(d_i, d_j))), which keeps W's spectrum
            # in [0, 1].
            g = build_random(7, 0.4, seed=3)
            deg = g.adjacency().sum(axis=1)
            a = g.adjacency() / (2.0 * (1.0 + np.maximum.outer(deg, deg)))
            w = gossip_from_matrix(np.diag(1.0 - a.sum(axis=1)) + a, graph=g)
            assert len(set(a[a > 0.0].tolist())) > 1  # the weights differ
        else:
            g = {"ring": build_ring(9), "complete": build_complete(6),
                 "random": build_random(12, 0.3, seed=5)}[case]
            w = gossip_from_laplacian(laplacian(g))
        lam, v = w.spectrum
        assert np.all(np.diff(lam) >= 0.0)
        np.testing.assert_allclose((v * lam) @ v.T, w.w, rtol=0.0, atol=1e-12)
        assert lam[-2] == pytest.approx(w.lambda2, abs=1e-12)

    def test_spectrum_is_cached_read_only_and_reconstructs_w(self):
        w = gossip_from_laplacian(laplacian(build_random(15, 0.3, seed=4)))
        lam, v = w.spectrum
        assert w.spectrum is w.spectrum
        np.testing.assert_allclose((v * lam) @ v.T, w.w, atol=1e-13)
        np.testing.assert_allclose(v.T @ v, np.eye(15), atol=1e-13)
        assert lam[-2] == pytest.approx(w.lambda2, abs=1e-12)
        with pytest.raises(ValueError):
            v[0, 0] = 1.0


class TestGossipMatrix:
    def test_path_m2_hand_values(self):
        w = gossip_from_laplacian(laplacian(build_complete(2)))
        np.testing.assert_allclose(w.w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert w.lambda2 == 0.0
        assert w.gap == 1.0

    def test_cycle_m4_spectrum(self):
        w = gossip_from_laplacian(laplacian(build_ring(4)))
        np.testing.assert_allclose(w.spectrum[0], [0.0, 0.5, 0.5, 1.0], atol=1e-10)
        assert w.lambda2 == pytest.approx(0.5, abs=1e-12)

    def test_cycle_m20_gap_closed_form(self):
        w = gossip_from_laplacian(laplacian(build_ring(20)))
        expected = (2.0 - 2.0 * math.cos(2.0 * math.pi / 20)) / 4.0
        assert w.gap == pytest.approx(expected, abs=1e-10)
        assert w.gap == pytest.approx(0.0245, abs=5e-4)

    def test_complete_m3_uniform_averaging(self):
        w = gossip_from_laplacian(laplacian(build_complete(3)))
        np.testing.assert_allclose(w.w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_invariants_on_assorted_topologies(self):
        graphs = [
            build_ring(8),
            build_complete(5),
            build_random(20, 0.15, seed=1),
            build_random(10, 0.4, seed=9),
        ]
        for g in graphs:
            w = gossip_from_laplacian(laplacian(g))
            assert np.max(np.abs(w.w - w.w.T)) <= 1e-12
            assert np.max(np.abs(w.w @ np.ones(g.m) - 1.0)) <= 1e-10
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    if (i, j) not in g.edges:
                        assert w.w[i, j] == 0.0
            ev = w.spectrum[0]
            assert ev[0] >= -1e-10
            assert abs(ev[-1] - 1.0) <= 1e-10
            assert ev[-2] <= 1.0 - 1e-12  # simple top eigenvalue iff connected
            again = gossip_from_matrix(np.asarray(w.w), graph=g)
            assert again.lambda2 == pytest.approx(w.lambda2, abs=1e-12)

    def test_rejects_disconnected_laplacian(self):
        lap = np.array(
            [[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0], [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]]
        )
        with pytest.raises(GossipMatrixError, match="disconnected"):
            gossip_from_laplacian(lap)

    def test_raw_matrix_constructor_validates(self):
        g = build_ring(4)
        w = gossip_from_laplacian(laplacian(g))
        again = gossip_from_matrix(np.asarray(w.w), graph=g)
        assert again.lambda2 == pytest.approx(w.lambda2, abs=1e-10)

        bad_rows = np.asarray(w.w).copy()
        bad_rows[0, 0] += 1e-3
        with pytest.raises(GossipMatrixError, match="sums to"):
            gossip_from_matrix(bad_rows, graph=g)

        with pytest.raises(GossipMatrixError, match="non-edge"):
            gossip_from_matrix(np.full((4, 4), 0.25), graph=g)

    def test_messages_print_plain_floats(self):
        with pytest.raises(GossipMatrixError, match=r"^row 0 sums to 1\.1, expected 1$"):
            gossip_from_matrix(np.array([[0.6, 0.5], [0.5, 0.6]]))
        # Unit row sums, but a top eigenvalue of 1.5: [1, 1] is an
        # eigenvector of eigenvalue 1 and [1, -1] of 1.5.
        with pytest.raises(GossipMatrixError, match=r"^largest eigenvalue 1\.5 is not 1$"):
            gossip_from_matrix(np.array([[1.25, -0.25], [-0.25, 1.25]]))

    def test_non_edge_check_names_first_offending_pair(self):
        # Ring 0-1-2-3-4-0: (0, 2), (0, 3), (1, 3), (1, 4) and (2, 4) are
        # non-edges.  Two of them carry weight; the first in row-major order
        # is reported.
        g = build_ring(5)
        w = np.asarray(gossip_from_laplacian(laplacian(g)).w).copy()
        for i, j, x in ((1, 3, 0.125), (2, 4, 0.0625)):
            w[i, j] = w[j, i] = x
            w[i, i] -= x
            w[j, j] -= x
        with pytest.raises(GossipMatrixError, match=r"weight 0\.125 on non-edge \(1, 3\)$"):
            gossip_from_matrix(w, graph=g)

    @pytest.mark.parametrize("build", [gossip_from_laplacian, gossip_from_matrix])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, build, bad):
        a = laplacian(build_ring(4)) if build is gossip_from_laplacian else np.full((4, 4), 0.25)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(GossipMatrixError, match="non-finite"):
            build(a)

    def test_raw_matrix_rejects_identity(self):
        # W = I has a repeated unit eigenvalue (no mixing at all)
        with pytest.raises(GossipMatrixError, match="not simple"):
            gossip_from_matrix(np.eye(3))

    @pytest.mark.parametrize("case", ["triangle-zero-diagonal", "ring6-heavy-edges"])
    def test_raw_matrix_rejects_negative_eigenvalues(self, case):
        # FastMix's momentum contracts at its promised rate only on a
        # spectrum in [0, lambda2].  Zero diagonal, 0.5 elsewhere: -0.5
        # twice.  The 6-ring with 0.45 per edge and 0.1 on the diagonal:
        # 0.1 + 0.9 cos(2 pi k / 6), down to -0.8.
        if case == "triangle-zero-diagonal":
            w, smallest = 0.5 * (np.ones((3, 3)) - np.eye(3)), -0.5
        else:
            g = build_ring(6)
            w = 0.1 * np.eye(6) + 0.45 * g.adjacency()
            smallest = -0.8
        with pytest.raises(GossipMatrixError, match="smallest eigenvalue -0\\.[0-9]+ is negative") as err:
            gossip_from_matrix(w)
        value = float(str(err.value).split()[2])
        assert value == pytest.approx(smallest, abs=1e-12)

    def test_compares_and_hashes_by_identity(self):
        w1 = gossip_from_laplacian(laplacian(build_ring(5)))
        w2 = gossip_from_laplacian(laplacian(build_ring(5)))
        assert w1 != w2 and not (w1 == w2)
        assert w1 == w1
        assert {w1: 1, w2: 2}[w1] == 1 and hash(w1) == hash(w1)

    def test_matrix_is_read_only(self):
        w = gossip_from_laplacian(laplacian(build_ring(5)))
        with pytest.raises(ValueError):
            w.w[0, 0] = 2.0
        mine = np.full((3, 3), 1.0 / 3.0)
        w = gossip_from_matrix(mine)
        mine[0, 0] = 2.0  # the caller's array stays writable and unshared
        assert w.w[0, 0] == 1.0 / 3.0
