"""Accelerated gossip: mean preservation, contraction, linearity.

``fastmix`` applies the mixing polynomial P_k(W), built from the gossip
matrix's stored eigendecomposition, in one product.
``reference.reference_fastmix`` runs the momentum recursion round by round;
it is the definition that the fast path is checked against.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dearest.mixing import MixingError, chebyshev_momentum, fastmix, mixing_polynomials
from dearest.topology import (
    build_complete,
    build_random,
    build_ring,
    gossip_from_laplacian,
    gossip_from_matrix,
    laplacian,
)

from reference import mixing_polynomial, reference_fastmix


def make_w(kind, m, **kw):
    builders = {"ring": build_ring, "complete": build_complete, "random": build_random}
    return gossip_from_laplacian(laplacian(builders[kind](m, **kw)))


TOPOLOGIES = [
    make_w("complete", 2),
    make_w("ring", 4),
    make_w("ring", 8),
    make_w("complete", 5),
    make_w("random", 20, prob=0.15, seed=1),
]


# fastmix against the recursion, as a multiple of max |u0|: both round
# differently, and the recursion's own rounding grows with k.
REFERENCE_TOL = 1e-12


def fast_and_reference(u0, w, k):
    """fastmix(u0, w, k) and the round-by-round reference, checked to agree."""
    out = fastmix(u0, w, k)
    ref = reference_fastmix(u0, w, k)
    assert np.max(np.abs(out - ref)) <= REFERENCE_TOL * np.max(np.abs(u0))
    return out, ref


def residual(u, u0):
    return float(np.linalg.norm(u - u0.mean(axis=0)))


def transient_envelope(w, k):
    """Provable bound on the k-round contraction of the momentum recursion.

    Eigen-mode analysis: with r = sqrt(eta_u), the critically damped mode
    decays like (1 + (1-r) k) r^k and every oscillatory mode is bounded by
    (1 + k (1 + r)) r^k, which therefore bounds the whole residual.
    """
    r = math.sqrt(chebyshev_momentum(w.lambda2))
    return (1.0 + k * (1.0 + r)) * r**k if k > 0 else 1.0


class TestFastmixBasics:
    def test_zero_rounds_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal((8, 3))
        out = fastmix(u0, TOPOLOGIES[2], 0)
        np.testing.assert_array_equal(out, u0)
        assert out is not u0  # pure function: no aliasing

    def test_two_agents_one_round_exact_consensus(self):
        w = make_w("complete", 2)
        out = fastmix(np.array([[1.0], [0.0]]), w, 1)
        np.testing.assert_allclose(out, [[0.5], [0.5]], atol=1e-15)

    def test_vector_input_keeps_shape(self):
        w = TOPOLOGIES[1]
        out = fastmix(np.array([1.0, 0.0, 0.0, 0.0]), w, 3)
        assert out.shape == (4,)

    def test_dimension_mismatch(self):
        with pytest.raises(MixingError, match="rows"):
            fastmix(np.zeros((3, 2)), TOPOLOGIES[1], 1)

    def test_negative_round_count(self):
        with pytest.raises(MixingError, match="nonnegative"):
            fastmix(np.zeros((4, 2)), TOPOLOGIES[1], -1)

    def test_lambda2_out_of_range(self):
        w = TOPOLOGIES[1]
        for bad in (1.0, -0.2):
            fake = dataclasses.replace(w, lambda2=bad)
            assert fake.polynomials is not w.polynomials  # no polynomial of the real lambda2
            with pytest.raises(MixingError, match="lambda2"):
                fastmix(np.zeros((4, 2)), fake, 1)

    def test_rounding_negative_lambda2_mixes(self):
        # The constructor accepts eigenvalues down to -1e-10 for rounding;
        # here lambda2 = 2a - 1 = -2e-12, which it clamps to 0.
        a = 0.5 - 1e-12
        w = gossip_from_matrix([[a, 1.0 - a], [1.0 - a, a]])
        assert w.lambda2 == 0.0 and w.gap == 1.0
        np.testing.assert_allclose(fastmix(np.ones((2, 3)), w, 2), 1.0, rtol=0.0, atol=1e-15)

    def test_no_lapack_call_after_construction(self, monkeypatch):
        ws = [make_w("ring", 8), make_w("random", 20, prob=0.15, seed=1)]

        def refuse(*args, **kwargs):
            raise AssertionError("fastmix decomposed W")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(3)
        for w in ws:
            for k in (1, 5, 40):
                fastmix(rng.standard_normal((w.m, 2)), w, k)

    def test_momentum_clamps_tiny_lambda2(self):
        assert chebyshev_momentum(0.0) == 0.0
        assert chebyshev_momentum(1e-16) == 0.0
        assert chebyshev_momentum(0.5) == pytest.approx(
            (1 - math.sqrt(0.75)) / (1 + math.sqrt(0.75)), rel=1e-15
        )


class TestMeanPreservation:
    @pytest.mark.parametrize("w", TOPOLOGIES, ids=lambda w: f"m{w.m}")
    def test_column_means_preserved(self, w):
        rng = np.random.default_rng(42)
        u0 = rng.standard_normal((w.m, 6))
        mean0 = u0.mean(axis=0)
        scale = np.maximum(np.abs(mean0), 1.0)
        for k in range(51):
            for u in fast_and_reference(u0, w, k):
                assert np.all(np.abs(u.mean(axis=0) - mean0) <= 1e-10 * scale)


    @pytest.mark.parametrize("m, k", [(100, 426), (40, 500)])
    def test_means_held_to_rounding_at_large_k(self, m, k):
        # p_k'(1) grows like k (1 + eta_u) / (1 - eta_u); unless P_k pins
        # p_k(1) = 1, LAPACK's rounding of the top eigenvalue shows up as a
        # mean drift of ~1.2e-13 of max |u| on these rings.
        w = make_w("ring", m)
        u0 = np.random.default_rng(0).standard_normal((m, 5))
        drift = np.abs(fastmix(u0, w, k).mean(axis=0) - u0.mean(axis=0))
        assert np.max(drift) <= 4e-14 * np.max(np.abs(u0))


class TestContraction:
    @pytest.mark.parametrize("w", TOPOLOGIES, ids=lambda w: f"m{w.m}")
    def test_transient_envelope_holds_every_k(self, w):
        rng = np.random.default_rng(7)
        noise_floor = 1e-12  # rounding leaves ~1e-15 where the math says 0
        for trial in range(10):
            u0 = rng.standard_normal((w.m, 4))
            r0 = residual(u0, u0)
            for k in range(1, 31):
                bound = transient_envelope(w, k) * r0 * (1.0 + 1e-8) + noise_floor * r0
                for u in fast_and_reference(u0, w, k):
                    assert residual(u, u0) <= bound

    @pytest.mark.parametrize("w", TOPOLOGIES, ids=lambda w: f"m{w.m}")
    def test_asymptotic_rate_reached(self, w):
        # (1 - sqrt(gap))^k is the asymptotic per-round factor; the momentum
        # transient is over well before k = 40 on these graphs (and the bound
        # is still far above the float-64 noise floor there).
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal((w.m, 4))
        r0 = residual(u0, u0)
        rate = 1.0 - math.sqrt(w.gap)
        for k in (40, 50):
            bound = max(rate**k * r0, 1e-11 * r0)
            assert residual(fastmix(u0, w, k), u0) <= bound

    def test_cycle_m4_three_round_residual(self):
        # Worst-aligned input (lambda2 eigenvector): the closed-form solution
        # of the scalar recursion is (1 + (1-r) k) r^k with r = sqrt(eta_u),
        # giving (1 + 3(1-r)) r^3 = 0.0614872 at k = 3.  That overshoots the
        # asymptotic factor (1 - sqrt(0.5))^3 = 0.02513 but sits inside the
        # envelope (1 + 3(1+r)) r^3 = 0.09242.
        w = TOPOLOGIES[1]
        u0 = np.array([[1.0], [0.0], [-1.0], [0.0]]) / math.sqrt(2.0)
        res = residual(fastmix(u0, w, 3), u0)
        r = math.sqrt(chebyshev_momentum(0.5))
        closed_form = (1.0 + 3.0 * (1.0 - r)) * r**3
        assert res == pytest.approx(closed_form, rel=1e-12)
        assert res == pytest.approx(0.0614872, abs=1e-7)
        assert res <= transient_envelope(w, 3) * (1.0 + 1e-12)

    def test_plain_gossip_breaks_fastmix_lemma(self):
        # The FastMix lemma sqrt(14) (1 - sqrt(gap))^k (acceptance C2) can
        # fail: without momentum, the lambda2 eigenvector of the 8-ring decays
        # like lambda2^k = 0.854^k against 0.617^k, and the ratio passes
        # sqrt(14) from k = 5 on.  The momentum recursion stays inside it.
        w = TOPOLOGIES[2]
        u0 = np.cos(2.0 * math.pi * np.arange(8) / 8.0)[:, None]
        r0 = residual(u0, u0)
        rate = 1.0 - math.sqrt(w.gap)
        plain = u0
        broken = []
        for k in range(1, 31):
            bound = math.sqrt(14.0) * rate**k * r0
            plain = w.w @ plain
            if residual(plain, u0) > bound:
                broken.append(k)
            for u in fast_and_reference(u0, w, k):
                assert residual(u, u0) <= bound * (1.0 + 1e-8)
        assert broken, "plain gossip W^k never exceeded the FastMix lemma bound"

    def test_idempotent_on_consensus(self):
        for w in TOPOLOGIES:
            u0 = np.tile(np.array([1.5, -2.0, 0.25]), (w.m, 1))
            for k in (1, 7, 25):
                out = fastmix(u0, w, k)
                assert np.max(np.abs(out - u0)) <= 1e-12


class TestLinearity:
    def test_linear_in_input(self):
        w = TOPOLOGIES[2]
        rng = np.random.default_rng(3)
        u = rng.standard_normal((8, 5))
        v = rng.standard_normal((8, 5))
        alpha, beta = 1.7, -0.4
        for k in (1, 5, 20):
            lhs = fastmix(alpha * u + beta * v, w, k)
            rhs = alpha * fastmix(u, w, k) + beta * fastmix(v, w, k)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestMixingPolynomialCache:
    def test_one_entry_per_round_count_reused_across_calls(self):
        w = make_w("ring", 6)
        rng = np.random.default_rng(5)
        assert w.polynomials == {}
        fastmix(rng.standard_normal((6, 2)), w, 0)
        assert w.polynomials == {}  # k = 0 is a copy, no polynomial
        fastmix(rng.standard_normal((6, 2)), w, 7)
        first = w.polynomials[7]
        fastmix(rng.standard_normal(6), w, 7)
        fastmix(rng.standard_normal((6, 3)), w, np.int64(7))
        assert w.polynomials[7] is first
        fastmix(rng.standard_normal((6, 2)), w, 3)
        assert sorted(w.polynomials) == [3, 7]
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_fresh_matrix_starts_with_an_empty_cache(self):
        a, b = make_w("ring", 5), make_w("ring", 5)
        fastmix(np.eye(5), a, 4)
        assert 4 in a.polynomials and b.polynomials == {}


class TestOneRecursion:
    """``mixing_polynomials`` builds several P_k from one recursion, each
    bitwise ``reference.mixing_polynomial``, the recursion run to k alone."""

    @staticmethod
    def assert_each_alone(w, rounds):
        assert set(w.polynomials) >= set(rounds) - {0}
        for k in set(rounds) - {0}:
            assert np.array_equal(w.polynomials[k], mixing_polynomial(w, k))
            assert not w.polynomials[k].flags.writeable

    @pytest.mark.parametrize("rounds", [
        (426, 192, 192),  # ring100-quad's k_in > hat_k == big_k
        (7, 3, 12),
        (0, 9, 9),
        (0, 0, 0),
        (5,),
    ], ids=["ring100", "three-distinct", "k_in-zero", "all-zero", "one"])
    def test_bitwise_each_k_alone(self, rounds):
        w = make_w("ring", 100 if max(rounds) > 100 else 12)
        mixing_polynomials(w, rounds)
        assert set(w.polynomials) == set(rounds) - {0}
        self.assert_each_alone(w, rounds)

    def test_cached_k_is_kept_and_fastmix_reads_the_rest(self):
        w = make_w("ring", 30)
        u = np.random.default_rng(6).standard_normal((30, 3))
        fastmix(u, w, 40)
        cached = w.polynomials[40]
        mixing_polynomials(w, (60, 40, 20))
        assert w.polynomials[40] is cached
        self.assert_each_alone(w, (20, 40, 60))
        built = dict(w.polynomials)
        fresh = dataclasses.replace(w)
        for k in (0, 20, 40, 60):
            assert np.array_equal(fastmix(u, w, k), fastmix(u, fresh, k))
        assert w.polynomials == built and all(w.polynomials[k] is built[k] for k in built)

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(2, 30),
        graph_seed=st.integers(0, 10_000),
        rounds=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    )
    def test_random_graphs_and_round_sets(self, m, graph_seed, rounds):
        w = make_w("random", m, prob=0.4, seed=graph_seed)
        mixing_polynomials(w, rounds)
        self.assert_each_alone(w, rounds)

    @pytest.mark.parametrize("bad", [-1, 2.5, "3"])
    def test_rejects_bad_round_counts(self, bad):
        w = make_w("ring", 5)
        with pytest.raises(MixingError, match="round count"):
            mixing_polynomials(w, (3, bad))
        assert w.polynomials == {}


class TestFastmixProperties:
    """fastmix against the recursion on random connected graphs (m in 2..40, k in 0..500)."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 40),
        prob=st.floats(0.3, 1.0),
        graph_seed=st.integers(0, 10_000),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 500),
    )
    def test_matches_reference_preserves_means_is_linear_and_cached(
        self, m, prob, graph_seed, d, seed, k
    ):
        w = make_w("random", m, prob=prob, seed=graph_seed)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, m, d)) * rng.uniform(0.1, 100.0, size=(2, 1, d))
        scale = max(np.max(np.abs(u)), np.max(np.abs(v)))

        mixed, _ = fast_and_reference(u, w, k)
        assert np.max(np.abs(mixed.mean(axis=0) - u.mean(axis=0))) <= REFERENCE_TOL * scale

        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        lhs = fastmix(alpha * u + beta * v, w, k)
        rhs = alpha * mixed + beta * fastmix(v, w, k)
        assert np.max(np.abs(lhs - rhs)) <= REFERENCE_TOL * scale

        assert set(w.polynomials) == ({k} if k else set())
        if k:
            cached = w.polynomials[k]
            fastmix(v, w, k)
            assert w.polynomials[k] is cached
            fastmix(v, w, k + 1)
            assert set(w.polynomials) == {k, k + 1}
