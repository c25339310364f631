"""LIBSVM parsing, emission round-trips, and seeded partitioning."""

import numpy as np
import pytest

from dearest.datasets import (
    DatasetError,
    parse_libsvm,
    partition,
    shard_matrices,
    write_libsvm,
)


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_basic_line(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "+1 1:0.5 3:2.0\n"), d_override=3)
        assert samples.n_samples == 1
        assert samples.d == 3
        assert samples.labels[0] == 1.0
        np.testing.assert_array_equal(samples.dense_row(0), [0.5, 0.0, 2.0])

    def test_dimension_inferred_from_max_index(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "+1 2:1.0\n-1 5:3.0\n"))
        assert samples.d == 5

    def test_zero_one_labels_normalized(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "1 1:1.0\n0 1:2.0\n"))
        np.testing.assert_array_equal(samples.labels, [1.0, -1.0])

    def test_empty_feature_list_is_valid(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "-1\n+1 2:1.0\n"))
        assert samples.n_samples == 2
        np.testing.assert_array_equal(samples.dense_row(0), [0.0, 0.0])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            parse_libsvm(tmp_path / "missing.txt")

    def test_non_numeric_label(self, tmp_path):
        with pytest.raises(DatasetError, match=r"data.txt:2.*not numeric"):
            parse_libsvm(write(tmp_path, "+1 1:1.0\nspam 1:1.0\n"))

    def test_label_out_of_range(self, tmp_path):
        with pytest.raises(DatasetError, match=r"data.txt:1.*outside"):
            parse_libsvm(write(tmp_path, "2 1:1.0\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(DatasetError, match=r"data.txt:1.*non-numeric"):
            parse_libsvm(write(tmp_path, "+1 1:abc\n"))

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_value(self, tmp_path, value):
        path = write(tmp_path, f"+1 1:1.0\n-1 1:0.5 3:{value} 4:1.0\n")
        with pytest.raises(DatasetError, match=rf"data.txt:2: non-finite .*'3:{value}'"):
            parse_libsvm(path)

    def test_non_increasing_indices(self, tmp_path):
        with pytest.raises(DatasetError, match=r"data.txt:1.*strictly increasing"):
            parse_libsvm(write(tmp_path, "+1 3:1.0 3:2.0\n"))
        with pytest.raises(DatasetError, match="strictly increasing"):
            parse_libsvm(write(tmp_path, "+1 3:1.0 2:2.0\n", name="d2.txt"))

    def test_malformed_pair(self, tmp_path):
        with pytest.raises(DatasetError, match="index:value"):
            parse_libsvm(write(tmp_path, "+1 1:1.0 17\n"))

    def test_index_beyond_override(self, tmp_path):
        with pytest.raises(DatasetError, match="exceeds"):
            parse_libsvm(write(tmp_path, "+1 7:1.0\n"), d_override=3)

    def test_round_trip(self, tmp_path):
        original = parse_libsvm(
            write(tmp_path, "+1 1:0.25 4:-3.5\n-1\n0 2:1e-7\n"), d_override=6
        )
        out = tmp_path / "echo.txt"
        write_libsvm(original, out)
        back = parse_libsvm(out, d_override=6)
        assert back.n_samples == original.n_samples
        assert back.d == original.d
        np.testing.assert_array_equal(back.labels, original.labels)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(back.features, name), getattr(original.features, name)
            )


def synthetic_samples(n, d=6, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        nnz = int(rng.integers(0, 4))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)) + 1
        feats = " ".join(f"{i}:{rng.random():.6f}" for i in idx)
        label = "+1" if rng.random() < 0.5 else "-1"
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def rows_from_text(text, d):
    """Dense feature rows and +-1 labels read straight from LIBSVM text."""
    rows, labels = [], []
    for line in text.splitlines():
        label, *pairs = line.split()
        row = np.zeros(d)
        for pair in pairs:
            index, value = pair.split(":")
            row[int(index) - 1] = float(value)
        rows.append(row)
        labels.append(1.0 if float(label) > 0 else -1.0)
    return rows, labels


class TestPartition:
    def test_even_split(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, synthetic_samples(10)), d_override=6)
        part = partition(samples, 2, seed=0)
        assert part.m == 2 and part.n == 5 and part.dropped == 0

    def test_a9a_shaped_split(self, tmp_path):
        # 32,561 samples over 20 agents: 1,628 each, 1 dropped, 32,560 used
        samples = parse_libsvm(write(tmp_path, "+1 1:1.0\n" * 32561), d_override=1)
        part = partition(samples, 20, seed=0)
        assert part.n == 1628
        assert part.dropped == 1
        assert sum(len(s) for s in part.shards) == 32560

    def test_determinism(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, synthetic_samples(37)), d_override=6)
        p1 = partition(samples, 4, seed=9)
        p2 = partition(samples, 4, seed=9)
        for s1, s2 in zip(p1.shards, p2.shards):
            np.testing.assert_array_equal(s1, s2)

    def test_shards_are_a_permutation_restriction(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, synthetic_samples(23)), d_override=6)
        part = partition(samples, 3, seed=4)
        used = np.concatenate(part.shards)
        assert len(used) == len(set(used.tolist())) == 21
        assert part.dropped == 2
        assert set(used.tolist()) <= set(range(23))

    def test_too_few_samples(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, synthetic_samples(3)), d_override=6)
        with pytest.raises(DatasetError, match="cannot split"):
            partition(samples, 4, seed=0)


class TestShardMatrices:
    def test_rows_match_samples(self, tmp_path):
        text = synthetic_samples(12, seed=3)
        samples = parse_libsvm(write(tmp_path, text), d_override=6)
        rows, row_labels = rows_from_text(text, 6)
        part = partition(samples, 3, seed=1)
        feats, labels = shard_matrices(samples, part)
        assert len(feats) == 3
        for shard, f, lab in zip(part.shards, feats, labels):
            assert f.shape == (4, 6)
            for row, j in enumerate(shard):
                np.testing.assert_array_equal(f[row].toarray().ravel(), rows[j])
                assert lab[row] == row_labels[j]

    def test_normalize_flag(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "+1 1:3.0 2:4.0\n-1\n"), d_override=2)
        part = partition(samples, 2, seed=0)
        feats, _ = shard_matrices(samples, part, normalize=True)
        norms = [np.linalg.norm(np.asarray(f.todense())) for f in feats]
        # one sample has norm 5 -> scaled to 1; the all-zero row stays zero
        assert sorted(round(v, 12) for v in norms) == [0.0, 1.0]

        text = synthetic_samples(12, seed=5)
        samples = parse_libsvm(write(tmp_path, text, name="many.txt"), d_override=6)
        rows, _ = rows_from_text(text, 6)
        part = partition(samples, 3, seed=2)
        feats, _ = shard_matrices(samples, part, normalize=True)
        for shard, f in zip(part.shards, feats):
            for row, j in enumerate(shard):
                norm = np.linalg.norm(rows[j])
                expected = rows[j] / norm if norm > 0.0 else rows[j]
                np.testing.assert_allclose(f[row].toarray().ravel(), expected, rtol=1e-15, atol=0.0)
