"""LIBSVM parsing, emission round-trips, and seeded partitioning."""

import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dearest import datasets
from dearest.datasets import (
    DatasetError,
    SampleSet,
    normalize_rows,
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
        np.testing.assert_array_equal(samples.features[0].toarray().ravel(), [0.5, 0.0, 2.0])

    def test_dimension_inferred_from_max_index(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "+1 2:1.0\n-1 5:3.0\n"))
        assert samples.d == 5

    def test_zero_one_labels_normalized(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "1 1:1.0\n0 1:2.0\n"))
        np.testing.assert_array_equal(samples.labels, [1.0, -1.0])

    def test_empty_feature_list_is_valid(self, tmp_path):
        samples = parse_libsvm(write(tmp_path, "-1\n+1 2:1.0\n"))
        assert samples.n_samples == 2
        np.testing.assert_array_equal(samples.features[0].toarray().ravel(), [0.0, 0.0])

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

    def test_index_beyond_override_names_its_line(self, tmp_path):
        path = write(tmp_path, "+1 1:1\n\n-1 2:1 200:1\n+1 300:1\n")
        with pytest.raises(
            DatasetError,
            match=r"data.txt:3: feature index 200 exceeds the requested dimension 123$",
        ):
            parse_libsvm(path, d_override=123)

    @pytest.mark.parametrize("index", ["0", "-3"])
    def test_index_below_one(self, tmp_path, index):
        path = write(tmp_path, f"-1 2:1\n+1 {index}:1\n")
        with pytest.raises(
            DatasetError,
            match=rf"data.txt:2: feature index {index} is below 1 \(indices are 1-based\)$",
        ):
            parse_libsvm(path)

    def test_non_utf8_bytes_name_file_and_offset(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"+1 1:1\n-1 2:\xff\n")
        with pytest.raises(DatasetError, match=r"data.txt: byte 12 is not UTF-8 text"):
            parse_libsvm(path)

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

    def test_partitions_and_sample_sets_compare_by_identity(self, tmp_path):
        path = write(tmp_path, synthetic_samples(10))
        s1, s2 = parse_libsvm(path, d_override=6), parse_libsvm(path, d_override=6)
        p1, p2 = partition(s1, 2, seed=0), partition(s1, 2, seed=0)
        for a, b in ((s1, s2), (p1, p2)):
            assert a != b and not (a == b)
            assert a == a
            assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)

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

    def test_rows_of_normalized_samples(self, tmp_path):
        # The spec's normalize scales the parsed file once (cli.load_samples);
        # shards copied from the scaled samples hold unit-norm rows.
        samples = parse_libsvm(write(tmp_path, "+1 1:3.0 2:4.0\n-1\n"), d_override=2)
        part = partition(samples, 2, seed=0)
        feats, _ = shard_matrices(normalize_rows(samples), part)
        norms = [np.linalg.norm(np.asarray(f.todense())) for f in feats]
        # one sample has norm 5 -> scaled to 1; the all-zero row stays zero
        assert sorted(round(v, 12) for v in norms) == [0.0, 1.0]

        text = synthetic_samples(12, seed=5)
        samples = parse_libsvm(write(tmp_path, text, name="many.txt"), d_override=6)
        rows, _ = rows_from_text(text, 6)
        part = partition(samples, 3, seed=2)
        feats, _ = shard_matrices(normalize_rows(samples), part)
        for shard, f in zip(part.shards, feats):
            for row, j in enumerate(shard):
                norm = np.linalg.norm(rows[j])
                expected = rows[j] / norm if norm > 0.0 else rows[j]
                np.testing.assert_allclose(f[row].toarray().ravel(), expected, rtol=1e-15, atol=0.0)


def line_parse(path, d_override=None):
    """The line parser on the file's bytes: the reference for the fast path."""
    return datasets._parse_lines(path, path.read_bytes(), d_override)


def assert_bitwise_equal(got: SampleSet, want: SampleSet):
    assert got.features.shape == want.features.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.features, name), getattr(want.features, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()


# Integers of up to 18 digits are converted exactly by the fast path; longer
# ones (up to 20 digits, or zero-padded to 19) go through np.fromstring.
INTEGER_TEXTS = st.one_of(
    st.integers(0, 1000).map(str),
    st.integers(10**15, 10**20 - 1).map(str),
    st.integers(0, 10**16).map(lambda k: f"{k:019d}"),
    st.sampled_from(["0", "007", "9007199254740993", "999999999999999999",
                     "9999999999999999999"]),
)
VALUE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.sampled_from(["", "+", "-"]), INTEGER_TEXTS).map("".join),
    st.integers(0, 999).map(lambda k: f".{k}"),
    st.sampled_from(["1e-3", "2.5E2", "-7e+01", "1E0", "5e-324"]),
)
LABEL_TEXTS = st.sampled_from(["+1", "-1", "1", "0", "+0", "-0", "01", "-01", "000"])
INDEX_FORMATS = st.sampled_from(["{}", "+{}", "00{}", "+0{}"])
SPACES = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def libsvm_texts(draw):
    """Valid LIBSVM text and its largest feature index."""
    lines, max_index = [], 0
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t"])))
            continue
        indices = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        tokens = [draw(LABEL_TEXTS)]
        tokens += [f"{draw(INDEX_FORMATS).format(i)}:{draw(VALUE_TEXTS)}" for i in indices]
        line = draw(st.sampled_from(["", " ", "\t"]))
        for tok in tokens:
            line += tok + draw(SPACES)
        lines.append(line if draw(st.booleans()) else line.rstrip())
        max_index = max([max_index] + indices)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, max_index


class TestFastPath:
    """The blockwise fast path against the line parser it falls back to."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=libsvm_texts(),
        extra_dims=st.one_of(st.none(), st.integers(0, 5)),
        block_bytes=st.sampled_from([8, 40, 1 << 18]),
    )
    def test_matches_line_parser(self, case, extra_dims, block_bytes):
        # In memory: parse_libsvm's dispatch on the bytes, with no temporary
        # file per example.
        text, max_index = case
        d_override = None if extra_dims is None else max_index + extra_dims
        path, raw = Path("data.txt"), text.encode()
        with mock.patch.object(datasets, "_BLOCK_BYTES", block_bytes):
            # Only CRLF files take the slow path here.
            assert (datasets._parse_blocks(raw, d_override) is None) == ("\r" in text)
            got = datasets._parse(path, raw, d_override)
        assert_bitwise_equal(got, datasets._parse_lines(path, raw, d_override))

    @pytest.mark.parametrize("text", [
        "", "\n", " \t\n\n", "+1", "-1\n\n\n", "  \t\n+1 2:1", "0\t1:.5  3:1e-3\n",
        "+1 1:1\r\n-1 2:2.5E2\r\n", "1.0 1:1\n",
    ])
    def test_edge_cases_match_line_parser(self, tmp_path, text):
        path = write(tmp_path, text)
        for d_override in (None, 7):
            with mock.patch.object(datasets, "_BLOCK_BYTES", 4):
                got = parse_libsvm(path, d_override)
            assert_bitwise_equal(got, line_parse(path, d_override))

    def test_write_libsvm_output_takes_fast_path(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((300, 50)) * 10.0 ** rng.uniform(-30, 30, (300, 50))
        dense[rng.random((300, 50)) >= 0.1] = 0.0
        features = sp.csr_matrix(dense)
        samples = SampleSet(features, np.where(rng.random(300) < 0.5, 1.0, -1.0))
        path = tmp_path / "real.txt"
        write_libsvm(samples, path)
        assert datasets._parse_blocks(path.read_bytes(), 50) is not None
        got = parse_libsvm(path, d_override=50)
        assert_bitwise_equal(got, line_parse(path, 50))
        np.testing.assert_array_equal(got.features.data, features.data)

    FAULTS = {
        "label-not-numeric": lambda label, toks, last: ("spam", toks),
        "label-out-of-range": lambda label, toks, last: ("2", toks),
        "label-after-feature": lambda label, toks, last: ("1:1", [label]),
        "two-colons": lambda label, toks, last: (label, toks + ["1:2:3"]),
        "empty-value": lambda label, toks, last: (label, toks + ["3:"]),
        "empty-index": lambda label, toks, last: (label, toks + [":3"]),
        "space-after-colon": lambda label, toks, last: (label, toks + ["1:", "2"]),
        "float-index": lambda label, toks, last: (label, toks + ["1.0:3"]),
        "exponent-index": lambda label, toks, last: (label, toks + ["1e0:3"]),
        "zero-index": lambda label, toks, last: (label, toks + ["0:1"]),
        "decreasing-index": lambda label, toks, last: (
            label, toks + [f"{last + 2}:1", f"{last + 1}:1"]),
        "nan-value": lambda label, toks, last: (label, toks + [f"{last + 1}:nan"]),
        "inf-value": lambda label, toks, last: (label, toks + [f"{last + 1}:inf"]),
        "overflowing-value": lambda label, toks, last: (label, toks + [f"{last + 1}:1e999"]),
        "stray-token": lambda label, toks, last: (label, toks + ["17"]),
        "sign-inside-value": lambda label, toks, last: (label, toks + ["3:1-2"]),
        "sign-only-value": lambda label, toks, last: (label, toks + ["3:+"]),
        "two-sign-index": lambda label, toks, last: (label, toks + ["+-3:1"]),
        "index-beyond-int64": lambda label, toks, last: (
            label, toks + ["99999999999999999999:1"]),
        "beyond-d-override": lambda label, toks, last: (label, toks + ["26:1"]),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_corruption_raises_line_parser_message(self, tmp_path, fault):
        rng = np.random.default_rng(sorted(self.FAULTS).index(fault))
        rows = []
        for _ in range(120):
            idx = np.sort(rng.choice(20, size=int(rng.integers(0, 5)), replace=False)) + 1
            rows.append(("+1" if rng.random() < 0.5 else "-1",
                         [f"{i}:{rng.standard_normal()!r}" for i in idx],
                         int(idx[-1]) if len(idx) else 0))
        path = tmp_path / "data.txt"
        for target in (0, int(rng.integers(1, 119)), 119):
            lines = []
            for r, (label, toks, last) in enumerate(rows):
                if r == target:
                    label, toks = self.FAULTS[fault](label, toks, last)
                lines.append(" ".join([label] + toks))
                if r % 10 == 3:
                    lines.append("")
            path.write_text("\n".join(lines) + "\n")
            lineno = target + 1 + (target + 6) // 10
            with warnings.catch_warnings(), mock.patch.object(datasets, "_BLOCK_BYTES", 256):
                warnings.simplefilter("error")
                with pytest.raises(DatasetError) as fast:
                    parse_libsvm(path, d_override=25)
                with pytest.raises(DatasetError) as slow:
                    line_parse(path, d_override=25)
            assert str(fast.value) == str(slow.value)
            assert str(fast.value).startswith(f"{path}:{lineno}: ")

    def test_peak_memory_at_most_line_parser(self, tmp_path):
        # a9a-shaped: 14 distinct binary features of 123 per row.
        rng = np.random.default_rng(3)
        path = tmp_path / "a9a_like.txt"
        with path.open("w") as fh:
            for _ in range(16_000):
                cols = np.sort(rng.choice(123, size=14, replace=False)) + 1
                fh.write(("+1" if rng.random() < 0.5 else "-1")
                         + "".join(f" {k}:1" for k in cols) + "\n")
        assert path.stat().st_size >= 4 * datasets._BLOCK_BYTES
        assert datasets._parse_blocks(path.read_bytes(), 123) is not None
        fast, fast_peak = traced_peak(lambda: parse_libsvm(path, 123))
        slow, slow_peak = traced_peak(lambda: line_parse(path, 123))
        assert_bitwise_equal(fast, slow)
        assert fast_peak <= slow_peak, (fast_peak, slow_peak)


def traced_peak(fn):
    """``fn()`` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
