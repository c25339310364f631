"""LIBSVM-format parsing and random per-agent partitioning.

Each line of a LIBSVM file is ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices and finite values.  Labels must be one
of {0, 1, -1, +1} and are normalized to {-1, +1} ({0, 1} files map 0 to -1).
A parsed file is one CSR matrix with a row per sample, because dimensions
can run to tens of thousands; ``shard_matrices`` gathers each agent's rows
from it.

``parse_libsvm`` has a fast path and an error path.  The fast path reads the
file's bytes in blocks of about 256 KiB, each ending at a line end.  Per
block it finds tokens and colons with whole-array numpy operations and
converts every number with one ``np.fromstring`` call; the output arrays are
sized up front from the file's colon count.  It accepts a file only when all
of these hold, and otherwise hands the whole file to ``_parse_lines``:

- every byte is a digit, ``+ - . e E :``, a space, a tab or ``\\n`` (so CRLF
  files, ``nan``/``inf`` and non-ASCII text take the line parser);
- a line's first token has no colon, and every other token has exactly one
  colon with text on both sides of it;
- ``.``, ``e`` and ``E`` appear only after a token's colon, so labels and
  indices are written as integers (a label such as ``1.0`` takes the line
  parser);
- every number converts and the count of numbers is as expected;
- values are finite, labels are in {0, +-1}, indices lie in [1, 2**31 - 2],
  strictly increase within a row and do not exceed ``d_override``.

Blank and whitespace-only lines are skipped by both paths.  ``_parse_lines``
is the line-by-line parser.  It is the one place that writes the
``file:line`` messages of malformed files, it parses what the fast path
refuses conservatively, and tests compare the fast path with it bitwise.

Partitioning shuffles all sample indices with a seeded permutation and deals
them out as m contiguous blocks of n = floor(N/m); the remainder is dropped
so every agent holds exactly n samples.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SampleSet",
    "Partition",
    "DatasetError",
    "parse_libsvm",
    "write_libsvm",
    "partition",
    "shard_matrices",
]


class DatasetError(ValueError):
    """Malformed dataset file or invalid partition request."""


_VALID_LABELS = {1.0: 1.0, -1.0: -1.0, 0.0: -1.0}


@dataclass(frozen=True)
class SampleSet:
    """Sparse samples: a CSR matrix with one row per sample, plus +-1 labels."""

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def dense_row(self, j: int) -> np.ndarray:
        return self.features[j].toarray().ravel()


@dataclass(frozen=True)
class Partition:
    """Disjoint per-agent shards of sample indices, each of length n."""

    shards: tuple[np.ndarray, ...]
    seed: int
    dropped: int

    @property
    def m(self) -> int:
        return len(self.shards)

    @property
    def n(self) -> int:
        return len(self.shards[0])


def parse_libsvm(path: str | Path, d_override: int | None = None) -> SampleSet:
    """Parse a LIBSVM file; malformed lines are reported with their number.

    The dimension is ``d_override`` when given (an index beyond it is an
    error), otherwise the largest feature index seen.  The blockwise fast
    path parses the file unless one of its checks fails; then the whole
    file goes through ``_parse_lines``, which also writes every error.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc}") from exc
    parsed = _parse_blocks(raw, d_override)
    if parsed is None:
        return _parse_lines(path, raw, d_override)
    return parsed


def _sample_set(values, indices, indptr, labels, d: int) -> SampleSet:
    # scipy picks the index dtype (int32 unless the contents need int64).
    features = sp.csr_matrix((values, indices, indptr), shape=(len(labels), d))
    return SampleSet(features=features, labels=labels)


def _parse_lines(path: Path, raw: bytes, d_override: int | None) -> SampleSet:
    """Parse the file's bytes line by line, raising at the first malformed line.

    This is ``parse_libsvm``'s error path and the reference that its fast
    path must match bitwise.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})"
        ) from None
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    labels = array("d")
    max_index = 0
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        tokens = raw_line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: label {tokens[0]!r} is not numeric") from None
        if label not in _VALID_LABELS:
            raise DatasetError(f"{path}:{lineno}: label {tokens[0]!r} is outside {{0, 1, -1, +1}}")
        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise DatasetError(f"{path}:{lineno}: expected 'index:value', got {tok!r}")
            try:
                one_based = int(part[0])
                value = float(part[1])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric token {tok!r}") from None
            if not math.isfinite(value):
                raise DatasetError(f"{path}:{lineno}: non-finite feature value in {tok!r}")
            if one_based < 1:
                raise DatasetError(
                    f"{path}:{lineno}: feature index {one_based} is below 1 (indices are 1-based)"
                )
            if one_based <= prev:
                raise DatasetError(
                    f"{path}:{lineno}: feature index {one_based} is not strictly increasing"
                )
            prev = one_based
            indices.append(one_based - 1)
            values.append(value)
        if d_override is not None and prev > d_override:
            raise DatasetError(
                f"{path}:{lineno}: feature index {prev} exceeds the requested dimension {d_override}"
            )
        max_index = max(max_index, prev)
        indptr.append(len(indices))
        labels.append(_VALID_LABELS[label])
    d = max_index if d_override is None else int(d_override)
    return _sample_set(np.array(values), np.array(indices), np.array(indptr), np.array(labels), d)


def _byte_set(chars: bytes) -> np.ndarray:
    """A 256-entry lookup table: True at each byte value in ``chars``."""
    table = np.zeros(256, dtype=bool)
    table[np.frombuffer(chars, dtype=np.uint8)] = True
    return table


# The fast path's block size in bytes: a block ends at the first line end at
# or past it.  Blocks bound the fast path's temporaries.
_BLOCK_BYTES = 1 << 18
_FAST_BYTES = _byte_set(b"0123456789+-.eE: \t\n")
_SPACE_BYTES = _byte_set(b" \t\n")
_FLOAT_BYTES = _byte_set(b".eE")
_MAX_INDEX = 2**31 - 2


def _parse_blocks(raw: bytes, d_override: int | None) -> SampleSet | None:
    """The fast path: ``raw`` parsed block by block, or None if a check fails.

    Blocks hold whole lines.  The output arrays are sized up front from the
    file's colon count, so the parsed features are never held twice.
    """
    nnz = raw.count(b":")
    # Accepted indices are below 2**31 - 1, so int32 holds them.
    indices = np.empty(nnz, dtype=np.int32)
    values = np.empty(nnz, dtype=np.float64)
    labels, row_nnz = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    filled = max_index = 0
    start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(raw)
        block = _parse_block(raw[start:stop])
        if block is None:
            return None
        block_labels, block_row_nnz, idx, val = block
        indices[filled:filled + len(idx)] = idx - 1
        values[filled:filled + len(idx)] = val
        filled += len(idx)
        max_index = max(max_index, int(idx.max(initial=0)))
        labels.append(block_labels)
        row_nnz.append(block_row_nnz)
        start = stop
    if d_override is not None and max_index > d_override:
        return None
    row_nnz = np.concatenate(row_nnz)
    indptr = np.zeros(len(row_nnz) + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    d = max_index if d_override is None else int(d_override)
    return _sample_set(values, indices, indptr, np.concatenate(labels), d)


def _parse_block(block: bytes) -> tuple[np.ndarray, ...] | None:
    """Labels (+-1), features per row, indices and values of whole lines.

    Returns None when the block is outside what the fast path accepts.
    """
    if not block.endswith(b"\n"):
        block += b"\n"
    layout = _token_layout(np.frombuffer(block, dtype=np.uint8))
    if layout is None:
        return None
    label_tokens, n_tokens = layout
    try:
        # Unmatched text raises ValueError on numpy 2; older numpy warns and
        # stops early, and the count check below catches that too.  Text of
        # whitespace alone reads as [-1.0], so a block without tokens skips it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            numbers = np.fromstring(block.replace(b":", b" "), sep=" ") if n_tokens else np.zeros(0)
    except (ValueError, DeprecationWarning):
        return None
    # A label is one number and every other token two.
    if len(numbers) != 2 * n_tokens - len(label_tokens) or not np.isfinite(numbers).all():
        return None
    # Token t's first number sits at t plus the colons before it.
    in_label = np.zeros(len(numbers), dtype=bool)
    in_label[2 * label_tokens - np.arange(len(label_tokens))] = True
    labels = numbers[in_label]
    pairs = numbers[~in_label]
    idx, val = pairs[0::2], pairs[1::2]
    row_nnz = np.diff(np.append(label_tokens, n_tokens)) - 1
    row_first = np.cumsum(row_nnz) - row_nnz
    falls = np.zeros(len(idx), dtype=bool)
    falls[1:] = idx[1:] <= idx[:-1]
    falls[row_first[row_first < len(idx)]] = False
    if (
        falls.any()
        or not ((labels == 1.0) | (labels == -1.0) | (labels == 0.0)).all()
        or idx.min(initial=1.0) < 1.0
        or idx.max(initial=1.0) > _MAX_INDEX
    ):
        return None
    # Index tokens are digits with an optional sign, and below 2**31, so
    # the floats are exact integers.
    return np.where(labels > 0.0, 1.0, -1.0), row_nnz, idx, val


def _token_layout(a: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Label token ids and the token count of a block's bytes, or None.

    A line's first token is its label and has no colon; every other token
    is index:value, with one colon and text on both sides of it.
    """
    if not _FAST_BYTES[a].all():
        return None
    space = _SPACE_BYTES[a]
    token_starts = ~space
    token_starts[1:] &= space[:-1]
    token_at = np.flatnonzero(token_starts)
    colon_at = np.flatnonzero(a == ord(":"))
    line_of_token = np.searchsorted(np.flatnonzero(a == ord("\n")), token_at)
    is_label = np.ones(len(token_at), dtype=bool)
    is_label[1:] = line_of_token[1:] != line_of_token[:-1]
    token_of_colon = np.searchsorted(token_at, colon_at, side="right") - 1
    if not (
        np.array_equal(np.bincount(token_of_colon, minlength=len(token_at)), ~is_label)
        and np.all(token_at[token_of_colon] < colon_at)
        and not space[colon_at + 1].any()
    ):
        return None
    # int() rejects "1.0" and "1e0" as an index, so '.', 'e' and 'E' must
    # follow their token's colon.  Labels such as 1.0 go to the line parser.
    colon_of_token = np.full(len(token_at), len(a))
    colon_of_token[token_of_colon] = colon_at
    floaty_at = np.flatnonzero(_FLOAT_BYTES[a])
    if np.any(colon_of_token[np.searchsorted(token_at, floaty_at, side="right") - 1] > floaty_at):
        return None
    return np.flatnonzero(is_label), len(token_at)


def write_libsvm(samples: SampleSet, path: str | Path) -> None:
    """Emit LIBSVM text that ``parse_libsvm`` reads back to an equal SampleSet."""
    f = samples.features
    lines = []
    for j in range(samples.n_samples):
        label = "+1" if samples.labels[j] > 0 else "-1"
        lo, hi = f.indptr[j], f.indptr[j + 1]
        feats = " ".join(
            f"{int(i) + 1}:{float(v)!r}" for i, v in zip(f.indices[lo:hi], f.data[lo:hi])
        )
        lines.append(f"{label} {feats}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n")


def partition(samples: SampleSet, m: int, seed: int) -> Partition:
    """Shuffle sample indices with the seeded RNG and deal m equal shards.

    Shard i receives the i-th contiguous block of n = floor(N/m) shuffled
    indices; the N - m*n leftovers are dropped.  Deterministic in the seed.
    """
    n_total = samples.n_samples
    if m < 1 or n_total < m:
        raise DatasetError(f"cannot split {n_total} samples across {m} agents")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_total)
    n = n_total // m
    shards = tuple(perm[i * n : (i + 1) * n].copy() for i in range(m))
    return Partition(shards=shards, seed=int(seed), dropped=int(n_total - m * n))


def shard_matrices(
    samples: SampleSet,
    part: Partition,
    normalize: bool = False,
) -> tuple[list[sp.csr_matrix], list[np.ndarray]]:
    """Assemble per-agent CSR feature matrices and label vectors.

    ``normalize`` rescales each sample to unit Euclidean norm (zero rows are
    left untouched); default is the raw file values.
    """
    features = samples.features
    if normalize:
        norms = np.sqrt(features.multiply(features).sum(axis=1).A1)
        norms[norms == 0.0] = 1.0
        features = sp.csr_matrix(
            (features.data / np.repeat(norms, np.diff(features.indptr)),
             features.indices, features.indptr),
            shape=features.shape,
        )
    return ([features[shard] for shard in part.shards],
            [samples.labels[shard] for shard in part.shards])
