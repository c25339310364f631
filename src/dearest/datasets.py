"""LIBSVM-format parsing and random per-agent partitioning.

Each line of a LIBSVM file is ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices and finite values.  Labels must be one
of {0, 1, -1, +1} and are normalized to {-1, +1} ({0, 1} files map 0 to -1).
A parsed file is one CSR matrix with a row per sample, because dimensions
can run to tens of thousands.  ``normalize_rows`` scales its rows to unit
norm.  A data split is one (m, n) array of sample indices whose row i holds
agent i's samples: ``shard_matrices`` copies out each agent's rows, and
``LogisticNCObjective.from_rows`` gathers them straight into its stacked
matrix.

``parse_libsvm`` has a fast path for integer-valued files and an error path.
The fast path reads the file's bytes in blocks of about 256 KiB, each ending
at a line end.  Per block it builds one table of *fields*, the maximal runs
of bytes other than space, tab, newline and colon, with whole-array numpy
operations, checks the line layout on that table and converts every field
with digit arithmetic in int64, which is exact, then casts it to float64.
The output arrays are sized up front from the file's colon count.  It
accepts a file only when all of these hold, and otherwise hands the whole
file to ``_parse_lines``:

- every byte is a digit, ``+ - :``, a space, a tab or ``\n`` (so CRLF files,
  float values such as ``0.5`` or ``1e-3``, ``nan``/``inf`` and non-ASCII
  text take the line parser);
- every field (label, index and value) is ``[+-]?[0-9]{1,18}``;
- a line's first field touches no colon, every colon has a field on both
  sides, and no field touches two colons, so the rest of a line pairs up as
  index:value tokens;
- labels are in {0, +-1}, indices lie in [1, 2**31 - 2], strictly increase
  within a row and do not exceed ``d_override``.

Blank and whitespace-only lines are skipped by both paths.  ``_parse_lines``
is the line-by-line parser.  It is the one place that writes the
``file:line`` messages of malformed files, it parses every file the fast
path refuses, and tests compare the fast path with it bitwise.

``partition`` shuffles all sample indices with a seeded permutation and
reshapes its first m*n, n = floor(N/m), into that (m, n) array; the remainder
is dropped so every agent holds exactly n samples.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SampleSet",
    "DatasetError",
    "parse_libsvm",
    "write_libsvm",
    "partition",
    "normalize_rows",
    "shard_matrices",
]


class DatasetError(ValueError):
    """Malformed dataset file or invalid partition request."""


_VALID_LABELS = {1.0: 1.0, -1.0: -1.0, 0.0: -1.0}
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sparse samples: a CSR matrix with one row per sample, plus +-1 labels.

    Compared and hashed by identity, as is ``GossipMatrix``.
    """

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


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
    return _parse(path, raw, d_override)


def _parse(path: Path, raw: bytes, d_override: int | None) -> SampleSet:
    """The file's bytes through the fast path, or through ``_parse_lines`` if it fails."""
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
            if one_based > _INT64_MAX:
                raise DatasetError(f"{path}:{lineno}: feature index {one_based} does not fit in int64")
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


# The fast path's block size in bytes: a block ends at the first line end at
# or past it.  Blocks bound the fast path's temporaries.
_BLOCK_BYTES = 1 << 18
_FAST_BYTES = b"0123456789+-: \t\n"
_MAX_INDEX = 2**31 - 2
# Fields of at most this many digits are converted exactly in int64
# (10**18 - 1 < 2**63); a longer one sends its file to the line parser.
_MAX_DIGITS = 18


def _parse_blocks(raw: bytes, d_override: int | None) -> SampleSet | None:
    """The fast path: ``raw`` parsed block by block, or None if a check fails.

    Blocks hold whole lines.  The output arrays are sized up front from the
    file's colon count, so the parsed features are never held twice.
    """
    # Counted over block-sized views, so that no temporary is file-sized.
    a = np.frombuffer(raw, dtype=np.uint8)
    nnz = sum(_count_colons(a[k:k + _BLOCK_BYTES]) for k in range(0, len(a), _BLOCK_BYTES))
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


def _count_colons(a: np.ndarray) -> int:
    return int(np.count_nonzero(a == ord(":")))


def _parse_block(block: bytes) -> tuple[np.ndarray, ...] | None:
    """Labels (+-1), features per row, indices and values of whole lines.

    Returns None when the block is outside what the fast path accepts.
    """
    if not block.endswith(b"\n"):
        block += b"\n"
    # Field offsets are held as int32.
    if len(block) > 2**31 - 1 or block.translate(None, _FAST_BYTES):
        return None
    a = np.frombuffer(block, dtype=np.uint8)
    layout = _field_layout(a, _count_colons(a))
    if layout is None:
        return None
    starts, ends, is_value, label_fields, row_nnz = layout
    numbers = _field_numbers(a, starts, ends)
    if numbers is None:
        return None
    labels = numbers[label_fields]
    # Each index field directly precedes its value field.
    value_fields = np.flatnonzero(is_value)
    idx = numbers.take(value_fields - 1)
    val = numbers.take(value_fields)
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
    # Index fields are integers below 2**31, so the floats are exact.
    return np.where(labels > 0.0, 1.0, -1.0), row_nnz, idx, val


def _field_layout(a: np.ndarray, n_colons: int) -> tuple[np.ndarray, ...] | None:
    """The field table of a block's bytes, or None if its lines are malformed.

    A field is a maximal run of bytes other than space, tab, newline and
    colon.  A line's first field is its label and touches no colon; every
    other field is an index or a value, joined by one colon into an
    index:value token.  Returns the fields' start and end offsets (int32),
    which fields are values, the label fields and each row's feature count.
    """
    # Once the byte check passed, only space, tab and newline lie at or
    # below ' '.
    sep = (a <= ord(" ")) | (a == ord(":"))
    edge = np.empty(len(a), dtype=bool)
    edge[0] = not sep[0]
    np.not_equal(sep[1:], sep[:-1], out=edge[1:])
    del sep
    # Starts and ends alternate, since the block ends with a newline.
    bounds = np.flatnonzero(edge).astype(np.int32)
    del edge
    starts, ends = bounds[0::2], bounds[1::2]
    # a[-1] is the block's final newline, so a field at offset 0 reads as
    # following a line end.  (take is faster than [] with int32 positions.)
    is_value = a.take(starts - 1) == ord(":")
    is_index = a.take(ends) == ord(":")
    # Every colon has a field on each side of it, and no field touches two.
    if (
        np.count_nonzero(is_value) != n_colons
        or np.count_nonzero(is_index) != n_colons
        or (is_value & is_index).any()
    ):
        return None
    # A line's fields are those that end after the previous line end.
    upto = np.searchsorted(ends, np.flatnonzero(a == ord("\n")), side="right")
    per_line = np.diff(upto, prepend=0)
    rows = per_line > 0
    label_fields = (upto - per_line)[rows]
    # Each line starts with a field that touches no colon, and no other
    # field is bare, so the rest of a line pairs up as index:value.
    if is_index[label_fields].any() or len(starts) - 2 * n_colons != len(label_fields):
        return None
    return starts, ends, is_value, label_fields, (per_line[rows] - 1) // 2


def _field_numbers(a: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Every field's number as float64, or None if a field is not ``[+-]?[0-9]{1,18}``.

    Each field is summed digit by digit from the right in int64, which is
    exact, and cast to float64, which rounds correctly, so it gets the bits
    ``float()`` gives it.  The sign is applied after the cast, so ``-0`` is
    -0.0.
    """
    leading = a.take(starts)
    negative = leading == ord("-")
    signed = negative | (leading == ord("+"))
    digits = ends - starts - signed
    # Every '+' and '-' in the block must open its field.
    if (
        np.count_nonzero(a == ord("+")) + np.count_nonzero(a == ord("-")) != np.count_nonzero(signed)
        or ((digits < 1) | (digits > _MAX_DIGITS)).any()
    ):
        return None
    # Sum the digits from the right: every field's units digit, then the
    # tens digit of fields with two digits or more, and so on.
    whole = a.take(ends - 1).astype(np.int64) - ord("0")
    longer = np.flatnonzero(digits > 1)
    place = 1
    for k in range(1, int(digits.max(initial=0))):
        place *= 10
        longer = longer[digits[longer] > k]
        whole[longer] += (a.take(ends.take(longer) - 1 - k).astype(np.int64) - ord("0")) * place
    del digits, longer
    numbers = whole.astype(np.float64)
    del whole
    np.negative(numbers, out=numbers, where=negative)
    return numbers


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


def partition(samples: SampleSet, m: int, seed: int) -> np.ndarray:
    """The seeded split of the samples among m agents: an (m, n) index array.

    Row i is agent i's block of n = floor(N/m) indices from a seeded
    permutation of all N; the N - m*n leftovers are dropped.  A view, not
    per-agent copies.  Deterministic in the seed.
    """
    n_total = samples.n_samples
    if m < 1 or n_total < m:
        raise DatasetError(f"cannot split {n_total} samples across {m} agents")
    return np.random.default_rng(seed).permutation(n_total)[: m * (n_total // m)].reshape(m, -1)


def normalize_rows(samples: SampleSet) -> SampleSet:
    """The samples with each row rescaled to unit Euclidean norm.

    Zero rows are left untouched.  The scaling is per row, so it does not
    depend on how the rows are later split across agents.
    """
    features = samples.features
    norms = np.sqrt(features.multiply(features).sum(axis=1).A1)
    norms[norms == 0.0] = 1.0
    features = sp.csr_matrix(
        (features.data / np.repeat(norms, np.diff(features.indptr)),
         features.indices, features.indptr),
        shape=features.shape,
    )
    return SampleSet(features=features, labels=samples.labels)


def shard_matrices(
    samples: SampleSet, shards: np.ndarray
) -> tuple[list[sp.csr_matrix], list[np.ndarray]]:
    """Per-agent CSR feature matrices and label vectors of the rows ``shards[i]``, copied."""
    return ([samples.features[shard] for shard in shards],
            [samples.labels[shard] for shard in shards])
