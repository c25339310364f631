"""LIBSVM-format parsing and random per-agent partitioning.

Each line of a LIBSVM file is ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices and finite values.  Labels must be one
of {0, 1, -1, +1} and are normalized to {-1, +1} ({0, 1} files map 0 to -1).
Features stay sparse internally (index/value pairs per sample) because
dimensions can run to tens of thousands; ``shard_matrices`` assembles
per-agent CSR matrices.

Partitioning shuffles all sample indices with a seeded permutation and deals
them out as m contiguous blocks of n = floor(N/m); the remainder is dropped
so every agent holds exactly n samples.
"""

from __future__ import annotations

import math
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
    """Sparse samples: per-sample 0-based index/value arrays plus +-1 labels."""

    feature_indices: tuple[np.ndarray, ...]
    feature_values: tuple[np.ndarray, ...]
    labels: np.ndarray
    d: int

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def dense_row(self, j: int) -> np.ndarray:
        row = np.zeros(self.d)
        row[self.feature_indices[j]] = self.feature_values[j]
        return row


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
    error), otherwise the largest feature index seen.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc}") from exc
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    labels: list[float] = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: label {tokens[0]!r} is not numeric") from None
        if label not in _VALID_LABELS:
            raise DatasetError(f"{path}:{lineno}: label {tokens[0]!r} is outside {{0, 1, -1, +1}}")
        idx = np.empty(len(tokens) - 1, dtype=np.int64)
        val = np.empty(len(tokens) - 1, dtype=float)
        prev = 0
        for k, tok in enumerate(tokens[1:]):
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
            val[k] = value
            if one_based <= prev:
                raise DatasetError(
                    f"{path}:{lineno}: feature index {one_based} is not strictly increasing"
                )
            prev = one_based
            idx[k] = one_based - 1
        if prev > max_index:
            max_index = prev
        indices.append(idx)
        values.append(val)
        labels.append(_VALID_LABELS[label])
    d = max_index if d_override is None else int(d_override)
    if d_override is not None and max_index > d_override:
        raise DatasetError(
            f"{path}: feature index {max_index} exceeds the requested dimension {d_override}"
        )
    return SampleSet(
        feature_indices=tuple(indices),
        feature_values=tuple(values),
        labels=np.array(labels),
        d=d,
    )


def write_libsvm(samples: SampleSet, path: str | Path) -> None:
    """Emit LIBSVM text that ``parse_libsvm`` reads back to an equal SampleSet."""
    lines = []
    for j in range(samples.n_samples):
        label = "+1" if samples.labels[j] > 0 else "-1"
        feats = " ".join(
            f"{int(i) + 1}:{float(v)!r}"
            for i, v in zip(samples.feature_indices[j], samples.feature_values[j])
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
    features: list[sp.csr_matrix] = []
    labels: list[np.ndarray] = []
    for shard in part.shards:
        indptr = np.zeros(len(shard) + 1, dtype=np.int64)
        cols = []
        vals = []
        for row, j in enumerate(shard):
            idx = samples.feature_indices[j]
            val = samples.feature_values[j]
            if normalize:
                norm = np.linalg.norm(val)
                if norm > 0.0:
                    val = val / norm
            cols.append(idx)
            vals.append(val)
            indptr[row + 1] = indptr[row] + len(idx)
        data = np.concatenate(vals) if vals else np.empty(0)
        col_idx = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        features.append(
            sp.csr_matrix((data, col_idx, indptr), shape=(len(shard), samples.d))
        )
        labels.append(samples.labels[shard].copy())
    return features, labels
