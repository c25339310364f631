"""LIBSVM-format parsing and random per-agent partitioning.

Each line of a LIBSVM file is ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices and finite values.  Labels must be one
of {0, 1, -1, +1} and are normalized to {-1, +1} ({0, 1} files map 0 to -1).
A parsed file is one CSR matrix with a row per sample, because dimensions
can run to tens of thousands; ``shard_matrices`` gathers each agent's rows
from it.

Partitioning shuffles all sample indices with a seeded permutation and deals
them out as m contiguous blocks of n = floor(N/m); the remainder is dropped
so every agent holds exactly n samples.
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
    error), otherwise the largest feature index seen.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc}") from exc
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    labels = array("d")
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
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
            if one_based <= prev:
                raise DatasetError(
                    f"{path}:{lineno}: feature index {one_based} is not strictly increasing"
                )
            prev = one_based
            indices.append(one_based - 1)
            values.append(value)
        max_index = max(max_index, prev)
        indptr.append(len(indices))
        labels.append(_VALID_LABELS[label])
    d = max_index if d_override is None else int(d_override)
    if d_override is not None and max_index > d_override:
        raise DatasetError(
            f"{path}: feature index {max_index} exceeds the requested dimension {d_override}"
        )
    features = sp.csr_matrix(
        (np.array(values), np.array(indices), np.array(indptr)), shape=(len(labels), d)
    )
    return SampleSet(features=features, labels=np.array(labels))


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
