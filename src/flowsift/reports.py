"""Report type shared by every detector's top-k output, and its ranking rule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class HeavyReport:
    """A detector's ranked (key bytes, estimated statistic) list."""

    entries: list[tuple[bytes, float]] = field(default_factory=list)

    def keys(self) -> list[bytes]:
        return [k for k, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def rank_order(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row order of (n, w) uint8 keys and their values: largest value
    first, ties by key bytes ascending."""
    # lexsort's last key is the primary one: -value, then the key bytes in order
    return np.lexsort((*matrix.T[::-1], -values))


def ranked(pairs: list[tuple[bytes, float]]) -> list[tuple[bytes, float]]:
    """(key, value) pairs of equal-width keys in ``rank_order``, which is
    ``sorted(pairs, key=lambda kv: (-kv[1], kv[0]))``."""
    if not pairs:
        return []
    keys, values = zip(*pairs)
    matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    return [pairs[i] for i in rank_order(matrix, np.asarray(values)).tolist()]
