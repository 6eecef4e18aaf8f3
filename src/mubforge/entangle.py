"""Entanglement structure of the bases in a constructed set.

Each class in standard form (M; I) couples qubit i to qubit k exactly when
M has an off-diagonal entry between them, so the tensor-factor structure of
the joint eigenbasis is the multiset of connected-component sizes of M's
off-diagonal graph.  The histogram of these integer partitions over all
d + 1 bases is the entanglement vector; its first entry counts the
completely factorizable bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .construct import GeneratorSet, Z_BASIS
from .gf2 import BitMatrix, offdiag_components


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of m, parts descending, in canonical order.

    Canonical order sorts ascending by largest part, then next largest, so
    (1, ..., 1) comes first and (m,) last.
    """
    if m < 1:
        raise ValueError("m must be >= 1")

    def gen(n: int, cap: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        out = []
        for first in range(min(n, cap), 0, -1):
            out.extend((first,) + rest for rest in gen(n - first, first))
        return out

    return tuple(sorted(gen(m, m)))


def partition_of(entry, m: int) -> tuple[int, ...]:
    """Tensor-factor partition of one basis from its standard-form entry."""
    if entry is Z_BASIS:
        return (1,) * m
    if not isinstance(entry, BitMatrix):
        raise TypeError(f"expected Z_BASIS or BitMatrix, got {type(entry).__name__}")
    if not entry.is_symmetric():
        raise ValueError("standard form must be symmetric")
    sizes = sorted((len(c) for c in offdiag_components(entry)), reverse=True)
    return tuple(sizes)


@dataclass(frozen=True)
class EntanglementVector:
    """Counts of bases per tensor-factor partition, in canonical order."""

    m: int
    partitions: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "partitions": [list(p) for p in self.partitions],
            "counts": list(self.counts),
        }

    def factorizable(self) -> int:
        return self.counts[0]


def entanglement_vector(gens: GeneratorSet) -> EntanglementVector:
    """Histogram of partition_of over all d + 1 standard forms."""
    parts = partitions_of(gens.m)
    index = {p: i for i, p in enumerate(parts)}
    counts = [0] * len(parts)
    for entry in gens.standard_forms:
        counts[index[partition_of(entry, gens.m)]] += 1
    return EntanglementVector(gens.m, parts, tuple(counts))

