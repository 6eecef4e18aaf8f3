"""Entanglement structure of the bases in a constructed set.

Each class in standard form (M; I) couples qubit i to qubit k exactly when
M has an off-diagonal entry between them, so the tensor-factor structure of
the joint eigenbasis is the multiset of connected-component sizes of M's
off-diagonal graph.  The histogram of these integer partitions over all
d + 1 bases is the entanglement vector; its first entry counts the
completely factorizable bases.
"""

from __future__ import annotations

from functools import lru_cache
from operator import xor
from typing import NamedTuple, Sequence

from .construct import GeneratorSet


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


def _component_sizes(adj: Sequence[int]) -> tuple[int, ...]:
    """Component sizes, largest first, of the graph with adjacency rows adj (BFS)."""
    left = (1 << len(adj)) - 1
    sizes = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        left ^= comp
        sizes.append(bin(comp).count("1"))
    return tuple(sorted(sizes, reverse=True))


class EntanglementVector(NamedTuple):
    """Counts of bases per tensor-factor partition, in canonical order."""

    m: int
    counts: tuple[int, ...]

    @property
    def partitions(self) -> tuple[tuple[int, ...], ...]:
        return partitions_of(self.m)

    def to_json_dict(self) -> dict:
        return {
            "partitions": [list(p) for p in self.partitions],
            "counts": list(self.counts),
        }


def entanglement_vector(gens: GeneratorSet) -> EntanglementVector:
    """Histogram of the tensor-factor partitions over all d + 1 classes.

    The rows of a symmetric form are the adjacency rows of its coupling
    graph, with a self-loop at each set diagonal entry, which the search
    ignores.  The forms are visited in Gray-code order: step i adds
    basis[k] to the rows, for the lowest set bit k of i.
    """
    m = gens.m
    mats = (gens.A, *gens.basis)
    if not all(f.is_symmetric() for f in mats):
        raise ValueError("standard form must be symmetric")
    form, *steps = (f.data for f in mats)
    index = {p: i for i, p in enumerate(partitions_of(m))}
    counts = [0] * len(index)
    counts[0] = 1  # Z_BASIS: every qubit its own factor
    for i in range(1 << m):
        if i:
            form = tuple(map(xor, form, steps[(i & -i).bit_length() - 1]))
        counts[index[_component_sizes(form)]] += 1
    return EntanglementVector(m, tuple(counts))
