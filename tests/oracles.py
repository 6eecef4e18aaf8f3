"""Brute-force oracles for the class and cyclicity checks of `construct`.

`construct.bandyopadhyay_check` decides the partition from the standard
forms alone and `construct.cyclicity_check` is an order test on C.  The
functions here enumerate what those checks stand for: every nonzero Pauli
label of every class, and every power of C up to d + 1.  They cost
O(4^m) and O(d) matrix products, so tests use them for m <= 8.
"""

from mubforge.construct import Z_BASIS, GeneratorSet
from mubforge.gf2 import BitMatrix
from mubforge.pauli import PauliLabel, symplectic_product


def class_labels(gen: BitMatrix) -> list[int]:
    """All nonzero Pauli labels G c (c != 0) as packed 2m-bit integers."""
    m = gen.cols
    cols = [gen.column(j).bits for j in range(m)]
    out = []
    for c in range(1, 1 << m):
        v = 0
        for j in range(m):
            if (c >> j) & 1:
                v ^= cols[j]
        out.append(v)
    return out


def class_partition_check(gens: GeneratorSet) -> bool:
    """Classes are pairwise disjoint, cover all 4^m - 1 labels, and commute within."""
    m = gens.m
    d = 1 << m
    seen: set[int] = set()
    for gen in gens.generators:
        labels = class_labels(gen)
        if len(set(labels)) != d - 1 or 0 in labels:
            return False
        if seen.intersection(labels):
            return False
        seen.update(labels)
        cols = [PauliLabel.from_bits(m, gen.column(j).bits) for j in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if symplectic_product(cols[i], cols[j]):
                    return False
    return len(seen) == (d + 1) * (d - 1)


def bandyopadhyay_oracle(gens: GeneratorSet) -> bool:
    """Symmetric, pairwise-distinct standard forms plus the enumerated partition."""
    forms = gens.standard_forms
    mats = [f for f in forms if f is not Z_BASIS]
    if any(not f.is_symmetric() for f in mats):
        return False
    if len({f.data for f in mats}) != len(mats) or sum(1 for f in forms if f is Z_BASIS) != 1:
        return False
    return class_partition_check(gens)


def cyclicity_walk(C: BitMatrix, d: int) -> bool:
    """True iff C^j != I for 1 <= j <= d and C^(d+1) = I, one product per step."""
    eye = BitMatrix.identity(C.rows)
    acc = C
    for _ in range(d):
        if acc == eye:
            return False
        acc = acc * C
    return acc == eye
