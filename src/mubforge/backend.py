"""The symmetric-candidate scan: the candidate encoding and its numpy kernel.

Candidate index k encodes a symmetric m x m matrix through its upper triangle
(diagonal included) read row-major, most significant bit first, so ascending
k is lexicographic order on the matrix entries.  Rows are bitmasks: bit j of
row i is entry (i, j).

The scalar codec is plain Python.  numpy is imported by the kernel itself,
so only an exhaustive search loads it; random search never scans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BLOCK_BITS = 13  # the kernel decodes at most 2^13 candidates at a time


def _pair_positions(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


def decode_symmetric(m: int, k: int) -> tuple[int, ...]:
    """Row bitmasks of the k-th symmetric matrix."""
    pairs = _pair_positions(m)
    n = len(pairs)
    rows = [0] * m
    for b, (i, j) in enumerate(pairs):
        if (k >> (n - 1 - b)) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def encode_symmetric(m: int, rows) -> int:
    """Candidate index of the symmetric matrix with the given row bitmasks."""
    pairs = _pair_positions(m)
    n = len(pairs)
    k = 0
    for b, (i, j) in enumerate(pairs):
        if (rows[i] >> j) & 1:
            k |= 1 << (n - 1 - b)
    return k


def _decode_block(m: int, base: int, offsets: np.ndarray) -> list[np.ndarray]:
    """Row masks of the candidates base + offsets, one uint64 array per row.

    `base` has its low BLOCK_BITS bits clear and every offset is below
    2^BLOCK_BITS, so each index bit comes from exactly one of the two and
    the decoded entries of the two parts are disjoint.
    """
    import numpy as np

    pairs = _pair_positions(m)
    n = len(pairs)
    rows = [np.full(offsets.shape, r, dtype=np.uint64) for r in decode_symmetric(m, base)]
    for s in range(min(n, BLOCK_BITS)):
        i, j = pairs[n - 1 - s]
        bit = (offsets >> s) & 1
        rows[i] |= bit << j
        if i != j:
            rows[j] |= bit << i
    return rows


def _matvec(rows: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """B v for every candidate at once.

    B is symmetric, so B v is the XOR of the rows i where bit i of v is set.
    """
    import numpy as np

    out = np.zeros_like(v)
    for i, row in enumerate(rows):
        out ^= row * ((v >> i) & 1)
    return out


def scan_symmetric(m: int, good_polys: tuple[int, ...], start: int, stop: int) -> list[int]:
    """Candidate indices in [start, stop) whose matrix has a good char poly.

    `good_polys` are the coefficient masks of irreducible polynomials p of
    degree m.  Each candidate B is tested on the first Krylov chain of
    `gf2.char_poly`, v_t = B^t e_0 (t = 0..m): it hits iff
    sum_t p_t v_t = p(B) e_0 = 0 for some good p.  That is exact: p(B) e_0 = 0
    makes the minimal polynomial of e_0 divide p, so it is p itself (p is
    irreducible and e_0 != 0); its degree m means this one chain spans
    F_2^m, so char(B) = p by the chain product of `gf2.char_poly`.
    Conversely char(B) = p gives p(B) = 0.  This is Wiedemann's
    single-vector test (IEEE Trans. Inf. Theory 32, 1986): m matrix-vector
    products and a few XORs per poly, instead of a matrix Horner evaluation
    per poly.
    """
    import numpy as np

    hits: list[int] = []
    size = 1 << BLOCK_BITS
    lo = start
    while lo < stop:
        base = lo & -size
        hi = min(stop, base + size)
        offsets = np.arange(lo - base, hi - base, dtype=np.uint64)
        rows = _decode_block(m, base, offsets)
        krylov = [np.ones_like(offsets)]
        for _ in range(m):
            krylov.append(_matvec(rows, krylov[-1]))
        hit = np.zeros(offsets.shape, dtype=bool)
        for p in good_polys:
            w = np.zeros_like(offsets)
            for t, v in enumerate(krylov):
                if (p >> t) & 1:
                    w ^= v
            hit |= w == 0
        hits.extend(base + o for o in offsets[hit].tolist())
        lo = hi
    return hits
