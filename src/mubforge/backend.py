"""The symmetric-candidate scan: the candidate encoding and its bit-sliced kernel.

Candidate index k encodes a symmetric m x m matrix through its upper triangle
(diagonal included) read row-major, most significant bit first, so ascending
k is lexicographic order on the matrix entries.  Rows are bitmasks: bit j of
row i is entry (i, j).  `decode_symmetric` is the one decoder from index to
rows, by a table per 7 index bits: the kernel decodes each block's base with
it, and the search each hit.

Everything here is plain Python: the kernel holds a block of candidates
bit-sliced in Python ints, so no search loads numpy.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache, reduce
from operator import and_, or_, xor

BLOCK_BITS = 13  # the kernel tests 2^13 candidates at a time

_FULL = (1 << (1 << BLOCK_BITS)) - 1
# _INDEX_BITS[s] has bit o set iff bit s of o is set, for o < 2^BLOCK_BITS:
# runs of 2^s zeros and 2^s ones, repeated.
_INDEX_BITS = tuple(
    _FULL // ((1 << (2 << s)) - 1) * (((1 << (1 << s)) - 1) << (1 << s))
    for s in range(BLOCK_BITS)
)


@lru_cache(maxsize=None)
def _pair_positions(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(m) for j in range(i, m))


@lru_cache(maxsize=None)
def _codec(m: int) -> tuple[struct.Struct, tuple[list[int], ...]]:
    """The packed-row codec of m x m matrices, and the tables that decode an index.

    A packed matrix holds row i at bits 16i .. 16i + 15, and the codec turns
    its little-endian bytes into row masks.  Index bit b sets entry (i, j)
    and (j, i), for (i, j) at upper-triangle position n - 1 - b; table c
    maps bits 7c .. 7c + 6 of an index to the packed entries they set.
    """
    pairs = _pair_positions(m)
    units = [1 << (16 * i + j) | 1 << (16 * j + i) for i, j in reversed(pairs)]
    tables = []
    for c in range(0, len(units), 7):
        table = [0]
        for unit in units[c : c + 7]:
            table += [t | unit for t in table]
        tables.append(table)
    return struct.Struct(f"<{m}H"), tuple(tables)


def decode_symmetric(m: int, k: int) -> tuple[int, ...]:
    """Row bitmasks of the k-th symmetric matrix, 0 <= k < 2^(m(m+1)/2): a lookup per 7 bits."""
    codec, tables = _codec(m)
    packed = 0
    for table in tables:
        packed |= table[k & 127]
        k >>= 7
    return codec.unpack(packed.to_bytes(codec.size, "little"))


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

    The test runs on the block of 2^BLOCK_BITS candidates that holds
    [start, stop), bit-sliced: each matrix entry and each vector coordinate
    is one int whose bit o belongs to candidate base + o.  Row i of B v is
    the XOR over j of B_ij & v_j, and a candidate hits where some p leaves
    every coordinate of sum_t p_t v_t zero.  [start, stop) must lie inside
    one block; `search._field_hits` walks the blocks.
    """
    pairs = _pair_positions(m)
    n = len(pairs)
    base = start & -(1 << BLOCK_BITS)
    # base has its low BLOCK_BITS bits clear, so each entry comes either
    # from base (the same for the whole block) or from one offset bit s.
    high = decode_symmetric(m, base)
    entries = [[_FULL if (r >> j) & 1 else 0 for j in range(m)] for r in high]
    for s in range(min(n, BLOCK_BITS)):
        i, j = pairs[n - 1 - s]
        entries[i][j] = entries[j][i] = _INDEX_BITS[s]
    v = [_FULL] + [0] * (m - 1)
    krylov = [v]
    for _ in range(m):
        v = [reduce(xor, map(and_, row, v)) for row in entries]
        krylov.append(v)
    miss = _FULL
    for p in good_polys:
        w = [0] * m
        for t, vt in enumerate(krylov):
            if (p >> t) & 1:
                w = list(map(xor, w, vt))
        miss &= reduce(or_, w)
    hit = ~miss & ((1 << (stop - base)) - (1 << (start - base)))
    bits = bin(hit)[:1:-1]  # character o is bit o
    return [base + one.start() for one in re.finditer("1", bits)]
