"""The symmetric-candidate scan: the candidate encoding and its bit-sliced kernel.

Candidate index k encodes a symmetric m x m matrix through its upper triangle
(diagonal included) read row-major, most significant bit first, so ascending
k is lexicographic order on the matrix entries.  Rows are bitmasks: bit j of
row i is entry (i, j).

Everything here is plain Python: the kernel holds a block of candidates
bit-sliced in Python ints, so no search loads numpy.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache, reduce
from operator import and_, or_, xor
from typing import Iterable, Iterator

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


@lru_cache(maxsize=None)
def _offset_rows(m: int) -> tuple[struct.Struct, list[int], list[int]]:
    """The packed-row codec, and the entries that offset bits 0-6 and 7-12 of an index set.

    A packed matrix holds row i at bits 16i .. 16i + 15, and the codec turns
    row masks into its little-endian bytes and back.  Offset o sets the
    packed entries low[o & 127] | high[o >> 7]: two tables of 2^7 and 2^6
    entries, where one of all 2^BLOCK_BITS offsets would cost peak RSS.
    """
    pairs = _pair_positions(m)
    n = len(pairs)
    units = [0] * BLOCK_BITS  # offset bit s sets entry (i, j) and (j, i), or nothing
    for s in range(min(n, BLOCK_BITS)):
        i, j = pairs[n - 1 - s]
        units[s] = 1 << (16 * i + j) | 1 << (16 * j + i)
    tables = []
    for part in (units[:7], units[7:]):
        table = [0]
        for unit in part:
            table += [t | unit for t in table]
        tables.append(table)
    return struct.Struct(f"<{m}H"), *tables


def decode_hits(m: int, hits: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Row masks of each candidate index in `hits`, as `decode_symmetric` gives them.

    An index is its block's base plus an offset below 2^BLOCK_BITS, and the
    two set disjoint entries.  So the base is decoded once per run of hits
    in one block, as `scan_symmetric` returns them, and each hit ORs in the
    entries of its offset from the two tables of `_offset_rows`.
    """
    codec, low, high = _offset_rows(m)
    offset_mask = (1 << BLOCK_BITS) - 1
    block = None
    for k in hits:
        if k >> BLOCK_BITS != block:
            block = k >> BLOCK_BITS
            base = int.from_bytes(codec.pack(*decode_symmetric(m, block << BLOCK_BITS)), "little")
        offset = k & offset_mask
        packed = base | low[offset & 127] | high[offset >> 7]
        yield codec.unpack(packed.to_bytes(codec.size, "little"))


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
