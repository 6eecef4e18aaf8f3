"""Search for complete cyclic MUB specs: the field scan and the conjugator walk.

`search_specs(m, kind, count, seed)` is the one search.  No seed means the
exhaustive scan, a seed seeded sampling, and one generator of candidate
indices serves both: the field kind streams its hits, and the group and
semigroup kinds take its first hit, under a seed derived from theirs, as
the anchor.

Search builds group and semigroup specs from one field-kind anchor B0 and a
change of basis u: B = u B0 u^-1 and R = u u^t, so the standard forms are
p(B) R + A = u p(B0) u^t + A.  R is a polynomial in B exactly when B is
symmetric, so the filter is a symmetry test on B.  R is symmetric and
invertible, BR is symmetric and char(B) is irreducible, so:

- If R = p(B), then R B = B R = (B R)^t = R B^t, and R is invertible, so
  B = B^t.
- If B = B^t, then B R = (B R)^t = R B, so R lies in the centraliser of B.
  B is cyclic (its characteristic polynomial is irreducible, hence also its
  minimal one), and the centraliser of a cyclic matrix is F2[B].

The addend is the first pair matrix E_ij + E_ji outside span{B^k R} +
diagonals.  In the quotient by the diagonals that span has at most m
dimensions, so the addend is found in at most m + 1 tests.

Everything but R is decided once per coset u F2[B0]*:

- B(u) = B(u') iff u^-1 u' commutes with B0.  B0 is cyclic, so that holds
  iff u' = u q with q in F2[B0]*.
- Then R' = u q q^t u^t = u q^2 u^t, since q is a polynomial in the
  symmetric B0.  So R' = p(B) R with p(B) = u q^2 u^-1, invertible in F2[B].
- Hence span{B^k R'} = span{B^k R}, so W and the addend are the same, and
  the symmetry verdict depends on B alone.

Each coset has one normal form, and it keys the coset:

- F2[B0] is a field, since char(B0) is irreducible.  For a row x != 0 the
  map q -> x q from F2[B0] to the rows F2^m is linear and injective (x q = 0
  with q != 0 makes x = x q q^-1 = 0), and both sides have 2^m elements.
  So F2[B0]* acts simply transitively on the nonzero rows: exactly one
  q_x in F2[B0] has x q_x = e_0.
- So the coset u F2[B0]* has exactly one member whose first row is e_0: a
  member u q has first row u_0 q, which is e_0 iff q = q_(u_0).
- With the table N[x] = (z -> z q_x), the rows of that member are
  N[u_0][u_i], and packed into one int they are u's key.  N has 2^m x 2^m
  entries and is built only at m <= EXHAUSTIVE_CONJ_CAP.

The exhaustive walk builds u row by row, so every entry of the key but the
last is fixed by the rows above it: a u costs one lookup and one OR for its
key.  R = u u^t is keyed by its Gram parities, which the same recursion
carries.  B, its verdict and its addend are computed on the first visit of
a key, and R on the first visit of its Gram key: at m = 4 the 19,440 specs
of either kind hold 1,296 distinct B (of 1,344 cosets) and 419 distinct R.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from typing import Iterator

from . import backend, poly2
from .construct import KINDS, MAX_M, StabilizerSpec, _forced_blocks, _pack, _vec, reverse_bits
from .gf2 import BitMatrix, _inverse_rows, _mul_rows, _SpanReducer, _transpose_rows, char_poly

EXHAUSTIVE_CAP = 6        # symmetric-candidate space, <= 2^21 candidates
EXHAUSTIVE_CONJ_CAP = 4   # conjugator space for group/semigroup, <= 2^16
MAX_ATTEMPTS = 1 << 18    # random draws per search, of B and of u alike

Rows = tuple[int, ...]  # a matrix as its row masks, bit j of row i = entry (i, j)


# -- the semigroup addend ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_candidates(m: int) -> tuple[int, tuple[tuple[int, BitMatrix], ...]]:
    """The off-diagonal mask of a packed m x m matrix, and the pair matrices.

    The pair matrices E_ij + E_ji (i < j) come packed and as BitMatrix, in
    candidate order: candidate 2^b is upper-triangle position n - 1 - b.
    """
    offdiag = (1 << (m * m)) - 1
    for i in range(m):
        offdiag ^= 1 << (i * m + i)
    pairs = []
    for b in range(m * (m + 1) // 2):
        A = BitMatrix(m, m, backend.decode_symmetric(m, 1 << b))
        v = _vec(A)
        if v & offdiag:
            pairs.append((v, A))
    return offdiag, tuple(pairs)


def find_addend(B: BitMatrix, R: BitMatrix) -> BitMatrix | None:
    """First symmetric A in candidate order with A != p(B) R + D for all p, D.

    The excluded matrices form the subspace W = span{B^k R} + diagonals, and
    the first candidate outside W is a pair matrix E_ij + E_ji:

    - Candidate indices (`backend.decode_symmetric`) add as XOR, like the
      matrices they encode, so the indices inside W form a subspace.  If b
      is the lowest bit whose unit matrix lies outside W, every smaller
      index is a sum of lower unit matrices, all inside W; so the least
      index outside W is 2^b.
    - The diagonal unit matrices lie in W.  The rest are tested in the
      quotient by the diagonals: clearing the diagonal is linear with the
      diagonals as kernel, so a pair matrix (zero diagonal) lies in W iff
      it lies in span{B^k R with the diagonal cleared}.  That span has
      dim <= m, and the pair matrices are independent, so at most m + 1
      of them are tested.
    - None means W contains every symmetric matrix, which needs
      m(m - 1)/2 <= m, i.e. m <= 3.
    """
    m = B.rows
    offdiag, pairs = _pair_candidates(m)
    power_r = R.data
    vecs = [_pack(power_r, m) & offdiag]
    for _ in range(m - 1):
        power_r = _mul_rows(B.data, power_r)
        vecs.append(_pack(power_r, m) & offdiag)
    span = _SpanReducer(vecs)
    for v, A in pairs:
        if not span.contains(v):
            return A
    return None


# -- search ------------------------------------------------------------------


def _draws(seed: int, nbits: int, stats: dict | None = None) -> Iterator[int]:
    """Distinct uniform nbits-bit indices from random.Random(seed), in draw order.

    Each of at most MAX_ATTEMPTS attempts makes one getrandbits call.  A
    repeat is skipped, and the stream stops once all 2^nbits indices have
    been drawn.  Both seeded searches, of B and of u, draw through here.
    When the stream ends, stats["stop"] says why: "space-exhausted" if every
    index was drawn, else "max-attempts".
    """
    rng = random.Random(seed)
    drawn: set[int] = set()
    for _ in range(MAX_ATTEMPTS):
        if len(drawn) == 1 << nbits:
            break
        k = rng.getrandbits(nbits)
        if k not in drawn:
            drawn.add(k)
            yield k
    if stats is not None:
        stats["stop"] = "space-exhausted" if len(drawn) == 1 << nbits else "max-attempts"


def _field_hits(m: int, seed: int | None, stats: dict | None = None) -> Iterator[int]:
    """Candidate indices of the symmetric B whose char poly is admissible, each once.

    Admissible means irreducible with Fibonacci index d + 1.  With no seed
    the kernel scans all 2^(m(m+1)/2) candidates in ascending order, one
    call per block of 2^BLOCK_BITS; this is the only loop over blocks.  The
    caller, `search_specs`, has checked the cap.  With a seed the
    candidates come from `_draws`, and each is tested directly, so no table
    of admissible polynomials is built.
    """
    npairs = m * (m + 1) // 2
    if seed is None:
        polys = poly2.stabilizer_char_polys(m)
        total = 1 << npairs
        chunk = 1 << backend.BLOCK_BITS
        for s in range(0, total, chunk):
            yield from backend.scan_symmetric(m, polys, s, min(s + chunk, total))
        return
    target = (1 << m) + 1
    for k in _draws(seed, npairs, stats):
        p = char_poly(BitMatrix(m, m, backend.decode_symmetric(m, k)))
        if p & 1 and poly2.is_irreducible(p) and poly2.fibonacci_index(p) == target:
            yield k


def _derived_seed(seed: int, salt: int) -> int:
    return (seed * 2654435761 + salt) % (1 << 32)


def _normal_forms(m: int, b0: Rows) -> list[list[int] | None]:
    """N[x] = (z -> z q_x) for each row x != 0, as a list over z; N[0] is None.

    q_x is the one element of F2[B0] with x q_x = e_0 (see the module
    docstring), so B0 must have an irreducible characteristic polynomial.
    Each nonzero q in F2[B0] is sum c_k B0^k over the set bits k of a mask
    c; its row images z q name the x it normalizes, the z with z q = e_0.
    """
    size = 1 << m
    powers = [tuple(1 << i for i in range(m))]
    for _ in range(m - 1):
        powers.append(tuple(_mul_rows(powers[-1], b0)))
    table: list[list[int] | None] = [None] * size
    for c in range(1, size):
        q = [0] * m
        for k in range(m):
            if c >> k & 1:
                q = [a ^ b for a, b in zip(q, powers[k])]
        images = _mul_rows(range(size), q)  # row z is z q
        table[images.index(1)] = images
    return table


def _iter_conjugators(
    m: int, b0: Rows, seed: int | None, stats: dict | None = None
) -> Iterator[tuple[Rows, int | None, int | None]]:
    """Invertible u, each once, as (u, key, gram): u as row masks, and the keys of its B and R.

    Two u share a key iff they share B = u B0 u^-1: the key is the packed
    normal form of u's coset u F2[B0]* (see the module docstring), so B0
    must have an irreducible characteristic polynomial.  Two u share a gram
    iff they share R = u u^t.  A key or gram of None is shared with no u:
    the keys need the table N, which is built only at m <=
    EXHAUSTIVE_CONJ_CAP, and only the exhaustive walk keys R.

    With no seed every u comes in row-major lexicographic order
    (`search_specs` has checked the cap), with a seed in the order `_draws`
    gives the m^2-bit indices, of which the singular ones are dropped; the
    draws stop once all 2^(m^2) bit patterns have been drawn.  An index k
    holds row i of u in its i-th group of m bits from the top, with column
    0 as the group's top bit, so a row mask is its group's bits reversed.

    The exhaustive walk builds u one row at a time in that order and skips
    any row in the span of the rows above it, so every u it yields is
    invertible and no rank test is needed.  A recursion builds the first
    m - 1 rows, and one loop picks the last, so each u leaves through one
    generator frame.  The recursion carries each prefix's part of the key,
    and of the gram: R_ij = <u_i, u_j> is a parity, and each row adds the
    column of its parities with the rows above it and itself.
    """
    normal = _normal_forms(m, b0) if m <= EXHAUSTIVE_CONJ_CAP else None
    if seed is None:
        rev = [reverse_bits(p, m) for p in range(1 << m)]
        last = m - 1

        def gram_columns(rows: Rows) -> list[int]:
            """For each row r: <u_i, r> at bit i, and <r, r> = the parity of r above them.

            The column is linear in r, so entry r is the XOR of the columns
            of the set bits j of r, built by doubling over j.
            """
            cols = [0]
            for t in _transpose_rows(rows, m):
                c = t | 1 << len(rows)
                cols += [c ^ x for x in cols]
            return cols

        def prefixes(
            rows: Rows, span: frozenset[int], key: int, gram: int, nx: list[int]
        ) -> Iterator[tuple[Rows, frozenset[int], int, int, list[int]]]:
            k = len(rows)
            if k == last:
                yield rows, span, key << m, gram << m, nx
                return
            cols = gram_columns(rows)
            for r in rev:
                if r not in span:
                    nr = nx if rows else normal[r]  # the first row picks N[u_0]
                    wider = span | {v ^ r for v in span}
                    yield from prefixes(
                        (*rows, r), wider, key << m | nr[r], gram << (k + 1) | cols[r], nr
                    )

        # At m = 1 the one row is also the first; N[1] maps it to itself.
        for rows, span, key, gram, nx in prefixes((), frozenset((0,)), 0, 0, normal[1]):
            cols = gram_columns(rows)
            for r in rev:
                if r not in span:
                    yield (*rows, r), key | nx[r], gram | cols[r]
        return
    mask = (1 << m) - 1
    for k in _draws(_derived_seed(seed, 0xC0), m * m, stats):
        # Reversing all m^2 bits puts row i, reversed, at bits i*m .. (i+1)*m - 1.
        rows = reverse_bits(k, m * m)
        u = tuple(rows >> (i * m) & mask for i in range(m))
        if _inverse_rows(u) is None:
            continue
        key = None
        if normal is not None:
            nx = normal[u[0]]
            key = 0
            for v in u:
                key = key << m | nx[v]
        yield u, key, None


def search_specs(
    m: int, kind: str, count: int | None = 1, seed: int | None = None, stats: dict | None = None
) -> Iterator[StabilizerSpec]:
    """Return a stream of up to `count` specs of the requested kind (None: all).

    With no seed the search is exhaustive: field specs come in ascending
    candidate order, which is capped at m = EXHAUSTIVE_CAP, and group and
    semigroup specs walk every conjugator u, which is capped at
    m = EXHAUSTIVE_CONJ_CAP.  Both caps and the other arguments are checked
    when search_specs is called, before it returns the stream, so a bad
    argument raises ValueError at the call and before any scan.  A seed
    selects seeded uniform sampling, up to MAX_M: B and u are drawn by
    `_draws`, which skips repeats and stops once every index has been
    drawn, so at small m a seeded search with a large count ends with every
    spec the exhaustive one finds.  Either way the stream is fixed by the
    arguments.  When a seeded stream ends before `count`, stats["stop"] (if
    stats is given) names the sampler's reason, "space-exhausted" or
    "max-attempts"; a semigroup search that finds no addend ends without
    one.

    Group and semigroup specs are parametrized as B = u B0 u^-1, R = u u^t
    over invertible u, with B0 the first field-kind hit: every symmetrizer
    expressible as a Gram product arises this way, and the non-polynomial
    filter (two factorizable bases), which is B != B^t here, plus the addend
    filter (one factorizable basis) are applied before anything is emitted.
    Distinct u give distinct (B, R): w = u^-1 u' commutes with B0, so w lies
    in the field F2[B0], and w w^t = w^2 = I forces w = I.  So no spec
    repeats once no u does.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m = {m} outside 1..{MAX_M}")
    if count is not None and count < 0:
        raise ValueError(f"count = {count} is negative")
    cap = EXHAUSTIVE_CAP if kind == "field" else EXHAUSTIVE_CONJ_CAP
    if seed is None and m > cap:
        raise ValueError(f"exhaustive {kind} search is capped at m = {cap}; pass a seed")
    if kind == "field":
        specs = (
            StabilizerSpec.field(BitMatrix(m, m, backend.decode_symmetric(m, k)))
            for k in _field_hits(m, seed, stats)
        )
    else:
        specs = _conjugate_specs(m, kind, seed, stats)
    # islice takes no stop above sys.maxsize, and no stream gets that far: an
    # exhaustive one is finite and a seeded one stops after MAX_ATTEMPTS draws.
    return itertools.islice(specs, None if count is None else min(count, sys.maxsize))


def _conjugate_specs(
    m: int, kind: str, seed: int | None, stats: dict | None
) -> Iterator[StabilizerSpec]:
    """Every group or semigroup spec the conjugator walk reaches, in its order.

    Each B is decided on the first visit of its key (see the module
    docstring): `cosets` maps the key to None when B is symmetric, else to
    the BitMatrix B and its addend.  `grams` maps the gram key to the
    BitMatrix R.  Both are filled only for keys that are not None, so at
    m <= EXHAUSTIVE_CONJ_CAP they hold at most |GL(4, 2)| / 15 = 1,344
    cosets and 2^10 symmetric R, however long the walk; above that each u
    is decided afresh and nothing is stored.
    """
    anchor_seed = None if seed is None else _derived_seed(seed, 0xA5)
    k0 = next(_field_hits(m, anchor_seed, stats), None)
    if k0 is None:
        return
    b0 = backend.decode_symmetric(m, k0)
    zero = _forced_blocks(m)[1]
    cosets: dict[int, tuple[BitMatrix, BitMatrix] | None] = {}
    grams: dict[int, BitMatrix] = {}
    for u, key, gram in _iter_conjugators(m, b0, seed, stats):
        coset = cosets.get(key, ())  # () for a B not seen yet
        if coset is None:
            continue
        if not coset:
            b = tuple(_mul_rows(_mul_rows(u, b0), _inverse_rows(u)))
            if b == tuple(_transpose_rows(b, m)):
                # R = u u^t is a polynomial in B = u B0 u^-1 (see the module
                # docstring): R is symmetric and invertible, B R = u B0 u^t is
                # symmetric, and char(B) = char(B0) is irreducible.
                if key is not None:
                    cosets[key] = None
                continue
        R = grams.get(gram)
        if R is None:
            R = BitMatrix(m, m, _mul_rows(u, _transpose_rows(u, m)))
            if gram is not None:
                grams[gram] = R
        if not coset:
            B = BitMatrix(m, m, b)
            A = zero if kind == "group" else find_addend(B, R)
            if A is None:
                # No nonzero p(B) R is diagonal: it would be an invertible
                # diagonal matrix, so I, and R = p(B)^-1 would lie in F2[B].
                # So W = span{B^k R} + diagonals has dim 2m for every u here,
                # and None means m(m + 1)/2 <= 2m, i.e. m <= 3, for all u.
                return
            coset = (B, A)
            if key is not None:
                cosets[key] = coset
        yield StabilizerSpec._make((kind, m, coset[0], R, coset[1]))
