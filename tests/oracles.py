"""Slow, independent oracles for the fast paths of `gf2`, `construct`, `search` and `equiv`.

- `class_labels`, `class_partition_check` and `bandyopadhyay_oracle`
  enumerate every nonzero Pauli label of every class, which
  `construct.bandyopadhyay_check` decides from the m + 1 additive
  matrices alone.  They take a list of standard forms, so they also judge
  orbits that no affine family describes.
- `cyclicity_walk` takes every power of C up to d + 1, where
  `construct.cyclicity_check` is an order test.
- `orbit_forms` walks C^j (I; 0) for j = 0..d, one product and one inverse
  per class, where `construct.generators` reads the forms p(B) R + A off
  the two additive matrices.
- `field_closure_check` tests the field axioms on the forms of a field-kind
  set, which `construct.generators` builds inside F2[B].
- `iter_conjugators_scan` decodes every one of the 2^(m^2) bit patterns
  in ascending order (with no seed) or the same `search.MAX_ATTEMPTS`
  draws (with one) and tests each rank, where `search._iter_conjugators`
  builds invertible matrices row by row and keys each by its coset's
  normal form.
- `is_polynomial_in` rebuilds span{I, B, ..., B^(m-1)} for one B, where
  `search.search_specs` tests whether B = u B0 u^-1 is symmetric.
- `addend_excluded_span` spans {p(B) R} + diagonals in all m^2 entries,
  and `find_addend_scan` decodes the symmetric candidates one by one
  against it, up to 4^m + 1 of them, where `search.find_addend` tries
  at most m + 1 pair matrices in the quotient by the diagonals.
- `search_specs_oracle` is the group/semigroup search loop with all three
  in place of the fast paths: u from `iter_conjugators_scan`, B and R from
  dense products, the addend from `find_addend_scan`, and no table.  Like
  `search.search_specs` it takes no seed for the exhaustive search and a
  seed for sampling, and it reads the anchor off the public field search
  under the derived seed.
- `class_canonical` is the reduced echelon basis of a class's column space,
  where `equiv.classes_equal` compares the spans of two affine families.
- `transport_forms` maps every class generator by any 2m x 2m symplectic
  matrix and takes standard forms, where `equiv.transport` maps the affine
  family of a set by a block-triangular f in closed form.  It checks its
  map with `is_symplectic`, f^t J f = J on 2m x 2m products, where
  `equiv.transport` tests that s^-1 t is symmetric.
- `intertwiner_scan` enumerates the solution space of s B_a = B_b s
  (a `nullspace`) for every invertible s with s R_a s^t = R_b, where
  `equiv._intertwiner` computes the unique one from Krylov matrices.
- `gram_factor`, `field_anchor` and `anchored_equivalence_map` are the
  path `equiv.equivalence_map` replaced: a Gram factor of each R, one
  field anchor per spec, the orthogonal intertwiner w of the two anchors,
  and fb w fa^-1 composed from 2m x 2m products, where `equivalence_map`
  builds [[s, t], [0, s^-t]] from one intertwiner of the specs themselves.
  `anchored_equivalence_map` reads (s, t) off the top blocks of the product
  and asserts that its lower blocks are 0 and s^-t.
  The `gram_factor` docstring proves that no valid spec has an
  alternating R.
- `offdiag_components` and `partition_of` find the tensor factors of one
  standard form, where `entangle.entanglement_vector` runs over the
  affine family in Gray-code order.
- `standard_forms` lists all d + 1 standard forms of a set, and
  `class_generators` one 2m x m generator per class, where a
  `construct.GeneratorSet` holds the m + 1 matrices of the affine family.
  `decode_symmetric` reads a candidate index one bit at a time, where
  `backend.decode_symmetric` looks up 7 bits at a time in a table, and
  `encode_symmetric` inverts both.
- `echelon` is Gauss-Jordan elimination with the lowest pivot row, and
  `echelon_rank` and `echelon_inverse` (on [a | I]) are read off it, where
  `gf2.rank` and `gf2.mat_inverse` reduce rows, tagged with their indices,
  into one span.  `nullspace` reads its basis off `echelon` too.
- `orthogonal_order`, `general_linear_order` and `exhaustive_total` count
  the specs of each exhaustive search in closed form, where
  `search.search_specs` enumerates them.
- `char_poly_bareiss` is det(xI + a) by fraction-free elimination over
  F2[x], where `gf2.char_poly` multiplies the minimal polynomials of
  Krylov chains.
- `poly_divmod` is long division in F2[x] with its quotient, where
  `poly2._mod` keeps only the remainder.
- `fibonacci_poly` runs the recursion F_(j+1) = x F_j + F_(j-1) in full,
  where `poly2` reduces it modulo one polynomial by a doubling ladder.
- `poly_of_matrix` (Horner) and `schmidt_rank` (an SVD across a qubit cut)
  serve the tests that re-derive Fibonacci blocks and factorizability.
- `class_eigenbasis` reads the joint eigenbasis of one class off the
  monomial Pauli action, `mub_from_generators` takes it for all d + 1
  classes of a set, and `verify_bases` compares every pair of bases, where
  `pauli.verify_mub` checks the d powers of the cyclic generator U.  They
  tie the powers of U to the symbolic classes.
- `generator_powers` builds the d x d powers of U with numpy, and
  `verify_powers` checks every entry of each, with unitarity from a Gram
  product, O(d^3 log d), where `pauli.verify_mub` follows column 0 of each
  power in pure Python and must agree with it bit for bit.
- `pauli_matrix` builds a dense Pauli operator by Kronecker products, and
  `dense_class_eigenbasis` multiplies m dense d x d projectors per sign
  pattern (O(m d^4) per class), where `class_eigenbasis` applies each
  operator as a permutation and a phase to single vectors.

The label and walk oracles cost O(4^m) and O(d) steps, so tests use them
for m <= 8.  The eigenbasis and dense Pauli oracles stop at
ORACLE_QUBIT_CAP = 6, the full powers at construct.NUMERIC_QUBIT_CAP = 8.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from mubforge import construct, poly2, search
from mubforge.construct import (
    Z_BASIS,
    GeneratorSet,
    StabilizerSpec,
    _vec,
    standard_form,
)
from mubforge.equiv import SymplecticMap, classes_equal, transport
from mubforge.gf2 import (
    BitMatrix,
    _SpanReducer,
    _transpose_rows,
    block2x2,
    is_invertible,
    mat_inverse,
    mat_mul,
    rank,
    vstack,
)
from mubforge.pauli import MubVerification

ORACLE_QUBIT_CAP = 6  # d + 1 eigenbases of d x d, and dense d x d Pauli matrices


@dataclass(frozen=True)
class PauliLabel:
    """Pauli operator label a = (z; x) in F2^(2m), bit i = qubit i."""

    m: int
    z: int
    x: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for part in (self.z, self.x):
            if part < 0 or part >> self.m:
                raise ValueError("label bits outside qubit count")

    @classmethod
    def from_bits(cls, m: int, packed: int) -> "PauliLabel":
        lo = (1 << m) - 1
        return cls(m, packed & lo, packed >> m)

    def site(self, k: int) -> tuple[int, int]:
        return ((self.z >> k) & 1, (self.x >> k) & 1)


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """Sum_k (a_z_k b_x_k + a_x_k b_z_k) mod 2; zero iff the operators commute."""
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    return bin((a.z & b.x) ^ (a.x & b.z)).count("1") & 1


def class_labels(gen: BitMatrix) -> list[int]:
    """All nonzero Pauli labels G c (c != 0) as packed 2m-bit integers."""
    m = gen.cols
    cols = _transpose_rows(gen.data, m)
    out = []
    for c in range(1, 1 << m):
        v = 0
        for j in range(m):
            if (c >> j) & 1:
                v ^= cols[j]
        out.append(v)
    return out


def generators_of(m: int, forms) -> list[BitMatrix]:
    """One 2m x m generator per standard form: (I; 0) for Z_BASIS, (M; I) for M."""
    eye, zero = BitMatrix.identity(m), BitMatrix.zero(m)
    return [vstack(eye, zero) if f is Z_BASIS else vstack(f, eye) for f in forms]


def standard_forms(gens: GeneratorSet) -> tuple:
    """Z_BASIS, then A plus basis[k] for each set bit k of i, for i = 0..d - 1."""
    forms = [gens.A]
    for r in gens.basis:
        forms += [f + r for f in forms]
    return (Z_BASIS, *forms)


def class_generators(gens: GeneratorSet) -> list[BitMatrix]:
    """One 2m x m generator per class of a set, in the order of `standard_forms`."""
    return generators_of(gens.m, standard_forms(gens))


def decode_symmetric(m: int, k: int) -> tuple[int, ...]:
    """Row masks of the k-th symmetric matrix, read off the index one bit at a time."""
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    n = len(pairs)
    rows = [0] * m
    for b, (i, j) in enumerate(pairs):
        if (k >> (n - 1 - b)) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def encode_symmetric(m: int, rows) -> int:
    """Candidate index of the symmetric matrix with the given row masks."""
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    k = 0
    for i, j in pairs:
        k = (k << 1) | ((rows[i] >> j) & 1)
    return k


def class_partition_check(m: int, forms) -> bool:
    """Classes are pairwise disjoint, cover all 4^m - 1 labels, and commute within."""
    d = 1 << m
    seen: set[int] = set()
    for gen in generators_of(m, forms):
        labels = class_labels(gen)
        if len(set(labels)) != d - 1 or 0 in labels:
            return False
        if seen.intersection(labels):
            return False
        seen.update(labels)
        cols = [PauliLabel.from_bits(m, c) for c in _transpose_rows(gen.data, m)]
        for i in range(m):
            for j in range(i + 1, m):
                if symplectic_product(cols[i], cols[j]):
                    return False
    return len(seen) == (d + 1) * (d - 1)


def bandyopadhyay_oracle(m: int, forms) -> bool:
    """Symmetric, pairwise-distinct standard forms plus the enumerated partition."""
    mats = [f for f in forms if f is not Z_BASIS]
    if any(not f.is_symmetric() for f in mats):
        return False
    if len({f.data for f in mats}) != len(mats) or sum(1 for f in forms if f is Z_BASIS) != 1:
        return False
    return class_partition_check(m, forms)


def cyclicity_walk(C: BitMatrix, d: int) -> bool:
    """True iff C^j != I for 1 <= j <= d and C^(d+1) = I, one product per step."""
    eye = BitMatrix.identity(C.rows)
    acc = C
    for _ in range(d):
        if acc == eye:
            return False
        acc = mat_mul(acc, C)
    return acc == eye


def orbit_forms(C: BitMatrix, d: int) -> list:
    """Standard forms of G_j = C^j (I; 0) for j = 0..d, in orbit order."""
    m = C.rows // 2
    gen = vstack(BitMatrix.identity(m), BitMatrix.zero(m))
    forms = [standard_form(gen)]
    for _ in range(d):
        gen = mat_mul(C, gen)
        forms.append(standard_form(gen))
    return forms


def field_closure_check(gens: GeneratorSet) -> bool:
    """Standard forms of a field-kind set represent the finite field F_{2^m}.

    The d matrices {M_j} must be closed under addition and matrix product,
    contain 0 (additive neutral) and I (multiplicative neutral), and be
    pairwise distinct.
    """
    mats = [f for f in standard_forms(gens) if f is not Z_BASIS]
    m = gens.m
    table = {f.data for f in mats}
    if len(table) != 1 << m:
        return False
    if BitMatrix.zero(m).data not in table or BitMatrix.identity(m).data not in table:
        return False
    for a in mats:
        for b in mats:
            if (a + b).data not in table or mat_mul(a, b).data not in table:
                return False
    return True


def iter_conjugators_scan(m: int, seed: int | None):
    """Invertible u, each once, by decoding every candidate bit pattern and testing its rank.

    With no seed every pattern in order, with a seed `search.MAX_ATTEMPTS` draws.
    Pattern k holds row i of u in its i-th group of m bits from the top, with
    column 0 as the group's top bit.
    """
    nbits = m * m
    if seed is None:
        candidates = iter(range(1 << nbits))
    else:
        rng = random.Random(search._derived_seed(seed, 0xC0))
        candidates = (rng.getrandbits(nbits) for _ in range(search.MAX_ATTEMPTS))
    order = math.prod((1 << m) - (1 << i) for i in range(m))  # |GL(m, 2)|
    seen: set[int] = set()
    for k in candidates:
        if k in seen:
            continue
        rows = []
        for i in range(m):
            mask = 0
            for j in range(m):
                if (k >> (nbits - 1 - (i * m + j))) & 1:
                    mask |= 1 << j
            rows.append(mask)
        u = BitMatrix(m, m, rows)
        if is_invertible(u):
            seen.add(k)
            yield u
            if len(seen) == order:
                return


def is_polynomial_in(B: BitMatrix, X: BitMatrix) -> bool:
    """Membership of X in span{I, B, ..., B^(m-1)}."""
    m = B.rows
    if X.rows != m or X.cols != m:
        raise ValueError("shape mismatch")
    power = BitMatrix.identity(m)
    vecs = []
    for _ in range(m):
        vecs.append(_vec(power))
        power = mat_mul(power, B)
    return _SpanReducer(vecs).contains(_vec(X))


def addend_excluded_span(B: BitMatrix, R: BitMatrix) -> _SpanReducer:
    """Span of {p(B) R} + {diagonal matrices}, as packed vectors."""
    m = B.rows
    vecs = [1 << (i * m + i) for i in range(m)]
    power_r = R
    for _ in range(m):
        vecs.append(_vec(power_r))
        power_r = mat_mul(B, power_r)
    return _SpanReducer(vecs)


def find_addend_scan(B: BitMatrix, R: BitMatrix) -> BitMatrix | None:
    """First symmetric A in candidate order outside span{B^k R} + diagonals.

    Decodes the candidates one at a time; the scan needs at most 4^m + 1 of
    them before a non-member must appear.
    """
    m = B.rows
    span = addend_excluded_span(B, R)
    npairs = m * (m + 1) // 2
    for k in range(min(1 << npairs, (1 << (2 * m)) + 1)):
        A = BitMatrix(m, m, decode_symmetric(m, k))
        if not span.contains(_vec(A)):
            return A
    return None


def search_specs_oracle(
    m: int, kind: str, count: int, seed: int | None = None
) -> list[StabilizerSpec]:
    """Group/semigroup specs over the same anchor and conjugators as `search_specs`.

    The anchor is the first field spec of the derived seed, and u comes
    from `iter_conjugators_scan`.  Each u gets dense products for
    (u B0 u^-1, u u^t), a fresh `is_polynomial_in` on them, and the addend
    from `find_addend_scan`.
    """
    anchor_seed = None if seed is None else search._derived_seed(seed, 0xA5)
    anchor = next(search.search_specs(m, "field", seed=anchor_seed), None)
    out: list[StabilizerSpec] = []
    if anchor is None:
        return out
    b0 = anchor.B
    for u in iter_conjugators_scan(m, seed):
        if len(out) >= count:
            break
        R = mat_mul(u, u.transpose())
        B = mat_mul(mat_mul(u, b0), echelon_inverse(u))
        if is_polynomial_in(B, R):
            continue
        if kind == "group":
            out.append(StabilizerSpec("group", m, B, R, BitMatrix.zero(m)))
            continue
        A = find_addend_scan(B, R)
        if A is None:
            break
        out.append(StabilizerSpec("semigroup", m, B, R, A))
    return out


def symplectic_form(m: int) -> BitMatrix:
    """J = [[0, I], [I, 0]]."""
    eye = BitMatrix.identity(m)
    zero = BitMatrix.zero(m)
    return block2x2(zero, eye, eye, zero)


def is_symplectic(mat: BitMatrix) -> bool:
    """mat^t J mat = J over F2, for any 2m x 2m mat."""
    J = symplectic_form(mat.rows // 2)
    return mat_mul(mat_mul(mat.transpose(), J), mat) == J


def transport_forms(f: BitMatrix, forms) -> list:
    """Standard forms of f G for the generator G of every form, for any 2m x 2m symplectic f.

    Raises StandardFormError when an image has a singular nonzero lower
    block.
    """
    if not is_symplectic(f):
        raise ValueError("transport requires a symplectic map")
    return [standard_form(mat_mul(f, g)) for g in generators_of(f.rows // 2, forms)]


def echelon(data: list[int], n_rows: int, pivot_cols: int) -> tuple[list[int], list[int]]:
    """In-place reduced row echelon over the first pivot_cols columns.

    Pivot choice is the lowest row index, so results are reproducible.
    Returns (reduced rows, pivot column list).
    """
    rank = 0
    pivots = []
    for c in range(pivot_cols):
        pivot = None
        for i in range(rank, n_rows):
            if (data[i] >> c) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        data[rank], data[pivot] = data[pivot], data[rank]
        for i in range(n_rows):
            if i != rank and ((data[i] >> c) & 1):
                data[i] ^= data[rank]
        pivots.append(c)
        rank += 1
    return data, pivots


def echelon_rank(a: BitMatrix) -> int:
    """Rank over F2: the number of Gauss-Jordan pivots."""
    return len(echelon(list(a.data), a.rows, a.cols)[1])


def echelon_inverse(a: BitMatrix) -> BitMatrix | None:
    """Inverse of a square matrix by Gauss-Jordan on [a | I]; None if singular."""
    m = a.rows
    reduced, pivots = echelon([r | (1 << (m + i)) for i, r in enumerate(a.data)], m, m)
    if len(pivots) != m:
        return None
    return BitMatrix(m, m, (r >> m for r in reduced))


def orthogonal_order(m: int) -> int:
    """|O(m, F2)|, the number of w with w w^t = I.

    |O(2k+1)| = 2^(k^2) prod_{i=1..k} (4^i - 1) and
    |O(2k)| = 2^(k^2) prod_{i=1..k-1} (4^i - 1) (MacWilliams, "Orthogonal
    matrices over finite fields", Amer. Math. Monthly 76 (1969) 152-164).
    """
    k = m // 2
    return 2 ** (k * k) * math.prod(4**i - 1 for i in range(1, k + m % 2))


def general_linear_order(m: int) -> int:
    """|GL(m, 2)|, the number of invertible m x m matrices over F2."""
    return math.prod((1 << m) - (1 << i) for i in range(m))


def exhaustive_total(m: int, kind: str) -> int:
    """The number of specs the exhaustive search of one kind emits.

    Field: symmetric matrices with one irreducible characteristic polynomial
    form one free orbit under a -> w a w^t, w orthogonal (the intertwiner of
    `equiv` is unique), so each admissible polynomial gives |O(m)| of them.
    Group: every conjugator u except those with u^t u in F2[B0].  No nonzero
    c in F2[B0] is alternating (see `gram_factor`), so each is congruent to
    I, and |O(m)| values of u give it: |GL(m, 2)| - |O(m)| (2^m - 1).
    Semigroup: the group total at m >= 4, where m(m - 1)/2 > m leaves an
    addend for every R, and 0 below, where none is left.
    """
    if kind == "field":
        return len(poly2.stabilizer_char_polys(m)) * orthogonal_order(m)
    group = general_linear_order(m) - orthogonal_order(m) * ((1 << m) - 1)
    return group if kind == "group" or m >= 4 else 0


def nullspace(coeff: BitMatrix) -> list[int]:
    """Basis of {x : coeff @ x = 0}, one vector per non-pivot column, ascending."""
    n = coeff.cols
    reduced, pivots = echelon(list(coeff.data), coeff.rows, n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = 1 << free
        for r, c in enumerate(pivots):
            if (reduced[r] >> free) & 1:
                vec |= 1 << c
        basis.append(vec)
    return basis


def intertwiner_scan(a: StabilizerSpec, b: StabilizerSpec) -> list[BitMatrix]:
    """Every invertible s with s B_a s^-1 = B_b and s R_a s^t = R_b, in a fixed order.

    Enumerates all 2^k - 1 nonzero members of the solution space of
    s B_a = B_b s, whose dimension k is m or 0 when the characteristic
    polynomials are irreducible.
    """
    m = a.m
    n = m * m
    ba, bb = a.B.to_lists(), b.B.to_lists()
    rows = []
    for i in range(m):
        for j in range(m):
            mask = 0
            for k in range(m):
                if ba[k][j]:
                    mask ^= 1 << (i * m + k)  # s_ik (B_a)_kj
                if bb[i][k]:
                    mask ^= 1 << (k * m + j)  # (B_b)_ik s_kj
            rows.append(mask)
    basis = nullspace(BitMatrix(len(rows), n, rows))
    found = []
    for mask in range(1, 1 << len(basis)):
        bits = 0
        mm = mask
        while mm:
            low = mm & -mm
            bits ^= basis[low.bit_length() - 1]
            mm ^= low
        s = BitMatrix(m, m, ((bits >> (i * m)) & ((1 << m) - 1) for i in range(m)))
        if is_invertible(s) and mat_mul(mat_mul(s, a.R), s.transpose()) == b.R:
            found.append(s)
    return found


def gram_factor(R: BitMatrix) -> BitMatrix:
    """Invertible s with s^t s = R; ValueError when R is alternating.

    Builds a basis orthonormal with respect to the bilinear form R.  When the
    remaining form turns alternating mid-way, one previously extracted unit
    vector is combined with a hyperbolic pair and the 3-dimensional patch is
    re-diagonalized; a nondegenerate symmetric form over F2 fails this
    process only when it is alternating from the start (zero diagonal), and
    such forms genuinely admit no Gram factorization: every column of s would
    need even weight, making s singular.

    No valid spec has an alternating R: then char(B) = det(x R + B R), as
    det R = 1, and N = x R + B R is symmetric over F2[x] with a constant
    diagonal.  In characteristic 2 the Leibniz terms of a permutation and
    its inverse cancel unless it is an involution, which contributes the
    constants N_ii times N_ij^2 = x^2 R_ij + (B R)_ij over its 2-cycles.  So
    char(B) lies in F2[x^2], a square, and is reducible for m >= 2; at
    m = 1 the only alternating matrix is 0.
    """
    if not R.is_symmetric() or not is_invertible(R):
        raise ValueError("Gram factorization needs a symmetric invertible matrix")
    m = R.rows

    def form_bits(x: int, y: int) -> int:
        acc = 0
        xx = x
        while xx:
            low = xx & -xx
            acc ^= bin(R.data[low.bit_length() - 1] & y).count("1") & 1
            xx ^= low
        return acc

    pool = [1 << i for i in range(m)]
    units: list[int] = []
    while pool:
        idx = next((i for i, w in enumerate(pool) if form_bits(w, w)), None)
        if idx is not None:
            b = pool.pop(idx)
            pool = [w ^ b if form_bits(w, b) else w for w in pool]
            units.append(b)
            continue
        if not units:
            raise ValueError("symmetrizer is alternating (zero diagonal): no Gram factor exists")
        a = pool.pop(0)
        j = next(i for i, w in enumerate(pool) if form_bits(a, w))
        c = pool.pop(j)
        pool = [
            w ^ (a if form_bits(w, c) else 0) ^ (c if form_bits(w, a) else 0) for w in pool
        ]
        v = units.pop()
        # Gram of (v, a, c) is [[1,0,0],[0,0,1],[0,1,0]]; re-orthonormalize the patch.
        combos = [v ^ a, v ^ c, v ^ a ^ c, v, a, c, a ^ c]
        repaired = next(
            (
                trio
                for trio in itertools.combinations(combos, 3)
                if all(form_bits(x, x) for x in trio)
                and not any(form_bits(x, y) for x, y in itertools.combinations(trio, 2))
                and rank(BitMatrix(3, m, trio)) == 3
            ),
            None,
        )
        assert repaired is not None, "hyperbolic patch must re-diagonalize"
        units.extend(repaired)
    # Columns of Q are the orthonormal basis vectors; then Q^t R Q = I,
    # so s = Q^-1 satisfies s^t s = R.
    q = BitMatrix(m, m, (sum(((units[j] >> i) & 1) << j for j in range(m)) for i in range(m)))
    return mat_inverse(q)


def field_anchor(spec: StabilizerSpec) -> tuple[SymplecticMap, StabilizerSpec]:
    """Triangular f and field spec whose transport reproduces spec's classes.

    For group/semigroup specs, u = (gram factor)^t gives u u^t = R, the
    anchor matrix is B_f = u^-1 B u (symmetric exactly because B R is), and
    t = A u^-t.  Expects a validated spec, whose R has a Gram factor (see
    `gram_factor`).
    """
    if spec.kind == "field":
        return SymplecticMap(BitMatrix.identity(spec.m), BitMatrix.zero(spec.m)), spec
    u = gram_factor(spec.R).transpose()
    u_inv = mat_inverse(u)
    anchor_B = mat_mul(mat_mul(u_inv, spec.B), u)
    t = mat_mul(spec.A, u_inv.transpose())
    return SymplecticMap(u, t), StabilizerSpec.field(anchor_B)


def _map_of(f: BitMatrix) -> SymplecticMap:
    """(s, t) read off the top blocks of a 2m x 2m f = [[s, t], [0, s^-t]].

    Asserts that the lower blocks are 0 and s^-t.
    """
    m = f.rows // 2
    low = (1 << m) - 1
    s = BitMatrix(m, m, (r & low for r in f.data[:m]))
    t = BitMatrix(m, m, (r >> m for r in f.data[:m]))
    assert all(r & low == 0 for r in f.data[m:]), "lower-left block of f is not 0"
    v = BitMatrix(m, m, (r >> m for r in f.data[m:]))
    assert v == mat_inverse(s.transpose()), "lower-right block of f is not s^-t"
    return SymplecticMap(s, t)


def anchored_equivalence_map(
    a: StabilizerSpec, b: StabilizerSpec
) -> tuple[SymplecticMap | None, str]:
    """`equiv.equivalence_map` through field anchors: fb w fa^-1 on 2m x 2m matrices.

    w is the orthogonal intertwiner of the two anchors, read off
    `intertwiner_scan`, and fa^-1 a 2m x 2m inverse.  Expects validated
    specs.
    """
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    if a.to_json_dict() == b.to_json_dict():
        return SymplecticMap(BitMatrix.identity(a.m), BitMatrix.zero(a.m)), "identical specs"
    fa, anchor_a = field_anchor(a)
    fb, anchor_b = field_anchor(b)
    ws = intertwiner_scan(anchor_a, anchor_b)
    if not ws:
        # The anchors are orthogonally conjugate iff char(B_a) = char(B_b),
        # as the `equiv` module docstring shows, so the verdicts agree.
        return None, "characteristic polynomials of B differ (distinct class families)"
    w_map = SymplecticMap(ws[0], BitMatrix.zero(a.m))
    f = _map_of(mat_mul(mat_mul(fb.matrix, w_map.matrix), mat_inverse(fa.matrix)))
    gens_a = construct.generators(a)
    if not classes_equal(transport(f, gens_a), construct.generators(b)):
        return None, "transport failed to reproduce the target classes"
    return f, "transport reproduces the target classes"


def offdiag_components(a: BitMatrix) -> list[tuple[int, ...]]:
    """Connected components of the off-diagonal coupling graph.

    Vertices are 0..m-1; i and k are adjacent when a[i,k] or a[k,i] is set
    (the diagonal is ignored).  Components come out sorted by smallest member.
    """
    if not a.is_square():
        raise ValueError("components of a non-square matrix")
    m = a.rows
    # Row i of a OR a^t (the transpose read off the set bits), diagonal cleared.
    adj = [
        (r | c) & ~(1 << i) for i, (r, c) in enumerate(zip(a.data, _transpose_rows(a.data, m)))
    ]
    seen = 0
    components = []
    for start in range(m):
        if (seen >> start) & 1:
            continue
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~comp
        seen |= comp
        components.append(tuple(i for i in range(m) if (comp >> i) & 1))
    return components


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


def class_canonical(gen: BitMatrix) -> tuple[int, ...]:
    """Canonical form of a class: reduced echelon basis of its column space."""
    basis: list[int] = []
    for v in _transpose_rows(gen.data, gen.cols):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    basis.sort(reverse=True)
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[i] != 0:
                lead = basis[j].bit_length() - 1
                if (basis[i] >> lead) & 1:
                    basis[i] ^= basis[j]
    return tuple(sorted(basis, reverse=True))


def char_poly_bareiss(a: BitMatrix) -> int:
    """Characteristic polynomial det(xI + a), as a mask, by fraction-free elimination.

    Entries of xI + a live in F2[x] (stored as coefficient masks); Bareiss
    steps keep every division exact, so the result is computed without
    fractions.  Pivot rows are chosen by lowest index.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    m = a.rows
    M = [[(2 if i == j else 0) ^ ((a.data[i] >> j) & 1) for j in range(m)] for i in range(m)]
    prev = 1
    for k in range(m - 1):
        if M[k][k] == 0:
            for r in range(k + 1, m):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    break
            else:  # cannot happen: det(xI + a) never vanishes
                raise RuntimeError("lost pivot during fraction-free elimination")
        pk = M[k][k]
        for i in range(k + 1, m):
            rik = M[i][k]
            for j in range(k + 1, m):
                num = poly2._mul(pk, M[i][j]) ^ poly2._mul(rik, M[k][j])
                q, rem = poly_divmod(num, prev)
                if rem:
                    raise RuntimeError("inexact division in fraction-free elimination")
                M[i][j] = q
            M[i][k] = 0
        prev = pk
    return M[m - 1][m - 1]


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of the masks a and b, by long division."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def fibonacci_poly(n: int) -> int:
    """n-th Fibonacci polynomial over F2 as a mask: F_0 = 0, F_1 = 1, F_(j+1) = x F_j + F_(j-1)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1  # F_0, F_1
    for _ in range(n):
        a, b = b, (b << 1) ^ a
    return a


def poly_of_matrix(p: int, a: BitMatrix) -> BitMatrix:
    """Evaluate the polynomial mask p at a square matrix (Horner over F2)."""
    if not a.is_square():
        raise ValueError("polynomial of a non-square matrix")
    m = a.rows
    acc = BitMatrix.zero(m)
    for i in range(p.bit_length() - 1, -1, -1):
        acc = mat_mul(acc, a)
        if (p >> i) & 1:
            acc = acc + BitMatrix.identity(m)
    return acc


def schmidt_rank(vector: np.ndarray, block: tuple[int, ...] | list[int], tol: float = 1e-10) -> int:
    """Schmidt rank of a pure state across block vs. complement.

    Singular values are counted when above tol times the largest one.
    """
    block = sorted(set(block))
    if not block:
        raise ValueError("block must contain at least one qubit")
    d = vector.shape[0]
    m = d.bit_length() - 1
    if 1 << m != d:
        raise ValueError("vector length is not a power of two")
    if block[-1] >= m or block[0] < 0:
        raise ValueError("block indices outside qubit range")
    rest = [q for q in range(m) if q not in block]
    arr = np.asarray(vector, dtype=complex).reshape([2] * m)
    arr = np.transpose(arr, axes=block + rest)
    mat = arr.reshape(1 << len(block), -1)
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


_SITE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),  # Z
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),  # X
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),  # Y = (-i) Z X
}


def pauli_matrix(a: PauliLabel) -> np.ndarray:
    """Tensor product over sites of (-i)^(z_k x_k) Z^(z_k) X^(x_k)."""
    if a.m > ORACLE_QUBIT_CAP:
        raise ValueError(f"numeric Pauli matrices are capped at m = {ORACLE_QUBIT_CAP}")
    out = np.array([[1.0 + 0j]])
    for k in range(a.m):
        out = np.kron(out, _SITE[a.site(k)])
    return out


def dense_class_eigenbasis(gen: BitMatrix) -> np.ndarray:
    """The eigenbasis of one class from dense d x d projector products.

    Column t is the normalised largest-norm column of prod_i (I + s_i P_i) / 2
    for the sign pattern in the bits of t, as in `class_eigenbasis`.
    """
    m = gen.cols
    ops = [pauli_matrix(PauliLabel.from_bits(m, c)) for c in _transpose_rows(gen.data, m)]
    d = 1 << m
    eye = np.eye(d, dtype=complex)
    basis = np.empty((d, d), dtype=complex)
    for t in range(d):
        proj = eye
        for i in range(m):
            sign = -1.0 if (t >> (m - 1 - i)) & 1 else 1.0
            proj = proj @ ((eye + sign * ops[i]) / 2.0)
        col = int(np.argmax(np.linalg.norm(proj, axis=0)))
        v = proj[:, col]
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ValueError("projector collapsed: generators not independent")
        basis[:, t] = _fix_phase(v / norm)
    return basis


# -- eigenbases of the classes -------------------------------------------------
#
# Conventions: qubit 0 is the leftmost tensor factor (most significant bit
# of the computational index); every eigenvector's global phase is fixed by
# making its first sufficiently-large component real positive, so repeated
# runs are bit-identical.


def _fix_phase(v: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    scale = np.max(np.abs(v))
    for comp in v:
        if abs(comp) > tol * scale:
            return v * (comp.conjugate() / abs(comp))
    raise ValueError("zero vector has no phase")


_POWERS_OF_MINUS_I = (1 + 0j, -1j, -1 + 0j, 1j)


def _monomial_action(a: PauliLabel, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) with (P_a v)[r] = phase[r] * v[src[r]] for v indexed by idx.

    P_a = (-i)^(z.x) Z^z X^x maps e_y to (-i)^(z.x) (-1)^(z.(y ^ x)) e_(y ^ x),
    with qubit k at index bit m - 1 - k.
    """
    xmask = 0
    parity = np.zeros(len(idx), dtype=idx.dtype)
    for k in range(a.m):
        z_k, x_k = a.site(k)
        bit = a.m - 1 - k
        xmask |= x_k << bit
        if z_k:
            parity ^= (idx >> bit) & 1
    phase = _POWERS_OF_MINUS_I[bin(a.z & a.x).count("1") % 4] * (1 - 2 * parity)
    return idx ^ xmask, phase


def _check_cap(m: int) -> None:
    if m > ORACLE_QUBIT_CAP:
        raise ValueError(f"numeric eigenbases are capped at m = {ORACLE_QUBIT_CAP}, got m = {m}")


def class_eigenbasis(gen: BitMatrix) -> np.ndarray:
    """Unitary whose columns are the joint eigenvectors of one class.

    The m generator labels are the columns of the 2m x m matrix; they must be
    independent and pairwise commuting, and m at most ORACLE_QUBIT_CAP.
    Column t holds the eigenvector with sign pattern read from the bits of t
    (qubit-0 generator = most significant bit, bit 0 meaning eigenvalue +1):
    the normalised first nonzero column of the projector prod_i (I + s_i P_i) / 2.
    A Pauli operator is monomial, so each half-sum v <- (v + s P v) / 2 is a
    permutation and a phase on single vectors.  Every intermediate value is
    a dyadic Gaussian rational, so the arithmetic is exact.
    """
    m = gen.cols
    if gen.rows != 2 * m:
        raise ValueError("expected a 2m x m generator")
    _check_cap(m)
    labels = [PauliLabel.from_bits(m, c) for c in _transpose_rows(gen.data, m)]
    if rank(gen) < m:
        raise ValueError("class generators are dependent")
    for i in range(m):
        for j in range(i + 1, m):
            if symplectic_product(labels[i], labels[j]):
                raise ValueError("class generators do not commute")
    d = 1 << m
    idx = np.arange(d)
    actions = [_monomial_action(lab, idx) for lab in labels]
    basis = np.empty((d, d), dtype=complex)
    todo = idx  # sign patterns still without an eigenvector
    for j in range(d):
        # Project e_j for every pending pattern at once.  A rank-1 stabilizer
        # projector has nonzero columns of one norm, so the first j that a
        # pattern does not annihilate is its largest-norm column.
        vecs = np.zeros((len(todo), d), dtype=complex)
        vecs[:, j] = 1.0
        for i, (src, phase) in enumerate(actions):
            sign = 1 - 2 * ((todo >> (m - 1 - i)) & 1)
            vecs = (vecs + sign[:, None] * (phase * vecs[:, src])) / 2.0
        hit = np.linalg.norm(vecs, axis=1) >= 1e-9
        for t, v in zip(todo[hit], vecs[hit]):
            basis[:, t] = _fix_phase(v / np.linalg.norm(v))
        todo = todo[~hit]
        if not len(todo):
            return basis
    raise ValueError("projector collapsed: generators not independent")


def mub_from_generators(gens: GeneratorSet) -> list[np.ndarray]:
    """The d + 1 eigenbases of a generator set, in the order of its standard forms.

    The cap is checked before any form is derived, since a set has 2^m of them.
    """
    _check_cap(gens.m)
    return [class_eigenbasis(g) for g in class_generators(gens)]


def verify_bases(bases: list[np.ndarray], tol: float = 1e-10) -> MubVerification:
    """Largest deviation of any cross-basis overlap from 1/d, checked against tol.

    `worst_pair` is the pair of bases at that deviation.
    """
    if not bases:
        raise ValueError("empty basis list")
    d = bases[0].shape[0]
    eye = np.eye(d)
    unit_dev = max(float(np.max(np.abs(b.conj().T @ b - eye))) for b in bases)
    dev, worst = 0.0, None
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            overlaps = np.abs(bases[i].conj().T @ bases[j]) ** 2
            pair_dev = float(np.max(np.abs(overlaps - 1.0 / d)))
            if worst is None or pair_dev > dev:
                dev, worst = pair_dev, (i, j)
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol, worst)


# -- full d x d powers of the cyclic generator -----------------------------------
#
# The numpy path `pauli.verify_mub` replaced: every entry of every power
# U^j, and U^+ U from a Gram product, O(d^3 log d).  Its layers are built
# here with numpy from the spec, independently of `pauli`.

_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _quadratic_phase(S: BitMatrix, bits: np.ndarray) -> np.ndarray:
    """The diagonal of D_S: i^(y^t S y) for the qubit bits y of each index."""
    s = np.array(S.to_lists())
    q = bits @ np.diag(s) + 2 * ((bits @ np.triu(s, 1)) * bits).sum(axis=1)
    return _POWERS_OF_I[q % 4]


def _generator_layers(spec: StabilizerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U = D_A P_(R^-1) D_(R^-1 B) H^(x)m D_A as (pre, post, src).

    (U M)[r] = post[r] * (H^(x)m (pre * M))[src[r]] row by row, since
    P_(R^-1) moves row R r to row r.
    """
    m = spec.m
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    src = (bits @ np.array(spec.R.to_lists()).T) % 2 @ (1 << np.arange(m - 1, -1, -1))
    phase = _quadratic_phase(mat_mul(mat_inverse(spec.R), spec.B), bits)
    outer = _quadratic_phase(spec.A, bits)
    return outer, outer * phase[src], src


def _hadamard_rows(M: np.ndarray) -> None:
    """Apply H^(x)m to the rows of M in place: one butterfly pass per qubit."""
    d = M.shape[0]
    h = 1
    while h < d:
        pairs = M.reshape(d // (2 * h), 2, h, -1)
        total = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] = total
        h *= 2
    M *= 2.0 ** (-(d.bit_length() - 1) / 2)


def generator_powers(spec: StabilizerSpec, count: int) -> Iterator[np.ndarray]:
    """U^1, ..., U^count as d x d complex matrices, each a new array."""
    if spec.m > construct.NUMERIC_QUBIT_CAP:
        raise ValueError(
            f"the numeric tier is capped at m = {construct.NUMERIC_QUBIT_CAP}, got m = {spec.m}"
        )
    pre, post, src = _generator_layers(spec)
    M = np.eye(spec.d, dtype=complex)
    for _ in range(count):
        M = M * pre[:, None]
        _hadamard_rows(M)
        M = post[:, None] * M[src]
        yield M


def verify_powers(spec: StabilizerSpec, tol: float = 1e-10) -> MubVerification:
    """Largest deviation of any |U^j_xy|^2 from 1/d over j = 1..d, checked against tol.

    Unitarity is checked once, on U, by a Gram product.
    """
    d = spec.d
    dev, worst, unit_dev = 0.0, None, 0.0
    for j, M in enumerate(generator_powers(spec, d), start=1):
        if j == 1:
            # U^+ U from real products: a complex one (zgemm) took 16 ms at
            # d = 64 with OpenBLAS 0.3.31 on 2 cores, the four real ones 0.1 ms.
            re, im = M.real, M.imag
            gram = re.T @ re + im.T @ im + 1j * (re.T @ im - im.T @ re)
            unit_dev = float(np.max(np.abs(gram - np.eye(d))))
        power_dev = float(np.max(np.abs(np.abs(M) ** 2 - 1.0 / d)))
        if worst is None or power_dev > dev:
            dev, worst = power_dev, (0, j)
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol, worst)
