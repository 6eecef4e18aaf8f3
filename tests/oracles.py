"""Slow, independent oracles for the fast paths of `construct` and `equiv`.

- `class_labels`, `class_partition_check` and `bandyopadhyay_oracle`
  enumerate every nonzero Pauli label of every class, which
  `construct.bandyopadhyay_check` decides from the standard forms alone.
- `cyclicity_walk` takes every power of C up to d + 1, where
  `construct.cyclicity_check` is an order test.
- `is_polynomial_in` rebuilds span{I, B, ..., B^(m-1)} for one B, where
  `construct.search_specs` tests u^t u against the anchor's field once per u.
- `find_addend_scan` decodes the symmetric candidates one by one, up to
  4^m + 1 of them, where `construct.find_addend` tries at most 2m + 1
  pair matrices.
- `search_specs_oracle` is the group/semigroup search loop with both of
  those in place of the fast paths.
- `class_canonical` is the reduced echelon basis of a class's column space,
  where `equiv.classes_equal` compares standard forms.

The label and walk oracles cost O(4^m) and O(d) steps, so tests use them
for m <= 8.
"""

from mubforge import backend, construct
from mubforge.construct import (
    Z_BASIS,
    GeneratorSet,
    StabilizerSpec,
    _SpanReducer,
    _vec,
    addend_excluded_span,
)
from mubforge.gf2 import BitMatrix, mat_inverse, mat_mul
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


def find_addend_scan(B: BitMatrix, R: BitMatrix) -> BitMatrix | None:
    """First symmetric A in candidate order outside span{B^k R} + diagonals.

    Decodes the candidates one at a time; the scan needs at most 4^m + 1 of
    them before a non-member must appear.
    """
    m = B.rows
    span = addend_excluded_span(B, R)
    npairs = m * (m + 1) // 2
    for k in range(min(1 << npairs, (1 << (2 * m)) + 1)):
        A = BitMatrix(m, m, backend.decode_symmetric(m, k))
        if not span.contains(_vec(A)):
            return A
    return None



def search_specs_oracle(
    m: int, kind: str, count: int, mode: str, seed: int | None = None
) -> list[StabilizerSpec]:
    """Group/semigroup specs over the same anchor and conjugators as `search_specs`.

    Each u gets a fresh `is_polynomial_in` on (u B0 u^-1, u u^t) and the
    addend comes from `find_addend_scan`.
    """
    anchor_seed = None if seed is None else construct._derived_seed(seed, 0xA5)
    anchors = construct.search_B(m, 1, mode, anchor_seed)
    out: list[StabilizerSpec] = []
    if not anchors:
        return out
    b0 = anchors[0]
    for u in construct._iter_conjugators(m, mode, seed, construct.DEFAULT_MAX_ATTEMPTS):
        if len(out) >= count:
            break
        R = mat_mul(u, u.transpose())
        B = mat_mul(mat_mul(u, b0), mat_inverse(u))
        if is_polynomial_in(B, R):
            continue
        if kind == "group":
            out.append(StabilizerSpec.group(B, R))
            continue
        A = find_addend_scan(B, R)
        if A is None:
            break
        out.append(StabilizerSpec.semigroup(B, R, A))
    return out

def class_canonical(gen: BitMatrix) -> tuple[int, ...]:
    """Canonical form of a class: reduced echelon basis of its column space."""
    m = gen.cols
    cols = [gen.column(j).bits for j in range(m)]
    basis: list[int] = []
    for v in cols:
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
