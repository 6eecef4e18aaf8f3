"""Symplectic maps between set kinds: Gram factors, transport, class equality.

A block-triangular symplectic map f = [[u, t], [0, (u^t)^-1]] carries the
field-kind set of B_f = u^-1 B u onto the group/semigroup-kind set of
(B, R = u u^t, A = t u^t): the standard forms transform as
u p(B_f) u^t + t u^t = p(B) R + A.  Conversely every admissible symmetrizer
R factors as a Gram product, which makes the equivalence executable in both
directions.  A symmetric invertible R lacks a Gram factor only when it is
alternating (zero diagonal), and no valid spec has such an R: then
char(B) = det(x R + B R), as det R = 1, and N = x R + B R is symmetric over
F2[x] with a constant diagonal.  In characteristic 2 the Leibniz terms of a
permutation and its inverse cancel unless it is an involution, which
contributes the constants N_ii times N_ij^2 = x^2 R_ij + (B R)_ij over its
2-cycles.  So char(B) lies in F2[x^2], a square, and is reducible for
m >= 2; at m = 1 the only alternating matrix is 0.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .construct import GeneratorSet, StabilizerSpec, _vec, build_stabilizer, generators
from .gf2 import (
    BitMatrix,
    _mul_rows,
    _SpanReducer,
    _transpose_rows,
    block2x2,
    blocks_of,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    rank,
)


class SymplecticMap(NamedTuple):
    """2m x 2m map over F2 in block form f = [[s, t], [u, v]]."""

    s: BitMatrix
    t: BitMatrix
    u: BitMatrix
    v: BitMatrix

    @property
    def m(self) -> int:
        return self.s.rows

    @property
    def matrix(self) -> BitMatrix:
        return block2x2(self.s, self.t, self.u, self.v)

    @classmethod
    def from_matrix(cls, f: BitMatrix) -> "SymplecticMap":
        return cls(*blocks_of(f))

    @classmethod
    def identity(cls, m: int) -> "SymplecticMap":
        eye = BitMatrix.identity(m)
        zero = BitMatrix.zero(m)
        return cls(eye, zero, zero, eye)

    @classmethod
    def triangular(cls, u: BitMatrix, t: BitMatrix) -> "SymplecticMap":
        """f = [[u, t], [0, (u^t)^-1]]; symplectic iff u^-1 t is symmetric."""
        return cls(u, t, BitMatrix.zero(u.rows), mat_inverse(u.transpose()))

    def inverse(self) -> "SymplecticMap":
        return SymplecticMap.from_matrix(mat_inverse(self.matrix))

    def compose(self, other: "SymplecticMap") -> "SymplecticMap":
        """self after other."""
        return SymplecticMap.from_matrix(mat_mul(self.matrix, other.matrix))


def symplectic_form(m: int) -> BitMatrix:
    """J = [[0, I], [I, 0]]."""
    eye = BitMatrix.identity(m)
    zero = BitMatrix.zero(m)
    return block2x2(zero, eye, eye, zero)


def is_symplectic(f: SymplecticMap) -> bool:
    """f^t J f = J over F2."""
    mat = f.matrix
    J = symplectic_form(f.m)
    return mat_mul(mat_mul(mat.transpose(), J), mat) == J


def gram_factor(R: BitMatrix) -> BitMatrix:
    """Invertible s with s^t s = R; ValueError when R is alternating.

    Builds a basis orthonormal with respect to the bilinear form R.  When the
    remaining form turns alternating mid-way, one previously extracted unit
    vector is combined with a hyperbolic pair and the 3-dimensional patch is
    re-diagonalized; a nondegenerate symmetric form over F2 fails this
    process only when it is alternating from the start (zero diagonal), and
    such forms genuinely admit no Gram factorization: every column of s would
    need even weight, making s singular.
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


def transport(f: SymplecticMap, gens: GeneratorSet) -> GeneratorSet:
    """The classes f G for a block-triangular symplectic f = [[s, t], [0, v]].

    f maps (I; 0) to (s; 0), the class Z_BASIS again, and (M; I) to
    (s M + t; v), whose standard form is (s M + t) v^-1.  That is affine in
    M, so the image of A + span(basis) is (s A + t) v^-1 + span{s X v^-1}.
    Every map `equivalence_map` composes has this shape; any other f raises
    ValueError.
    """
    if not is_symplectic(f):
        raise ValueError("transport requires a symplectic map")
    if not f.u.is_zero():
        raise ValueError("transport requires a block-triangular map (lower-left block 0)")
    v_inv = mat_inverse(f.v)
    return GeneratorSet(
        gens.m,
        mat_mul(mat_mul(f.s, gens.A) + f.t, v_inv),
        tuple(mat_mul(mat_mul(f.s, x), v_inv) for x in gens.basis),
    )


def classes_equal(a: GeneratorSet, b: GeneratorSet) -> bool:
    """Equality of the two collections of classes, by standard form.

    A standard form names its class: (M; I) is the graph {(M c; c)} of M,
    and Z_BASIS stands for {(x; 0)}.  Both sets hold Z_BASIS once and the
    affine family A + span(basis), each form 2^(m - rank) times, so the
    collections agree iff the spans agree and A_a + A_b lies in them.
    """
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    span_a = _SpanReducer(map(_vec, a.basis))
    return (
        len(span_a.basis) == len(_SpanReducer(map(_vec, b.basis)).basis)
        and all(span_a.contains(_vec(x)) for x in b.basis)
        and span_a.contains(_vec(a.A) ^ _vec(b.A))
    )


def field_anchor(spec: StabilizerSpec) -> tuple[SymplecticMap, StabilizerSpec]:
    """Triangular f and field spec whose transport reproduces spec's classes.

    For group/semigroup specs this is the executable direction of the
    equivalence: u = (gram factor)^t gives u u^t = R, the anchor matrix is
    B_f = u^-1 B u (symmetric exactly because B R is), and t = A u^-t.
    Expects a validated spec, whose R has a Gram factor (see the module
    docstring).
    """
    if spec.kind == "field":
        return SymplecticMap.identity(spec.m), spec
    u = gram_factor(spec.R).transpose()
    u_inv = mat_inverse(u)
    anchor_B = mat_mul(mat_mul(u_inv, spec.B), u)
    t = mat_mul(spec.A, u_inv.transpose())
    f = SymplecticMap.triangular(u, t)
    return f, StabilizerSpec.field(anchor_B)


def _krylov(a: BitMatrix) -> BitMatrix:
    """The matrix with columns e_0, a e_0, ..., a^(m-1) e_0, for a symmetric a."""
    cols = [1]
    for _ in range(a.rows - 1):
        cols += _mul_rows(cols[-1:], a.data)  # v^t a = (a v)^t, as a is symmetric
    return BitMatrix(a.rows, a.rows, _transpose_rows(cols, a.rows))


def _orthogonal_intertwiner(a: BitMatrix, b: BitMatrix) -> BitMatrix | None:
    """The w with w a w^-1 = b and w w^t = I, or None when there is none.

    For symmetric a and b whose characteristic polynomials are irreducible,
    as field anchors' are, such a w exists iff char(a) = char(b), and it is
    unique:

    - Similar matrices share a characteristic polynomial, so a difference
      leaves no invertible intertwiner.
    - With p = char(a) = char(b) irreducible of degree m, e_0 is cyclic for
      both, so the Krylov matrices K_a, K_b are invertible and
      a K_a = K_a P, b K_b = K_b P for the companion matrix P of p.  So
      w0 = K_b K_a^-1 gives w0 a = b w0.
    - Every intertwiner is w0 c with c in the centraliser of a, which is
      the field F2[a], since p is irreducible.  Transposing w0 a = b w0
      gives a w0^t = w0^t b, so S = w0^t w0 commutes with a and lies in
      F2[a] as well.
    - a is symmetric, so c^t = c, and (w0 c)^t (w0 c) = c^2 S.  So w0 c is
      orthogonal iff c^2 = S^-1.  Squaring is a bijection on the field
      F2[a] of 2^m elements, with inverse x -> x^(2^(m-1)), so
      c = (S^-1)^(2^(m-1)), m - 1 squarings, is the only solution.
    """
    if char_poly(a) != char_poly(b):
        return None
    w0 = mat_mul(_krylov(b), mat_inverse(_krylov(a)))
    c = mat_inverse(mat_mul(w0.transpose(), w0))
    for _ in range(a.rows - 1):
        c = mat_mul(c, c)
    return mat_mul(w0, c)


def equivalence_map(a: StabilizerSpec, b: StabilizerSpec) -> tuple[SymplecticMap | None, str]:
    """Symplectic map carrying a's classes onto b's, with a reason string.

    Both specs are reduced to field anchors through their Gram factors; an
    orthogonal change of anchor then links the anchors whenever they share a
    characteristic polynomial.  The composed map is verified end to end with
    classes_equal before it is reported.  Expects validated specs.
    """
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    if a.to_json_dict() == b.to_json_dict():
        return SymplecticMap.identity(a.m), "identical specs"
    fa, anchor_a = field_anchor(a)
    fb, anchor_b = field_anchor(b)
    w = _orthogonal_intertwiner(anchor_a.B, anchor_b.B)
    if w is None:
        return None, "field anchors are not orthogonally conjugate (distinct class families)"
    zero = BitMatrix.zero(a.m)
    w_map = SymplecticMap(w, zero, zero, mat_inverse(w.transpose()))
    f = fb.compose(w_map).compose(fa.inverse())
    gens_a = generators(a, build_stabilizer(a))
    if not classes_equal(transport(f, gens_a), generators(b, build_stabilizer(b))):
        return None, "transport failed to reproduce the target classes"
    return f, "transport reproduces the target classes"
