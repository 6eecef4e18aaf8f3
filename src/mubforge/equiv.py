"""Symplectic maps between sets: transport, class equality, equivalence maps.

A validated spec's set holds Z_BASIS and the classes p(B) R + A, deg p < m.
A block-triangular symplectic map f = [[s, t], [0, s^-t]] takes the standard
form M to (s M + t) s^t, so it carries the classes of spec a onto those of
spec b when s B_a s^-1 = B_b, s R_a s^t = R_b and t = s A_a + A_b s^-t.
Such an s exists iff char(B_a) = char(B_b), and then it is unique:

1. B R is symmetric, so B R = R B^t, and B^t = R^-1 B R.
2. char(B) is irreducible, so every nonzero vector, e_0 among them, is
   cyclic for B.  With char(B_a) = char(B_b) the Krylov matrices
   K = [e_0, B e_0, ..., B^(m-1) e_0] are invertible, and
   B_a K_a = K_a P, B_b K_b = K_b P for the companion matrix P.  So
   s_0 = K_b K_a^-1 gives s_0 B_a = B_b s_0.  Similar matrices share a
   characteristic polynomial, so with char(B_a) != char(B_b) no s exists.
3. Every intertwiner is s_0 c with c in the centraliser of B_a, which is
   F2[B_a], as B_a is cyclic.  By (1), c^t = R_a^-1 c R_a, so
   s R_a s^t = s_0 c R_a c^t s_0^t = s_0 c^2 R_a s_0^t, and s R_a s^t = R_b
   iff c^2 = S with S = s_0^-1 R_b s_0^-t R_a^-1.
4. By (1) for a and b and by s_0 B_a = B_b s_0, S commutes with B_a, so it
   is a nonzero element of F2[B_a], a field of 2^m elements.  Squaring is a
   bijection there, with inverse x -> x^(2^(m-1)), so c = S^(2^(m-1)),
   m - 1 squarings, is the only solution.
5. s^-1 t = A_a + s^-1 A_b s^-t is symmetric, so f is symplectic (see
   `transport`), and it maps p(B_a) R_a + A_a to
   s p(B_a) R_a s^t + s A_a s^t + t s^t = p(B_b) R_b + A_b.

With R = I this is the orthogonal intertwiner of two field-kind B.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import GeneratorSet, StabilizerSpec, _vec, build_stabilizer, generators
from .gf2 import (
    BitMatrix,
    _mul_rows,
    _SpanReducer,
    _transpose_rows,
    block2x2,
    char_poly,
    mat_inverse,
    mat_mul,
)


class SymplecticMap(NamedTuple):
    """The 2m x 2m map f = [[s, t], [0, s^-t]] over F2, held by its top blocks."""

    s: BitMatrix
    t: BitMatrix

    @property
    def matrix(self) -> BitMatrix:
        zero = BitMatrix.zero(self.s.rows)
        return block2x2(self.s, self.t, zero, mat_inverse(self.s.transpose()))


def transport(f: SymplecticMap, gens: GeneratorSet) -> GeneratorSet:
    """The classes f G for f = [[s, t], [0, s^-t]].

    f^t J f has off-diagonal blocks s^t s^-t = I and lower-right block
    (s^-1 t)^t + s^-1 t, so f is symplectic iff s^-1 t is symmetric.  Any
    other f raises ValueError, and so does a singular s (NotInvertibleError).
    f maps (I; 0) to (s; 0), the class Z_BASIS again, and (M; I) to
    (s M + t; s^-t), whose standard form is (s M + t) s^t.  That is affine
    in M, so the image of A + span(basis) is (s A + t) s^t + span{s X s^t}:
    every matrix X goes to s X s^t, and A also gains t s^t.
    """
    if not mat_mul(mat_inverse(f.s), f.t).is_symmetric():
        raise ValueError("transport requires a symplectic map (s^-1 t symmetric)")
    st = f.s.transpose()
    A, *basis = (mat_mul(mat_mul(f.s, x), st) for x in (gens.A, *gens.basis))
    return GeneratorSet(A + mat_mul(f.t, st), tuple(basis))


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


def _krylov(x: BitMatrix) -> BitMatrix:
    """The matrix with columns e_0, x e_0, ..., x^(m-1) e_0."""
    xt = _transpose_rows(x.data, x.rows)
    cols = [1]
    for _ in range(x.rows - 1):
        cols += _mul_rows(cols[-1:], xt)  # (x v)^t = v^t x^t
    return BitMatrix(x.rows, x.rows, _transpose_rows(cols, x.rows))


def _intertwiner(a: StabilizerSpec, b: StabilizerSpec) -> BitMatrix | None:
    """The s with s B_a s^-1 = B_b and s R_a s^t = R_b, or None when there is none.

    s = s_0 S^(2^(m-1)) with s_0 = K_b K_a^-1 and S = s_0^-1 R_b s_0^-t R_a^-1,
    the unique solution by the module docstring.  Expects validated specs.
    """
    if char_poly(a.B) != char_poly(b.B):
        return None
    s0 = mat_mul(_krylov(b.B), mat_inverse(_krylov(a.B)))
    s0_inv = mat_inverse(s0)
    c = mat_mul(mat_mul(mat_mul(s0_inv, b.R), s0_inv.transpose()), mat_inverse(a.R))
    for _ in range(a.m - 1):
        c = mat_mul(c, c)
    return mat_mul(s0, c)


def equivalence_map(a: StabilizerSpec, b: StabilizerSpec) -> tuple[SymplecticMap | None, str]:
    """Symplectic map carrying a's classes onto b's, with a reason string.

    f = [[s, s A_a + A_b s^-t], [0, s^-t]] with s from `_intertwiner`, which
    exists whenever char(B_a) = char(B_b).  The map is verified end to end
    with classes_equal before it is reported.  Expects validated specs.
    """
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    if a == b:
        return SymplecticMap(BitMatrix.identity(a.m), BitMatrix.zero(a.m)), "identical specs"
    s = _intertwiner(a, b)
    if s is None:
        return None, "characteristic polynomials of B differ (distinct class families)"
    f = SymplecticMap(s, mat_mul(s, a.A) + mat_mul(b.A, mat_inverse(s.transpose())))
    gens_a = generators(a, build_stabilizer(a))
    if not classes_equal(transport(f, gens_a), generators(b, build_stabilizer(b))):
        return None, "transport failed to reproduce the target classes"
    return f, "transport reproduces the target classes"
