"""Symplectic maps between set kinds: Gram factors, transport, class equality.

A block-triangular symplectic map f = [[u, t], [0, (u^t)^-1]] carries the
field-kind set of B_f = u^-1 B u onto the group/semigroup-kind set of
(B, R = u u^t, A = t u^t): the standard forms transform as
u p(B_f) u^t + t u^t = p(B) R + A.  Conversely any admissible symmetrizer R
that is not alternating factors as a Gram product, which makes the
equivalence executable in both directions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .construct import (
    GeneratorSet,
    StabilizerSpec,
    generators,
    standard_form,
)
from .gf2 import (
    BitMatrix,
    block2x2,
    blocks_of,
    is_invertible,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
)


@dataclass(frozen=True)
class SymplecticMap:
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


def gram_factor(R: BitMatrix) -> BitMatrix | None:
    """Invertible s with s^t s = R, or None when R is alternating.

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
            return None  # alternating form
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
    """Left-multiply every class generator by f and take standard forms.

    Raises StandardFormError when an image has a singular nonzero lower
    block; that outcome is reported, never silently patched.
    """
    if not is_symplectic(f):
        raise ValueError("transport requires a symplectic map")
    mat = f.matrix
    return GeneratorSet(gens.m, tuple(standard_form(mat_mul(mat, g)) for g in gens.generators))


def classes_equal(a: GeneratorSet, b: GeneratorSet) -> bool:
    """Unordered equality of the two collections of classes, by standard form.

    The class of (M; I) is the graph {(M c; c)} of M, and Z_BASIS stands for
    {(x; 0)}, so a standard form names its class uniquely; `generators` and
    `transport` raise on a class that has no standard form.
    """
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    return Counter(a.standard_forms) == Counter(b.standard_forms)


def field_anchor(spec: StabilizerSpec) -> tuple[SymplecticMap, StabilizerSpec]:
    """Triangular f and field spec whose transport reproduces spec's classes.

    For group/semigroup specs this is the executable direction of the
    equivalence: u = (gram factor)^t gives u u^t = R, the anchor matrix is
    B_f = u^-1 B u (symmetric exactly because B R is), and t = A u^-t.
    Expects a spec satisfying its kind invariants; raises ValueError when R
    is alternating.
    """
    if spec.kind == "field":
        return SymplecticMap.identity(spec.m), spec
    s = gram_factor(spec.R)
    if s is None:
        raise ValueError(
            "symmetrizer is alternating (zero diagonal): no Gram factorization exists"
        )
    u = s.transpose()
    u_inv = mat_inverse(u)
    anchor_B = mat_mul(mat_mul(u_inv, spec.B), u)
    t = mat_mul(spec.A, u_inv.transpose())
    f = SymplecticMap.triangular(u, t)
    return f, StabilizerSpec.field(anchor_B)


def _orthogonal_intertwiner(a: BitMatrix, b: BitMatrix) -> BitMatrix | None:
    """First w (deterministic order) with w a w^-1 = b and w w^t = I."""
    m = a.rows
    n = m * m
    rows = []
    for i in range(m):
        for j in range(m):
            mask = 0
            for k in range(m):
                if a[k, j]:
                    mask ^= 1 << (i * m + k)  # w_ik a_kj
                if b[i, k]:
                    mask ^= 1 << (k * m + j)  # b_ik w_kj
            rows.append(mask)
    basis = nullspace(BitMatrix(len(rows), n, rows))
    if len(basis) > 20:
        raise ValueError("intertwiner space too large to enumerate")
    eye = BitMatrix.identity(m)
    for mask in range(1, 1 << len(basis)):
        bits = 0
        mm = mask
        while mm:
            low = mm & -mm
            bits ^= basis[low.bit_length() - 1]
            mm ^= low
        w = BitMatrix(m, m, ((bits >> (i * m)) & ((1 << m) - 1) for i in range(m)))
        if is_invertible(w) and mat_mul(w, w.transpose()) == eye:
            return w
    return None


def equivalence_map(a: StabilizerSpec, b: StabilizerSpec) -> tuple[SymplecticMap | None, str]:
    """Symplectic map carrying a's classes onto b's, with a reason string.

    Both specs are reduced to field anchors through their Gram factors; an
    orthogonal change of anchor then links the anchors whenever they share a
    characteristic polynomial.  The composed map is verified end to end with
    classes_equal before it is reported.
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
    if not classes_equal(transport(f, generators(a)), generators(b)):
        return None, "transport failed to reproduce the target classes"
    return f, "transport reproduces the target classes"
