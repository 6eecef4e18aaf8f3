"""Stabilizer specifications: the spec, its wire format, its checks and its classes.

A spec is (kind, m, B, R, A): `field` uses a symmetric B with the identity
symmetrizer, `group` adds a symmetric invertible R with BR symmetric, and
`semigroup` further adds a symmetric A.  In every case the characteristic
polynomial of B must be irreducible with Fibonacci index d + 1 = 2^m + 1;
that single condition makes the stabilizer matrix C cyclic of order d + 1.

The three kinds produce sets with three, two and one completely factorizable
bases once R is not a polynomial in B (group), which for these R means B is
not symmetric, and A additionally avoids every matrix of the form
p(B) R + diagonal (semigroup).

A set's classes are (I; 0) and the d standard forms p(B) R + A with
deg p < m.  They are held as the affine family A + span{R, B R, ...,
B^(m-1) R}, so the checks, the entanglement count and the equivalence map
all work on m + 1 matrices.  The search for specs is in `search`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import poly2
from .gf2 import (
    BitMatrix,
    NotInvertibleError,
    _SpanReducer,
    block2x2,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    vstack,
)

KINDS = ("field", "group", "semigroup")
_KIND_JSON = {kind: f'"{kind}"' for kind in KINDS}  # each kind as `to_json` writes it

MAX_M = 16
NUMERIC_QUBIT_CAP = 8     # numeric tier in `pauli`: d powers of one d x d unitary
DEFAULT_TOL = 1e-10       # numeric tier in `pauli` and `build --tol`


class SpecValidationError(ValueError):
    """A spec invariant failed; `condition` names the violated requirement."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class StandardFormError(ValueError):
    """A class generator could not be brought to standard form."""


class _ZBasis:
    """Sentinel standard form of the computational-basis class (I; 0).

    `Z_BASIS` below is its one instance, and callers compare with `is`.
    """

    def __repr__(self) -> str:
        return "ZBasis"


Z_BASIS = _ZBasis()


def _matrix_from_json(obj: dict, name: str) -> BitMatrix:
    """The 0/1 row lists under obj[name] as a BitMatrix, or a schema error."""
    rows = obj[name]
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)):
        raise SpecValidationError("schema", f'"{name}" must be a non-empty list of non-empty rows')
    if any(type(v) is not int for r in rows for v in r):
        raise SpecValidationError("schema", f'"{name}" entries must be the integers 0 or 1')
    try:
        return BitMatrix.from_rows(rows)
    except ValueError as exc:
        raise SpecValidationError("schema", f'"{name}": {exc}') from exc


@functools.lru_cache(maxsize=1 << 12)
def _row_json(mask: int, width: int) -> str:
    """One matrix row in the wire format, as `BitMatrix.to_lists` + json.dumps give it."""
    return "[" + ",".join("1" if (mask >> j) & 1 else "0" for j in range(width)) + "]"


def _matrix_json(mat: BitMatrix) -> str:
    """The matrix in the wire format, written once and kept on the matrix.

    Search shares one B, R or A among many specs; a dropped matrix takes its text along.
    """
    text = getattr(mat, "_json", None)
    if text is None:
        text = "[" + ",".join([_row_json(r, mat.cols) for r in mat.data]) + "]"
        object.__setattr__(mat, "_json", text)
    return text


def _pack(rows, width: int) -> int:
    """Row masks packed into one vector, row i at bits i*width .. (i+1)*width - 1."""
    v = 0
    for i, r in enumerate(rows):
        v |= r << (i * width)
    return v


def _vec(mat: BitMatrix) -> int:
    return _pack(mat.data, mat.cols)


def reverse_bits(x: int, n: int) -> int:
    """x < 2^n with its n bits in reverse order."""
    return int(f"{x:0{n}b}"[::-1], 2)


@functools.lru_cache(maxsize=MAX_M)
def _forced_blocks(m: int) -> tuple[BitMatrix, BitMatrix]:
    """The m x m identity and zero, shared by every spec that has them forced."""
    return BitMatrix.identity(m), BitMatrix.zero(m)


class StabilizerSpec(NamedTuple):
    """Recipe for one complete cyclic set: kind plus the matrices B, R, A."""

    kind: str
    m: int
    B: BitMatrix
    R: BitMatrix
    A: BitMatrix

    @classmethod
    def field(cls, B: BitMatrix) -> "StabilizerSpec":
        return cls._make(("field", B.rows, B, *_forced_blocks(B.rows)))

    @property
    def d(self) -> int:
        return 1 << self.m

    def validate(self) -> None:
        """Raise SpecValidationError naming the first violated condition."""
        if self.kind not in KINDS:
            raise SpecValidationError("kind", f"unknown kind {self.kind!r}")
        if not 1 <= self.m <= MAX_M:
            raise SpecValidationError("m-range", f"m = {self.m} outside 1..{MAX_M}")
        for name, mat in (("B", self.B), ("R", self.R), ("A", self.A)):
            if mat.rows != self.m or mat.cols != self.m:
                raise SpecValidationError(
                    "shape", f"{name} is {mat.rows}x{mat.cols}, expected {self.m}x{self.m}"
                )
        if self.kind == "field":
            if self.R != BitMatrix.identity(self.m):
                raise SpecValidationError("R-forced", "field kind requires R = identity")
            if not self.B.is_symmetric():
                raise SpecValidationError("B-symmetric", "field kind requires symmetric B")
        if self.kind in ("field", "group") and not self.A.is_zero():
            raise SpecValidationError("A-forced", f"{self.kind} kind requires A = 0")

        p = char_poly(self.B)
        if not p & 1:
            raise SpecValidationError("B-invertible", "B is singular")
        if not poly2.is_irreducible(p):
            raise SpecValidationError(
                "char-poly-irreducible",
                f"characteristic polynomial {poly2.poly_str(p)} is reducible",
            )
        idx = poly2.fibonacci_index(p)
        if idx != self.d + 1:
            raise SpecValidationError(
                "fibonacci-index",
                f"characteristic polynomial {poly2.poly_str(p)} has Fibonacci index {idx}, "
                f"need d + 1 = {self.d + 1}",
            )
        if self.kind in ("group", "semigroup"):
            if not self.R.is_symmetric():
                raise SpecValidationError("R-symmetric", "R must be symmetric")
            if not is_invertible(self.R):
                raise SpecValidationError("R-invertible", "R is singular")
            if not mat_mul(self.B, self.R).is_symmetric():
                raise SpecValidationError("BR-symmetric", "B R must be symmetric")
        if self.kind == "semigroup" and not self.A.is_symmetric():
            raise SpecValidationError("A-symmetric", "A must be symmetric")

    # -- JSON wire format --------------------------------------------------

    def to_json_dict(self) -> dict:
        """The wire format as a dict: `to_json` parsed back, so one encoder decides the keys."""
        import json
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The spec as compact JSON, written straight from the row masks.

        The keys are m, kind and B, then R for the group and semigroup kinds
        and A for the semigroup kind: the forced blocks are left out.
        """
        kind, m, B, R, A = self
        text = _KIND_JSON.get(kind)
        if text is None:  # a kind outside KINDS, which `validate` rejects
            import json
            text = json.dumps(kind)
        head = f'{{"m":{m},"kind":{text},"B":{_matrix_json(B)}'
        if kind == "semigroup":
            return f'{head},"R":{_matrix_json(R)},"A":{_matrix_json(A)}}}'
        if kind == "group":
            return f'{head},"R":{_matrix_json(R)}}}'
        return head + "}"

    @classmethod
    def from_json_dict(cls, obj) -> "StabilizerSpec":
        """Parse the wire format; malformed input raises SpecValidationError("schema")."""
        if not isinstance(obj, dict):
            raise SpecValidationError(
                "schema", f"spec must be a JSON object, not {type(obj).__name__}"
            )
        missing = [key for key in ("kind", "m", "B") if key not in obj]
        if missing:
            raise SpecValidationError("schema", f"missing key(s) {', '.join(missing)}")
        kind, m = obj["kind"], obj["m"]
        if not isinstance(kind, str):
            raise SpecValidationError(
                "schema", f'"kind" must be a string, not {type(kind).__name__}'
            )
        if type(m) is not int:
            raise SpecValidationError("schema", f'"m" must be an integer, not {type(m).__name__}')
        if not 1 <= m <= MAX_M:
            raise SpecValidationError("m-range", f"m = {m} outside 1..{MAX_M}")
        B = _matrix_from_json(obj, "B")
        R = _matrix_from_json(obj, "R") if "R" in obj else BitMatrix.identity(m)
        A = _matrix_from_json(obj, "A") if "A" in obj else BitMatrix.zero(m)
        return cls(kind, m, B, R, A)

    @classmethod
    def from_json(cls, text: str) -> "StabilizerSpec":
        import json
        try:
            obj = json.loads(text)
        except RecursionError as exc:
            raise SpecValidationError("schema", "spec JSON is nested too deeply") from exc
        except json.JSONDecodeError as exc:
            detail = "the spec is empty" if not text.strip() else f"not valid JSON: {exc}"
            raise SpecValidationError("schema", detail) from exc
        except ValueError as exc:  # an integer literal longer than int_max_str_digits
            raise SpecValidationError("schema", f"cannot read JSON: {exc}") from exc
        return cls.from_json_dict(obj)


class GeneratorSet(NamedTuple):
    """The d + 1 classes of one set: (I; 0) and the forms A + span(basis).

    `generators` gives basis = (R, B R, ..., B^(m-1) R), so a set is held
    by m + 1 matrices, not by its d forms; the form of index i is A plus
    basis[k] for each set bit k of i.
    """

    A: BitMatrix
    basis: tuple[BitMatrix, ...]

    @property
    def m(self) -> int:
        return self.A.rows


def build_stabilizer(spec: StabilizerSpec) -> BitMatrix:
    """Assemble the 2m x 2m stabilizer matrix C for a validated spec.

    C = [[B + A R^-1, R + B A + A R^-1 A], [R^-1, R^-1 A]], the semigroup
    form for every kind: `validate` forces A = 0 for the field and group
    kinds, which leaves [[B, R], [R^-1, 0]], and R = I for the field kind,
    which leaves [[B, I], [I, 0]].
    """
    rinv = mat_inverse(spec.R)
    arinv = mat_mul(spec.A, rinv)
    ul = spec.B + arinv
    ur = spec.R + mat_mul(spec.B, spec.A) + mat_mul(arinv, spec.A)
    return block2x2(ul, ur, rinv, mat_mul(rinv, spec.A))


def cyclicity_check(C: BitMatrix, d: int) -> bool:
    """True iff C has order exactly d + 1.

    An order test: C^(d+1) = I while C^((d+1)/q) != I for every prime q
    dividing d + 1 (any proper divisor of d + 1 divides one of those
    quotients), so it costs O(log d) products instead of d.
    """
    n = d + 1
    eye = BitMatrix.identity(C.rows)
    if C**n != eye:
        return False
    return all(C ** (n // q) != eye for q in poly2._prime_factors(n))


def standard_form(gen: BitMatrix):
    """Normalize a 2m x m class generator to (M; I), or Z_BASIS for (I; 0).

    Raises StandardFormError when the lower block is singular but nonzero,
    which cannot happen for generators of a valid spec.
    """
    m = gen.cols
    if gen.rows != 2 * m:
        raise ValueError("expected a 2m x m generator")
    up = BitMatrix(m, m, gen.data[:m])
    lo = BitMatrix(m, m, gen.data[m:])
    if lo.is_zero():
        if not is_invertible(up):
            raise StandardFormError("zero lower block with singular upper block")
        return Z_BASIS
    try:
        lo_inv = mat_inverse(lo)
    except NotInvertibleError as exc:
        raise StandardFormError("lower block of a class generator is singular") from exc
    return mat_mul(up, lo_inv)


def generators(spec: StabilizerSpec, C: BitMatrix | None = None) -> GeneratorSet:
    """Z_BASIS and the d forms p(B) R + A with deg p < m, each once.

    These are the standard forms of the orbit C^j (I; 0), j = 0..d, of a
    valid spec, held as A and the basis R, B R, ..., B^(m-1) R:

    - Field and group kind: with M = N R, C (M; I) = (B M + R; R^-1 M) has
      standard form (B + N^-1) R.  So N_1 = B and N_(j+1) = B + N_j^-1 stay
      in the field F2[B], since the characteristic polynomial of B is
      irreducible.
    - C permutes the d + 1 points of the projective line over F2[B] in a
      single cycle.  Its order is the Fibonacci index d + 1, and a scalar
      power lambda I would need lambda^2 = det C = 1.  A power of C with a
      fixed point would be triangular, so its order would divide d (d - 1),
      which is coprime to d + 1.
    - Semigroup kind: C = T C_group T with T = [[I, A], [0, I]], and T fixes
      G_0 = (I; 0), so every form is shifted by A.

    The first m orbit steps are still walked, and each standard form plus A
    must lie in the span of the basis; a miss raises StandardFormError
    naming the step, so C stays tied to the classes reported.

    With no C the spec is validated and C built here; a caller that has
    done both passes its C.
    """
    if C is None:
        spec.validate()
        C = build_stabilizer(spec)
    m = spec.m
    basis = [spec.R]
    for _ in range(m - 1):
        basis.append(mat_mul(spec.B, basis[-1]))
    span = _SpanReducer(_vec(r) for r in basis)
    shift = _vec(spec.A)
    gen = vstack(BitMatrix.identity(m), BitMatrix.zero(m))
    for step in range(1, m + 1):
        gen = mat_mul(C, gen)
        form = standard_form(gen)
        if form is Z_BASIS or not span.contains(_vec(form) ^ shift):
            raise StandardFormError(f"orbit step {step} leaves A + F2[B] R")
    return GeneratorSet(spec.A, tuple(basis))


# -- class-level checks ------------------------------------------------------


def bandyopadhyay_check(gens: GeneratorSet) -> bool:
    """Bandyopadhyay's criterion on the additive matrices of a set.

    True iff the basis has rank m and A and every basis matrix are
    symmetric.  For the sets `generators` and `transport` return, every
    nonzero member of span(basis) is invertible.  It is q(B) R with q != 0
    and deg q < m, invertible because char(B) is irreducible and R is
    invertible; a triangular f maps it to s q(B) R s^t, which is
    q(s B s^-1) (s R s^t).  Then the criterion is exactly the partition of
    the 4^m - 1 nonzero Pauli labels into d + 1 commuting classes of d - 1:

    - Rank m makes the d forms A + span(basis) distinct, so there are
      d + 1 classes, and class 0 = {(x; 0)} meets each class
      (M; I) = {(M c; c)} only in 0.
    - Two distinct forms differ by a nonzero member of the span, which is
      invertible, so M c = M' c forces c = 0 and the classes meet only in 0.
    - Every form is symmetric iff A and the basis are, since forms are sums
      of them.  A symmetric form M makes its class (M; I) isotropic, since
      the symplectic product of columns a and b is M_ab + M_ba.  Counting
      (d + 1)(d - 1) = 4^m - 1 distinct nonzero labels gives the cover.
    """
    if not len(gens.basis) == gens.m == len(_SpanReducer(map(_vec, gens.basis)).basis):
        return False
    return all(f.is_symmetric() for f in (gens.A, *gens.basis))
