"""Stabilizer specifications and search for complete cyclic MUB sets.

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
all work on m + 1 matrices.

`search_specs(m, kind, count, seed)` is the one search.  No seed means the
exhaustive scan, a seed seeded sampling, and one generator of candidate
indices serves both: the field kind streams its hits, and the group and
semigroup kinds take its first hit, under a seed derived from theirs, as
the anchor.

Search builds group and semigroup specs from one field-kind anchor B0 and a
change of basis u: B = u B0 u^-1 and R = u u^t, so the standard forms are
p(B) R + A = u p(B0) u^t + A.  The conjugator walk hands out B and R with
each u, as row masks.  The exhaustive walk reads them off the recursion
that builds u, with no product per u; sampling takes the products.  R is
a polynomial in B exactly when B is symmetric, so the filter is a symmetry
test on B.  R is symmetric and invertible, BR is symmetric and char(B) is
irreducible, so:

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

So B's row masks key its verdict, its BitMatrix and its addend.  In the
exhaustive walk each u costs m coordinate lookups for B, m parities for
the new Gram column of R and a lookup, and a kept u a second lookup: R =
u u^t is the same for u and u o with o orthogonal, so R's row masks key a
shared BitMatrix.  At m = 4 the 19,440 specs of either kind hold 1,296
distinct B and 419 distinct R.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sys
from typing import Iterator, NamedTuple

from . import backend, poly2
from .gf2 import (
    BitMatrix,
    NotInvertibleError,
    _inverse_rows,
    _mul_rows,
    _SpanReducer,
    _transpose_rows,
    block2x2,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    vstack,
)

KINDS = ("field", "group", "semigroup")
_KIND_JSON = {kind: json.dumps(kind) for kind in KINDS}  # each kind as `to_json` writes it

MAX_M = 16
EXHAUSTIVE_CAP = 6        # symmetric-candidate space, <= 2^21 candidates
EXHAUSTIVE_CONJ_CAP = 4   # conjugator space for group/semigroup, <= 2^16
NUMERIC_QUBIT_CAP = 8     # numeric tier in `pauli`: d powers of one d x d unitary
DEFAULT_TOL = 1e-10       # numeric tier in `pauli` and `build --tol`
MAX_ATTEMPTS = 1 << 18    # random draws per search, of B and of u alike

Rows = tuple[int, ...]  # a matrix as its row masks, bit j of row i = entry (i, j)


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
    width = mat.cols
    return "[" + ",".join([_row_json(r, width) for r in mat.data]) + "]"


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
        eye, zero = _forced_blocks(B.rows)
        return cls("field", B.rows, B, eye, zero)

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
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The spec as compact JSON, written straight from the row masks.

        The keys are m, kind and B, then R for the group and semigroup kinds
        and A for the semigroup kind: the forced blocks are left out.
        """
        kind = _KIND_JSON.get(self.kind) or json.dumps(self.kind)
        B = _matrix_json(self.B)
        if self.kind == "semigroup":
            R, A = _matrix_json(self.R), _matrix_json(self.A)
            return f'{{"m":{self.m},"kind":{kind},"B":{B},"R":{R},"A":{A}}}'
        if self.kind == "group":
            return f'{{"m":{self.m},"kind":{kind},"B":{B},"R":{_matrix_json(self.R)}}}'
        return f'{{"m":{self.m},"kind":{kind},"B":{B}}}'

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

    m: int
    A: BitMatrix
    basis: tuple[BitMatrix, ...]


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
    return GeneratorSet(m, spec.A, tuple(basis))


# -- class-level checks ------------------------------------------------------


def bandyopadhyay_check(gens: GeneratorSet) -> bool:
    """Bandyopadhyay's criterion on the additive matrices of a set.

    True iff the basis has rank m and A and every basis matrix are
    symmetric.  For the sets `generators` and `transport` return, every
    nonzero member of span(basis) is invertible.  It is q(B) R with q != 0
    and deg q < m, invertible because char(B) is irreducible and R is
    invertible; a triangular f maps it to s q(B) R v^-1, which is
    q(s B s^-1) (s R v^-1).  Then the criterion is exactly the partition of
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


def _iter_conjugators(
    m: int, b0: Rows, seed: int | None, stats: dict | None = None
) -> Iterator[tuple[Rows, Rows, Rows]]:
    """Invertible u with B = u B0 u^-1 and R = u u^t, as row masks (u, B, R).

    Each u comes once: with no seed every u in row-major lexicographic order
    (`search_specs` has checked the cap), with a seed in the order `_draws`
    gives the m^2-bit indices, of which the singular ones are dropped; the
    draws stop once all 2^(m^2) bit patterns have been drawn.  An index k
    holds row i of u in its i-th group of m bits from the top, with column
    0 as the group's top bit, so a row mask is its group's bits reversed.

    The exhaustive walk builds u one row at a time in that order and skips
    any row in the span of the rows above it, so every u it yields is
    invertible and no rank test is needed.  It reads B and R off that
    recursion, with no product per u:

    - The span is kept as a dict from each vector v to its coordinates c
      in the rows so far (v = c u).  With the last row r added, w u^-1 is
      the coordinate mask of w, or of w + r plus the last bit, since one
      of the two lies in the old span.  Row i of B is (u_i B0) u^-1, and
      u_i B0 comes from one table of x B0 over all 2^m rows x.
    - R_ij = <u_i, u_j> is a parity, and the Gram rows of the rows so far
      ride down the recursion: each level adds one row and one column.

    Sampling reduces the rows of each draw, tagged with their indices,
    which decides invertibility and gives u^-1 in one elimination
    (`gf2._inverse_rows`), and then takes the three products.
    """
    if seed is None:
        rev = [reverse_bits(p, m) for p in range(1 << m)]
        times_b0 = _mul_rows(range(1 << m), b0)  # row x is x B0
        last = 1 << (m - 1)

        def extend(
            rows: list[int], coords: dict[int, int], gram: list[int]
        ) -> Iterator[tuple[Rows, Rows, Rows]]:
            k = len(rows)
            bit = 1 << k
            images = [times_b0[v] for v in rows]
            for r in rev:
                if r in coords:
                    continue
                # Column k of the Gram matrix, with <r, r> as its last bit.
                col = (r.bit_count() & 1) << k
                for i, v in enumerate(rows):
                    col |= ((v & r).bit_count() & 1) << i
                grown = [g | (col >> i & 1) << k for i, g in enumerate(gram)]
                grown.append(col)
                if bit == last:
                    # w is in the old span, or w + r is.
                    b = [
                        coords[w] if w in coords else coords[w ^ r] | bit
                        for w in (*images, times_b0[r])
                    ]
                    yield (*rows, r), tuple(b), tuple(grown)
                else:
                    wider = dict(coords)
                    wider.update((v ^ r, c | bit) for v, c in coords.items())
                    yield from extend(rows + [r], wider, grown)

        yield from extend([], {0: 0}, [])
        return
    mask = (1 << m) - 1
    for k in _draws(_derived_seed(seed, 0xC0), m * m, stats):
        # Reversing all m^2 bits puts row i, reversed, at bits i*m .. (i+1)*m - 1.
        rows = reverse_bits(k, m * m)
        u = tuple(rows >> (i * m) & mask for i in range(m))
        inv = _inverse_rows(u)
        if inv is not None:
            b = _mul_rows(_mul_rows(u, b0), inv)
            yield u, tuple(b), tuple(_mul_rows(u, _transpose_rows(u, m)))


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

    Each B is decided once per coset (see the module docstring): `cosets`
    maps its row masks to None when B is symmetric, else to the BitMatrix B
    and its addend.  `grams` maps the row masks of R to its BitMatrix.  The
    tables are kept only at m <= EXHAUSTIVE_CONJ_CAP, where they hold at
    most |GL(4, 2)| / 15 = 1,344 B and 2^10 symmetric R, however long the
    walk; above that a B almost never comes back, so each u is decided
    afresh and nothing is stored.
    """
    anchor_seed = None if seed is None else _derived_seed(seed, 0xA5)
    k0 = next(_field_hits(m, anchor_seed, stats), None)
    if k0 is None:
        return
    b0 = backend.decode_symmetric(m, k0)
    zero = _forced_blocks(m)[1]
    keep = m <= EXHAUSTIVE_CONJ_CAP
    cosets: dict[Rows, tuple[BitMatrix, BitMatrix] | None] = {}
    grams: dict[Rows, BitMatrix] = {}
    for _, b, r in _iter_conjugators(m, b0, seed, stats):
        coset = cosets.get(b, ())  # () for a B not seen yet
        if coset is None:
            continue
        if not coset and b == tuple(_transpose_rows(b, m)):
            # R = u u^t is a polynomial in B = u B0 u^-1 (see the module
            # docstring): R is symmetric and invertible, B R = u B0 u^t is
            # symmetric, and char(B) = char(B0) is irreducible.
            if keep:
                cosets[b] = None
            continue
        R = grams.get(r)
        if R is None:
            R = BitMatrix(m, m, r)
            if keep:
                grams[r] = R
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
            if keep:
                cosets[b] = coset
        yield StabilizerSpec(kind, m, coset[0], R, coset[1])
