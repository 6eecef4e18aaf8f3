"""Exact linear algebra over F2 on integer bitmasks.

A vector is an integer bitmask (bit j = entry j) and a matrix stores each
row as one, so row operations are single XORs and everything stays exact.
Matrices are immutable after construction; every operation returns a fresh
object.  Each operation has one spelling: `mat_mul` multiplies, `mat_inverse`
inverts, `+` adds and `**` takes powers n >= 0; entries are read through
`.data` or `.to_lists()`.  One elimination serves everything: `_SpanReducer`
keeps a basis with distinct leading bits.  Its size is the rank, membership
is a zero remainder, and vectors tagged in their low bits with their index
give the inverse (`_inverse_rows`) and the Krylov chains of `char_poly`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import poly2


_DIGITS = bytes.maketrans(b"\0\1", b"01")


class NotInvertibleError(ValueError):
    """Raised when a matrix inverse is requested but the rank is deficient."""


class BitMatrix:
    """Immutable rectangular matrix over F2; rows held as integer bitmasks.

    The slot `_json` stays unset until `construct` writes the matrix in the
    spec wire format, and then holds that text.
    """

    __slots__ = ("rows", "cols", "data", "_json")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 1 or cols < 1:
            raise ValueError("dimensions must be positive")
        d = tuple(data)
        if len(d) != rows:
            raise ValueError("row count does not match data")
        for r in d:
            if r < 0 or r >> cols:
                raise ValueError("row mask outside declared width")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", d)

    def __setattr__(self, *_):
        raise AttributeError("BitMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        data = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} not in GF(2)")
            # One linear pass: the reversed 0/1 bytes as binary digits.
            data.append(int(b"0" + bytes(reversed(row)).translate(_DIGITS), 2))
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, m: int) -> "BitMatrix":
        return cls(m, m, (1 << i for i in range(m)))

    @classmethod
    def zero(cls, m: int) -> "BitMatrix":
        return cls(m, m, (0,) * m)

    # -- accessors ---------------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return BitMatrix(self.rows, self.cols, (a ^ b for a, b in zip(self.data, other.data)))

    def __pow__(self, n: int) -> "BitMatrix":
        if not self.is_square() or n < 0:
            raise ValueError("power n >= 0 of a square matrix only")
        acc = BitMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                acc = mat_mul(acc, base)
            base = mat_mul(base, base)
            n >>= 1
        return acc

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, _transpose_rows(self.data, self.cols))

    def is_symmetric(self) -> bool:
        if not self.is_square():
            raise ValueError("symmetry is defined for square matrices")
        return self.data == tuple(_transpose_rows(self.data, self.cols))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(("BitMatrix", self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BitMatrix.from_rows({self.to_lists()})"


# -- free functions (the operation surface) --------------------------------


def mat_mul(lhs: BitMatrix, rhs: BitMatrix) -> BitMatrix:
    """Product over F2 (XOR-accumulated AND)."""
    if lhs.cols != rhs.rows:
        raise ValueError(f"shape mismatch: ({lhs.rows}x{lhs.cols}) * ({rhs.rows}x{rhs.cols})")
    return BitMatrix(lhs.rows, rhs.cols, _mul_rows(lhs.data, rhs.data))


def _mul_rows(lhs: Sequence[int], rhs: Sequence[int]) -> list[int]:
    """Row masks of a product: row i is the XOR of the rhs rows picked by lhs row i."""
    out = []
    for r in lhs:
        acc = 0
        while r:
            low = r & -r
            acc ^= rhs[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def _transpose_rows(rows: Sequence[int], cols: int) -> list[int]:
    """Row masks of the transpose: bit i of row j for each set bit j of row i."""
    out = [0] * cols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


class _SpanReducer:
    """Incremental span of packed F2 vectors: a basis and membership.

    The basis vectors have distinct leading bits and are kept highest first,
    so one pass of `reduce` clears every leading bit v shares with them, and
    the basis size is the rank of the vectors added.
    """

    def __init__(self, vectors: Iterable[int] = ()):
        self.basis: list[int] = []
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        for b in self.basis:
            if v.bit_length() == b.bit_length():
                v ^= b
        return v

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        self.basis.append(v)
        self.basis.sort(key=int.bit_length, reverse=True)
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def rank(a: BitMatrix) -> int:
    return len(_SpanReducer(a.data).basis)


def is_invertible(a: BitMatrix) -> bool:
    return a.is_square() and rank(a) == a.rows


def mat_inverse(a: BitMatrix) -> BitMatrix:
    """Inverse over F2; raises NotInvertibleError on rank deficiency."""
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    inv = _inverse_rows(a.data)
    if inv is None:
        raise NotInvertibleError(f"matrix has rank {rank(a)} < {a.rows}")
    return BitMatrix(a.rows, a.rows, inv)


def _inverse_rows(rows: Sequence[int]) -> list[int] | None:
    """Row masks of the inverse of a square matrix; None if singular.

    Row i is reduced as (r << m) | (1 << i), so the low m bits of each basis
    vector name the rows that sum to it.  The matrix is singular iff some
    basis vector has no bit above the tags; the smallest one is checked, as
    the basis is kept highest first.  Otherwise every bit above the tags
    leads a basis vector, so e_j shifted above them reduces to the tags of
    the rows that sum to e_j: row j of the inverse.
    """
    m = len(rows)
    span = _SpanReducer((r << m) | (1 << i) for i, r in enumerate(rows))
    if span.basis[-1] >> m == 0:
        return None
    return [span.reduce(1 << (m + j)) for j in range(m)]


def char_poly(a: BitMatrix) -> int:
    """Characteristic polynomial det(xI + a), as a `poly2` mask, from Krylov chains.

    char(a) = char(a^t), and a^t v is the XOR of the rows of a picked by the
    bits of v.  The chains e_i, a^t e_i, (a^t)^2 e_i, ... for i = 0, 1, ...
    run until a vector falls in the span of all vectors before it.  In the
    basis of the independent chain vectors a^t is block upper triangular
    with one companion block per chain, so char(a) is the product of the
    chains' minimal polynomials relative to the span before each chain
    (Keller-Gehrig, Theor. Comput. Sci. 36, 1985).  A chain vector v is
    packed as (v << (m + 1)) | (1 << t), with t independent vectors before
    it, so the remainder of a chain's last vector, shifted right by its
    first vector's t, is that polynomial.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    m = a.rows
    span = _SpanReducer()
    poly = 1
    for i in range(m):
        start = len(span.basis)
        if start == m:
            break
        v = 1 << i
        while True:
            r = span.reduce((v << (m + 1)) | (1 << len(span.basis)))
            if not r >> (m + 1):
                break
            span.add(r)
            v = _mul_rows((v,), a.data)[0]
        poly = poly2._mul(poly, r >> start)
    return poly


# -- block helpers ----------------------------------------------------------


def block2x2(a: BitMatrix, b: BitMatrix, c: BitMatrix, d: BitMatrix) -> BitMatrix:
    """Assemble [[a, b], [c, d]] from equally-sized square blocks."""
    m = a.rows
    for blk in (a, b, c, d):
        if blk.rows != m or blk.cols != m:
            raise ValueError("blocks must be square and equally sized")
    data = [a.data[i] | (b.data[i] << m) for i in range(m)]
    data += [c.data[i] | (d.data[i] << m) for i in range(m)]
    return BitMatrix(2 * m, 2 * m, data)


def vstack(top: BitMatrix, bottom: BitMatrix) -> BitMatrix:
    if top.cols != bottom.cols:
        raise ValueError("column mismatch in vstack")
    return BitMatrix(top.rows + bottom.rows, top.cols, top.data + bottom.data)

