"""Exact linear algebra over F2 on integer bitmasks.

A vector is an integer bitmask (bit j = entry j) and a matrix stores each
row as one, so row operations are single XORs and everything stays exact.
Matrices are immutable after construction; every operation returns a fresh
object.  Two eliminations serve everything: `_echelon` reduces fully (rank,
inverse) and `_SpanReducer` tests membership incrementally (spans
of packed matrices, and the Krylov chains of `char_poly`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import poly2


class NotInvertibleError(ValueError):
    """Raised when a matrix inverse is requested but the rank is deficient."""


class BitMatrix:
    """Immutable rectangular matrix over F2; rows held as integer bitmasks."""

    __slots__ = ("rows", "cols", "data")

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
        cols = len(entries[0])
        data = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            mask = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} not in GF(2)")
                mask |= v << j
            data.append(mask)
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, m: int) -> "BitMatrix":
        return cls(m, m, (1 << i for i in range(m)))

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "BitMatrix":
        return cls(rows, cols if cols is not None else rows, (0,) * rows)

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse the fixture format: one row per line of '0'/'1' characters."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        return cls.from_rows([[int(ch) for ch in ln.strip()] for ln in lines])

    def to_text(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data
        )

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return (self.data[i] >> j) & 1

    def column(self, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return sum(((r >> j) & 1) << i for i, r in enumerate(self.data))

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

    __sub__ = __add__

    def __mul__(self, other: "BitMatrix") -> "BitMatrix":
        return mat_mul(self, other)

    def __pow__(self, n: int) -> "BitMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return mat_inverse(self) ** (-n)
        acc = BitMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, _transpose_rows(self.data, self.cols))

    def is_symmetric(self) -> bool:
        if not self.is_square():
            raise ValueError("symmetry is defined for square matrices")
        # Row i below the diagonal against column i above it.
        d = self.data
        for i, r in enumerate(d):
            col = 0
            for j in range(i):
                col |= ((d[j] >> i) & 1) << j
            if col != r & ((1 << i) - 1):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(("BitMatrix", self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BitMatrix.from_text({self.to_text()!r})"


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


def _echelon(data: list[int], n_rows: int, pivot_cols: int) -> tuple[list[int], list[int]]:
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


def rank(a: BitMatrix) -> int:
    _, pivots = _echelon(list(a.data), a.rows, a.cols)
    return len(pivots)


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
    """Row masks of the inverse of a square matrix, by Gauss-Jordan on [a | I]; None if singular."""
    m = len(rows)
    aug = [r | (1 << (m + i)) for i, r in enumerate(rows)]
    reduced, pivots = _echelon(aug, m, m)
    if len(pivots) != m:
        return None
    return [r >> m for r in reduced]


class _SpanReducer:
    """Incremental membership for a span of packed F2 vectors.

    The basis vectors have distinct leading bits and are kept highest first,
    so one pass of `reduce` clears every leading bit v shares with them.
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
    rows = a.data
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
            w = 0
            while v:
                low = v & -v
                w ^= rows[low.bit_length() - 1]
                v ^= low
            v = w
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


def upper_block(g: BitMatrix) -> BitMatrix:
    """Top half of a stacked 2m x m generator."""
    if g.rows != 2 * g.cols:
        raise ValueError("expected a 2m x m generator")
    return BitMatrix(g.cols, g.cols, g.data[: g.cols])


def lower_block(g: BitMatrix) -> BitMatrix:
    """Bottom half of a stacked 2m x m generator."""
    if g.rows != 2 * g.cols:
        raise ValueError("expected a 2m x m generator")
    return BitMatrix(g.cols, g.cols, g.data[g.cols :])
