"""Exact linear algebra over F2 with bit-packed rows.

Matrices store each row as an integer bitmask (bit j = column j), so row
operations are single XORs and everything stays exact.  All values are
immutable after construction; every operation returns a fresh object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import poly2
from .poly2 import Poly2


class NotInvertibleError(ValueError):
    """Raised when a matrix inverse is requested but the rank is deficient."""


class BitVec:
    """Immutable F2 vector of fixed length, packed into one integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 1:
            raise ValueError("length must be >= 1")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside the declared length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("BitVec is immutable")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVec":
        vals = list(values)
        mask = 0
        for i, v in enumerate(vals):
            if v not in (0, 1):
                raise ValueError(f"entry {v!r} not in GF(2)")
            mask |= v << i
        return cls(len(vals), mask)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.n))

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVec) and (self.n, self.bits) == (other.n, other.bits)

    def __hash__(self) -> int:
        return hash(("BitVec", self.n, self.bits))

    def weight(self) -> int:
        return bin(self.bits).count("1")

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"BitVec({''.join(str(b) for b in self)})"


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

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.data[i])

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return BitVec(self.rows, sum(((r >> j) & 1) << i for i, r in enumerate(self.data)))

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
        return BitMatrix(
            self.cols,
            self.rows,
            (
                sum(((self.data[i] >> j) & 1) << i for i in range(self.rows))
                for j in range(self.cols)
            ),
        )

    def is_symmetric(self) -> bool:
        if not self.is_square():
            raise ValueError("symmetry is defined for square matrices")
        return all(self[i, j] == self[j, i] for i in range(self.rows) for j in range(i))

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
    rd = rhs.data
    out = []
    for r in lhs.data:
        acc = 0
        while r:
            low = r & -r
            acc ^= rd[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return BitMatrix(lhs.rows, rhs.cols, out)


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
    m = a.rows
    aug = [a.data[i] | (1 << (m + i)) for i in range(m)]
    reduced, pivots = _echelon(aug, m, m)
    if len(pivots) != m:
        raise NotInvertibleError(f"matrix has rank {len(pivots)} < {m}")
    return BitMatrix(m, m, (r >> m for r in reduced))


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set of a linear system: particular + nullspace basis."""

    particular: BitVec
    nullspace_basis: tuple[BitVec, ...]

    def count(self) -> int:
        return 1 << len(self.nullspace_basis)

    def enumerate(self) -> Iterator[BitVec]:
        """All solutions, in Gray-code-free deterministic order."""
        k = len(self.nullspace_basis)
        for mask in range(1 << k):
            v = self.particular
            for i in range(k):
                if (mask >> i) & 1:
                    v = v ^ self.nullspace_basis[i]
            yield v


def solve_affine(coeff: BitMatrix, rhs: BitVec) -> AffineSolution | None:
    """Solve coeff @ x = rhs over F2; None when rhs is outside the column space."""
    if coeff.rows != rhs.n:
        raise ValueError("rhs length does not match row count")
    n = coeff.cols
    aug = [coeff.data[i] | (rhs[i] << n) for i in range(coeff.rows)]
    reduced, pivots = _echelon(aug, coeff.rows, n)
    for i in range(len(pivots), coeff.rows):
        if (reduced[i] >> n) & 1:
            return None
    particular = 0
    for r, c in enumerate(pivots):
        particular |= ((reduced[r] >> n) & 1) << c
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = 1 << free
        for r, c in enumerate(pivots):
            if (reduced[r] >> free) & 1:
                vec |= 1 << c
        basis.append(BitVec(n, vec))
    return AffineSolution(BitVec(n, particular), tuple(basis))


def char_poly(a: BitMatrix) -> Poly2:
    """Characteristic polynomial det(xI + a) by fraction-free elimination.

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
                q, rem = poly2._divmod(num, prev)
                if rem:
                    raise RuntimeError("inexact division in fraction-free elimination")
                M[i][j] = q
            M[i][k] = 0
        prev = pk
    return Poly2(M[m - 1][m - 1])


def offdiag_components(a: BitMatrix) -> list[tuple[int, ...]]:
    """Connected components of the off-diagonal coupling graph.

    Vertices are 0..m-1; i and k are adjacent when a[i,k] or a[k,i] is set
    (the diagonal is ignored).  Components come out sorted by smallest member.
    """
    if not a.is_square():
        raise ValueError("components of a non-square matrix")
    m = a.rows
    adj = [0] * m
    for i in range(m):
        adj[i] |= a.data[i] & ~(1 << i)
        for j in range(m):
            if i != j and ((a.data[j] >> i) & 1):
                adj[i] |= 1 << j
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


def blocks_of(a: BitMatrix) -> tuple[BitMatrix, BitMatrix, BitMatrix, BitMatrix]:
    """Split a 2m x 2m matrix into its four m x m blocks."""
    if a.rows != a.cols or a.rows % 2:
        raise ValueError("expected an even-sized square matrix")
    m = a.rows // 2
    lo = (1 << m) - 1
    ul = BitMatrix(m, m, (a.data[i] & lo for i in range(m)))
    ur = BitMatrix(m, m, (a.data[i] >> m for i in range(m)))
    ll = BitMatrix(m, m, (a.data[m + i] & lo for i in range(m)))
    lr = BitMatrix(m, m, (a.data[m + i] >> m for i in range(m)))
    return ul, ur, ll, lr


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
