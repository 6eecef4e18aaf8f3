"""Arithmetic in F2[x]: binary polynomials, irreducibility, Fibonacci polynomials.

A polynomial c_0 + c_1 x + ... + c_n x^n is stored as the integer
c_0 + 2 c_1 + ... + 2^n c_n, so the zero polynomial is 0 and addition is XOR.
The :class:`Poly2` wrapper gives a typed, immutable view; the `_`-prefixed
helpers work on raw masks and are shared with the performance kernels.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator


def _degree(a: int) -> int:
    return a.bit_length() - 1


def _mul(a: int, b: int) -> int:
    """Carry-less product of two coefficient masks."""
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = _degree(b)
    q = 0
    while a and _degree(a) >= db:
        shift = _degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _mod(a: int, b: int) -> int:
    return _divmod(a, b)[1]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _sqr_mod(a: int, p: int) -> int:
    return _mod(_mul(a, a), p)


class Poly2:
    """Immutable polynomial over F2 (lowest-degree coefficient first)."""

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("coefficient mask must be non-negative")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("Poly2 is immutable")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "Poly2":
        """Build from coefficients, lowest degree first (values in {0, 1})."""
        mask = 0
        for i, c in enumerate(coeffs):
            if c not in (0, 1):
                raise ValueError(f"coefficient {c!r} not in GF(2)")
            mask |= c << i
        return cls(mask)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return _degree(self.mask)

    def is_zero(self) -> bool:
        return self.mask == 0

    def coeffs(self) -> tuple[int, ...]:
        """Coefficients lowest degree first; () for the zero polynomial."""
        return tuple((self.mask >> i) & 1 for i in range(self.mask.bit_length()))

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mul(self.mask, other.mask))

    def __mod__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mod(self.mask, other.mask))

    def __floordiv__(self, other: "Poly2") -> "Poly2":
        return Poly2(_divmod(self.mask, other.mask)[0])

    def __divmod__(self, other: "Poly2") -> tuple["Poly2", "Poly2"]:
        q, r = _divmod(self.mask, other.mask)
        return Poly2(q), Poly2(r)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("Poly2", self.mask))

    def __bool__(self) -> bool:
        return self.mask != 0

    def __str__(self) -> str:
        if self.mask == 0:
            return "0"
        terms = []
        for i in range(_degree(self.mask), -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly2({self})"


ZERO = Poly2(0)
ONE = Poly2(1)
X = Poly2(2)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible_mask(p: int) -> bool:
    m = _degree(p)
    if m < 1:
        return False
    if m == 1:
        return True
    # x^(2^m) == x mod p, and x^(2^(m/q)) - x coprime to p for prime q | m
    x = _mod(2, p)
    r = x
    for _ in range(m):
        r = _sqr_mod(r, p)
    if r != x:
        return False
    for q in _prime_factors(m):
        s = x
        for _ in range(m // q):
            s = _sqr_mod(s, p)
        if _gcd(s ^ x, p) != 1:
            return False
    return True


def is_irreducible(p: Poly2) -> bool:
    """Irreducibility over F2; constants and the zero polynomial give False."""
    return _is_irreducible_mask(p.mask)


def irreducibles(degree: int) -> Iterator[Poly2]:
    """Yield all irreducible polynomials of exactly the given degree."""
    if degree < 1:
        return
    for mask in range(1 << degree, 1 << (degree + 1)):
        if _is_irreducible_mask(mask):
            yield Poly2(mask)


def fibonacci_poly(n: int) -> Poly2:
    """n-th Fibonacci polynomial over F2: F_0 = 0, F_1 = 1, F_{j+1} = x F_j + F_{j-1}."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1  # F_0, F_1
    for _ in range(n):
        a, b = b, _mul(2, b) ^ a
    return Poly2(a)


def _fib_pair_mod(n: int, p: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod p by squaring the generator [[x,1],[1,0]]."""
    # Invariant: the j-th power of the generator is [[F_{j+1}, F_j], [F_j, F_{j-1}]].
    ra, rb, rc = _mod(1, p), 0, _mod(1, p)  # accumulator = identity: F_1, F_0, F_-1
    ga, gb, gc = _mod(2, p), _mod(1, p), 0  # generator: F_2, F_1, F_0
    while n:
        if n & 1:
            na = _mod(_mul(ra, ga) ^ _mul(rb, gb), p)
            nb = _mod(_mul(ra, gb) ^ _mul(rb, gc), p)
            nc = _mod(_mul(rb, gb) ^ _mul(rc, gc), p)
            ra, rb, rc = na, nb, nc
        n >>= 1
        if n:
            na = _mod(_mul(ga, ga) ^ _mul(gb, gb), p)
            nb = _mod(_mul(gb, ga ^ gc), p)
            nc = _mod(_mul(gb, gb) ^ _mul(gc, gc), p)
            ga, gb, gc = na, nb, nc
    return rb, ra


INDEX_DEGREE_CAP = 32


def fibonacci_index(p: Poly2) -> int:
    """Least n >= 1 such that the irreducible p divides F_n.

    For every irreducible p of degree m other than p(x) = x, the index is a
    divisor of 2^m - 1 or of 2^m + 1.  Since gcd(F_a, F_b) = F_gcd(a,b), the
    n with p | F_n are exactly the multiples of the index, so p divides F_N
    for at most one N = 2^m -+ 1 (the two are coprime and F_1 = 1), and the
    index is reached from that N by stripping prime factors q while p still
    divides F_{N/q}.  The cap keeps the trial-division factoring of N below
    ~65k steps.  The single exception p(x) = x (index 2, dividing neither)
    is rejected; it never arises as the characteristic polynomial of an
    invertible matrix.
    """
    if not is_irreducible(p):
        raise ValueError(f"{p!r} is not irreducible")
    m = p.degree
    if m > INDEX_DEGREE_CAP:
        raise ValueError(f"degree {m} exceeds the index-query cap {INDEX_DEGREE_CAP}")
    pm = p.mask
    for n in ((1 << m) - 1, (1 << m) + 1):
        if _fib_pair_mod(n, pm)[0] == 0:
            for q in _prime_factors(n):
                while n % q == 0 and _fib_pair_mod(n // q, pm)[0] == 0:
                    n //= q
            return n
    raise ValueError(
        f"{p!r} divides no F_n with n | 2^{m}-1 or n | 2^{m}+1 "
        "(only p(x) = x falls outside the divisor rule)"
    )


def has_index(p: Poly2, n: int) -> bool:
    """True iff the Fibonacci index of p is exactly n.

    Uses gcd(F_a, F_b) = F_gcd(a,b): the index is n iff p divides F_n but
    not F_{n/q} for any prime q dividing n (a smaller multiple elsewhere
    would force a proper divisor of n to work too).  Needs only
    1 + omega(n) evaluations instead of a scan over all divisors.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    pm = p.mask
    if _fib_pair_mod(n, pm)[0] != 0:
        return False
    return all(_fib_pair_mod(n // q, pm)[0] != 0 for q in _prime_factors(n))


@functools.lru_cache(maxsize=None)
def stabilizer_char_polys(m: int) -> tuple[Poly2, ...]:
    """All degree-m irreducibles with Fibonacci index 2^m + 1, ascending by mask."""
    target = (1 << m) + 1
    return tuple(p for p in irreducibles(m) if has_index(p, target))
