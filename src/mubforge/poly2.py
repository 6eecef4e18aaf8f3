"""Polynomials over F2: irreducibility and the Fibonacci index.

A polynomial c_0 + c_1 x + ... + c_n x^n is the int mask
c_0 + 2 c_1 + ... + 2^n c_n, so the zero polynomial is 0 and addition is
XOR.  Masks are the only representation: every function here takes and
returns them, and `poly_str` formats one for messages.
"""

from __future__ import annotations

import functools
from typing import Iterator


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


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _sqr_mod(a: int, p: int) -> int:
    return _mod(_mul(a, a), p)


def poly_str(p: int) -> str:
    """p written out, highest degree first: "x^3 + x + 1", "0" for the zero polynomial."""
    if p == 0:
        return "0"
    terms = []
    for i in range(_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)


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


def is_irreducible(p: int) -> bool:
    """Irreducibility over F2; constants and the zero polynomial give False."""
    m = _degree(p)
    if m < 1:
        return False
    # x^(2^m) == x mod p, and x^(2^(m/q)) - x coprime to p for prime q | m:
    # both read off the one squaring chain x, x^2, x^4, ..., x^(2^m) mod p.
    chain = [_mod(2, p)]
    for _ in range(m):
        chain.append(_sqr_mod(chain[-1], p))
    x = chain[0]
    return chain[m] == x and all(_gcd(chain[m // q] ^ x, p) == 1 for q in _prime_factors(m))


def irreducibles(degree: int) -> Iterator[int]:
    """Yield all irreducible polynomials of exactly the given degree, ascending."""
    if degree < 1:
        return
    for p in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(p):
            yield p


def _fib_pair_mod(n: int, p: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod p by the characteristic-2 doubling ladder.

    F_0 = 0, F_1 = 1 and F_{k+1} = x F_k + F_{k-1}.  The addition rule
    F_{a+b} = F_{a+1} F_b + F_a F_{b-1} gives, with a = b = k and with
    a = k, b = k + 1, and since F_{k+1} + F_{k-1} = x F_k and squaring is
    additive over F2:

        F_{2k}     = F_k (F_{k+1} + F_{k-1}) = x F_k^2,
        F_{2k+1}   = F_{k+1}^2 + F_k^2       = (F_k + F_{k+1})^2.

    So (F_k, F_{k+1}) steps to (F_{2k}, F_{2k+1}), and on a set bit of n on
    to (F_{2k+1}, x F_{2k+1} + F_{2k}), reading n from its top bit: two
    squarings per bit.
    """
    a, b = 0, _mod(1, p)  # (F_0, F_1)
    for bit in range(n.bit_length() - 1, -1, -1):
        a, b = _mod(_mul(a, a) << 1, p), _sqr_mod(a ^ b, p)
        if (n >> bit) & 1:
            a, b = b, _mod((b << 1) ^ a, p)
    return a, b


INDEX_DEGREE_CAP = 32


def fibonacci_index(p: int) -> int:
    """Least n >= 1 such that p divides F_n, for p whose index divides 2^m -+ 1.

    m is the degree of p.  The result is exact for any non-constant p whose
    index divides 2^m - 1 or 2^m + 1, which every irreducible p other than
    p(x) = x satisfies (its index is 2, dividing neither); any other p raises
    ValueError, and so do constants.  The divisor search needs no
    irreducibility:

    - gcd(F_a, F_b) = F_gcd(a,b), so the n with p | F_n are exactly the
      multiples of the index;
    - so if p | F_N for N = 2^m -+ 1, the index divides N, and stripping
      prime factors q while p still divides F_{N/q} stops exactly at it;
    - p cannot divide both F_{2^m-1} and F_{2^m+1}, since their gcd is F_1 = 1.

    Each test p | F_n is one run of the doubling ladder `_fib_pair_mod`,
    about log2(n) <= m + 1 steps of two squarings mod p.  The cap keeps the
    trial-division factoring of N below ~65k steps.  The exception p(x) = x
    never arises as the characteristic polynomial of an invertible matrix.
    """
    m = _degree(p)
    if m < 1:
        raise ValueError(f"{poly_str(p)} is not irreducible")
    if m > INDEX_DEGREE_CAP:
        raise ValueError(f"degree {m} exceeds the index-query cap {INDEX_DEGREE_CAP}")
    for n in ((1 << m) - 1, (1 << m) + 1):
        if _fib_pair_mod(n, p)[0] == 0:
            for q in _prime_factors(n):
                while n % q == 0 and _fib_pair_mod(n // q, p)[0] == 0:
                    n //= q
            return n
    raise ValueError(
        f"{poly_str(p)} divides no F_n with n | 2^{m}-1 or n | 2^{m}+1 "
        "(its index divides neither, as for p(x) = x)"
    )


@functools.lru_cache(maxsize=None)
def stabilizer_char_polys(m: int) -> tuple[int, ...]:
    """All degree-m irreducibles with Fibonacci index 2^m + 1, ascending by mask."""
    target = (1 << m) + 1
    return tuple(p for p in irreducibles(m) if p & 1 and fibonacci_index(p) == target)
