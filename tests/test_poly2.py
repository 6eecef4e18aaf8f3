"""F2[x] arithmetic on masks, irreducibility, and the Fibonacci polynomial layer.

Polynomials are int masks: bit i is the coefficient of x^i, so 0b1011 is
x^3 + x + 1.
"""

import math
import random

import pytest

from mubforge import poly2
from mubforge.poly2 import (
    _mod,
    _mul,
    fibonacci_index,
    irreducibles,
    is_irreducible,
    poly_str,
    stabilizer_char_polys,
)
from oracles import fibonacci_poly, poly_divmod

X = 0b10  # x
X2X1 = 0b111  # x^2 + x + 1
X3X1 = 0b1011  # x^3 + x + 1
X3X2 = 0b1101  # x^3 + x^2 + 1


def degree(p: int) -> int:
    return p.bit_length() - 1


def fib_mod(n: int, p: int) -> int:
    """F_n(x) mod p(x) by the doubling ladder of `poly2._fib_pair_mod`."""
    return poly2._fib_pair_mod(n, p)[0]


def brute_fibonacci_index(p: int, cap: int) -> int | None:
    """Independent oracle: iterate the recursion mod p until it vanishes."""
    a, b = 0, 1
    for n in range(1, cap + 1):
        a, b = b, _mod(_mul(X, b) ^ a, p)
        if a == 0:
            return n
    return None


def brute_irreducible(p: int) -> bool:
    """Independent oracle: trial division by everything up to half the degree."""
    d = degree(p)
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if 1 <= degree(q) <= d // 2 and _mod(p, q) == 0:
            return False
    return True


class TestArithmetic:
    def test_addition(self):
        # Addition is XOR, and the carry-less product distributes over it.
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (rng.getrandbits(12) for _ in range(3))
            assert _mul(a ^ b, c) == _mul(a, c) ^ _mul(b, c)

    def test_square_in_characteristic_two(self):
        assert _mul(0b11, 0b11) == 0b101  # (x + 1)^2 = x^2 + 1

    def test_gcd(self):
        assert poly2._gcd(0b101, 0b11) == 0b11

    def test_divmod(self):
        q, r = poly_divmod(0b1001, 0b11)
        assert _mul(q, 0b11) ^ r == 0b1001
        assert degree(r) < 1
        assert _mod(0b1001, 0b11) == r

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _mod(1, 0)

    def test_degree_sentinel(self):
        assert poly2._degree(0) == -1
        assert poly2._degree(1) == 0

    def test_hex_round_trip(self):
        p = int("B", 16)
        assert p == X3X1
        assert format(p, "X") == "B"
        assert poly_str(p) == "x^3 + x + 1"

    def test_poly_str(self):
        assert [poly_str(p) for p in (0, 1, X, 0b110, 1 << 16 | 1)] == [
            "0", "1", "x", "x^2 + x", "x^16 + 1"
        ]


class TestIrreducibility:
    def test_known_values(self):
        assert is_irreducible(X2X1)
        assert not is_irreducible(0b101)  # (x+1)^2
        assert is_irreducible(X3X1)
        assert not is_irreducible(1)
        assert not is_irreducible(0)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_exhaustive_against_trial_division(self, degree):
        for p in range(1 << degree, 1 << (degree + 1)):
            assert is_irreducible(p) == brute_irreducible(p), poly_str(p)


class TestFibonacciPolynomials:
    def test_base_cases(self):
        assert fibonacci_poly(0) == 0
        assert fibonacci_poly(1) == 1

    def test_small_values(self):
        # Iterating the recursion by hand: F5 = x^4 + x^2 + 1, F9 = x^8 + x^6 + x^4 + 1.
        assert fibonacci_poly(5) == 0b10101
        assert fibonacci_poly(9) == 0b101010001

    def test_generator_matrix_powers(self):
        # The 2x2 generator [[x,1],[1,0]] raised to j holds (F_{j+1}, F_j; F_j, F_{j-1}).
        mat = (X, 1, 1, 0)
        acc = (1, 0, 0, 1)
        for j in range(1, 21):
            a, b, c, d = acc
            e, f, g, h = mat
            acc = (
                _mul(a, e) ^ _mul(b, g),
                _mul(a, f) ^ _mul(b, h),
                _mul(c, e) ^ _mul(d, g),
                _mul(c, f) ^ _mul(d, h),
            )
            assert acc[0] == fibonacci_poly(j + 1)
            assert acc[1] == acc[2] == fibonacci_poly(j)
            assert acc[3] == fibonacci_poly(j - 1)

    def test_addition_identity(self):
        # F_{j+k} = F_j F_{k+1} + F_{j-1} F_k, symbolically.
        F = [fibonacci_poly(n) for n in range(62)]
        for j in range(1, 31):
            for k in range(1, 31):
                assert _mul(F[j], F[k + 1]) ^ _mul(F[j - 1], F[k]) == F[j + k]

    def test_doubling_identities(self):
        # The two steps of the ladder in `_fib_pair_mod`, symbolically.
        F = [fibonacci_poly(n) for n in range(62)]
        for k in range(30):
            assert F[2 * k] == _mul(X, _mul(F[k], F[k]))
            assert F[2 * k + 1] == _mul(F[k] ^ F[k + 1], F[k] ^ F[k + 1])

    def test_pair_matches_recursion(self):
        # Both halves of the pair, for every nonzero modulus of degree < 7.
        F = [fibonacci_poly(n) for n in range(141)]
        for p in range(1, 128):
            for n in range(140):
                assert poly2._fib_pair_mod(n, p) == (_mod(F[n], p), _mod(F[n + 1], p))

    def test_mod_consistency_small(self):
        for p in (X2X1, X3X1, X3X2):
            for n in range(65):
                assert fib_mod(n, p) == _mod(fibonacci_poly(n), p)

    def test_mod_consistency_random_large(self):
        rng = random.Random(5)
        polys = [p for d in (5, 8, 11) for p in irreducibles(d)]
        for _ in range(25):
            p = rng.choice(polys)
            n = rng.randint(0, 1 << 16)
            assert fib_mod(n, p) == _mod(fibonacci_poly(n), p)

    def test_divisibility_examples(self):
        # Long division: F9 = (x+1)^2 (x^3+x+1)^2 and F7 = (x^3+x^2+1)^2.
        assert fib_mod(9, X3X1) == 0
        assert fib_mod(7, X3X2) == 0

    def test_gcd_theorem(self):
        # gcd(F_a, F_b) = F_gcd(a,b): the fact behind both the divisor search
        # and the prime-cofactor index test.
        F = [fibonacci_poly(n) for n in range(41)]
        for a in range(1, 41):
            for b in range(1, 41):
                assert poly2._gcd(F[a], F[b]) == F[math.gcd(a, b)]


class TestFibonacciIndex:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0b11, 3),
            (X2X1, 5),
            (X3X1, 9),
            (X3X2, 7),
        ],
    )
    def test_known_indices(self, p, expected):
        assert brute_fibonacci_index(p, 20) == expected
        assert fibonacci_index(p) == expected

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_exact_or_raises_without_irreducibility(self, degree):
        # The divisor search needs no irreducible p: it returns the least n
        # with p | F_n whenever that n divides 2^m -+ 1, and raises otherwise.
        lo, hi = (1 << degree) - 1, (1 << degree) + 1
        for p in range(1 << degree, 1 << (degree + 1)):
            if p == X:
                continue
            idx = brute_fibonacci_index(p, hi)
            try:
                got = fibonacci_index(p)
            except ValueError:
                assert idx is None or (lo % idx and hi % idx), (poly_str(p), idx)
            else:
                assert got == idx, poly_str(p)
                assert _mod(fibonacci_poly(got), p) == 0

    def test_reducible_and_constant_polynomials(self):
        # (x + 1)^2 divides F_3 = x^2 + 1.  The constants have no degree to
        # search from and still raise.
        assert brute_fibonacci_index(0b101, 10) == 3
        assert fibonacci_index(0b101) == 3
        for p in (0, 1):
            with pytest.raises(ValueError, match="not irreducible"):
                fibonacci_index(p)

    def test_exceptional_polynomial_x(self):
        # p(x) = x divides F_n exactly for even n, so its index is 2 -- the one
        # irreducible whose index divides neither 2^m - 1 nor 2^m + 1.  It is
        # rejected by the divisor search and cannot arise from an invertible B.
        assert brute_fibonacci_index(X, 10) == 2
        with pytest.raises(ValueError):
            fibonacci_index(X)

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_divisor_rule_exhaustive(self, degree):
        # Every irreducible of degree m with nonzero constant term has index
        # dividing 2^m - 1 or 2^m + 1; checked against the slow oracle.
        lo, hi = (1 << degree) - 1, (1 << degree) + 1
        for p in irreducibles(degree):
            if p == X:
                continue
            idx = brute_fibonacci_index(p, hi)
            assert idx is not None
            assert lo % idx == 0 or hi % idx == 0, (poly_str(p), idx)
            assert fibonacci_index(p) == idx


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, by trial division."""
    small = [k for k in range(1, int(n**0.5) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def divisor_scan_index(p: int) -> int:
    """Oracle: the least divisor n of 2^m - 1 or 2^m + 1 with p | F_n."""
    m = degree(p)
    for n in sorted(set(divisors((1 << m) - 1)) | set(divisors((1 << m) + 1))):
        if fib_mod(n, p) == 0:
            return n
    raise AssertionError(f"{poly_str(p)} divides no candidate F_n")


def sample_irreducibles(degree: int, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = (1 << degree) | rng.getrandbits(degree) | 1
        if is_irreducible(p) and p not in out:
            out.append(p)
    return out


class TestFibonacciIndexOracle:
    """The prime-stripping index against a full divisor scan, with no sympy."""

    def test_every_irreducible_up_to_degree_12(self):
        for degree in range(1, 13):
            for p in irreducibles(degree):
                if p != X:
                    assert fibonacci_index(p) == divisor_scan_index(p), poly_str(p)

    @pytest.mark.parametrize("degree", [16, 32])
    def test_sampled_irreducibles(self, degree):
        for p in sample_irreducibles(degree, 6, seed=degree):
            assert fibonacci_index(p) == divisor_scan_index(p), poly_str(p)

    def test_degree_above_cap_raises(self):
        assert poly2.INDEX_DEGREE_CAP == 32
        (p,) = sample_irreducibles(33, 1, seed=33)
        with pytest.raises(ValueError, match="cap"):
            fibonacci_index(p)


class TestHasIndex:
    """Index exactly 2^m + 1, tested as p & 1 and fibonacci_index(p) == 2^m + 1."""

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_matches_general_index_search(self, degree):
        # Both ways against the divisor scan; the p & 1 guard keeps
        # p(x) = x, which `fibonacci_index` rejects, out at degree 1.
        admissible = set(stabilizer_char_polys(degree))
        for p in irreducibles(degree):
            expected = p != X and divisor_scan_index(p) == (1 << degree) + 1
            assert (p in admissible) == expected, poly_str(p)


class TestStabilizerCharPolys:
    def test_small_m(self):
        assert stabilizer_char_polys(1) == (0b11,)
        assert stabilizer_char_polys(2) == (X2X1,)
        assert stabilizer_char_polys(3) == (X3X1,)
        assert len(stabilizer_char_polys(4)) == 2

    @pytest.mark.parametrize("m", range(1, 8))
    def test_all_have_target_index(self, m):
        for p in stabilizer_char_polys(m):
            assert degree(p) == m
            assert is_irreducible(p)
            assert fibonacci_index(p) == (1 << m) + 1
