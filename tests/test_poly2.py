"""F2[x] arithmetic, irreducibility, and the Fibonacci polynomial layer."""

import random

import pytest

from mubforge import poly2
from mubforge.poly2 import (
    Poly2,
    fibonacci_index,
    fibonacci_poly,
    has_index,
    irreducibles,
    is_irreducible,
    stabilizer_char_polys,
)

X2X1 = Poly2.from_coeffs([1, 1, 1])  # x^2 + x + 1
X3X1 = Poly2.from_coeffs([1, 1, 0, 1])  # x^3 + x + 1
X3X2 = Poly2.from_coeffs([1, 0, 1, 1])  # x^3 + x^2 + 1


def fib_mod(n: int, p: Poly2) -> Poly2:
    """F_n(x) mod p(x) by the squaring ladder of `poly2._fib_pair_mod`."""
    return Poly2(poly2._fib_pair_mod(n, p.mask)[0])


def brute_fibonacci_index(p: Poly2, cap: int) -> int | None:
    """Independent oracle: iterate the recursion mod p until it vanishes."""
    a, b = Poly2(0), Poly2(1)
    for n in range(1, cap + 1):
        a, b = b, (poly2.X * b + a) % p
        if a.is_zero():
            return n
    return None


def brute_irreducible(p: Poly2) -> bool:
    """Independent oracle: trial division by everything up to half the degree."""
    d = p.degree
    if d < 1:
        return False
    for mask in range(2, 1 << (d // 2 + 1)):
        q = Poly2(mask)
        if 1 <= q.degree <= d // 2 and (p % q).is_zero():
            return False
    return True


class TestArithmetic:
    def test_addition(self):
        assert Poly2.from_coeffs([1, 0, 1]) + Poly2.from_coeffs([0, 1, 1]) == Poly2.from_coeffs([1, 1])

    def test_square_in_characteristic_two(self):
        x1 = Poly2.from_coeffs([1, 1])
        assert x1 * x1 == Poly2.from_coeffs([1, 0, 1])

    def test_gcd(self):
        assert poly2._gcd(0b101, 0b11) == 0b11

    def test_divmod(self):
        q, r = divmod(Poly2.from_coeffs([1, 0, 0, 1]), Poly2.from_coeffs([1, 1]))
        assert q * Poly2.from_coeffs([1, 1]) + r == Poly2.from_coeffs([1, 0, 0, 1])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Poly2(1) % Poly2(0)

    def test_degree_sentinel(self):
        assert Poly2(0).degree == -1
        assert Poly2(1).degree == 0
        assert not Poly2(0)

    def test_hex_round_trip(self):
        p = Poly2(int("B", 16))
        assert p == X3X1
        assert format(p.mask, "X") == "B"
        assert str(p) == "x^3 + x + 1"


class TestIrreducibility:
    def test_known_values(self):
        assert is_irreducible(X2X1)
        assert not is_irreducible(Poly2.from_coeffs([1, 0, 1]))  # (x+1)^2
        assert is_irreducible(X3X1)
        assert not is_irreducible(Poly2(1))
        assert not is_irreducible(Poly2(0))

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_exhaustive_against_trial_division(self, degree):
        for mask in range(1 << degree, 1 << (degree + 1)):
            p = Poly2(mask)
            assert is_irreducible(p) == brute_irreducible(p), p


class TestFibonacciPolynomials:
    def test_base_cases(self):
        assert fibonacci_poly(0) == Poly2(0)
        assert fibonacci_poly(1) == Poly2(1)

    def test_small_values(self):
        # Iterating the recursion by hand: F5 = x^4 + x^2 + 1, F9 = x^8 + x^6 + x^4 + 1.
        assert fibonacci_poly(5) == Poly2.from_coeffs([1, 0, 1, 0, 1])
        assert fibonacci_poly(9) == Poly2.from_coeffs([1, 0, 0, 0, 1, 0, 1, 0, 1])

    def test_generator_matrix_powers(self):
        # The 2x2 generator [[x,1],[1,0]] raised to j holds (F_{j+1}, F_j; F_j, F_{j-1}).
        x = poly2.X
        one = Poly2(1)
        mat = (x, one, one, Poly2(0))
        acc = (one, Poly2(0), Poly2(0), one)
        for j in range(1, 21):
            a, b, c, d = acc
            e, f, g, h = mat
            acc = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            assert acc[0] == fibonacci_poly(j + 1)
            assert acc[1] == acc[2] == fibonacci_poly(j)
            assert acc[3] == fibonacci_poly(j - 1)

    def test_addition_identity(self):
        # F_{j+k} = F_j F_{k+1} + F_{j-1} F_k, symbolically.
        F = [fibonacci_poly(n) for n in range(62)]
        for j in range(1, 31):
            for k in range(1, 31):
                assert F[j] * F[k + 1] + F[j - 1] * F[k] == F[j + k]

    def test_mod_consistency_small(self):
        for p in (X2X1, X3X1, X3X2):
            for n in range(65):
                assert fib_mod(n, p) == fibonacci_poly(n) % p

    def test_mod_consistency_random_large(self):
        rng = random.Random(5)
        polys = [p for d in (5, 8, 11) for p in irreducibles(d)]
        for _ in range(25):
            p = rng.choice(polys)
            n = rng.randint(0, 1 << 16)
            assert fib_mod(n, p) == fibonacci_poly(n) % p

    def test_divisibility_examples(self):
        # Long division: F9 = (x+1)^2 (x^3+x+1)^2 and F7 = (x^3+x^2+1)^2.
        assert fib_mod(9, X3X1).is_zero()
        assert fib_mod(7, X3X2).is_zero()

    def test_gcd_theorem(self):
        # gcd(F_a, F_b) = F_gcd(a,b): the fact behind both the divisor search
        # and the prime-cofactor index test.
        import math

        F = [fibonacci_poly(n) for n in range(41)]
        for a in range(1, 41):
            for b in range(1, 41):
                assert poly2._gcd(F[a].mask, F[b].mask) == F[math.gcd(a, b)].mask


class TestFibonacciIndex:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (Poly2.from_coeffs([1, 1]), 3),
            (X2X1, 5),
            (X3X1, 9),
            (X3X2, 7),
        ],
    )
    def test_known_indices(self, p, expected):
        assert brute_fibonacci_index(p, 20) == expected
        assert fibonacci_index(p) == expected

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            fibonacci_index(Poly2.from_coeffs([1, 0, 1]))

    def test_exceptional_polynomial_x(self):
        # p(x) = x divides F_n exactly for even n, so its index is 2 -- the one
        # irreducible whose index divides neither 2^m - 1 nor 2^m + 1.  It is
        # rejected by the divisor search and cannot arise from an invertible B.
        assert brute_fibonacci_index(poly2.X, 10) == 2
        with pytest.raises(ValueError):
            fibonacci_index(poly2.X)

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_divisor_rule_exhaustive(self, degree):
        # Every irreducible of degree m with nonzero constant term has index
        # dividing 2^m - 1 or 2^m + 1; checked against the slow oracle.
        lo, hi = (1 << degree) - 1, (1 << degree) + 1
        for p in irreducibles(degree):
            if p == poly2.X:
                continue
            idx = brute_fibonacci_index(p, hi)
            assert idx is not None
            assert lo % idx == 0 or hi % idx == 0, (p, idx)
            assert fibonacci_index(p) == idx


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, by trial division."""
    small = [k for k in range(1, int(n**0.5) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def divisor_scan_index(p: Poly2) -> int:
    """Oracle: the least divisor n of 2^m - 1 or 2^m + 1 with p | F_n."""
    m = p.degree
    for n in sorted(set(divisors((1 << m) - 1)) | set(divisors((1 << m) + 1))):
        if fib_mod(n, p).is_zero():
            return n
    raise AssertionError(f"{p!r} divides no candidate F_n")


def sample_irreducibles(degree: int, count: int, seed: int) -> list[Poly2]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = Poly2((1 << degree) | rng.getrandbits(degree) | 1)
        if is_irreducible(p) and p not in out:
            out.append(p)
    return out


class TestFibonacciIndexOracle:
    """The prime-stripping index against a full divisor scan, with no sympy."""

    def test_every_irreducible_up_to_degree_12(self):
        for degree in range(1, 13):
            for p in irreducibles(degree):
                if p != poly2.X:
                    assert fibonacci_index(p) == divisor_scan_index(p), p

    @pytest.mark.parametrize("degree", [16, 32])
    def test_sampled_irreducibles(self, degree):
        for p in sample_irreducibles(degree, 6, seed=degree):
            assert fibonacci_index(p) == divisor_scan_index(p), p

    def test_degree_above_cap_raises(self):
        assert poly2.INDEX_DEGREE_CAP == 32
        (p,) = sample_irreducibles(33, 1, seed=33)
        with pytest.raises(ValueError, match="cap"):
            fibonacci_index(p)


class TestHasIndex:
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_matches_general_index_search(self, degree):
        for p in irreducibles(degree):
            if p == poly2.X:
                # index 2: the prime-cofactor test gives the right answers too
                assert has_index(p, 2) and not has_index(p, 3)
                continue
            idx = fibonacci_index(p)
            assert has_index(p, idx)
            for other in (1, 2, 3, idx - 1, idx + 1, 2 * idx):
                if other != idx and other >= 1:
                    assert not has_index(p, other)


class TestStabilizerCharPolys:
    def test_small_m(self):
        assert stabilizer_char_polys(1) == (Poly2.from_coeffs([1, 1]),)
        assert stabilizer_char_polys(2) == (X2X1,)
        assert stabilizer_char_polys(3) == (X3X1,)
        assert len(stabilizer_char_polys(4)) == 2

    @pytest.mark.parametrize("m", range(1, 8))
    def test_all_have_target_index(self, m):
        for p in stabilizer_char_polys(m):
            assert p.degree == m
            assert is_irreducible(p)
            assert fibonacci_index(p) == (1 << m) + 1
