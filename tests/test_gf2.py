"""Bit-packed F2 linear algebra: examples, oracles, and random properties."""

import itertools
import random

import pytest

from mubforge.gf2 import (
    AffineSolution,
    BitMatrix,
    BitVec,
    NotInvertibleError,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    offdiag_components,
    rank,
    solve_affine,
)
from mubforge.poly2 import Poly2
from oracles import poly_of_matrix

B22 = BitMatrix.from_rows([[1, 1], [1, 0]])


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, (rng.getrandbits(cols) for _ in range(rows)))


def naive_mul(a, b):
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            out[i][j] = sum(a[i, k] * b[k, j] for k in range(a.cols)) % 2
    return BitMatrix.from_rows(out)


class TestMatMul:
    def test_identity_neutral(self):
        assert mat_mul(BitMatrix.identity(2), B22) == B22
        assert mat_mul(B22, BitMatrix.identity(2)) == B22

    def test_square_of_fibonacci_companion(self):
        # B^2 = B + I when the characteristic polynomial is x^2 + x + 1
        assert mat_mul(B22, B22) == BitMatrix.from_rows([[0, 1], [1, 1]])

    def test_identity_times_swap(self):
        swap = BitMatrix.from_rows([[0, 1], [1, 0]])
        assert mat_mul(BitMatrix.identity(2), swap) == swap

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(B22, BitMatrix.zero(3))

    def test_against_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a, b = random_matrix(rng, m, n), random_matrix(rng, n, k)
            assert mat_mul(a, b) == naive_mul(a, b)

    def test_associative(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(1, 8)
            a, b, c = (random_matrix(rng, m, m) for _ in range(3))
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestInverse:
    def test_identity(self):
        assert mat_inverse(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_fibonacci_companion(self):
        # B (B + I) = B^2 + B = I for char poly x^2 + x + 1
        assert mat_inverse(B22) == BitMatrix.from_rows([[0, 1], [1, 1]])

    def test_singular(self):
        with pytest.raises(NotInvertibleError):
            mat_inverse(BitMatrix.from_rows([[1, 1], [1, 1]]))

    def test_two_sided(self):
        rng = random.Random(3)
        found = 0
        while found < 25:
            a = random_matrix(rng, 5, 5)
            if not is_invertible(a):
                continue
            found += 1
            inv = mat_inverse(a)
            assert mat_mul(a, inv) == BitMatrix.identity(5)
            assert mat_mul(inv, a) == BitMatrix.identity(5)


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(BitMatrix.identity(2), BitVec.from_bits([1, 0]))
        assert sol.particular == BitVec.from_bits([1, 0])
        assert sol.nullspace_basis == ()

    def test_zero_system(self):
        sol = solve_affine(BitMatrix.zero(2), BitVec.from_bits([0, 0]))
        assert sol.particular == BitVec.from_bits([0, 0])
        assert {v.bits for v in sol.nullspace_basis} == {0b01, 0b10}

    def test_underdetermined(self):
        sol = solve_affine(BitMatrix.from_rows([[1, 1]]), BitVec.from_bits([1]))
        assert sol.particular == BitVec.from_bits([1, 0])
        assert [v.to_tuple() for v in sol.nullspace_basis] == [(1, 1)]

    def test_no_solution(self):
        coeff = BitMatrix.from_rows([[1, 0], [1, 0]])
        assert solve_affine(coeff, BitVec.from_bits([1, 0])) is None

    def test_enumeration_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            coeff = random_matrix(rng, m, n)
            rhs = BitVec(m, rng.getrandbits(m))
            brute = {
                bits
                for bits in range(1 << n)
                if mat_mul(coeff, BitMatrix(n, 1, ((bits >> j) & 1 for j in range(n))))
                == BitMatrix(m, 1, rhs)
            }
            sol = solve_affine(coeff, rhs)
            if sol is None:
                assert brute == set()
                continue
            enumerated = {v.bits for v in sol.enumerate()}
            assert enumerated == brute
            assert len(enumerated) == sol.count()


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly(BitMatrix.from_rows([[1]])) == Poly2.from_coeffs([1, 1])

    def test_fibonacci_companion(self):
        # By hand: det(xI + B) = (x+1) x + 1 = x^2 + x + 1
        assert char_poly(B22) == Poly2.from_coeffs([1, 1, 1])

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_zero_matrix(self, m):
        assert char_poly(BitMatrix.zero(m)) == Poly2(1 << m)

    def test_against_leibniz_oracle(self):
        # Independent oracle: sum over permutations of products in F2[x].
        from mubforge.poly2 import _mul

        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 5)
            a = random_matrix(rng, m, m)
            acc = 0
            for perm in itertools.permutations(range(m)):
                term = 1
                for i in range(m):
                    entry = (2 if i == perm[i] else 0) ^ a[i, perm[i]]
                    term = _mul(term, entry)
                    if term == 0:
                        break
                acc ^= term
            assert char_poly(a) == Poly2(acc)

    def test_similarity_invariant(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            m = rng.randint(2, 6)
            a = random_matrix(rng, m, m)
            p = random_matrix(rng, m, m)
            if not is_invertible(p):
                continue
            done += 1
            conj = mat_mul(mat_mul(p, a), mat_inverse(p))
            assert char_poly(conj) == char_poly(a)

    def test_cayley_hamilton(self):
        rng = random.Random(37)
        for _ in range(20):
            m = rng.randint(1, 6)
            a = random_matrix(rng, m, m)
            assert poly_of_matrix(char_poly(a), a).is_zero()


class TestShapeOps:
    def test_symmetry(self):
        assert BitMatrix.identity(3).is_symmetric()
        assert not BitMatrix.from_rows([[0, 1], [0, 0]]).is_symmetric()

    def test_rank_rank1(self):
        assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1

    def test_transpose_involution_and_rank(self):
        rng = random.Random(41)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert a.transpose().transpose() == a
            assert rank(a) == rank(a.transpose())


class TestOffdiagComponents:
    def test_zero_matrix_singletons(self):
        assert offdiag_components(BitMatrix.zero(4)) == [(0,), (1,), (2,), (3,)]

    def test_swap_couples(self):
        assert offdiag_components(BitMatrix.from_rows([[0, 1], [1, 0]])) == [(0, 1)]

    def test_diagonal_ignored(self):
        assert offdiag_components(BitMatrix.identity(3)) == [(0,), (1,), (2,)]

    def test_against_transitive_closure(self):
        rng = random.Random(43)
        for _ in range(30):
            m = rng.randint(1, 7)
            a = random_matrix(rng, m, m)
            # Oracle: reachability via boolean powers of the symmetrized adjacency.
            adj = [[1 if (i != j and (a[i, j] or a[j, i])) or i == j else 0 for j in range(m)] for i in range(m)]
            for _ in range(m):
                adj = [
                    [1 if any(adj[i][k] and adj[k][j] for k in range(m)) else 0 for j in range(m)]
                    for i in range(m)
                ]
            expected = []
            seen = set()
            for i in range(m):
                if i in seen:
                    continue
                comp = tuple(j for j in range(m) if adj[i][j])
                seen.update(comp)
                expected.append(comp)
            assert offdiag_components(a) == expected


class TestFormatsAndTypes:
    def test_text_round_trip(self):
        text = "0110\n1010\n0001"
        mat = BitMatrix.from_text(text)
        assert mat.to_text() == text
        assert mat[0, 1] == 1 and mat[0, 0] == 0

    def test_bitvec_basics(self):
        v = BitVec.from_bits([1, 0, 1])
        assert len(v) == 3 and v[0] == 1 and v[1] == 0
        assert v.weight() == 2
        assert (v ^ v).bits == 0
        with pytest.raises(ValueError):
            BitVec.from_bits([2])

    def test_immutability(self):
        with pytest.raises(AttributeError):
            B22.rows = 3
        with pytest.raises(AttributeError):
            BitVec(2, 1).bits = 0

    def test_matrix_power(self):
        assert B22**0 == BitMatrix.identity(2)
        assert B22**3 == BitMatrix.identity(2)  # order of C at m = 1 is 3
        assert B22**-1 == mat_inverse(B22)
