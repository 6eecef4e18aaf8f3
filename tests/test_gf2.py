"""Bit-packed F2 linear algebra: examples, oracles, and random properties."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge.gf2 import (
    BitMatrix,
    NotInvertibleError,
    block2x2,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    rank,
)
from mubforge.poly2 import _mul
from oracles import (
    char_poly_bareiss,
    echelon_inverse,
    echelon_rank,
    nullspace,
    offdiag_components,
    poly_of_matrix,
)

B22 = BitMatrix.from_rows([[1, 1], [1, 0]])


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, (rng.getrandbits(cols) for _ in range(rows)))


def naive_mul(a, b):
    ra, rb = a.to_lists(), b.to_lists()
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            out[i][j] = sum(ra[i][k] * rb[k][j] for k in range(a.cols)) % 2
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


@st.composite
def square_matrices(draw, m):
    """A dense m x m matrix, or one made singular by a row that sums others."""
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        others = draw(st.integers(0, (1 << m) - 1)) & ~(1 << i)
        rows[i] = 0
        for j in range(m):
            if (others >> j) & 1:
                rows[i] ^= rows[j]
    return BitMatrix(m, m, rows)


class TestGaussJordanReference:
    """Rank and inverse from the tagged span reduction against Gauss-Jordan."""

    @pytest.mark.parametrize("m", range(1, 17))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_square_matches_reference(self, m, data):
        a = data.draw(square_matrices(m))
        r = echelon_rank(a)
        assert rank(a) == r
        assert is_invertible(a) == (r == m)
        inv = echelon_inverse(a)
        if inv is None:
            with pytest.raises(NotInvertibleError, match=f"^matrix has rank {r} < {m}$"):
                mat_inverse(a)
        else:
            assert mat_inverse(a) == inv

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 16), cols=st.integers(1, 16), data=st.data())
    def test_rectangular_rank_matches_reference(self, rows, cols, data):
        entries = st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
        a = BitMatrix(rows, cols, data.draw(entries))
        assert rank(a) == echelon_rank(a)
        assert not is_invertible(a) or rows == cols


class TestSolveAffine:
    """The homogeneous system coeff @ x = 0, whose solutions `nullspace` spans."""

    def test_identity_system(self):
        assert nullspace(BitMatrix.identity(2)) == []

    def test_zero_system(self):
        assert nullspace(BitMatrix.zero(2)) == [0b01, 0b10]

    def test_underdetermined(self):
        assert nullspace(BitMatrix.from_rows([[1, 1]])) == [0b11]

    def test_basis_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            coeff = random_matrix(rng, m, n)
            brute = {
                bits
                for bits in range(1 << n)
                if mat_mul(coeff, BitMatrix(n, 1, ((bits >> j) & 1 for j in range(n)))).is_zero()
            }
            basis = nullspace(coeff)
            span = {0}
            for v in basis:
                span |= {s ^ v for s in span}
            assert span == brute
            assert len(span) == 1 << len(basis)  # the basis is independent


@st.composite
def direct_sums(draw, m):
    """An m x m block-diagonal matrix of dense, sparse, zero or identity blocks.

    Several blocks force several Krylov chains, and a block may repeat the
    one before it, which repeats the factors of its characteristic polynomial.
    """
    rows = []
    prev = None
    while len(rows) < m:
        n = draw(st.integers(1, m - len(rows)))
        if prev is not None and len(prev) <= n and draw(st.booleans()):
            block = prev
        else:
            kind = draw(st.sampled_from(["dense", "sparse", "zero", "identity"]))
            if kind == "dense":
                block = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
            elif kind == "sparse":
                one_hot = st.sampled_from([0] + [1 << j for j in range(n)])
                block = draw(st.lists(one_hot, min_size=n, max_size=n))
            elif kind == "zero":
                block = [0] * n
            else:
                block = [1 << i for i in range(n)]
        rows += [r << len(rows) for r in block]
        prev = block
    return BitMatrix(m, m, rows)


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly(BitMatrix.from_rows([[1]])) == 0b11  # x + 1

    def test_fibonacci_companion(self):
        # By hand: det(xI + B) = (x+1) x + 1 = x^2 + x + 1
        assert char_poly(B22) == 0b111

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_zero_matrix(self, m):
        assert char_poly(BitMatrix.zero(m)) == 1 << m

    def test_against_leibniz_oracle(self):
        # Independent oracle: sum over permutations of products in F2[x].
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 5)
            a = random_matrix(rng, m, m)
            e = a.to_lists()
            acc = 0
            for perm in itertools.permutations(range(m)):
                term = 1
                for i in range(m):
                    entry = (2 if i == perm[i] else 0) ^ e[i][perm[i]]
                    term = _mul(term, entry)
                    if term == 0:
                        break
                acc ^= term
            assert char_poly(a) == acc

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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(BitMatrix(2, 3, (0, 0)))

    @pytest.mark.parametrize("m", range(1, 17))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_bareiss_oracle(self, m, data):
        if data.draw(st.booleans()):
            a = data.draw(direct_sums(m))
        else:  # dense and, almost surely, not symmetric
            a = BitMatrix(m, m, data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)))
        assert char_poly(a) == char_poly_bareiss(a)


class TestShapeOps:
    def test_symmetry(self):
        assert BitMatrix.identity(3).is_symmetric()
        assert not BitMatrix.from_rows([[0, 1], [0, 0]]).is_symmetric()
        with pytest.raises(ValueError):
            BitMatrix(2, 3, (0, 0)).is_symmetric()

    def test_symmetry_against_transpose(self):
        rng = random.Random(47)
        for _ in range(60):
            m = rng.randint(1, 8)
            a = random_matrix(rng, m, m)
            sym = a + a.transpose() + BitMatrix.identity(m)
            assert sym.is_symmetric()
            assert a.is_symmetric() == (a == a.transpose())
            flipped = BitMatrix(m, m, sym.data[:-1] + (sym.data[-1] ^ 1,))
            assert flipped.is_symmetric() == (m == 1)

    def test_rank_rank1(self):
        assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1

    def test_transpose_involution_and_rank(self):
        rng = random.Random(41)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert a.transpose().transpose() == a
            assert rank(a) == rank(a.transpose())

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: BitMatrix(0, 2, ()), "dimensions must be positive"),
            (lambda: BitMatrix(2, 0, (0, 0)), "dimensions must be positive"),
            (lambda: BitMatrix(2, 2, (0,)), "row count does not match data"),
            (lambda: BitMatrix(1, 2, (0b100,)), "row mask outside declared width"),
            (lambda: BitMatrix(1, 2, (-1,)), "row mask outside declared width"),
            (lambda: B22 + BitMatrix(2, 3, (0, 0)), "shape mismatch in addition"),
            (lambda: BitMatrix(2, 3, (0, 0)) ** 2, "power n >= 0 of a square matrix"),
            (lambda: B22**-1, "power n >= 0 of a square matrix"),
            (lambda: mat_inverse(BitMatrix(2, 3, (0, 0))), "inverse of a non-square matrix"),
            (lambda: block2x2(B22, B22, B22, BitMatrix.identity(3)), "blocks must be square"),
        ],
        ids=[
            "no-rows", "no-cols", "row-count", "wide-mask", "negative-mask",
            "add-shapes", "pow-non-square", "pow-negative", "inverse-non-square", "block-sizes",
        ],
    )
    def test_guards(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
            e = a.to_lists()
            adj = [[1 if (i != j and (e[i][j] or e[j][i])) or i == j else 0 for j in range(m)] for i in range(m)]
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
        mat = BitMatrix.from_rows([[0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
        assert repr(mat) == "BitMatrix.from_rows([[0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]])"
        assert eval(repr(mat)) == mat
        assert mat.data == (0b0110, 0b0101, 0b1000)  # bit j of row i is entry (i, j)

    def test_from_rows_matches_bitwise_masks(self):
        rng = random.Random(7)
        for _ in range(500):
            rows, cols = rng.randint(1, 8), rng.randint(1, 70)
            entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            masks = [sum(v << j for j, v in enumerate(row)) for row in entries]
            assert BitMatrix.from_rows(entries).data == tuple(masks)

    def test_from_rows_errors_in_order(self):
        # Ragged rows are named before a bad entry, and the first bad entry is named.
        with pytest.raises(ValueError, match="dimensions must be positive"):
            BitMatrix.from_rows([])
        with pytest.raises(ValueError, match="ragged rows"):
            BitMatrix.from_rows([[0, 1], [2, 3, 1]])
        with pytest.raises(ValueError, match=r"entry 2 not in GF\(2\)"):
            BitMatrix.from_rows([[0, 1], [1, 2], [3, 0]])
        with pytest.raises(ValueError, match=r"entry None not in GF\(2\)"):
            BitMatrix.from_rows([[None, 1]])

    def test_long_row_builds_in_linear_time(self):
        # A mask grown one bit at a time costs O(n^2) bit work for n ones.
        n = 10**6
        t0 = time.perf_counter()
        mat = BitMatrix.from_rows([[1] * n])
        assert time.perf_counter() - t0 < 1.0
        assert mat.data == ((1 << n) - 1,)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            B22.rows = 3

    def test_matrix_power(self):
        assert B22**0 == BitMatrix.identity(2)
        assert B22**3 == BitMatrix.identity(2)  # order of C at m = 1 is 3
