"""Symplectic maps, transport, class equality, intertwiners and equivalence maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge.construct import (
    KINDS,
    GeneratorSet,
    StabilizerSpec,
    StandardFormError,
    bandyopadhyay_check,
    generators,
)
from mubforge.equiv import (
    SymplecticMap,
    _intertwiner,
    classes_equal,
    equivalence_map,
    transport,
)
from mubforge.gf2 import (
    BitMatrix,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
)
from mubforge.poly2 import is_irreducible
from mubforge.search import _derived_seed, search_specs
from oracles import (
    anchored_equivalence_map,
    class_canonical,
    class_generators,
    field_anchor,
    generators_of,
    gram_factor,
    intertwiner_scan,
    is_polynomial_in,
    is_symplectic,
    standard_forms,
    symplectic_form,
    transport_forms,
)


def random_invertible(rng, m):
    while True:
        mat = BitMatrix(m, m, (rng.getrandbits(m) for _ in range(m)))
        if is_invertible(mat):
            return mat


def random_symmetric(rng, m):
    rows = [0] * m
    for i in range(m):
        for j in range(i, m):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(m, m, rows)


def random_anchor(rng, m):
    """Uniform symmetric matrix with irreducible characteristic polynomial."""
    while True:
        a = random_symmetric(rng, m)
        if is_irreducible(char_poly(a)):
            return a


def same_seed_specs(m, seed):
    """Field spec, field anchor, group spec and semigroup spec of one seed.

    The anchor is the field spec the group and semigroup search of seed starts
    from.  The group and semigroup specs are conjugates of the anchor, so they share
    its char(B); the first field spec may not.  Group specs start at m = 3
    and semigroup specs at m = 4.
    """
    specs = [
        next(search_specs(m, "field", seed=seed)),
        next(search_specs(m, "field", seed=_derived_seed(seed, 0xA5))),
    ]
    for kind in ("group", "semigroup"):
        specs += search_specs(m, kind, 1, seed=seed)
    return specs


def sym_invertible_matrices(m):
    from mubforge.backend import decode_symmetric

    for k in range(1 << (m * (m + 1) // 2)):
        mat = BitMatrix(m, m, decode_symmetric(m, k))
        if is_invertible(mat):
            yield mat


def random_asymmetric(rng, m):
    while True:
        mat = BitMatrix(m, m, (rng.getrandbits(m) for _ in range(m)))
        if not mat.is_symmetric():
            return mat


class TestIsSymplectic:
    """`SymplecticMap(s, t).matrix` against the 2m x 2m oracle f^t J f = J."""

    def test_identity(self):
        f = SymplecticMap(BitMatrix.identity(3), BitMatrix.zero(3)).matrix
        assert f == BitMatrix.identity(6)
        assert is_symplectic(f)

    def test_block_diagonal_family(self):
        rng = random.Random(2)
        for m in (1, 2, 3, 4):
            s = random_invertible(rng, m)
            assert is_symplectic(SymplecticMap(s, BitMatrix.zero(m)).matrix)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_s_inverse_t_is_symplectic(self, m):
        # The lower blocks of f are 0 and s^-t, and f^t J f = J.
        rng = random.Random(m)
        for _ in range(5):
            s = random_invertible(rng, m)
            f = SymplecticMap(s, mat_mul(s, random_symmetric(rng, m))).matrix
            assert f.data[m:] == tuple(r << m for r in mat_inverse(s.transpose()).data)
            assert is_symplectic(f)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_asymmetric_s_inverse_t_is_not(self, m):
        rng = random.Random(m)
        for _ in range(5):
            s = random_invertible(rng, m)
            f = SymplecticMap(s, mat_mul(s, random_asymmetric(rng, m))).matrix
            assert not is_symplectic(f)

    def test_swap_form(self):
        assert is_symplectic(symplectic_form(2))

    def test_singular_blocks_rejected(self):
        # [[I, I], [I, I]] = J + I, which no symplectic matrix is.
        assert not is_symplectic(symplectic_form(2) + BitMatrix.identity(4))


class TestGramFactor:
    def test_identity(self):
        assert gram_factor(BitMatrix.identity(3)) == BitMatrix.identity(3)

    def test_alternating_two_by_two(self):
        with pytest.raises(ValueError, match="alternating"):
            gram_factor(BitMatrix.from_rows([[0, 1], [1, 0]]))

    def test_patch_case(self):
        # Naive diagonalization strands an alternating residue here, yet the
        # factorization exists; the hyperbolic patch must recover it.
        R = BitMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        s = gram_factor(R)
        assert is_invertible(s)
        assert mat_mul(s.transpose(), s) == R

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_sweep(self, m):
        for R in sym_invertible_matrices(m):
            if not any((R.data[i] >> i) & 1 for i in range(m)):  # alternating
                with pytest.raises(ValueError, match="alternating"):
                    gram_factor(R)
            else:
                s = gram_factor(R)
                assert is_invertible(s)
                assert mat_mul(s.transpose(), s) == R

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            gram_factor(BitMatrix.from_rows([[1, 1], [0, 1]]))


class TestTransport:
    def test_identity_map_is_noop(self):
        gens = generators(next(iter(search_specs(2, "field", 1))))
        moved = transport(SymplecticMap(BitMatrix.identity(2), BitMatrix.zero(2)), gens)
        assert classes_equal(moved, gens)
        assert standard_forms(moved) == standard_forms(gens)

    def test_triangular_transport_makes_semigroup_classes(self):
        # f = [[u, t], [0, (u^t)^-1]] carries the field set of u^-1 B u onto
        # the semigroup set of (B, u u^t, t u^t).
        rng = random.Random(5)
        B0 = next(search_specs(3, "field")).B
        for _ in range(5):
            u = random_invertible(rng, 3)
            S = random_symmetric(rng, 3)
            t = mat_mul(u, S)  # u^-1 t = S keeps f symplectic
            f = SymplecticMap(u, t)
            assert is_symplectic(f.matrix)
            field_gens = generators(StabilizerSpec.field(B0))
            moved = transport(f, field_gens)
            assert bandyopadhyay_check(moved)
            B = mat_mul(mat_mul(u, B0), mat_inverse(u))
            R = mat_mul(u, u.transpose())
            A = mat_mul(t, u.transpose())
            target = StabilizerSpec("semigroup", 3, B, R, A)
            target.validate()
            assert classes_equal(moved, generators(target))

    def test_zero_t_gives_group_classes(self):
        rng = random.Random(8)
        B0 = next(search_specs(3, "field")).B
        u = random_invertible(rng, 3)
        f = SymplecticMap(u, BitMatrix.zero(3))
        moved = transport(f, generators(StabilizerSpec.field(B0)))
        B = mat_mul(mat_mul(u, B0), mat_inverse(u))
        target = StabilizerSpec("group", 3, B, mat_mul(u, u.transpose()), BitMatrix.zero(3))
        target.validate()
        assert classes_equal(moved, generators(target))

    def test_requires_symplectic(self):
        # s^-1 t = [[1, 1], [0, 1]] is not symmetric, and a singular s has no s^-t.
        gens = generators(next(search_specs(2, "field")))
        eye = BitMatrix.identity(2)
        upper = BitMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="symplectic"):
            transport(SymplecticMap(eye, upper), gens)
        with pytest.raises(ValueError):
            transport(SymplecticMap(BitMatrix.from_rows([[1, 1], [1, 1]]), BitMatrix.zero(2)), gens)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_general_transport(self, kind, m, seed):
        # f = [[u, u S], [0, (u^t)^-1]] with S symmetric is triangular and
        # symplectic; the affine image must hold the classes of f G.
        rng = random.Random(seed)
        u = random_invertible(rng, m)
        f = SymplecticMap(u, mat_mul(u, random_symmetric(rng, m)))
        for spec in search_specs(m, kind, 1, seed=seed):
            gens = generators(spec)
            moved = transport(f, gens)
            oracle = generators_of(m, transport_forms(f.matrix, standard_forms(gens)))
            assert sorted(map(class_canonical, class_generators(moved))) == sorted(
                map(class_canonical, oracle)
            )

    def test_singular_lower_block_reported(self):
        # A class (M; I) with singular nonzero M lands outside standard form
        # under the swap map; that failure must surface, not be patched.
        m = 2
        M = BitMatrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(StandardFormError):
            transport_forms(symplectic_form(m), [M])


class TestClassesEqual:
    def test_reflexive(self):
        gens = generators(next(iter(search_specs(3, "field", 1))))
        assert classes_equal(gens, gens)

    def test_field_vs_group_differ(self):
        f = generators(next(search_specs(3, "field")))
        g = generators(next(iter(search_specs(3, "group", 1))))
        assert not classes_equal(f, g)

    def test_same_polynomial_algebra_same_classes(self):
        # B and B^2 generate the same matrix field, hence the same classes.
        B = next(search_specs(3, "field")).B
        B_sq = mat_mul(B, B)
        spec_sq = StabilizerSpec.field(B_sq)
        spec_sq.validate()
        assert classes_equal(
            generators(StabilizerSpec.field(B)), generators(spec_sq)
        )

    def test_outside_polynomial_algebra_differs(self):
        hits = [s.B for s in search_specs(3, "field", None)]
        base = hits[0]
        other = next((b for b in hits if not is_polynomial_in(base, b)), None)
        assert other is not None
        assert not classes_equal(
            generators(StabilizerSpec.field(base)),
            generators(StabilizerSpec.field(other)),
        )

    def test_mismatched_m_raises(self):
        a = generators(next(search_specs(1, "field")))
        b = generators(next(search_specs(2, "field")))
        with pytest.raises(ValueError):
            classes_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_canonical_oracle(self, m, seed):
        # Equal pairs: B and B^2 span one field, and a group or semigroup set
        # is its field anchor's set transported.  From m = 3 on, the group and
        # field sets differ in their number of factorizable bases.
        rng = random.Random(seed)
        B = next(search_specs(m, "field", seed=seed)).B
        field = generators(StabilizerSpec.field(B))
        u = random_invertible(rng, m)
        sets = [
            field,
            generators(StabilizerSpec.field(mat_mul(B, B))),
            generators(next(search_specs(m, "field", seed=seed + 1))),
            transport(SymplecticMap(u, BitMatrix.zero(m)), field),
        ]
        for kind in ("group", "semigroup"):
            for spec in search_specs(m, kind, 1, seed=seed):
                f, anchor = field_anchor(spec)
                sets += [generators(spec), transport(f, generators(anchor))]
        outcomes = set()
        for a in sets:
            for b in sets:
                oracle = sorted(map(class_canonical, class_generators(a))) == sorted(
                    map(class_canonical, class_generators(b))
                )
                assert classes_equal(a, b) == oracle
                outcomes.add(oracle)
        assert outcomes == {True, False} or m <= 2

    def test_multiplicities_count(self):
        # b's classes are among a's, each four times against a's twice: the
        # basis of b lies in a's span, so only the ranks tell them apart.
        zero, eye = BitMatrix.zero(2), BitMatrix.identity(2)
        a = GeneratorSet(zero, (eye, zero))
        b = GeneratorSet(zero, (zero, zero))
        assert sorted(map(class_canonical, class_generators(a))) != sorted(
            map(class_canonical, class_generators(b))
        )
        assert not classes_equal(a, b)
        assert not classes_equal(b, a)
        assert classes_equal(a, a)

    def test_canonical_form_ignores_column_operations(self):
        rng = random.Random(13)
        gens = generators(next(iter(search_specs(2, "field", 1))))
        for gen in class_generators(gens):
            w = random_invertible(rng, 2)
            assert class_canonical(gen) == class_canonical(mat_mul(gen, w))


class TestAlternatingSymmetrizer:
    """No valid spec has an alternating R, as the `oracles.gram_factor` docstring proves.

    With R alternating and B R = S symmetric, char(B) = det(x R + S) lies in
    F2[x^2], a square, so it is never irreducible at m >= 2.
    """

    @pytest.mark.parametrize("m,count", [(2, 1), (4, 28)])
    def test_char_poly_has_no_odd_term(self, m, count):
        from mubforge.backend import decode_symmetric

        alternating = [
            R for R in sym_invertible_matrices(m) if not any((R.data[i] >> i) & 1 for i in range(m))
        ]
        assert len(alternating) == count
        odd_terms = 0xAAAA  # x, x^3, x^5, ...
        for R in alternating:
            r_inv = mat_inverse(R)
            for k in range(1 << (m * (m + 1) // 2)):
                S = BitMatrix(m, m, decode_symmetric(m, k))
                assert char_poly(mat_mul(S, r_inv)) & odd_terms == 0


class TestFieldAnchor:
    @pytest.mark.parametrize(
        "kind,m", [("group", 3), ("group", 4), ("semigroup", 4)]
    )
    def test_anchor_reproduces_classes(self, kind, m):
        spec = next(iter(search_specs(m, kind, 1)))
        f, anchor = field_anchor(spec)
        anchor.validate()
        assert anchor.kind == "field"
        assert is_symplectic(f.matrix)
        assert classes_equal(transport(f, generators(anchor)), generators(spec))

    def test_field_spec_is_its_own_anchor(self):
        spec = next(search_specs(2, "field"))
        f, anchor = field_anchor(spec)
        assert anchor == spec
        assert f.matrix == BitMatrix.identity(4)

    def test_alternating_symmetrizer_flagged(self):
        # Well-formed but inadmissible spec: the alternating R cannot be a
        # Gram product, and the anchor construction must say so.
        bogus = StabilizerSpec(
            "group",
            2,
            BitMatrix.from_rows([[1, 1], [1, 0]]),
            BitMatrix.from_rows([[0, 1], [1, 0]]),
            BitMatrix.zero(2),
        )
        with pytest.raises(ValueError, match="alternating"):
            field_anchor(bogus)


class TestOrthogonalIntertwiner:
    """The closed form on field specs against enumeration of the intertwiner space."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_same_char_poly(self, m, seed):
        # b is drawn until it shares a's characteristic polynomial: at m <= 7
        # that takes at most a few hundred draws.
        rng = random.Random(seed)
        a = random_anchor(rng, m)
        b = random_anchor(rng, m)
        while char_poly(b) != char_poly(a):
            b = random_anchor(rng, m)
        w = _intertwiner(StabilizerSpec.field(a), StabilizerSpec.field(b))
        assert w is not None
        assert [w] == intertwiner_scan(StabilizerSpec.field(a), StabilizerSpec.field(b))
        assert mat_mul(w, a) == mat_mul(b, w)
        assert mat_mul(w, w.transpose()) == BitMatrix.identity(m)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_distinct_char_polys(self, m, seed):
        rng = random.Random(seed)
        a = StabilizerSpec.field(random_anchor(rng, m))
        b = StabilizerSpec.field(random_anchor(rng, m))
        if char_poly(a.B) != char_poly(b.B):
            assert _intertwiner(a, b) is None
            assert intertwiner_scan(a, b) == []
        else:
            assert [_intertwiner(a, b)] == intertwiner_scan(a, b)


class TestIntertwiner:
    """Exactly one s with s B_a s^-1 = B_b and s R_a s^t = R_b, for every kind."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_unique_and_closed_form(self, m, seed):
        specs = same_seed_specs(m, seed)
        assert len(specs) == 2 + (m >= 3) + (m >= 4)
        for a in specs:
            for b in specs:
                found = intertwiner_scan(a, b)
                if char_poly(a.B) == char_poly(b.B):
                    assert found == [_intertwiner(a, b)]
                    s = found[0]
                    assert mat_mul(s, a.B) == mat_mul(b.B, s)
                    assert mat_mul(mat_mul(s, a.R), s.transpose()) == b.R
                else:
                    assert found == [] and _intertwiner(a, b) is None
        assert all(len(intertwiner_scan(specs[1], spec)) == 1 for spec in specs[2:])


class TestEquivalenceMap:
    def test_different_m_raises(self):
        a = next(search_specs(2, "field"))
        b = next(iter(search_specs(3, "group", 1)))
        with pytest.raises(ValueError, match="qubit count mismatch"):
            equivalence_map(a, b)

    def test_identical_specs(self):
        spec = next(iter(search_specs(3, "group", 1)))
        f, reason = equivalence_map(spec, spec)
        assert f is not None
        assert f.matrix == BitMatrix.identity(6)
        assert reason == "identical specs"

    def test_field_vs_its_group_variant(self):
        field = next(search_specs(3, "field"))
        group = next(iter(search_specs(3, "group", 1)))
        f, _ = equivalence_map(field, group)
        assert f is not None
        assert is_symplectic(f.matrix)
        assert classes_equal(transport(f, generators(field)), generators(group))

    def test_group_vs_semigroup_same_pair(self):
        sg = next(iter(search_specs(4, "semigroup", 1)))
        g = StabilizerSpec("group", 4, sg.B, sg.R, BitMatrix.zero(4))
        f, _ = equivalence_map(g, sg)
        assert f is not None
        assert classes_equal(transport(f, generators(g)), generators(sg))

    def test_conjugate_class_families_are_linked(self):
        # Distinct polynomial algebras, same characteristic polynomial: the
        # classes differ but an orthogonal change of anchor still links them.
        hits = [s.B for s in search_specs(3, "field", None)]
        base = hits[0]
        other = next(b for b in hits if not is_polynomial_in(base, b))
        spec_a, spec_b = StabilizerSpec.field(base), StabilizerSpec.field(other)
        assert not classes_equal(generators(spec_a), generators(spec_b))
        f, _ = equivalence_map(spec_a, spec_b)
        assert f is not None
        assert classes_equal(transport(f, generators(spec_a)), generators(spec_b))

    def test_distinct_char_polys_rejected(self):
        from mubforge.gf2 import char_poly

        hits = [s.B for s in search_specs(4, "field", None)]
        base = hits[0]
        other = next(b for b in hits if char_poly(b) != char_poly(base))
        f, reason = equivalence_map(
            StabilizerSpec.field(base), StabilizerSpec.field(other)
        )
        assert f is None
        assert reason == "characteristic polynomials of B differ (distinct class families)"

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_anchored_oracle(self, m, seed):
        # Every ordered kind pair, and equivalent non-identical pairs from
        # m = 3 on.
        specs = same_seed_specs(m, seed)
        reasons = set()
        for a in specs:
            for b in specs:
                f, reason = equivalence_map(a, b)
                f_oracle, reason_oracle = anchored_equivalence_map(a, b)
                assert reason == reason_oracle
                assert (f and f.matrix) == (f_oracle and f_oracle.matrix)
                reasons.add(reason)
        assert m < 3 or "transport reproduces the target classes" in reasons
