"""Stabilizer construction, lemma-condition filters, and the searches."""

import functools
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge import cli, construct, search
from mubforge.backend import decode_symmetric
from mubforge.construct import (
    KINDS,
    GeneratorSet,
    SpecValidationError,
    StabilizerSpec,
    StandardFormError,
    Z_BASIS,
    _vec,
    bandyopadhyay_check,
    build_stabilizer,
    cyclicity_check,
    generators,
    standard_form,
)
from mubforge.entangle import entanglement_vector
from mubforge.equiv import classes_equal
from mubforge.gf2 import (
    BitMatrix,
    block2x2,
    char_poly,
    is_invertible,
    mat_inverse,
    mat_mul,
    vstack,
)
from mubforge.poly2 import is_irreducible
from mubforge.search import _derived_seed, _iter_conjugators, find_addend, search_specs
from oracles import (
    addend_excluded_span,
    bandyopadhyay_oracle,
    class_canonical,
    class_generators,
    class_labels,
    cyclicity_walk,
    echelon_inverse,
    encode_symmetric,
    exhaustive_total,
    fibonacci_poly,
    field_closure_check,
    find_addend_scan,
    general_linear_order,
    generators_of,
    is_polynomial_in,
    iter_conjugators_scan,
    orbit_forms,
    poly_of_matrix,
    search_specs_oracle,
    standard_forms,
    symplectic_form,
)

B1 = BitMatrix.from_rows([[1]])
B2 = BitMatrix.from_rows([[1, 1], [1, 0]])
# Symmetric with characteristic polynomial x^3 + x^2 + 1, whose Fibonacci index is 7.
B3_INDEX7 = BitMatrix.from_rows([[0, 0, 1], [0, 1, 1], [1, 1, 0]])


def field_spec(m):
    return next(search_specs(m, "field"))


def group_spec(m=3):
    return next(iter(search_specs(m, "group", 1)))


def semigroup_spec(m=4):
    return next(iter(search_specs(m, "semigroup", 1)))


def orbit(C, m):
    """Standard forms of the classes G_t = C^t (I; 0), t = 0..d, in orbit order."""
    return orbit_forms(C, 1 << m)


def walked(spec):
    """The spec's standard forms in orbit order, by the d-step walk."""
    return orbit(build_stabilizer(spec), spec.m)


def field_family(B):
    """The affine family 0 + span{I, B, ..., B^(m-1)} of C = [[B, I], [I, 0]]."""
    m = B.rows
    return GeneratorSet(BitMatrix.zero(m), tuple(B**k for k in range(m)))


def random_invertible(rng, m):
    while True:
        u = BitMatrix(m, m, [rng.getrandbits(m) for _ in range(m)])
        if is_invertible(u):
            return u


def random_symmetric(rng, m):
    return BitMatrix(m, m, decode_symmetric(m, rng.getrandbits(m * (m + 1) // 2)))


def random_irreducible_matrix(rng, m):
    """Uniform m x m matrix, not necessarily symmetric, with irreducible char(B)."""
    while True:
        B = BitMatrix(m, m, [rng.getrandbits(m) for _ in range(m)])
        if is_irreducible(char_poly(B)):
            return B


class TestValidation:
    def test_valid_field(self):
        StabilizerSpec.field(B1).validate()
        StabilizerSpec.field(B2).validate()

    def test_wrong_fibonacci_index(self):
        with pytest.raises(SpecValidationError, match="index 7.*need d \\+ 1 = 9"):
            StabilizerSpec.field(B3_INDEX7).validate()

    def test_named_conditions(self):
        cases = [
            (StabilizerSpec.field(BitMatrix.from_rows([[0, 1], [0, 1]])), "B-symmetric"),
            (StabilizerSpec.field(BitMatrix.from_rows([[1, 1], [1, 1]])), "B-invertible"),
            (StabilizerSpec.field(BitMatrix.identity(2)), "char-poly-irreducible"),
            (StabilizerSpec("field", 1, B1, BitMatrix.zero(1), BitMatrix.zero(1)), "R-forced"),
            (StabilizerSpec("group", 1, B1, B1, B1), "A-forced"),
            (StabilizerSpec("bogus", 1, B1, B1, BitMatrix.zero(1)), "kind"),
            (StabilizerSpec("field", 2, B1, B1, B1), "shape"),
        ]
        for spec, condition in cases:
            with pytest.raises(SpecValidationError) as err:
                spec.validate()
            assert err.value.condition == condition

    def test_group_conditions(self):
        g = group_spec()
        g.validate()
        bad_r = StabilizerSpec("group", 3, g.B, BitMatrix.zero(3), BitMatrix.zero(3))
        with pytest.raises(SpecValidationError) as err:
            bad_r.validate()
        assert err.value.condition == "R-invertible"
        bad_br = StabilizerSpec("group", 3, g.B, BitMatrix.identity(3), BitMatrix.zero(3))
        with pytest.raises(SpecValidationError) as err:
            bad_br.validate()
        assert err.value.condition == "BR-symmetric"

    def test_semigroup_addend_must_be_symmetric(self):
        sg = semigroup_spec()
        bad = StabilizerSpec("semigroup", 4, sg.B, sg.R, BitMatrix.from_rows(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(SpecValidationError) as err:
            bad.validate()
        assert err.value.condition == "A-symmetric"


class TestStabilizer:
    def test_single_qubit_matrix(self):
        assert build_stabilizer(StabilizerSpec.field(B1)) == BitMatrix.from_rows(
            [[1, 1], [1, 0]]
        )

    def test_group_with_identity_symmetrizer_reduces_to_field(self):
        for m in (1, 2, 3):
            B = field_spec(m).B
            field_C = build_stabilizer(StabilizerSpec.field(B))
            group = StabilizerSpec("group", m, B, BitMatrix.identity(m), BitMatrix.zero(m))
            group_C = build_stabilizer(group)
            assert field_C == group_C

    def test_semigroup_with_zero_addend_reduces_to_group(self):
        g = group_spec()
        sg = StabilizerSpec("semigroup", 3, g.B, g.R, BitMatrix.zero(3))
        assert build_stabilizer(sg) == build_stabilizer(g)

    def test_symplectic_for_all_kinds(self):
        specs = [field_spec(m) for m in (1, 2, 3, 4)]
        specs += [group_spec(3), group_spec(4), semigroup_spec(4)]
        for spec in specs:
            C = build_stabilizer(spec)
            J = symplectic_form(spec.m)
            assert mat_mul(mat_mul(C.transpose(), J), C) == J

    def test_power_basics(self):
        C = build_stabilizer(field_spec(2))
        assert C**0 == BitMatrix.identity(4)
        assert C**3 == mat_mul(mat_mul(C, C), C)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_field_power_blocks_are_fibonacci(self, m):
        spec = field_spec(m)
        C = build_stabilizer(spec)
        for j in range(1, spec.d + 2):
            Cj = C**j
            upper_left = BitMatrix(m, m, (Cj.data[i] & ((1 << m) - 1) for i in range(m)))
            assert upper_left == poly_of_matrix(fibonacci_poly(j + 1), spec.B)


class TestCyclicity:
    def test_single_qubit_order_three(self):
        C = build_stabilizer(StabilizerSpec.field(B1))
        assert cyclicity_check(C, 2)
        assert C**3 == BitMatrix.identity(2)

    def test_two_qubit_order_five(self):
        C = build_stabilizer(StabilizerSpec.field(B2))
        assert cyclicity_check(C, 4)
        assert C**5 == BitMatrix.identity(4)

    def test_identity_fails(self):
        assert not cyclicity_check(BitMatrix.identity(4), 4)

    def test_wrong_index_fails(self):
        # Index 7 < d + 1 = 9: C has order 7, so C^j = I for some j <= d.
        eye, zero = BitMatrix.identity(3), BitMatrix.zero(3)
        C = block2x2(B3_INDEX7, eye, eye, zero)
        assert not cyclicity_check(C, 8)
        assert C**7 == BitMatrix.identity(6)

    def test_order_dividing_d_plus_one_fails(self):
        # C = [[I, I], [I, 0]] has order 3, which divides d + 1 = 9: C^9 = I,
        # so only the prime-divisor step (C^3 = I) rejects it.
        eye, zero = BitMatrix.identity(3), BitMatrix.zero(3)
        C = block2x2(eye, eye, eye, zero)
        assert C**9 == BitMatrix.identity(6)
        assert not cyclicity_check(C, 8)
        assert not cyclicity_walk(C, 8)

    @pytest.mark.parametrize("make", [lambda: field_spec(3), group_spec, semigroup_spec])
    def test_constructed_specs_are_cyclic(self, make):
        spec = make()
        assert cyclicity_check(build_stabilizer(spec), spec.d)


class TestGenerators:
    def test_two_qubit_field_forms(self):
        spec = StabilizerSpec.field(B2)
        gens = generators(spec)
        assert standard_forms(gens)[0] is Z_BASIS
        mats = {f.data for f in standard_forms(gens)[1:]}
        expected = {
            BitMatrix.zero(2).data,
            BitMatrix.identity(2).data,
            B2.data,
            (B2 + BitMatrix.identity(2)).data,
        }
        assert mats == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_field_midpoint_and_last(self, m):
        spec = field_spec(m)
        forms = walked(spec)
        d = spec.d
        assert forms[d // 2] == BitMatrix.identity(m)
        assert forms[d] == BitMatrix.zero(m)

    def test_semigroup_standard_forms_formula(self):
        spec = semigroup_spec()
        forms = walked(spec)
        r_ = spec.R
        for j in range(1, spec.d + 1):
            fj = poly_of_matrix(fibonacci_poly(j), spec.B)
            fj1 = poly_of_matrix(fibonacci_poly(j + 1), spec.B)
            expected = mat_mul(mat_mul(fj1, mat_inverse(fj)), r_) + spec.A
            assert forms[j] == expected

    @pytest.mark.parametrize("make", [lambda: field_spec(2), lambda: field_spec(3), group_spec, semigroup_spec])
    def test_class_conditions(self, make):
        gens = generators(make())
        assert bandyopadhyay_check(gens)
        labels = [lab for g in class_generators(gens) for lab in class_labels(g)]
        assert len(labels) == len(set(labels)) == (1 << (2 * gens.m)) - 1

    def test_nonsymmetric_form_fails(self):
        # Companion matrix of x^3 + x + 1 (index 9): a full orbit of d + 1
        # classes with invertible lower blocks, but G_1 = (B; I) has the
        # non-symmetric form B, so its class is not isotropic.  The orbit's
        # forms are the affine family span{I, B, B^2}.
        B = BitMatrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        eye, zero = BitMatrix.identity(3), BitMatrix.zero(3)
        forms = orbit(block2x2(B, eye, eye, zero), 3)
        assert sum(f is Z_BASIS for f in forms) == 1
        assert forms[1] == B
        family = field_family(B)
        assert Counter(standard_forms(family)) == Counter(forms)
        assert not bandyopadhyay_check(family)
        assert not bandyopadhyay_oracle(3, forms)

    def test_wrong_stabilizer_names_the_orbit_step(self, monkeypatch, tmp_path, capsys):
        # A C without the semigroup shift: G_1 = (B; R^-1) has the form B R,
        # which is not in A + F2[B] R, so the closed form no longer matches C.
        spec = semigroup_spec()
        unshifted = build_stabilizer(StabilizerSpec("group", 4, spec.B, spec.R, BitMatrix.zero(4)))
        monkeypatch.setattr(construct, "build_stabilizer", lambda _spec: unshifted)
        with pytest.raises(StandardFormError, match="orbit step 1 leaves A"):
            generators(spec)
        # `build` builds C once and hands it to `generators`.
        monkeypatch.setattr(cli, "build_stabilizer", lambda _spec: unshifted)
        path = tmp_path / "semigroup.json"
        path.write_text(spec.to_json())
        assert cli.main(["build", str(path)]) == 2
        assert "orbit step 1" in capsys.readouterr().err

    def test_second_z_basis_fails(self):
        # C of order 3 < d + 1 = 5 returns to (I; 0) at t = 3.  Its affine
        # family span{I, I} has rank 1 < m, so it has fewer than d forms.
        eye, zero = BitMatrix.identity(2), BitMatrix.zero(2)
        forms = orbit(block2x2(eye, eye, eye, zero), 2)
        assert forms[3] is Z_BASIS
        assert all(f is Z_BASIS or f.is_symmetric() for f in forms)
        assert not bandyopadhyay_check(field_family(eye))
        assert not bandyopadhyay_oracle(2, forms)

    def test_standard_form_reads_the_two_blocks(self):
        # (M X; X) normalizes to M, (I; 0) to Z_BASIS; only a 2m x m matrix is a generator.
        eye, zero = BitMatrix.identity(2), BitMatrix.zero(2)
        X = BitMatrix.from_rows([[1, 1], [0, 1]])
        assert standard_form(vstack(mat_mul(B2, X), X)) == B2
        assert standard_form(vstack(eye, zero)) is Z_BASIS
        singular = BitMatrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(StandardFormError, match="lower block of a class generator"):
            standard_form(vstack(eye, singular))
        with pytest.raises(StandardFormError, match="zero lower block"):
            standard_form(vstack(singular, zero))
        with pytest.raises(ValueError, match="2m x m"):
            standard_form(vstack(eye, vstack(eye, zero)))

    @pytest.mark.parametrize(
        "make", [lambda: field_spec(2), lambda: field_spec(4), group_spec]
    )
    def test_orbit_property(self, make):
        spec = make()
        C = build_stabilizer(spec)
        gens = generators_of(spec.m, walked(spec))
        d = spec.d
        for j in range(d + 1):
            Cj = C**j
            for k in range(d + 1):
                image = mat_mul(Cj, gens[k])
                target = gens[(j + k) % (d + 1)]
                assert class_canonical(image) == class_canonical(target)


class TestChecksAgainstOracles:
    """The form-level checks agree with label enumeration and the d-step walk."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_searched_specs(self, kind, m, seed):
        specs = list(search_specs(m, kind, 1, seed=seed))
        for spec in specs:
            C = build_stabilizer(spec)
            gens = generators(spec)
            assert bandyopadhyay_check(gens) == bandyopadhyay_oracle(spec.m, standard_forms(gens))
            for d in (spec.d - 1, spec.d, 2 * spec.d + 1):
                assert cyclicity_check(C, d) == cyclicity_walk(C, d)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_walk(self, kind, m, seed):
        # The forms p(B) R + A are the walked orbit's forms, each once.
        for spec in search_specs(m, kind, 1, seed=seed):
            gens = generators(spec)
            walk = orbit_forms(build_stabilizer(spec), spec.d)
            assert Counter(standard_forms(gens)) == Counter(walk)
            assert len(set(standard_forms(gens))) == spec.d + 1
            if m <= 6:
                assert bandyopadhyay_check(gens) and bandyopadhyay_oracle(m, standard_forms(gens))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_orbits_of_arbitrary_b(self, m, seed):
        # For irreducible char(B) every Fibonacci polynomial F_t(B) is zero or
        # invertible, so each class of C = [[B, I], [I, 0]] has a standard form.
        # Non-symmetric B and indices below d + 1 give the False cases.  A
        # short orbit is not an affine family, so the form-level verdict on
        # it is the family's check together with the order of C.
        B = random_irreducible_matrix(random.Random(seed), m)
        eye, zero = BitMatrix.identity(m), BitMatrix.zero(m)
        C = block2x2(B, eye, eye, zero)
        forms = orbit(C, m)
        cyclic = cyclicity_check(C, 1 << m)
        assert bandyopadhyay_oracle(m, forms) == (bandyopadhyay_check(field_family(B)) and cyclic)
        assert cyclic == cyclicity_walk(C, 1 << m)
        if cyclic:
            assert Counter(standard_forms(field_family(B))) == Counter(forms)


class TestFieldClosure:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_field_sets_close(self, m):
        assert field_closure_check(generators(field_spec(m)))

    def test_nonpolynomial_symmetrizer_breaks_closure(self):
        assert not field_closure_check(generators(group_spec()))


class TestSymmetrizers:
    def test_symmetric_matrix_admits_only_polynomial_symmetrizers(self):
        # Brute force at m = 3: for symmetric B the solutions of
        # "R and BR symmetric" are exactly the 2^m polynomials in B.
        from mubforge.backend import decode_symmetric

        B = field_spec(3).B
        brute = set()
        for k in range(64):
            R = BitMatrix(3, 3, decode_symmetric(3, k))
            if mat_mul(B, R).is_symmetric():
                brute.add(R.data)
        power = BitMatrix.identity(3)
        polys = set()
        for mask in range(8):
            acc = BitMatrix.zero(3)
            p = BitMatrix.identity(3)
            for i in range(3):
                if (mask >> i) & 1:
                    acc = acc + p
                p = mat_mul(p, B)
            polys.add(acc.data)
        assert brute == polys
        assert all(is_polynomial_in(B, BitMatrix(3, 3, r)) for r in brute)


class TestAddend:
    def test_excluded_values_rejected(self):
        sg = semigroup_spec()
        span = addend_excluded_span(sg.B, sg.R)
        assert span.contains(0)  # A = 0 is the p = 0, D = 0 case
        assert span.contains(_vec(sg.R))  # A = R is the p = 1, D = 0 case
        assert not span.contains(_vec(sg.A))

    def test_no_addend_for_three_qubits(self):
        g = group_spec(3)
        assert find_addend(g.B, g.R) is None

    def test_exclusion_matches_enumeration(self):
        # The excluded set {p(B) R + D} enumerated directly agrees with the
        # span-membership test, for every symmetric A.
        from mubforge.backend import decode_symmetric

        for spec, m in ((group_spec(3), 3), (semigroup_spec(4), 4)):
            span = addend_excluded_span(spec.B, spec.R)
            excluded = set()
            poly_mats = []
            p = BitMatrix.identity(m)
            pows = []
            for _ in range(m):
                pows.append(p)
                p = mat_mul(p, spec.B)
            for mask in range(1 << m):
                acc = BitMatrix.zero(m)
                for i in range(m):
                    if (mask >> i) & 1:
                        acc = acc + pows[i]
                poly_mats.append(acc)
            for q in poly_mats:
                qr = mat_mul(q, spec.R)
                for dmask in range(1 << m):
                    D = BitMatrix(m, m, (((dmask >> i) & 1) << i for i in range(m)))
                    excluded.add((qr + D).data)
            npairs = m * (m + 1) // 2
            for k in range(1 << npairs):
                A = BitMatrix(m, m, decode_symmetric(m, k))
                assert span.contains(_vec(A)) == (A.data in excluded)

    def test_four_qubit_addend_is_lexicographic_first(self):
        from mubforge.backend import decode_symmetric

        sg = semigroup_spec(4)
        A = find_addend(sg.B, sg.R)
        assert A is not None and A.is_symmetric()
        span = addend_excluded_span(sg.B, sg.R)
        k_found = encode_symmetric(4, A.data)
        for k in range(k_found):
            earlier = BitMatrix(4, 4, decode_symmetric(4, k))
            assert span.contains(_vec(earlier))


    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_closed_form_matches_scan_on_searched_specs(self, m):
        specs = list(search_specs(m, "group", 8, seed=m))
        if m <= 4:
            specs += list(search_specs(m, "group", 40))
        assert specs
        for spec in specs:
            assert find_addend(spec.B, spec.R) == find_addend_scan(spec.B, spec.R)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_scan_on_random_conjugates(self, m, seed):
        # B = u B0 u^-1 and R = u u^t for any invertible u, polynomial or not,
        # and the same B with an arbitrary symmetric R.
        rng = random.Random(seed)
        b0 = next(search_specs(m, "field", seed=seed)).B
        u = random_invertible(rng, m)
        B = mat_mul(mat_mul(u, b0), mat_inverse(u))
        for R in (mat_mul(u, u.transpose()), random_symmetric(rng, m)):
            assert find_addend(B, R) == find_addend_scan(B, R)

    def test_no_addend_for_any_nonpolynomial_conjugator_at_three_qubits(self):
        # The early return of search_specs: at m = 3 every non-polynomial R
        # leaves no admissible addend, so stopping at the first one drops nothing.
        b0 = next(search_specs(3, "field")).B
        pairs = []
        for rows, _, _ in _iter_conjugators(3, b0.data, None):
            u = BitMatrix(3, 3, rows)
            B = mat_mul(mat_mul(u, b0), mat_inverse(u))
            R = mat_mul(u, u.transpose())
            if not is_polynomial_in(B, R):
                pairs.append((B, R))
        assert len(pairs) == exhaustive_total(3, "group")
        assert all(find_addend(B, R) is None for B, R in pairs)


class TestAnchorField:
    """Conjugates of the anchor: R = u u^t lies in F2[u B0 u^-1] iff that B is symmetric."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def conjugates(m):
        """(B, R, R in F2[B]) for every u of the exhaustive walk, in walk order."""
        b0 = next(search_specs(m, "field")).B
        out = []
        for rows, _, _ in _iter_conjugators(m, b0.data, None):
            u = BitMatrix(m, m, rows)
            B = mat_mul(mat_mul(u, b0), mat_inverse(u))
            R = mat_mul(u, u.transpose())
            out.append((B, R, is_polynomial_in(B, R)))
        return tuple(out)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), polynomial=st.booleans())
    def test_matches_oracle(self, m, seed, polynomial):
        rng = random.Random(seed)
        b0 = next(search_specs(m, "field", seed=seed)).B
        if polynomial:
            # u = P q(B0) with P a permutation: B = P B0 P^t is symmetric and
            # R = P q(B0)^2 P^t = q(B)^2 lies in F2[B].
            q = BitMatrix.zero(m)
            while q.is_zero():
                q = poly_of_matrix(rng.getrandbits(m), b0)
            perm = rng.sample(range(m), m)
            u = mat_mul(BitMatrix(m, m, [1 << j for j in perm]), q)
        else:
            u = random_invertible(rng, m)
        B = mat_mul(mat_mul(u, b0), mat_inverse(u))
        R = mat_mul(u, u.transpose())
        assert B.is_symmetric() == is_polynomial_in(B, R)
        if polynomial:
            assert B.is_symmetric()

    @pytest.mark.parametrize("m", [3, 4])
    def test_every_conjugator(self, m):
        triples = self.conjugates(m)
        assert len(triples) == general_linear_order(m)
        assert all(B.is_symmetric() == poly for B, _, poly in triples)
        kept = sum(not B.is_symmetric() for B, _, _ in triples)
        assert kept == exhaustive_total(m, "group")
        assert len(triples) - kept == {3: 42, 4: 720}[m]

    @pytest.mark.parametrize("m", [3, 4])
    def test_symmetric_conjugates_give_the_field_classes(self, m):
        # A group spec whose R is a polynomial in B is valid, but it is the
        # field set of B over again: its classes match, and three bases factor.
        pairs = [(B, R) for B, R, _ in self.conjugates(m) if B.is_symmetric()]
        assert pairs
        for B, R in pairs:
            spec = StabilizerSpec("group", m, B, R, BitMatrix.zero(m))
            spec.validate()
            gens = generators(spec)
            assert classes_equal(gens, generators(StabilizerSpec.field(B)))
            assert entanglement_vector(gens).counts[0] == 3

    def test_verdict_and_addend_are_functions_of_b(self):
        # The coset lemma behind the search's per-B cache: B(u) = B(u') iff
        # u' = u q with q in F2[B0]*, and then R' = p(B) R, so the verdict on
        # (B, R) and the addend depend on B alone.
        m = 4
        decided = {}
        for B, R, poly in self.conjugates(m):
            decided.setdefault(B, []).append((poly, find_addend(B, R)))
        assert len(decided) == general_linear_order(m) // (2**m - 1)
        for outcomes in decided.values():
            assert len(outcomes) == 2**m - 1
            assert len(set(outcomes)) == 1

    @pytest.mark.parametrize("kind", ["group", "semigroup"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_search_matches_oracle(self, kind, m):
        # Whole streams: the first repeated B at m = 4 comes after spec 150.
        assert list(search_specs(m, kind, None)) == search_specs_oracle(m, kind, 1 << 20)

    def test_seeded_search_past_the_cache_bound(self, monkeypatch):
        # 5,000 specs against the per-u oracle: at the real cap each
        # distinct B costs one find_addend call, and with the exhaustive
        # cap below m = 4 no table is kept, so B are decided again.
        expected = search_specs_oracle(4, "semigroup", 5000, 5)
        distinct = len({spec.B for spec in expected})
        calls = []

        def counting(B, R):
            calls.append(B)
            return find_addend(B, R)

        monkeypatch.setattr(search, "find_addend", counting)
        assert list(search_specs(4, "semigroup", 5000, seed=5)) == expected
        assert len(calls) == distinct
        calls.clear()
        monkeypatch.setattr(search, "EXHAUSTIVE_CONJ_CAP", 3)
        assert list(search_specs(4, "semigroup", 5000, seed=5)) == expected
        assert len(calls) > distinct

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["group", "semigroup"]),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
    )
    def test_random_search_matches_oracle(self, kind, m, seed, count):
        assert list(search_specs(m, kind, count, seed=seed)) == search_specs_oracle(
            m, kind, count, seed
        )


class TestConjugators:
    """Row-by-row GL(m, 2) and its coset keys against decoding, rank tests and dense products."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def anchor(m):
        """The field-kind B0 of the exhaustive search, or a seeded one above its cap."""
        seed = None if m <= search.EXHAUSTIVE_CAP else 1
        return next(search_specs(m, "field", seed=seed)).B

    @classmethod
    def matrices(cls, m, seed):
        return [BitMatrix(m, m, u) for u, _, _ in _iter_conjugators(m, cls.anchor(m).data, seed)]

    @staticmethod
    def conjugate(u, b0):
        """B = u B0 u^-1 by dense products and Gauss-Jordan."""
        return mat_mul(mat_mul(u, b0), echelon_inverse(u))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_matches_scan(self, m):
        fast = self.matrices(m, None)
        assert fast == list(iter_conjugators_scan(m, None))
        assert len(fast) == len(set(fast)) == general_linear_order(m)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_random_matches_scan(self, m, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "MAX_ATTEMPTS", 200)
            assert self.matrices(m, seed) == list(iter_conjugators_scan(m, seed))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_conjugates(self, m):
        # Over every u, two share a key iff their B = u B0 u^-1 are equal,
        # and a gram iff their R = u u^t are, by dense products.  The keys
        # name the |GL(m, 2)| / (2^m - 1) cosets u F2[B0]*: 1,344 at m = 4.
        b0 = self.anchor(m)
        by_key, by_gram = {}, {}
        for u, key, gram in _iter_conjugators(m, b0.data, None):
            u = BitMatrix(m, m, u)
            by_key.setdefault(key, set()).add(self.conjugate(u, b0))
            by_gram.setdefault(gram, set()).add(mat_mul(u, u.transpose()))
        for table in (by_key, by_gram):
            assert all(len(values) == 1 for values in table.values())
            assert len(set().union(*table.values())) == len(table)
        assert len(by_key) == general_linear_order(m) // (2**m - 1)
        assert len(by_key) == {1: 1, 2: 2, 3: 24, 4: 1344}[m]

    @pytest.mark.parametrize("m", [8, 16])
    def test_random_conjugates(self, m):
        # Above the cap the seeded walk keys nothing, and each group spec
        # takes B = u B0 u^-1 and R = u u^t of the next u whose B is not
        # symmetric, as dense products give them.
        b0 = next(search_specs(m, "field", seed=_derived_seed(m, 0xA5))).B
        triples = list(itertools.islice(_iter_conjugators(m, b0.data, m), 200))
        assert len(triples) == 200
        assert all(key is None and gram is None for _, key, gram in triples)
        expected = []
        for u, _, _ in triples:
            u = BitMatrix(m, m, u)
            B = self.conjugate(u, b0)
            if not B.is_symmetric():
                R = mat_mul(u, u.transpose())
                expected.append(StabilizerSpec("group", m, B, R, BitMatrix.zero(m)))
        assert len(expected) >= 3
        assert list(search_specs(m, "group", 3, seed=m)) == expected[:3]

    @pytest.mark.parametrize("kind", ["group", "semigroup"])
    def test_exhaustive_walk_takes_products_per_coset(self, monkeypatch, kind):
        # The m = 4 walk takes products for the table N (18), for B on the
        # first visit of each of the 1,344 keys (2 each), for R on the first
        # visit of each gram (1 each), and in find_addend for each of the
        # 1,296 distinct B (3 each): a bound per coset, not per u.
        calls = []
        mul_rows = search._mul_rows

        def counting(lhs, rhs):
            calls.append(1)
            return mul_rows(lhs, rhs)

        monkeypatch.setattr(search, "_mul_rows", counting)
        assert sum(1 for _ in search_specs(4, kind, None)) == exhaustive_total(4, kind)
        cosets = general_linear_order(4) // 15
        assert 0 < len(calls) <= 6 * cosets < exhaustive_total(4, kind)

    @pytest.mark.parametrize("m, stored", [(4, True), (5, False), (6, False)])
    def test_coset_tables_only_where_cosets_repeat(self, m, stored):
        # The seeded walk keys u up to EXHAUSTIVE_CONJ_CAP = 4, where it meets
        # 1,344 cosets; m = 5 has 322,560 and m = 6 has 319,979,520, and there
        # every key is None, so no table keeps anything.  Where there are
        # keys, two of the first 300 u share one iff their B are equal.
        b0 = self.anchor(m)
        triples = list(itertools.islice(_iter_conjugators(m, b0.data, 5), 300))
        assert len(triples) == 300
        assert all(gram is None for _, _, gram in triples)
        keys = [key for _, key, _ in triples]
        assert {key is None for key in keys} == {not stored}
        if stored:
            conjugates = [self.conjugate(BitMatrix(m, m, u), b0) for u, _, _ in triples]
            assert len(set(zip(keys, conjugates))) == len(set(keys)) == len(set(conjugates))
            assert len(set(keys)) < len(keys)


class TestSearch:
    def test_single_qubit_unique(self):
        assert [s.B for s in search_specs(1, "field", None)] == [B1]

    def test_two_qubit_includes_companion(self):
        hits = [s.B for s in search_specs(2, "field", None)]
        assert B2 in hits
        assert all(char_poly(b) == 0b111 for b in hits)  # x^2 + x + 1

    def test_three_qubit_char_polys(self):
        hits = [s.B for s in search_specs(3, "field", None)]
        assert hits
        target = 0b1011  # x^3 + x + 1, never x^3 + x^2 + 1
        assert all(char_poly(b) == target for b in hits)
        assert all(b.is_symmetric() for b in hits)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="capped at m = 6; pass a seed"):
            search_specs(7, "field")

    @pytest.mark.parametrize("kind", KINDS)
    def test_exhaustive_cap_raised_before_any_scan(self, monkeypatch, kind):
        def no_scan(*_args):
            raise AssertionError("_field_hits ran above the cap")

        monkeypatch.setattr(search, "_field_hits", no_scan)
        cap = search.EXHAUSTIVE_CAP if kind == "field" else search.EXHAUSTIVE_CONJ_CAP
        message = f"^exhaustive {kind} search is capped at m = {cap}; pass a seed$"
        with pytest.raises(ValueError, match=message):
            search_specs(cap + 1, kind)

    def test_exhaustive_conjugator_cap(self):
        # m = 5 is within the field cap; search_specs checks the conjugator cap.
        with pytest.raises(ValueError, match="capped at m = 4; pass a seed"):
            search_specs(5, "semigroup", 1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [None, 3])
    def test_count_zero_yields_nothing(self, kind, seed):
        assert list(search_specs(4, kind, 0, seed=seed)) == []

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count_rejected(self, kind, count):
        with pytest.raises(ValueError, match=f"^count = {count} is negative$"):
            search_specs(4, kind, count)

    def test_m_outside_range_rejected(self):
        for m in (0, 17):
            with pytest.raises(ValueError, match=f"m = {m} outside 1..16"):
                search_specs(m, "field", seed=1)

    @pytest.mark.parametrize("seed", [None, 3])
    def test_unknown_kind_rejected(self, seed):
        with pytest.raises(ValueError, match="^unknown kind 'nope'$"):
            search_specs(4, "nope", seed=seed)

    def test_random_deterministic(self):
        a = list(search_specs(5, "field", 3, seed=42))
        b = list(search_specs(5, "field", 3, seed=42))
        assert a == b
        assert len(a) == 3
        for spec in a:
            spec.validate()

    def test_group_search_empty_small_m(self):
        assert list(search_specs(1, "group", 5)) == []
        assert list(search_specs(2, "group", 5)) == []

    def test_semigroup_search_empty_at_three_qubits(self):
        assert list(search_specs(3, "semigroup", 5)) == []

    @pytest.mark.parametrize("kind", ["group", "semigroup"])
    def test_full_four_qubit_search_count(self, kind):
        # 20,160 conjugators less the 720 whose B = u B0 u^-1 is symmetric.
        lines = [s.to_json() for s in search_specs(4, kind, None)]
        assert len(lines) == len(set(lines)) == exhaustive_total(4, kind)

    @pytest.mark.parametrize("kind, m", [("field", m) for m in range(1, 6)] + [("group", 3)])
    def test_exhaustive_total_matches_closed_form(self, kind, m):
        assert sum(1 for _ in search_specs(m, kind, None)) == exhaustive_total(m, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_search_exhausts_small_spaces(self, kind, m, seed):
        # At m <= 3 every B index and every u pattern is drawn well within
        # MAX_ATTEMPTS, so a seeded search ends with the exhaustive total.
        specs = list(search_specs(m, kind, None, seed=seed))
        assert len(specs) == len(set(specs)) == exhaustive_total(m, kind)
        for spec in specs:
            spec.validate()

    def test_emitted_specs_validate(self):
        for kind, m in (("field", 3), ("group", 3), ("group", 4), ("semigroup", 4)):
            specs = list(search_specs(m, kind, 2))
            assert specs
            for spec in specs:
                spec.validate()
                assert spec.kind == kind
                if kind != "field":
                    assert not is_polynomial_in(spec.B, spec.R)

    def test_random_spec_search_deterministic(self):
        a = [s.to_json() for s in search_specs(4, "semigroup", 3, seed=7)]
        b = [s.to_json() for s in search_specs(4, "semigroup", 3, seed=7)]
        assert a == b and len(a) == 3


class TestJson:
    def test_round_trip_all_kinds(self):
        for spec in (field_spec(2), group_spec(), semigroup_spec()):
            again = StabilizerSpec.from_json(spec.to_json())
            assert again == spec
            again.validate()

    def test_forced_blocks_omitted(self):
        d_field = json.loads(field_spec(2).to_json())
        assert set(d_field) == {"m", "kind", "B"}
        d_group = json.loads(group_spec().to_json())
        assert set(d_group) == {"m", "kind", "B", "R"}
        d_semi = json.loads(semigroup_spec().to_json())
        assert set(d_semi) == {"m", "kind", "B", "R", "A"}

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from((*KINDS, 'se"mi', "é", "")),
        m=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_to_json_matches_json_dumps(self, kind, m, seed):
        # The row-mask writer against the generic encoder of the wire dict,
        # built here from `to_lists`, on arbitrary (not necessarily valid)
        # matrices up to MAX_M, and kinds outside KINDS, which `to_json`
        # passes to json.dumps and writes with B alone.
        rng = random.Random(seed)
        B, R, A = (BitMatrix(m, m, [rng.getrandbits(m) for _ in range(m)]) for _ in range(3))
        spec = StabilizerSpec(kind, m, B, R, A)
        wire = {"m": m, "kind": kind, "B": B.to_lists()}
        if kind in ("group", "semigroup"):
            wire["R"] = R.to_lists()
        if kind == "semigroup":
            wire["A"] = A.to_lists()
        assert spec.to_json() == json.dumps(wire, separators=(",", ":"))
        assert spec.to_json_dict() == wire
