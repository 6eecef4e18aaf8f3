"""Numeric tier: powers of the cyclic generator U, against the eigenbasis oracles.

Dense Pauli matrices, commutation, class eigenbases, the full d x d powers
of U and Schmidt ranks are oracles (`tests/oracles.py`), tested here too.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge.backend import decode_symmetric
from mubforge.construct import (
    SpecValidationError,
    StabilizerSpec,
    build_stabilizer,
    generators,
)
from mubforge import pauli
from mubforge.gf2 import BitMatrix, vstack
from mubforge.search import search_specs
from mubforge.pauli import NUMERIC_QUBIT_CAP, verify_mub
import oracles
from oracles import (
    ORACLE_QUBIT_CAP,
    PauliLabel,
    class_eigenbasis,
    class_generators,
    class_labels,
    dense_class_eigenbasis,
    generator_powers,
    mub_from_generators,
    orbit_forms,
    pauli_matrix,
    schmidt_rank,
    standard_forms,
    symplectic_product,
    verify_bases,
    verify_powers,
)


KINDS = ["field", "group", "semigroup"]


def field_gens(m):
    return generators(next(iter(search_specs(m, "field", 1))))


class TestPauliMatrix:
    def test_single_qubit_z(self):
        np.testing.assert_allclose(
            pauli_matrix(PauliLabel(1, z=1, x=0)), np.diag([1.0, -1.0])
        )

    def test_single_qubit_y(self):
        np.testing.assert_allclose(
            pauli_matrix(PauliLabel(1, z=1, x=1)), np.array([[0, -1j], [1j, 0]])
        )

    def test_identity_label(self):
        np.testing.assert_allclose(pauli_matrix(PauliLabel(2, 0, 0)), np.eye(4))

    def test_qubit_zero_is_leftmost_factor(self):
        zi = pauli_matrix(PauliLabel(2, z=0b01, x=0))  # Z on qubit 0
        np.testing.assert_allclose(zi, np.diag([1.0, 1.0, -1.0, -1.0]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hermitian_unitary_exhaustive(self, m):
        d = 1 << m
        for packed in range(1 << (2 * m)):
            p = pauli_matrix(PauliLabel.from_bits(m, packed))
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            np.testing.assert_allclose(p @ p.conj().T, np.eye(d), atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            pauli_matrix(PauliLabel(7, 0, 0))


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        assert symplectic_product(PauliLabel(1, 1, 0), PauliLabel(1, 0, 1)) == 1

    def test_self_product_vanishes(self):
        a = PauliLabel(2, 0b10, 0b01)
        assert symplectic_product(a, a) == 0

    def test_disjoint_sites_commute(self):
        assert symplectic_product(PauliLabel(2, 0b01, 0), PauliLabel(2, 0b10, 0b10)) == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_commutation_law_exhaustive(self, m):
        labels = [PauliLabel.from_bits(m, packed) for packed in range(1 << (2 * m))]
        mats = [pauli_matrix(a) for a in labels]
        for (a, pa), (b, pb) in itertools.product(zip(labels, mats), repeat=2):
            sign = -1.0 if symplectic_product(a, b) else 1.0
            np.testing.assert_allclose(pa @ pb, sign * (pb @ pa), atol=1e-12)

    def test_commutation_law_sampled_m4(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            pa, pb = (int(rng.integers(0, 1 << 8)) for _ in range(2))
            a, b = PauliLabel.from_bits(4, pa), PauliLabel.from_bits(4, pb)
            sign = -1.0 if symplectic_product(a, b) else 1.0
            ma, mb = pauli_matrix(a), pauli_matrix(b)
            np.testing.assert_allclose(ma @ mb, sign * (mb @ ma), atol=1e-12)


class TestClassEigenbasis:
    def test_z_class_gives_identity(self):
        gen = vstack(BitMatrix.identity(1), BitMatrix.zero(1))
        np.testing.assert_allclose(class_eigenbasis(gen), np.eye(2), atol=1e-12)

    def test_x_class_gives_hadamard_columns(self):
        gen = vstack(BitMatrix.zero(1), BitMatrix.identity(1))
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(class_eigenbasis(gen), expected, atol=1e-12)

    def test_y_class_columns(self):
        gen = vstack(BitMatrix.identity(1), BitMatrix.identity(1))
        expected = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
        np.testing.assert_allclose(class_eigenbasis(gen), expected, atol=1e-12)

    def test_rejects_noncommuting(self):
        gen = BitMatrix.from_rows([[1, 0], [0, 0], [0, 1], [0, 1]])  # Z1, X1 Y2-ish
        with pytest.raises(ValueError, match="commute"):
            class_eigenbasis(gen)

    def test_rejects_dependent(self):
        gen = BitMatrix.from_rows([[1, 1], [0, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError, match="dependent"):
            class_eigenbasis(gen)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_diagonalizes_all_class_operators(self, m):
        gens = field_gens(m)
        for gen in class_generators(gens):
            basis = class_eigenbasis(gen)
            for packed in class_labels(gen):
                op = pauli_matrix(PauliLabel.from_bits(m, packed))
                conj = basis.conj().T @ op @ basis
                off = conj - np.diag(np.diag(conj))
                assert np.max(np.abs(off)) <= 1e-10

    def test_deterministic(self):
        gens = field_gens(2)
        first = [class_eigenbasis(g) for g in class_generators(gens)]
        second = [class_eigenbasis(g) for g in class_generators(gens)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        m=st.integers(1, ORACLE_QUBIT_CAP - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_projector_oracle(self, kind, m, seed):
        # Exact dyadic arithmetic on both sides: equal bit for bit, not up to a tolerance.
        for spec in search_specs(m, kind, 1, seed=seed):
            for gen in class_generators(generators(spec)):
                assert np.array_equal(class_eigenbasis(gen), dense_class_eigenbasis(gen))

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_projector_oracle_at_cap(self, kind):
        # About 3.5 s per set for the dense oracle.
        spec = next(iter(search_specs(ORACLE_QUBIT_CAP, kind, 1, seed=1)))
        for gen in class_generators(generators(spec)):
            assert np.array_equal(class_eigenbasis(gen), dense_class_eigenbasis(gen))

    def test_cap_at_seven_qubits(self):
        gen = vstack(BitMatrix.identity(7), BitMatrix.zero(7))
        with pytest.raises(ValueError, match=f"capped at m = {ORACLE_QUBIT_CAP}"):
            class_eigenbasis(gen)

    def test_cap_at_sixteen_qubits_allocates_nothing(self):
        # A 2^16 x 2^16 complex basis would take 64 GiB, and the 2^16 + 1
        # generators are not derived either.
        gens = generators(next(iter(search_specs(16, "field", 1, seed=1))))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"capped at m = {ORACLE_QUBIT_CAP}.*m = 16"):
                mub_from_generators(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestVerifyMub:
    """`pauli.verify_mub` on the powers of U, and the all-pairs oracle on the eigenbases."""

    def test_single_qubit_exact(self):
        spec = next(search_specs(1, "field"))
        for result in (verify_mub(spec, tol=1e-12),
                       verify_bases(mub_from_generators(generators(spec)), tol=1e-12)):
            assert result.passed and result.max_deviation <= 1e-12

    def test_duplicate_basis_fails(self):
        bases = mub_from_generators(field_gens(1))
        bad = bases + [bases[0]]
        result = verify_bases(bad, tol=1e-10)
        assert not result.passed
        assert result.max_deviation == pytest.approx(1.0 - 0.5, abs=1e-12)
        assert result.worst_pair == (0, 3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_field_sets_pass(self, m):
        spec = next(search_specs(m, "field"))
        assert verify_mub(spec, tol=1e-10).passed
        assert verify_bases(mub_from_generators(generators(spec)), tol=1e-10).passed

    @pytest.mark.parametrize(
        "kind,m,seed",
        [
            pytest.param("group", 4, None, id="group-4-exhaustive-None"),
            pytest.param("group", 5, 3, id="group-5-random-3"),
            pytest.param("semigroup", 4, None, id="semigroup-4-exhaustive-None"),
            pytest.param("semigroup", 5, 3, id="semigroup-5-random-3"),
        ],
    )
    def test_constructed_sets_pass(self, kind, m, seed):
        spec = next(search_specs(m, kind, seed=seed))
        assert verify_mub(spec, tol=1e-10).passed
        assert verify_bases(mub_from_generators(generators(spec)), tol=1e-10).passed

    def test_non_unitary_circuit_fails(self, monkeypatch):
        # Entries 0 and 1 of U v both read entry src[0]: U is singular.
        layers = pauli._generator_layers

        def collide(spec):
            pre, post, src = layers(spec)
            return pre, post, [src[0], *src[:-1]]

        monkeypatch.setattr(pauli, "_generator_layers", collide)
        result = verify_mub(next(search_specs(2, "field")))
        assert result.unitarity_deviation > 0.1
        assert not result.passed

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_at_eight_qubits(self, kind):
        # Even m: the scale 2^-4 and every entry of every power are exact.
        spec = next(search_specs(8, kind, seed=1))
        result = verify_mub(spec)
        assert result.passed
        assert result.max_deviation == 0.0


class TestQuadraticPhase:
    """One popcount sum per index gives the Z4 form of the numpy layer oracle."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_oracle_on_symmetric_matrices(self, m):
        bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        npairs = m * (m + 1) // 2
        rng = random.Random(m)
        keys = range(1 << npairs) if npairs <= 10 else rng.sample(range(1 << npairs), 300)
        for k in keys:
            S = BitMatrix(m, m, decode_symmetric(m, k))
            assert pauli._quadratic_phase(S) == list(oracles._quadratic_phase(S, bits)), k


def _same_verdict(spec):
    """verify_mub and the full-matrix oracle agree bit for bit on the verdict."""
    fast, full = verify_mub(spec), verify_powers(spec)
    assert (fast.max_deviation, fast.passed, fast.worst_pair) == (
        full.max_deviation, full.passed, full.worst_pair
    ), spec
    assert fast.unitarity_deviation <= 1e-14 and full.unitarity_deviation <= 1e-14


class TestColumnReduction:
    """Column 0 of each power against every entry of the full d x d powers."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_symmetric_b(self, m):
        # Valid and invalid field specs alike: 1,024 candidates at m = 4.
        for k in range(1 << (m * (m + 1) // 2)):
            _same_verdict(StabilizerSpec.field(BitMatrix(m, m, decode_symmetric(m, k))))

    @pytest.mark.parametrize("m", [5, 6, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_specs(self, kind, m):
        for seed in (1, 2):
            for spec in search_specs(m, kind, 1, seed=seed):
                _same_verdict(spec)


def _same_basis(a, b):
    """True iff the columns of a and b agree up to phase and order."""
    overlaps = np.abs(a.conj().T @ b) ** 2
    perm = overlaps > 0.5
    return (
        bool(np.all(perm.sum(axis=0) == 1) and np.all(perm.sum(axis=1) == 1))
        and np.max(np.abs(overlaps - perm)) <= 1e-10
    )


class TestGeneratorPowers:
    """The powers of U against the symbolic classes and against `validate`."""

    @pytest.mark.parametrize(
        "kind,m", [("field", 1), ("field", 2), ("field", 3), ("field", 4),
                   ("group", 3), ("group", 4), ("semigroup", 4)]
    )
    def test_powers_are_class_eigenbases(self, kind, m):
        # U^j diagonalizes the class C^j (I; 0), for j = 0..d + 1.
        spec = next(search_specs(m, kind))
        d = spec.d
        gens = generators(spec)
        forms = standard_forms(gens)
        bases = mub_from_generators(gens)
        orbit = orbit_forms(build_stabilizer(spec), d)
        powers = [np.eye(d, dtype=complex), *generator_powers(spec, d + 1)]
        matched = []
        for j, power in enumerate(powers):
            hits = [k for k, basis in enumerate(bases) if _same_basis(basis, power)]
            assert len(hits) == 1, (j, hits)
            assert forms[hits[0]] == orbit[j % (d + 1)]
            matched.append(hits[0])
        assert len(set(matched[: d + 1])) == d + 1
        assert matched[d + 1] == matched[0]

    @pytest.mark.parametrize("m", [3, 4])
    def test_field_check_agrees_with_validate(self, m):
        # Every symmetric B: 64 candidates at m = 3, 1,024 at m = 4.
        valid = 0
        for k in range(1 << (m * (m + 1) // 2)):
            spec = StabilizerSpec.field(BitMatrix(m, m, decode_symmetric(m, k)))
            try:
                spec.validate()
            except SpecValidationError:
                ok = False
            else:
                ok = True
            valid += ok
            assert verify_mub(spec).passed is ok, k
        assert valid == len(list(search_specs(m, "field", None)))

    def test_cap_at_sixteen_qubits_allocates_nothing(self):
        # A 2^16 x 2^16 complex matrix would take 64 GiB.
        spec = next(search_specs(16, "field", seed=1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"capped at m = {NUMERIC_QUBIT_CAP}.*m = 16"):
                verify_mub(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSchmidtRank:
    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0  # |00>
        assert schmidt_rank(v, [0]) == 1

    def test_bell_state(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert schmidt_rank(v, [0]) == 2

    def test_ghz_block(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        assert schmidt_rank(v, [0, 1]) == 2
        assert schmidt_rank(v, [2]) == 2

    def test_w_state_rank(self):
        v = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3)
        assert schmidt_rank(v, [0]) == 2

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            schmidt_rank(np.ones(4) / 2.0, [])
        with pytest.raises(ValueError):
            schmidt_rank(np.ones(4) / 2.0, [5])
