"""Entanglement classification and its agreement with the numeric oracle."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge.construct import (
    KINDS,
    GeneratorSet,
    StabilizerSpec,
    Z_BASIS,
    generators,
)
from mubforge.entangle import EntanglementVector, entanglement_vector, partitions_of
from mubforge.gf2 import BitMatrix, mat_mul
from mubforge.search import search_specs
from oracles import (
    class_eigenbasis,
    class_generators,
    offdiag_components,
    partition_of,
    schmidt_rank,
    standard_forms,
)


def field_spec(m):
    return next(iter(search_specs(m, "field", 1)))


class TestPartitions:
    def test_canonical_order_small(self):
        assert partitions_of(1) == ((1,),)
        assert partitions_of(2) == ((1, 1), (2,))
        assert partitions_of(3) == ((1, 1, 1), (2, 1), (3,))
        assert partitions_of(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))

    def test_counts_match_partition_numbers(self):
        lengths = [len(partitions_of(m)) for m in range(1, 9)]
        assert lengths == [1, 2, 3, 5, 7, 11, 15, 22]

    def test_first_is_all_ones_last_is_m(self):
        for m in range(1, 8):
            parts = partitions_of(m)
            assert parts[0] == (1,) * m
            assert parts[-1] == (m,)


class TestPartitionOf:
    def test_z_basis(self):
        assert partition_of(Z_BASIS, 4) == (1, 1, 1, 1)

    def test_identity_form(self):
        assert partition_of(BitMatrix.identity(3), 3) == (1, 1, 1)

    def test_two_qubit_coupling(self):
        B = BitMatrix.from_rows([[1, 1], [1, 0]])
        assert partition_of(B, 2) == (2,)
        assert partition_of(B + BitMatrix.identity(2), 2) == (2,)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            partition_of(BitMatrix.from_rows([[0, 1], [0, 0]]), 2)


class TestEntanglementVector:
    def test_single_qubit(self):
        ent = entanglement_vector(generators(field_spec(1)))
        assert ent.partitions == ((1,),)
        assert ent.counts == (3,)

    def test_two_qubit_field(self):
        ent = entanglement_vector(generators(field_spec(2)))
        assert ent.counts == (3, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_field_has_three_factorizable(self, m):
        assert entanglement_vector(generators(field_spec(m))).counts[0] == 3

    def test_group_has_two_factorizable(self):
        spec = next(iter(search_specs(3, "group", 1)))
        assert entanglement_vector(generators(spec)).counts[0] == 2

    def test_semigroup_has_one_factorizable(self):
        spec = next(iter(search_specs(4, "semigroup", 1)))
        assert entanglement_vector(generators(spec)).counts[0] == 1

    @pytest.mark.parametrize(
        "kind,m", [("field", 1), ("field", 2), ("field", 3), ("field", 4), ("group", 3), ("semigroup", 4)]
    )
    def test_counts_sum_to_d_plus_one(self, kind, m):
        spec = next(iter(search_specs(m, kind, 1)))
        ent = entanglement_vector(generators(spec))
        assert sum(ent.counts) == spec.d + 1

    def test_rejects_asymmetric_family(self):
        zero, eye = BitMatrix.zero(2), BitMatrix.identity(2)
        asym = BitMatrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            entanglement_vector(GeneratorSet(zero, (eye, asym)))
        with pytest.raises(ValueError, match="symmetric"):
            entanglement_vector(GeneratorSet(asym, (eye, zero)))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_form_oracle(self, kind, m, seed):
        # The Gray-code walk over A + span(basis) against one partition_of
        # per derived standard form.
        for spec in search_specs(m, kind, 1, seed=seed):
            gens = generators(spec)
            ent = entanglement_vector(gens)
            hist = Counter(partition_of(f, m) for f in standard_forms(gens))
            assert ent.counts == tuple(hist[p] for p in ent.partitions)

    def test_json_dict(self):
        ent = EntanglementVector(3, (3, 0, 6))
        assert ent.to_json_dict() == {
            "partitions": [[1, 1, 1], [2, 1], [3]],
            "counts": [3, 0, 6],
        }

    def test_relabeling_equivariance(self):
        rng = random.Random(17)
        for spec in (
            field_spec(3),
            next(iter(search_specs(3, "group", 1))),
            next(iter(search_specs(4, "semigroup", 1))),
        ):
            m = spec.m
            base = entanglement_vector(generators(spec)).counts
            for _ in range(3):
                perm = list(range(m))
                rng.shuffle(perm)
                P = BitMatrix(m, m, (1 << perm[i] for i in range(m)))
                Pt = P.transpose()
                conj = StabilizerSpec(
                    spec.kind,
                    m,
                    mat_mul(mat_mul(P, spec.B), Pt),
                    mat_mul(mat_mul(P, spec.R), Pt),
                    mat_mul(mat_mul(P, spec.A), Pt),
                )
                conj.validate()
                assert entanglement_vector(generators(conj)).counts == base


class TestOracleAgreement:
    """Graph-component partitions versus Schmidt ranks of actual eigenvectors."""

    @pytest.mark.parametrize(
        "kind,m", [("field", 1), ("field", 2), ("field", 3), ("group", 3)]
    )
    def test_partition_valid_and_minimal(self, kind, m):
        spec = next(iter(search_specs(m, kind, 1)))
        gens = generators(spec)
        for gen, form in zip(class_generators(gens), standard_forms(gens)):
            partition_sizes = partition_of(form, m)
            # Reconstruct the actual blocks (not just their sizes).
            if form is Z_BASIS or not isinstance(form, BitMatrix):
                blocks = [(q,) for q in range(m)]
            else:
                blocks = offdiag_components(form)
            assert tuple(sorted((len(b) for b in blocks), reverse=True)) == partition_sizes
            basis = class_eigenbasis(gen)
            d = 1 << m
            for col in range(d):
                vec = basis[:, col]
                for block in blocks:
                    if len(block) == m:
                        continue
                    assert schmidt_rank(vec, list(block)) == 1
            # Minimality: splitting any qubit off a bigger block entangles
            # at least one eigenvector across that cut.
            for block in blocks:
                if len(block) < 2:
                    continue
                for q in block:
                    ranks = [
                        schmidt_rank(basis[:, col], [q]) for col in range(d)
                    ]
                    assert max(ranks) >= 2
