"""The bit-sliced scan kernel against a scalar Horner oracle, and golden search output."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge import backend, cli, search
from mubforge.gf2 import BitMatrix, char_poly
from mubforge.poly2 import fibonacci_index, stabilizer_char_polys
from oracles import decode_symmetric, encode_symmetric, exhaustive_total


def annihilates(rows, poly, m):
    """True iff p(B) = 0, by Horner's rule on the whole matrix."""
    deg = poly.bit_length() - 1
    acc = [1 << i for i in range(m)]
    for bit in range(deg - 1, -1, -1):
        nxt = []
        for i in range(m):
            r = acc[i]
            v = 0
            while r:
                low = r & -r
                v ^= rows[low.bit_length() - 1]
                r ^= low
            nxt.append(v)
        if (poly >> bit) & 1:
            for i in range(m):
                nxt[i] ^= 1 << i
        acc = nxt
    return all(v == 0 for v in acc)


def horner_scan(m, good_polys, start, stop):
    """Oracle: candidates in [start, stop) annihilated by some good poly."""
    return [
        k
        for k in range(start, stop)
        if any(annihilates(decode_symmetric(m, k), p, m) for p in good_polys)
    ]


class TestEncoding:
    def test_decode_encode_round_trip(self):
        rng = random.Random(3)
        for m in (1, 2, 3, 5, 12):
            n = m * (m + 1) // 2
            for _ in range(20):
                k = rng.getrandbits(n)
                rows = backend.decode_symmetric(m, k)
                assert encode_symmetric(m, rows) == k
                mat_sym = all(
                    ((rows[i] >> j) & 1) == ((rows[j] >> i) & 1)
                    for i in range(m)
                    for j in range(m)
                )
                assert mat_sym

    def test_lexicographic_encoding(self):
        # k = 0 is the zero matrix; the top bit is entry (0, 0).
        m = 2
        assert backend.decode_symmetric(m, 0) == (0, 0)
        n = m * (m + 1) // 2
        assert backend.decode_symmetric(m, 1 << (n - 1)) == (1, 0)  # only (0,0) set


class TestScan:
    def test_scan_single_qubit(self):
        assert backend.scan_symmetric(1, stabilizer_char_polys(1), 0, 2) == [1]

    def test_scan_finds_valid_matrices(self):
        m = 3
        hits = backend.scan_symmetric(m, stabilizer_char_polys(m), 0, 1 << 6)
        assert hits
        for k in hits:
            B = BitMatrix(m, m, backend.decode_symmetric(m, k))
            assert fibonacci_index(char_poly(B)) == (1 << m) + 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_full_space_matches_oracle(self, m):
        # _field_hits walks the blocks (four of them at m = 5).
        total = 1 << (m * (m + 1) // 2)
        polys = stabilizer_char_polys(m)
        assert list(search._field_hits(m, None)) == horner_scan(m, polys, 0, total)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.sampled_from([5, 6]))
    def test_unaligned_slices_match_oracle(self, data, m):
        # A slice of one block: stop is at most the end of start's block.
        total = 1 << (m * (m + 1) // 2)
        block = 1 << backend.BLOCK_BITS
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, min(start + 400, start // block * block + block)))
        polys = stabilizer_char_polys(m)
        assert backend.scan_symmetric(m, polys, start, stop) == horner_scan(m, polys, start, stop)

    @pytest.mark.parametrize("m", [6, 12])
    def test_slice_across_a_block_boundary(self, m):
        # The slices on each side of a block boundary, concatenated.  At
        # m = 12 the index has 78 bits, beyond one machine word; the oracle
        # there is the characteristic polynomial itself.
        block = 1 << backend.BLOCK_BITS
        boundary = random.Random(m).getrandbits(m * (m + 1) // 2) // block * block + block
        start = boundary - 300
        polys = stabilizer_char_polys(m)
        expected = [
            k
            for k in range(start, start + 600)
            if char_poly(BitMatrix(m, m, backend.decode_symmetric(m, k))) in polys
        ]
        assert expected
        below = backend.scan_symmetric(m, polys, start, boundary)
        above = backend.scan_symmetric(m, polys, boundary, start + 600)
        assert below + above == expected

    def test_full_six_qubit_space_is_pinned(self):
        # The one full space no oracle test covers: its 2^21 candidates give
        # |stabilizer_char_polys(6)| |O(6)| = 92,160 hits, hashed as
        # comma-separated indices with the earlier numpy kernel.
        hits = list(search._field_hits(6, None))
        assert len(hits) == exhaustive_total(6, "field")
        digest = hashlib.sha256(",".join(map(str, hits)).encode()).hexdigest()
        assert digest == "58d9d48683e254a26986e5d0c0e4fa7b330c39ee22dc187fc1309da9d87b0d3c"


class TestDecodeHits:
    """The table decoder `backend.decode_symmetric` against the oracle bit loop."""

    @pytest.mark.parametrize("m, limit", [(1, None), (2, None), (3, None), (4, None),
                                          (5, None), (6, 3000)])
    def test_scan_hits_match_scalar_decoder(self, m, limit):
        # Every hit of the full scans at m <= 5, and the first 3,000 at m = 6.
        hits = list(itertools.islice(search._field_hits(m, None), limit))
        assert len(hits) == (exhaustive_total(m, "field") if limit is None else limit)
        assert [backend.decode_symmetric(m, k) for k in hits] == [
            decode_symmetric(m, k) for k in hits]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(1, 16))
    def test_any_index_sequence_matches_scalar_decoder(self, data, m):
        # Seeded search hands over one index at a time, from any block and in
        # any order, up to MAX_M: indices near one another, and anywhere.
        n = m * (m + 1) // 2
        near = data.draw(st.integers(0, (1 << n) - 1))
        index = st.one_of(st.integers(0, (1 << n) - 1),
                          st.integers(max(0, near - 300), min((1 << n) - 1, near + 300)))
        hits = data.draw(st.lists(index, max_size=30))
        assert [backend.decode_symmetric(m, k) for k in hits] == [
            decode_symmetric(m, k) for k in hits]


# sha256 of `mubforge search --m M --kind KIND --exhaustive --count COUNT`,
# recorded with the earlier pure-Python scan kernel.
ALL = 1 << 20  # above every exhaustive total
GOLDEN_SHA256 = {
    ("field", 1, ALL): "3e2ad2734be76087ddc2c6d6be7e4d3367a0a28cb0266eb6ee3a5ae998ebf1fa",
    ("field", 2, ALL): "0e4b6b55cccea06617c83bc1be9e4c832366e3f68f333b7df15ca04c48d3d51d",
    ("field", 3, ALL): "293232602ebc0cb8f7dca4dfafbaef01f371f0b4021185c7379d1febc4cca106",
    ("field", 4, ALL): "5636df41d6ef1fcc15b81b0b7c9b3f6f581b6af08c3fc69c2d827b272285fa57",
    ("field", 5, ALL): "abfdf88f5e7597afaa9f0e21f42c417da434140604e45ae4a14468619602be0e",
    ("field", 6, 3000): "c3657bbb6f8c298bb50ddabb107ed35a1403c41d6672c6aba8f1b108c3613b12",
    ("group", 1, ALL): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("group", 2, ALL): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("group", 3, ALL): "a3dcc41f5315e6c4074cdaa66ee3b35a98fe491fd0d73c89d00df40a799cb400",
    ("group", 4, ALL): "9d2120acb3d86ca4189dfdb747f066a9274d6d991ba781524cc36707e1188041",
    ("semigroup", 1, ALL): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("semigroup", 2, ALL): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("semigroup", 3, ALL): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("semigroup", 4, ALL): "cb4754d2f667822e4cfa20fbf7cacaff17e3904846b98746a6ab079c08ff2400",
}


@pytest.mark.parametrize("kind,m,count", sorted(GOLDEN_SHA256))
def test_exhaustive_search_output_is_byte_identical(tmp_path, kind, m, count):
    out = tmp_path / "specs.jsonl"
    argv = ["search", "--m", str(m), "--kind", kind, "--exhaustive", "--count", str(count)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[kind, m, count]
