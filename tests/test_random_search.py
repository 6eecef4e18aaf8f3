"""Random search: golden output streams and the per-sample admissibility test."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge import backend, cli, poly2, search
from mubforge.gf2 import BitMatrix, char_poly

# sha256 of `mubforge search --m M --kind KIND --seed S --count 2`, recorded
# with the earlier search that tested each sample against the full table of
# admissible characteristic polynomials.
GOLDEN_SHA256 = {
    ("field", 8, 1): "0e6abfffcb98f22b5a95f7766eadaa3e85ad7c27dfad136e6c9baf3b3dbef304",
    ("field", 8, 2): "eb6918169aa01104882d116d435779dc665e9db61d1370a27139830355738b4e",
    ("field", 12, 1): "f731be0c503349305fe13f75cc8a829e769a550288ae0991c140c2c05ff98f9f",
    ("field", 12, 2): "563c749271e665f1dfa6263e729d3e0c75bd32cb86dcdbd91c05141369608d3a",
    ("field", 16, 1): "af07643bb5b367067b81ff26403147d655914231ab6ec168312033054b6a933c",
    ("field", 16, 2): "cca75fd5cbfd4f5f3dfe976157f5db1021d34f3af9ee0ac61bb62fdb484ffdd2",
    ("group", 8, 1): "7ac72fcf741d32f34e8d28327116dd30bc5e1b0649090e9e70194cc36b6ed0a3",
    ("group", 8, 2): "59a7b7bbe43c6b8ebfbf15fb9c3aa5db38f02e2d4841a0e605de7f10f6215f6b",
    ("group", 12, 1): "5b2609dbecf5faf278a7bf81b9f67609134735f1cce5424829bc819e4b179eea",
    ("group", 12, 2): "486ded5d1f652dc0b6367f9d9bffa440af7cc46670c6588808e3811d4ea5bdb0",
    ("group", 16, 1): "db281c8ca1a66f6ae515ca052195ddca647524cba47fe27626baecd9df578fa5",
    ("group", 16, 2): "6cd5afbfd93444680b91a0f6c55b5c5ee074bc58c6c61aba7bf7be9821611019",
    ("semigroup", 8, 1): "d833d5256be012bf5d48cde10fb001d0938feeca76697188639651e645a1f6a4",
    ("semigroup", 8, 2): "69ff4aae6623631c430e4ddc579177dbf32eb8c41ff27f2d721502752dec1604",
    ("semigroup", 12, 1): "172297a193f74b13034e8faadd2e2ab8ccc13929f6654b2883c0aeed03e605b8",
    ("semigroup", 12, 2): "dd93a302f38bd1dc40700a5ec9252af416867a24a2ed6a7bf5bae25a33a9b5ef",
    ("semigroup", 16, 1): "e86f316cfaf035c6e8632b43afd53e794e67b291b75c66719d23d61873b50626",
    ("semigroup", 16, 2): "3d42eab925eea75bb84e3bcf420d81c2a34713f6b0d806bdda8f0d12919ba570",
}


@pytest.mark.parametrize("kind,m,seed", sorted(GOLDEN_SHA256))
def test_search_output_is_byte_identical(tmp_path, kind, m, seed):
    out = tmp_path / "specs.jsonl"
    argv = ["search", "--m", str(m), "--kind", kind, "--seed", str(seed), "--count", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[kind, m, seed]


def test_group_search_with_repeated_draws_is_byte_identical(tmp_path):
    # All 126 group specs at m = 3; random mode draws many conjugators twice.
    # sha256 recorded when duplicates were filtered by their JSON line.
    out = tmp_path / "specs.jsonl"
    argv = ["search", "--m", "3", "--kind", "group", "--seed", "1", "--count", "126"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "78de19dd960d4a9ece0befbc4932cd92a56ed59768fa4f4aaf13ded880970e44"
    )


def test_field_search_past_the_last_candidate_is_byte_identical(tmp_path):
    # All 6 field specs at m = 3 out of 64 candidates; `--count 100` asks for
    # more than exist.  sha256 recorded when the search drew all 2^18 attempts.
    out = tmp_path / "specs.jsonl"
    argv = ["search", "--m", "3", "--kind", "field", "--seed", "0", "--count", "100"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "0379d6d55ba86343d5141474a06d0343eb890d7cbd231e320cc0964025c771d3"
    )


def test_random_search_stops_once_every_candidate_is_drawn(monkeypatch):
    # At m = 2 there are 8 candidates: the search must stop at the draw that
    # completes them, not run on to MAX_ATTEMPTS.
    first_complete = 0
    seen = set()
    replay = random.Random(0)
    while len(seen) < 8:
        seen.add(replay.getrandbits(3))
        first_complete += 1
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", CountingRandom)
    hits = [s.B.data for s in search.search_specs(2, "field", None, seed=0)]
    assert sorted(hits) == sorted(s.B.data for s in search.search_specs(2, "field", None))
    assert len(draws) == first_complete


def test_conjugator_draws_stop_once_every_pattern_is_drawn(monkeypatch):
    # At m = 2 there are 16 bit patterns, 6 of them invertible: the draws of
    # u must run until all 16 are drawn, the same rule as the draws of B.
    # Under seed 5 the sixth invertible u comes at draw 40 and the sixteenth
    # pattern at draw 70, so stopping at |GL(2, 2)| would fail here.
    first_complete = 0
    seen = set()
    replay = random.Random(search._derived_seed(5, 0xC0))
    while len(seen) < 16:
        seen.add(replay.getrandbits(4))
        first_complete += 1
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", CountingRandom)
    b0 = (0b11, 0b01)  # x^2 + x + 1, irreducible, as the coset keys need
    drawn = [u for u, _, _ in search._iter_conjugators(2, b0, 5)]
    assert sorted(drawn) == sorted(u for u, _, _ in search._iter_conjugators(2, b0, None))
    assert draws == [4] * first_complete


def table_scan_random(m, seed):
    """Oracle: the same sampling, with hits looked up in the admissible table."""
    table = set(poly2.stabilizer_char_polys(m))
    rng = random.Random(seed)
    seen = set()
    for _ in range(search.MAX_ATTEMPTS):
        k = rng.getrandbits(m * (m + 1) // 2)
        if k not in seen and char_poly(BitMatrix(m, m, backend.decode_symmetric(m, k))) in table:
            seen.add(k)
            yield k


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_scan_random_matches_table_oracle(m, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "MAX_ATTEMPTS", 300)
        assert list(search._field_hits(m, seed)) == list(table_scan_random(m, seed))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 10))
def test_per_sample_predicate_matches_table(data, m):
    k = data.draw(st.integers(0, (1 << (m * (m + 1) // 2)) - 1))
    p = char_poly(BitMatrix(m, m, backend.decode_symmetric(m, k)))
    direct = p & 1 and poly2.is_irreducible(p) and poly2.fibonacci_index(p) == (1 << m) + 1
    assert direct == (p in poly2.stabilizer_char_polys(m))
