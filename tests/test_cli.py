"""End-to-end CLI behaviour: flags, exit codes, JSON output, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubforge import cli, construct, equiv, pauli, search
from mubforge.construct import MAX_M, StabilizerSpec, StandardFormError
from mubforge.search import search_specs
from mubforge.gf2 import BitMatrix, char_poly, mat_inverse
from oracles import exhaustive_total, is_symplectic

CLI = [sys.executable, "-m", "mubforge.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, **kwargs
    )


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    field1 = next(search_specs(1, "field"))
    field3 = next(search_specs(3, "field"))
    group3 = next(iter(search_specs(3, "group", 1)))
    for name, spec in (("field1", field1), ("field3", field3), ("group3", group3)):
        p = root / f"{name}.json"
        p.write_text(spec.to_json())
        paths[name] = p
    # Symmetric B with Fibonacci index 7 instead of 9: an invalid spec.
    bad = {"m": 3, "kind": "field", "B": [[0, 0, 1], [0, 1, 1], [1, 1, 0]]}
    p = root / "bad_index.json"
    p.write_text(json.dumps(bad))
    paths["bad_index"] = p
    return paths


class TestSearch:
    def test_single_qubit_field(self):
        res = run_cli("search", "--m", "1", "--kind", "field", "--exhaustive")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"m": 1, "kind": "field", "B": [[1]]}

    def test_group_empty_at_two_qubits_warns(self):
        res = run_cli("search", "--m", "2", "--kind", "group", "--exhaustive", "--count", "5")
        assert res.returncode == 0
        assert res.stdout == ""
        assert "no non-polynomial symmetrizer" in res.stderr

    def test_seed_required_in_random_mode(self):
        res = run_cli("search", "--m", "3", "--kind", "field")
        assert res.returncode == 1
        assert "--seed" in res.stderr

    def test_search_mode_is_required(self, tmp_path, capsys):
        out = tmp_path / "specs.jsonl"
        out.write_text("kept\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["search", "--m", "3", "--kind", "field", "--out", str(out)])
        assert exit_info.value.code == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert "--exhaustive" in err and "--seed" in err
        assert out.read_text() == "kept\n"

    def test_exhaustive_with_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["search", "--m", "3", "--kind", "field", "--exhaustive", "--seed", "5"])
        assert exit_info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed: not allowed with argument --exhaustive" in err

    def test_byte_identical_reruns(self):
        args = ("search", "--m", "4", "--kind", "semigroup", "--seed", "7", "--count", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout.strip().splitlines()) == 3

    def test_emitted_specs_reload(self, tmp_path):
        res = run_cli("search", "--m", "3", "--kind", "group", "--exhaustive", "--count", "2")
        for line in res.stdout.strip().splitlines():
            StabilizerSpec.from_json(line).validate()

    def test_out_file(self, tmp_path):
        out = tmp_path / "specs.jsonl"
        res = run_cli("search", "--m", "2", "--kind", "field", "--exhaustive", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().strip()

    def test_usage_error_exit_code(self):
        res = run_cli("search", "--kind", "field")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "kind,m", [("field", 3), ("group", 3), ("semigroup", 4)]
    )
    def test_search_build_round_trip(self, tmp_path, kind, m):
        res = run_cli("search", "--m", str(m), "--kind", kind, "--exhaustive")
        line = res.stdout.strip().splitlines()[0]
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(line)
        built = run_cli("build", str(spec_file))
        assert built.returncode == 0
        report = json.loads(built.stdout)
        assert report["cyclic_ok"] and report["bandyopadhyay_ok"]
        assert report["mub_verification"] == "passed"

    @pytest.mark.parametrize("m,kind,cap", [(7, "field", 6), (5, "group", 4)])
    def test_exhaustive_cap_is_usage_error(self, capsys, m, kind, cap):
        assert cli.main(["search", "--m", str(m), "--kind", kind, "--exhaustive"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"capped at m = {cap}; pass a seed" in err

    def test_m_out_of_range(self):
        res = run_cli("search", "--m", "17", "--kind", "field", "--exhaustive")
        assert res.returncode == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_usage_error(self, count):
        res = run_cli("search", "--m", "3", "--kind", "field", "--seed", "1", "--count", count)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "--count must be >= 1" in res.stderr

    def test_count_above_maxsize_reads_as_large_count(self):
        # No stream holds sys.maxsize specs, so a larger count reads like any
        # count above the space: every m = 3 field spec, and exit 0.
        args = ("search", "--m", "3", "--kind", "field", "--seed", "1", "--count")
        huge = run_cli(*args, str(10**20))
        assert huge.returncode == 0, huge.stderr
        assert huge.stdout == run_cli(*args, "1048576").stdout
        assert huge.stdout.count("\n") == 6

    def test_seeded_search_names_space_exhausted(self):
        # The run CI makes: every conjugator pattern of m = 3 is drawn, which
        # gives all 126 group specs.  A count it reaches prints nothing.
        res = run_cli("search", "--m", "3", "--kind", "group", "--seed", "1", "--count", "1000")
        assert res.returncode == 0
        assert res.stdout.count("\n") == exhaustive_total(3, "group") == 126
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "78de19dd960d4a9ece0befbc4932cd92a56ed59768fa4f4aaf13ded880970e44"
        )
        assert res.stderr == (
            "mubforge search: stopped at 126 of 1000 specs (space-exhausted): "
            "every index was drawn, so no other spec exists\n"
        )
        full = run_cli("search", "--m", "3", "--kind", "group", "--seed", "1", "--count", "126")
        assert (full.returncode, full.stdout, full.stderr) == (0, res.stdout, "")

    def test_seeded_search_names_max_attempts(self):
        # 2^18 draws cannot collect all 2^16 patterns of u at m = 4 (about
        # 7.5e5 draws are needed on average), so 19,099 of the 19,440 specs.
        res = run_cli("search", "--m", "4", "--kind", "group", "--seed", "1", "--count", "100000")
        assert res.returncode == 0
        assert res.stdout.count("\n") == 19099 < exhaustive_total(4, "group")
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "7181bf2429003e4a73d1e29eac8a0c299d4f942a7ca2a84f74fc4ba2dfebc82b"
        )
        assert res.stderr == (
            "mubforge search: stopped at 19099 of 100000 specs (max-attempts): "
            f"MAX_ATTEMPTS = {search.MAX_ATTEMPTS} draws ran out before every index was drawn\n"
        )

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        argv = ["search", "--m", "2", "--kind", "field", "--exhaustive", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(out) in err

    def test_lines_leave_as_they_are_found(self, monkeypatch):
        # The second spec is asked for only after the first line was written.
        out = io.StringIO()
        first, second = search_specs(3, "field", 2)

        def two_specs(*args):
            yield first
            assert out.getvalue() == first.to_json() + "\n"
            yield second

        monkeypatch.setattr(search, "search_specs", two_specs)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["search", "--m", "3", "--kind", "field", "--exhaustive"]) == 0
        assert out.getvalue() == first.to_json() + "\n" + second.to_json() + "\n"

    def test_usage_error_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "specs.jsonl"
        out.write_text("kept\n")
        for args, message in [
            (["--m", "7", "--kind", "field", "--exhaustive"], "capped at m = 6"),
            (["--m", "17", "--kind", "field", "--seed", "1"], "m = 17 outside 1..16"),
        ]:
            assert cli.main(["search", *args, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert out.read_text() == "kept\n"


class TestBuild:
    def test_single_qubit_report(self, spec_files):
        res = run_cli("build", str(spec_files["field1"]))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["cyclic_ok"] and report["bandyopadhyay_ok"]
        assert report["mub_verification"] == "passed"
        assert report["mub_max_deviation"] <= 1e-12
        assert report["entanglement"]["counts"] == [3]
        assert "mub_worst_pair" not in report
        assert list(report["timings"]) == [
            "validate", "cyclicity", "classes", "entanglement", "verify"
        ]

    def test_wrong_index_rejected(self, spec_files):
        res = run_cli("build", str(spec_files["bad_index"]))
        assert res.returncode == 2
        assert "fibonacci-index" in res.stderr
        assert "index 7" in res.stderr and "9" in res.stderr

    def test_numeric_skip_marker(self, spec_files):
        res = run_cli("build", str(spec_files["field3"]), "--numeric-cap", "2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["mub_verification"] == "skipped (m > 2)"
        assert "mub_max_deviation" not in report

    def test_missing_file(self, tmp_path):
        res = run_cli("build", str(tmp_path / "nope.json"))
        assert res.returncode == 2

    def test_numeric_cap_above_oracle_cap_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "field9.json"
        spec.write_text(next(search_specs(9, "field", seed=1)).to_json())
        assert cli.main(["build", str(spec), "--numeric-cap", "9"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--numeric-cap must be at most 8" in err

    @pytest.mark.parametrize("kind", ["field", "group", "semigroup"])
    def test_numeric_tier_at_seven_qubits(self, tmp_path, capsys, kind):
        spec = tmp_path / "spec7.json"
        spec.write_text(next(search_specs(7, kind, seed=1)).to_json())
        assert cli.main(["build", str(spec), "--numeric-cap", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mub_verification"] == "passed"
        assert report["mub_max_deviation"] <= 1e-15

    def test_spec_validated_once_and_stabilizer_built_once(self, spec_files, monkeypatch, capsys):
        calls = {"validate": 0, "build_stabilizer": 0}
        validate = StabilizerSpec.validate
        build = construct.build_stabilizer

        def counting_validate(spec):
            calls["validate"] += 1
            return validate(spec)

        def counting_build(spec):
            calls["build_stabilizer"] += 1
            return build(spec)

        monkeypatch.setattr(StabilizerSpec, "validate", counting_validate)
        monkeypatch.setattr(construct, "build_stabilizer", counting_build)
        monkeypatch.setattr(cli, "build_stabilizer", counting_build)
        assert cli.main(["build", str(spec_files["group3"])]) == 0
        assert calls == {"validate": 1, "build_stabilizer": 1}
        capsys.readouterr()

    def test_negative_numeric_cap_is_usage_error(self, spec_files, capsys):
        assert cli.main(["build", str(spec_files["field3"]), "--numeric-cap", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--numeric-cap must be >= 0" in captured.err

    def test_zero_numeric_cap_skips_numeric_tier(self, spec_files, capsys):
        assert cli.main(["build", str(spec_files["field3"]), "--numeric-cap", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mub_verification"] == "skipped (m > 0)"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_meaningless_tol_is_usage_error(self, spec_files, capsys, tol):
        assert cli.main(["build", str(spec_files["field3"]), f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--tol must be a finite number > 0" in captured.err

    def test_semigroup_twelve_qubits(self, tmp_path, capsys):
        # 4097 classes: the checks run on the standard forms and the order of C,
        # not on the 4^12 - 1 Pauli labels.
        spec = tmp_path / "semigroup12.json"
        spec.write_text(next(iter(search_specs(12, "semigroup", 1, seed=1))).to_json())
        assert cli.main(["build", str(spec)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cyclic_ok"] is True and report["bandyopadhyay_ok"] is True
        assert report["entanglement"]["counts"][0] == 1
        assert report["mub_verification"] == "skipped (m > 5)"

    # sha256 of each report without "timings" (json.dumps with sorted keys) for
    # the first random spec of seed 1, recorded with the dense projector eigenbases.
    GOLDEN_REPORTS = {
        ("field", 4): "6572a2549d167b7671296d92237bcdf53a49f24c17d1dc4e3f6f4bf27f2f2638",
        ("field", 5): "90261a10f052b23e388ae559978426f6f29b1c83b397360c83bcf654e6a54063",
        ("field", 6): "8e9230a3459ed7ee3e891f15572fda036b303c58254b57936d1e0ecbfa12db4e",
        ("group", 4): "fdc5e57fc851de47361ccd25fd35cb7caed573411c23b5318f957e59bb19d422",
        ("group", 5): "e32abf97829ce01991b48dd4ebd27d4ee6f9adfad523037c21b0c307e00d3962",
        ("group", 6): "08fea954a7a8137f23f1f4b92a2e1661fe29bae71f86392d997d416ae77df61d",
        ("semigroup", 4): "a6764ff46ad526c327701a35fd7ff29d2691377bc45fdd5302340a1f4b18129c",
        ("semigroup", 5): "2aa6e2e6b4c28725e6f955af06638086c5063d734fe3b238197851a810da892b",
        ("semigroup", 6): "3d0a6321921ee7228d37a118889d781342912876346cdffaaacec7739e8348bf",
    }

    @pytest.mark.parametrize("kind,m", sorted(GOLDEN_REPORTS))
    def test_numeric_report_matches_golden(self, tmp_path, capsys, kind, m):
        spec = tmp_path / "spec.json"
        spec.write_text(next(iter(search_specs(m, kind, 1, seed=1))).to_json())
        assert cli.main(["build", str(spec), "--numeric-cap", "6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mub_verification"] == "passed"
        report.pop("timings")
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.GOLDEN_REPORTS[kind, m]

    def test_failed_numeric_check_names_worst_pair(self, spec_files, capsys, monkeypatch):
        # Dropping the diagonal layers leaves U = H, so U^2 = I: the power
        # j = 2, the pair of bases (0, 2), is the one that breaks.
        monkeypatch.setattr(pauli, "_quadratic_phase", lambda S: [1.0] * (1 << S.rows))
        assert cli.main(["build", str(spec_files["field1"])]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["mub_verification"] == "failed"
        assert report["mub_worst_pair"] == [0, 2]
        assert report["mub_max_deviation"] == pytest.approx(0.5, abs=1e-12)
        assert "bases 0 and 2" in captured.err

    def test_unwritable_out_exits_2(self, spec_files, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert cli.main(["build", str(spec_files["field1"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(out) in err

    def test_internal_failure_exits_2(self, spec_files, monkeypatch, capsys):
        def broken(spec, C):
            raise ValueError("class step failed")

        monkeypatch.setattr(cli, "generators", broken)
        assert cli.main(["build", str(spec_files["field3"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "mubforge build: class step failed\n"


class TestClassify:
    def test_table(self, spec_files):
        res = run_cli("classify", str(spec_files["field3"]), str(spec_files["group3"]))
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].split() == ["file", "kind", "m", "counts"]
        assert "(3,0,6)" in res.stdout  # field m=3
        assert "(2,3,4)" in res.stdout  # group m=3

    def test_bad_file_does_not_abort_batch(self, spec_files):
        res = run_cli(
            "classify", str(spec_files["bad_index"]), str(spec_files["field1"])
        )
        assert res.returncode == 2
        assert "(3)" in res.stdout  # the good file still classified
        assert "fibonacci-index" in res.stderr

    def test_each_spec_validated_once(self, spec_files, monkeypatch, capsys):
        validated = []
        validate = StabilizerSpec.validate

        def counting(spec):
            validated.append(spec)
            return validate(spec)

        monkeypatch.setattr(StabilizerSpec, "validate", counting)
        names = ("field3", "group3", "bad_index")
        assert cli.main(["classify", *(str(spec_files[n]) for n in names)]) == 2
        assert len(validated) == len(names)
        out, err = capsys.readouterr()
        assert out.splitlines()[-1].split()[1:] == ["-", "-", "error:fibonacci-index"]
        assert "fibonacci-index" in err

    def test_error_row_names_the_condition(self, tmp_path, capsys):
        # A failed spec condition is named in its row; a file that cannot be
        # read has no condition.
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        long = tmp_path / "long.json"
        long.write_text(MALFORMED_SPECS["long-integer"][0])
        argv = ["classify", str(bad), str(long), str(tmp_path / "missing.json")]
        assert cli.main(argv) == 2
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-1] for row in rows] == ["error:schema", "error:schema", "error"]


class TestEquiv:
    def test_identical_specs(self, spec_files):
        res = run_cli("equiv", str(spec_files["field3"]), str(spec_files["field3"]))
        assert res.returncode == 0
        verdict = json.loads(res.stdout)
        assert verdict["equivalent"] is True
        m = 3
        eye = [[1 if i == j else 0 for j in range(2 * m)] for i in range(2 * m)]
        assert verdict["f"] == eye

    def test_field_vs_group_variant(self, spec_files):
        res = run_cli("equiv", str(spec_files["field3"]), str(spec_files["group3"]))
        assert res.returncode == 0
        verdict = json.loads(res.stdout)
        assert verdict["equivalent"] is True

    def test_dimension_mismatch(self, spec_files, capsys):
        assert cli.main(["equiv", str(spec_files["field1"]), str(spec_files["field3"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "m-mismatch" in err and "different qubit counts" in err

    def test_identical_invalid_specs_fail(self, spec_files, capsys):
        bad = str(spec_files["bad_index"])
        assert cli.main(["equiv", bad, bad]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "fibonacci-index" in err

    def test_validates_each_spec_once(self, tmp_path, monkeypatch, capsys):
        paths = []
        for kind in ("group", "semigroup"):
            path = tmp_path / f"{kind}.json"
            path.write_text(next(iter(search_specs(5, kind, 1, seed=1))).to_json())
            paths.append(str(path))
        calls = []
        validate = StabilizerSpec.validate

        def counting(spec):
            calls.append(spec.kind)
            validate(spec)

        monkeypatch.setattr(StabilizerSpec, "validate", counting)
        assert cli.main(["equiv", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is True
        assert calls == ["group", "semigroup"]

    def test_internal_failure_exits_2(self, spec_files, monkeypatch, capsys):
        # field3 and group3 share their anchor's polynomial, so the map is
        # composed and checked against both sets' classes.
        def broken(spec, C):
            raise StandardFormError("orbit step 1 leaves A + F2[B] R")

        monkeypatch.setattr(equiv, "generators", broken)
        assert cli.main(["equiv", str(spec_files["field3"]), str(spec_files["group3"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "orbit step 1 leaves A + F2[B] R" in err

    # sha256 of the verdict JSON for the first random spec of seed 1 of each
    # kind, recorded when the intertwiner space still came from an affine
    # solver.  The orthogonal intertwiner of two field anchors is unique, so
    # f does not depend on how it is found.  The two m = 4 field pairs are
    # not equivalent; their pins were re-recorded when the reason became
    # "characteristic polynomials of B differ", the only change in the text.
    GOLDEN_VERDICTS = {
        (4, "field", "group"): "c96ce86b6c84b63d8391e719d3dc3324baeed9cac56c0574791cd1696922a732",
        (4, "field", "semigroup"): "c96ce86b6c84b63d8391e719d3dc3324baeed9cac56c0574791cd1696922a732",
        (4, "group", "semigroup"): "2d003797382c605a15e74e553fec3cea8d5dc08023022cbef06b5e62857d423c",
        (5, "field", "group"): "14d8ad0aaf7ec8a8a529f468f95e5c5f54d40b536d657e8456abdd6c30e78931",
        (5, "field", "semigroup"): "d36ddec4a696553a16b4ad7a96a0c19f6a0da19dc42ac14a52fbeef6872d760c",
        (5, "group", "semigroup"): "f37338c96a8b321cb22bb594f942d4d766ed5b61335131136315124aefb94e58",
    }

    @pytest.mark.parametrize("m,kind_a,kind_b", sorted(GOLDEN_VERDICTS))
    def test_verdict_matches_golden(self, tmp_path, capsys, m, kind_a, kind_b):
        paths = []
        for kind in (kind_a, kind_b):
            path = tmp_path / f"{kind}.json"
            path.write_text(next(iter(search_specs(m, kind, 1, seed=1))).to_json())
            paths.append(str(path))
        assert cli.main(["equiv", *paths]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["equivalent"] is (m == 5 or kind_a == "group")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_VERDICTS[m, kind_a, kind_b]


@pytest.fixture(scope="module")
def max_m_specs(tmp_path_factory):
    """The first random spec of seed 1 of each kind at m = 13 and MAX_M, by file name."""
    root = tmp_path_factory.mktemp("max_m")
    for m in (13, MAX_M):
        for kind in ("field", "group", "semigroup"):
            spec = next(iter(search_specs(m, kind, 1, seed=1)))
            (root / f"{kind}{m}.json").write_text(spec.to_json())
    return root


class TestMaxM:
    """Every symbolic command at the largest m that `search` emits."""

    # sha256 of each output, recorded while every class was still held as its
    # own matrix: `build` reports without "timings" (json.dumps with sorted
    # keys), the `classify` table of the three MAX_M files run from their
    # directory, and same-seed group <-> semigroup `equiv` verdicts.
    GOLDEN_BUILDS = {
        "field": "73b10e7adc3fc3a59c34992b8bb8049b60f20b243393642b12c97b57c432157a",
        "group": "d99a8db934e0a7b6210b8d502b927f859554ef0c85a5657f06cb48dc1ec157ea",
        "semigroup": "41a1fb5eb1e0b5a85e602517c0772e714c370b565134b595f965fb1b45348823",
    }
    GOLDEN_CLASSIFY = "2bfcdf566c623b73a4aba98a12cfc1a8917570a3123e12145fbad169364598b8"
    GOLDEN_EQUIV = {
        13: "8c8c1266d816620b27586c0fea43534adef0f22718abeb5eb415e0d620ff72dd",
        16: "85ef07e81492a0e656ce8ebc7b2faa42ed9ebb9d17d11bdcdf84b0bcb207f846",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN_BUILDS))
    def test_build_matches_golden(self, max_m_specs, capsys, kind):
        assert cli.main(["build", str(max_m_specs / f"{kind}{MAX_M}.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cyclic_ok"] is True and report["bandyopadhyay_ok"] is True
        report.pop("timings")
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.GOLDEN_BUILDS[kind]

    def test_classify_matches_golden(self, max_m_specs, capsys, monkeypatch):
        monkeypatch.chdir(max_m_specs)
        names = [f"{kind}{MAX_M}.json" for kind in ("field", "group", "semigroup")]
        assert cli.main(["classify", *names]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_CLASSIFY

    @pytest.mark.parametrize("m", sorted(GOLDEN_EQUIV))
    def test_same_seed_equiv_matches_golden(self, max_m_specs, capsys, m):
        paths = [str(max_m_specs / f"{kind}{m}.json") for kind in ("group", "semigroup")]
        assert cli.main(["equiv", *paths]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["equivalent"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_EQUIV[m]


MALFORMED_SPECS = {
    "top-level-list": ("[]", "JSON object"),
    "empty-file": ("", "the spec is empty"),
    "two-lines": ('{"m": 1, "kind": "field", "B": [[1]]}\n' * 2, "not valid JSON: Extra data"),
    "empty-B": ('{"m": 2, "kind": "field", "B": []}', '"B" must be a non-empty list'),
    "string-m": ('{"m": "2", "kind": "field", "B": [[1, 1], [1, 0]]}', '"m" must be an integer'),
    "deeply-nested": ("[" * 100000 + "]" * 100000, "nested too deeply"),
    # json.loads raises a plain ValueError past sys.get_int_max_str_digits().
    "long-integer": ('{"m": 1, "kind": "field", "B": [[1' + "0" * 4300 + ']]}', "cannot read JSON"),
}


class TestOutput:
    """Every command writes through one path: a failed write exits 2, a closed pipe is quiet.

    Diagnostics go through one writer too: a stderr that cannot be written
    changes no exit code.
    """

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["search", "build", "classify", "equiv"])
    def test_full_stdout_exits_2(self, spec_files, command):
        spec = str(spec_files["field3"])
        args = {
            "search": ["--m", "4", "--kind", "group", "--exhaustive", "--count", "1048576"],
            "build": [spec],
            "classify": [spec],
            "equiv": [spec, spec],
        }[command]
        with open("/dev/full", "w") as full:
            res = subprocess.run(CLI + [command, *args], stdout=full, stderr=subprocess.PIPE,
                                 text=True, timeout=300)
        assert res.returncode == 2
        # One line, and no traceback from the write or from the flush at exit.
        assert res.stderr.startswith(f"mubforge {command}: cannot write output: ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                        reason="needs /dev/full and /proc/self/fd")
    def test_failed_writes_leave_no_open_descriptor(self, spec_files, monkeypatch, capsys):
        def build_into_full():
            with open("/dev/full", "w") as full:
                monkeypatch.setattr(sys, "stdout", full)
                assert cli.main(["build", str(spec_files["field3"])]) == 2

        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            build_into_full()
        assert len(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err.count("cannot write output") == 5

    @pytest.mark.parametrize("command", ["search", "build", "classify", "equiv"])
    def test_closed_stdout_exits_2(self, spec_files, command):
        # `>&-` starts the command without fd 1, so sys.stdout is None.
        spec = str(spec_files["field3"])
        args = {
            "search": ["--m", "2", "--kind", "field", "--seed", "1"],
            "build": [spec],
            "classify": [spec],
            "equiv": [spec, spec],
        }[command]
        res = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *CLI, command, *args],
                             stderr=subprocess.PIPE, text=True, timeout=300)
        assert res.returncode == 2
        assert res.stderr == f"mubforge {command}: cannot write output: stdout is closed\n"

    @pytest.mark.parametrize("command", ["search", "build", "classify", "equiv"])
    def test_closed_stderr_keeps_the_exit_code(self, spec_files, command):
        # `2>&-` starts the command without fd 2, so sys.stderr is None or
        # refuses every write, and no diagnostic may reach stdout instead.
        # The seeded search exhausts its space after 6 specs and says so.
        bad = str(spec_files["bad_index"])
        args = {
            "search": ["--m", "3", "--kind", "field", "--seed", "1", "--count", "100"],
            "build": [bad],
            "classify": [bad],
            "equiv": [bad, bad],
        }[command]
        res = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *CLI, command, *args],
                             stdout=subprocess.PIPE, text=True, timeout=300)
        lines = res.stdout.splitlines()
        if command == "search":
            assert res.returncode == 0
            assert len(lines) == 6
            for line in lines:
                StabilizerSpec.from_json(line).validate()
        elif command == "classify":
            assert res.returncode == 2
            row = [bad, "-", "-", "error:fibonacci-index"]
            assert [line.split() for line in lines[1:]] == [row]
        else:
            assert res.returncode == 2
            assert lines == []

    @pytest.mark.parametrize("args, code", [
        (["build", "missing.json"], 2),
        (["search", "--m", "3", "--kind", "field", "--seed", "1", "--count", "100",
          "--out", "x.jsonl"], 0),
        (["search", "--m", "3", "--kind", "nope"], 1),
    ], ids=["failed-step", "search", "usage-error"])
    def test_read_only_stderr_keeps_the_exit_code(self, tmp_path, args, code):
        # A stderr open read-only refuses every write.  Without
        # PYTHONUNBUFFERED sys.stderr is buffered, and a refused line left in
        # it made the flush at exit fail, which exits 120.
        args = [str(tmp_path / a) if a.endswith((".json", ".jsonl")) else a for a in args]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open(os.devnull) as read_only:
            res = subprocess.run(CLI + args, stdout=subprocess.PIPE, stderr=read_only, env=env,
                                 timeout=300)
        assert (res.returncode, res.stdout) == (code, b"")
        if code == 0:  # the seeded search exhausts its space after 6 specs and says so
            assert len((tmp_path / "x.jsonl").read_text().splitlines()) == 6

    def test_closed_pipe_ends_search_quietly(self, tmp_path):
        err = tmp_path / "err.txt"
        args = ["search", "--m", "4", "--kind", "group", "--exhaustive", "--count", "1048576"]
        with open(err, "w") as err_file:
            proc = subprocess.Popen(CLI + args, stdout=subprocess.PIPE, stderr=err_file)
            line = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=300) == 0
        StabilizerSpec.from_json(line).validate()
        assert err.read_text() == ""


UNBUFFERED = dict(os.environ, PYTHONUNBUFFERED="1")  # as `python -u`: a raw sys.stdout


class TestUnbufferedOutput:
    """Under PYTHONUNBUFFERED=1 stdout is written through the same buffered stream as --out.

    Each case runs the CLI as a subprocess and keeps the bytes, exit codes
    and messages of the earlier write-through stdout.
    """

    def test_exhaustive_stream_on_stdout_matches_out_file(self, tmp_path):
        args = ["search", "--m", "4", "--kind", "group", "--exhaustive", "--count", "1048576"]
        digest = "9d2120acb3d86ca4189dfdb747f066a9274d6d991ba781524cc36707e1188041"
        with open(tmp_path / "stdout.jsonl", "wb") as stdout:
            res = subprocess.run(CLI + args, stdout=stdout, stderr=subprocess.PIPE,
                                 env=UNBUFFERED, timeout=300)
        assert res.returncode == 0 and res.stderr == b""
        res = subprocess.run(CLI + args + ["--out", str(tmp_path / "out.jsonl")],
                             capture_output=True, env=UNBUFFERED, timeout=300)
        assert res.returncode == 0 and res.stdout == res.stderr == b""
        for name in ("stdout.jsonl", "out.jsonl"):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2(self, spec_files):
        with open("/dev/full", "w") as full:
            res = subprocess.run(CLI + ["build", str(spec_files["field3"])], stdout=full,
                                 stderr=subprocess.PIPE, text=True, env=UNBUFFERED, timeout=300)
        assert res.returncode == 2
        assert res.stderr == (
            "mubforge build: cannot write output: [Errno 28] No space left on device\n")

    def test_closed_stdout_exits_2(self, spec_files):
        build = [*CLI, "build", str(spec_files["field3"])]
        res = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *build],
                             stderr=subprocess.PIPE, text=True, env=UNBUFFERED, timeout=300)
        assert res.returncode == 2
        assert res.stderr == "mubforge build: cannot write output: stdout is closed\n"

    def test_closed_pipe_ends_search_quietly(self, tmp_path):
        args = ["search", "--m", "4", "--kind", "group", "--exhaustive", "--count", "1048576"]
        with open(tmp_path / "err.txt", "w") as err:
            proc = subprocess.Popen(CLI + args, stdout=subprocess.PIPE, stderr=err, env=UNBUFFERED)
            line = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=300) == 0
        StabilizerSpec.from_json(line).validate()
        assert (tmp_path / "err.txt").read_text() == ""

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "ascii:backslashreplace"])
    def test_classify_row_keeps_stdout_encoding(self, spec_files, tmp_path, encoding):
        # --out is always UTF-8; stdout keeps sys.stdout's encoding and errors.
        spec = tmp_path / "spéc-ü.json"
        spec.write_bytes(spec_files["field3"].read_bytes())
        res = subprocess.run(CLI + ["classify", str(spec)], capture_output=True,
                             env=dict(UNBUFFERED, PYTHONIOENCODING=encoding), timeout=300)
        assert res.returncode == 0 and res.stderr == b""
        assert cli.main(["classify", str(spec), "--out", str(tmp_path / "table.txt")]) == 0
        table = (tmp_path / "table.txt").read_text(encoding="utf-8")
        assert f"{spec}  field  3  (" in table
        assert res.stdout == table.encode(*encoding.split(":"))


class TestMalformedSpecs:
    """Schema errors exit 2 and name the condition instead of raising."""

    @pytest.mark.parametrize("command", ["build", "classify", "equiv"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_schema_error_exits_2(self, tmp_path, capsys, spec_files, command, case):
        text, detail = MALFORMED_SPECS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = [command, str(bad)]
        if command == "equiv":
            argv.append(str(spec_files["field3"]))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "schema" in err and detail in err


# Every condition SpecValidationError names, as "<condition>: " on stderr.
SPEC_CONDITIONS = (
    "schema", "kind", "m-range", "shape", "R-forced", "B-symmetric", "A-forced",
    "B-invertible", "char-poly-irreducible", "fibonacci-index", "R-symmetric",
    "R-invertible", "BR-symmetric", "A-symmetric", "m-mismatch",
)
BAD_ENTRIES = (2, -1, True, None, "1", 0.5)
BAD_MS = (True, 2.0, "3", 2**70, 0, MAX_M + 1)


@st.composite
def mutated_specs(draw, seeded):
    """A seeded spec as a JSON object, with one mutation, and the spec it came from."""
    spec = draw(st.sampled_from(seeded))
    obj = spec.to_json_dict()
    matrices = [key for key in ("B", "R", "A") if key in obj]
    how = draw(st.sampled_from([
        "drop", "m", "kind", "replace", "bad-entry", "flip", "flip-pair", "cut", "widen",
        "wrap", "scalar",
    ]))
    if how == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif how == "m":
        obj["m"] = draw(st.sampled_from(BAD_MS))
    elif how == "kind":
        obj["kind"] = draw(st.sampled_from((*construct.KINDS, "ring", 3)))
    elif how == "replace":  # by the B of a seeded spec, maybe of another size
        obj[draw(st.sampled_from(matrices))] = draw(st.sampled_from(seeded)).B.to_lists()
    elif how == "wrap":
        obj = [obj]
    elif how == "scalar":
        obj = draw(st.sampled_from((3, "spec", None, True, 1.5)))
    else:
        rows = obj[draw(st.sampled_from(matrices))]
        i, j = draw(st.integers(0, spec.m - 1)), draw(st.integers(0, spec.m - 1))
        if how == "bad-entry":
            rows[i][j] = draw(st.sampled_from(BAD_ENTRIES))
        elif how == "cut":
            rows[i].pop()
        elif how == "widen":
            rows[i].append(draw(st.sampled_from((0, 1))))
        else:  # flip keeps the 0/1 schema; flip-pair keeps symmetry too
            for r, c in {(i, j), (j, i)} if how == "flip-pair" else {(i, j)}:
                rows[r][c] ^= 1
    return spec, obj


def _check_equiv_verdict(verdict, path_a, path_b):
    a, b = (StabilizerSpec.from_json(p.read_text()) for p in (path_a, path_b))
    if not verdict["equivalent"]:
        assert char_poly(a.B) != char_poly(b.B), verdict["reason"]
        return
    m, rows = a.m, verdict["f"]
    s, t, u, v = (
        BitMatrix.from_rows([row[c:c + m] for row in rows[r:r + m]])
        for r in (0, m) for c in (0, m)
    )
    assert u.is_zero(), "lower-left block"
    assert v == mat_inverse(s.transpose()), "lower-right block"
    assert is_symplectic(BitMatrix.from_rows(rows))
    gens_a, gens_b = construct.generators(a), construct.generators(b)
    assert equiv.classes_equal(equiv.transport(equiv.SymplecticMap(s, t), gens_a), gens_b)


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    seeded = [
        spec
        for kind in construct.KINDS
        for m in range(1, 6)
        for spec in search_specs(m, kind, 1, seed=m)
    ]
    for spec in seeded:
        (root / f"{spec.kind}{spec.m}.json").write_text(spec.to_json())
    return root, seeded


class TestSpecFuzz:
    """Mutated specs end in a checked answer (exit 0) or a named condition (exit 2)."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["build", "classify", "equiv"]))
    def test_mutated_spec_exits_0_or_names_condition(self, fuzz_specs, data, command):
        root, seeded = fuzz_specs
        spec, obj = data.draw(mutated_specs(seeded))
        bad = root / "mutated.json"
        bad.write_text(json.dumps(obj))
        paths = [bad]
        if command == "equiv":
            other = data.draw(st.sampled_from(sorted(root.glob(f"*{spec.m}.json"))))
            paths.insert(data.draw(st.integers(0, 1)), other)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *map(str, paths)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        if code == 2:
            assert err.count("\n") == 1, err
            assert any(f"{condition}: " in err for condition in SPEC_CONDITIONS), err
        elif command == "build":
            report = json.loads(out)
            assert report["cyclic_ok"] and report["bandyopadhyay_ok"]
            assert report["mub_verification"] == "passed"
            assert sum(report["entanglement"]["counts"]) == (1 << report["spec"]["m"]) + 1
        elif command == "classify":
            m, counts = out.splitlines()[1].split()[2:]
            assert sum(map(int, counts.strip("()").split(","))) == (1 << int(m)) + 1
        else:
            _check_equiv_verdict(json.loads(out), *paths)


def test_cli_never_imports_sympy(tmp_path):
    spec = tmp_path / "field4.json"
    spec.write_text(next(search_specs(4, "field")).to_json())
    code = (
        "import sys\n"
        "from mubforge import cli\n"
        f"assert cli.main(['build', {str(spec)!r}, '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "assert cli.main(['search', '--m', '16', '--kind', 'field', '--seed', '3',"
        f" '--out', {str(tmp_path / 's.jsonl')!r}]) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
    assert (tmp_path / "s.jsonl").read_text().count("\n") == 1


NO_NUMPY_RUN = """
import sys
before = set(sys.modules)
from mubforge import cli
assert not {"inspect", "dataclasses"} & (set(sys.modules) - before), "slow stdlib import"

tmp = sys.argv[1]

def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv

# The test wrote the m = 6 spec files, so build, classify and equiv run first.
run("build", f"{tmp}/field6.json", "--numeric-cap", 5, "--out", f"{tmp}/report.json")
assert "mubforge.equiv" not in sys.modules, "build loaded mubforge.equiv"
run("classify", f"{tmp}/field6.json", f"{tmp}/group6.json", f"{tmp}/semigroup6.json",
    "--out", f"{tmp}/classify.txt")
run("equiv", f"{tmp}/field6.json", f"{tmp}/group6.json", "--out", f"{tmp}/equiv.json")
run("build", f"{tmp}/semigroup6.json", "--numeric-cap", 6, "--out", f"{tmp}/report6.json")
assert "mubforge.search" not in sys.modules, "build, classify or equiv loaded mubforge.search"
for kind in ("field", "group", "semigroup"):
    run("search", "--m", 16, "--kind", kind, "--seed", 3, "--out", f"{tmp}/{kind}16.jsonl")
run("search", "--m", 5, "--kind", "field", "--exhaustive", "--count", 1 << 20,
    "--out", f"{tmp}/all5-field.jsonl")
for kind in ("group", "semigroup"):
    run("search", "--m", 3, "--kind", kind, "--exhaustive", "--count", 1 << 20,
        "--out", f"{tmp}/all3-{kind}.jsonl")
run("search", "--m", 8, "--kind", "group", "--seed", 3, "--out", f"{tmp}/group8.json")
run("build", f"{tmp}/group8.json", "--numeric-cap", 8, "--out", f"{tmp}/report8.json")
print("numpy" in sys.modules)
"""

SEARCH_ONLY_RUN = """
import sys
before = set(sys.modules)
from mubforge import cli

for kind in ("field", "group", "semigroup"):
    for mode in (["--seed", "3"], ["--exhaustive"]):
        assert cli.main(["search", "--m", "4", "--kind", kind, *mode, "--out", sys.argv[1]]) == 0
    assert cli.main(["search", "--m", "4", "--kind", kind, "--seed", "3"]) == 0  # to stdout
unwanted = {"json", "mubforge.entangle", "mubforge.equiv", "mubforge.pauli"}
print(sorted(unwanted & (set(sys.modules) - before)), file=sys.stderr)
"""


def test_cli_commands_never_import_numpy(tmp_path):
    # No module of the package imports numpy, which only the test oracles
    # use: search of every kind and mode, build with and without its numeric
    # tier (at m = 6 and m = 8), classify and equiv run without it.  Importing
    # the CLI loads neither inspect nor dataclasses, which cost about a
    # quarter of its import time.  Each command loads only the modules it
    # runs: build does not load equiv, and build, classify and equiv do not
    # load search.
    for kind in ("field", "group", "semigroup"):
        spec = next(search_specs(6, kind, seed=3))
        (tmp_path / f"{kind}6.json").write_text(spec.to_json())
    res = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
    for kind in ("field", "group", "semigroup"):
        assert (tmp_path / f"{kind}16.jsonl").read_text().count("\n") == 1
    assert (tmp_path / "all5-field.jsonl").read_text().count("\n") == exhaustive_total(5, "field")
    assert (tmp_path / "all3-group.jsonl").read_text()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mub_verification"] == "skipped (m > 5)"
    for name in ("report6.json", "report8.json"):
        report = json.loads((tmp_path / name).read_text())
        assert report["mub_verification"] == "passed"
        assert report["mub_max_deviation"] == 0.0


def test_search_loads_no_entangle_equiv_or_pauli(tmp_path):
    # Search of every kind, seeded and exhaustive, to --out and to stdout, in
    # one process: it loads none of these, and no json either, which it would
    # pay for at every start and never use.
    res = subprocess.run([sys.executable, "-c", SEARCH_ONLY_RUN, str(tmp_path / "specs.jsonl")],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == "[]"
    assert res.stdout.count("\n") == 3


class TestStreamPins:
    """sha256 of whole exhaustive search streams, as the CLI writes them.

    The digests were taken before the conjugator walk keyed u by its coset's
    normal form, so they pin its order and every byte of its output.
    """

    @pytest.mark.parametrize(
        "m, kind, count, lines, digest",
        [
            (4, "group", 1 << 20, 19440,
             "9d2120acb3d86ca4189dfdb747f066a9274d6d991ba781524cc36707e1188041"),
            (4, "semigroup", 1 << 20, 19440,
             "cb4754d2f667822e4cfa20fbf7cacaff17e3904846b98746a6ab079c08ff2400"),
            (3, "group", 1 << 20, 126,
             "a3dcc41f5315e6c4074cdaa66ee3b35a98fe491fd0d73c89d00df40a799cb400"),
            (5, "field", 1 << 20, 1440,
             "abfdf88f5e7597afaa9f0e21f42c417da434140604e45ae4a14468619602be0e"),
            (6, "field", 3000, 3000,
             "c3657bbb6f8c298bb50ddabb107ed35a1403c41d6672c6aba8f1b108c3613b12"),
        ],
        ids=["group-4", "semigroup-4", "group-3", "field-5", "field-6-count-3000"],
    )
    def test_exhaustive_stream(self, capsys, m, kind, count, lines, digest):
        argv = ["search", "--m", str(m), "--kind", kind, "--exhaustive", "--count", str(count)]
        assert cli.main(argv) == 0
        data = capsys.readouterr().out.encode()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest
