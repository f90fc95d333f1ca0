import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import burnside.automorphisms
import burnside.classifier
from burnside import verify_certificate
from burnside.classifier import Classification
from burnside.cli import main, parse_group_file
from burnside.errors import InputError

D5_FILE = """\
# dihedral group of order 10
p=5
1,2,3,4,0
0,4,3,2,1
"""


@pytest.fixture
def d5_path(tmp_path):
    path = tmp_path / "d5.grp"
    path.write_text(D5_FILE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupFileParsing:
    def test_single_generator(self):
        spec = parse_group_file(io.StringIO("p=5\n1,2,3,4,0\n"))
        assert spec.field.p == 5
        assert len(spec.generators) == 1

    def test_comments_and_blanks(self):
        text = "# heading\n\np=5   # modulus\n1,2,3,4,0\n# done\n"
        spec = parse_group_file(io.StringIO(text))
        assert spec.generators[0].images == (1, 2, 3, 4, 0)

    def test_non_prime_rejected_with_line(self):
        with pytest.raises(InputError, match=":1:"):
            parse_group_file(io.StringIO("p=6\n0,1,2,3,4,5\n"))

    def test_non_bijection_rejected_with_line(self):
        with pytest.raises(InputError, match=":2:"):
            parse_group_file(io.StringIO("p=5\n1,1,2,3,4\n"))

    def test_missing_header(self):
        with pytest.raises(InputError, match="p=<integer>"):
            parse_group_file(io.StringIO("1,2,3,4,0\n"))

    def test_missing_generators(self):
        with pytest.raises(InputError, match="no generators"):
            parse_group_file(io.StringIO("p=5\n"))

    def test_empty_file(self):
        with pytest.raises(InputError, match="missing"):
            parse_group_file(io.StringIO(""))


class TestClassifyCommand:
    def test_dihedral(self, capsys, d5_path):
        code, out, err = run_cli(capsys, "classify", "--group", d5_path)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "classify"
        assert report["result"]["variant"] == "SOLVABLE_AFFINE"
        assert report["result"]["diff_set"] == [1, 4]
        assert report["result"]["embedding"] == [{"a": 1, "b": 1}, {"a": 4, "b": 0}]

    def test_certificate_round_trip(self, capsys, d5_path):
        code, out, _ = run_cli(capsys, "classify", "--group", d5_path)
        assert code == 0
        payload = json.loads(out)["result"]
        restored = Classification.from_payload(payload)
        spec = parse_group_file(io.StringIO(D5_FILE))
        assert verify_certificate(spec, restored)

    def test_deterministic_bytes(self, capsys, d5_path):
        _, first, _ = run_cli(capsys, "classify", "--group", d5_path)
        _, second, _ = run_cli(capsys, "classify", "--group", d5_path)
        assert first == second

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(D5_FILE))
        code, out, _ = run_cli(capsys, "classify", "--group", "-")
        assert code == 0
        assert json.loads(out)["result"]["variant"] == "SOLVABLE_AFFINE"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_exits_1(self, capsys, monkeypatch, tmp_path, source):
        raw = b"\xff\xfe" + D5_FILE.encode()
        if source == "file":
            path = tmp_path / "bad.grp"
            path.write_bytes(raw)
            group = str(path)
        else:
            stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            group = "-"
        code, out, err = run_cli(capsys, "classify", "--group", group)
        assert code == 1
        assert "not UTF-8" in err
        assert out == ""

    def test_bad_modulus_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("p=6\n0,1,2,3,4,5\n")
        code, out, err = run_cli(capsys, "classify", "--group", str(path))
        assert code == 1
        assert "not prime" in err
        assert out == ""

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--group", "/nonexistent.grp")
        assert code == 1
        assert "cannot read" in err

    def test_internal_violation_exits_2(self, capsys, d5_path, monkeypatch):
        # Inject a fault: affine recognition that always fails flips the
        # solvable branch into a theorem contradiction.
        monkeypatch.setattr(burnside.classifier, "recognize_affine", lambda _: None)
        code, out, err = run_cli(capsys, "classify", "--group", d5_path)
        assert code == 2
        failure = json.loads(err)
        assert "counterexample" in failure
        assert "permutation" in failure["counterexample"]


class TestAutCommand:
    def test_paley_7(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--p", "7", "--set", "1,2,4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["automorphism_count"] == 21
        assert result["mult_stabilizer"] == [1, 2, 4]
        assert result["all_affine"] is True
        assert len(result["automorphisms"]) == 21

    def test_set_normalized(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--p", "7", "--set", "4,2,1")
        assert code == 0
        assert json.loads(out)["arguments"]["set"] == [1, 2, 4]

    def test_bad_set_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "aut", "--p", "7", "--set", "0,1")
        assert code == 1
        assert "error" in err

    def test_unparsable_set_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "aut", "--p", "7", "--set", "1,x")
        assert code == 1

    @pytest.mark.parametrize("p, elements, stabilizer", [
        # Sparse sets whose position-order backtracking took 10 s and 23 s
        # with pi(0) free, and about 0.5 s and 1 s with pi(0) = 0 pinned.
        (19, "6,13", [1, 18]),
        (23, "15", [1]),
    ])
    def test_deep_sparse_search(self, capsys, p, elements, stabilizer):
        code, out, _ = run_cli(capsys, "aut", "--p", str(p), "--set", elements)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mult_stabilizer"] == stabilizer
        assert result["automorphism_count"] == p * len(stabilizer)
        assert result["all_affine"] is True

    def test_paley_97(self, capsys):
        # The squares mod 97 never finished under position-order backtracking.
        squares = sorted({i * i % 97 for i in range(1, 97)})
        code, out, _ = run_cli(capsys, "aut", "--p", "97",
                               "--set", ",".join(map(str, squares)))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mult_stabilizer"] == squares
        assert result["automorphism_count"] == 97 * 48
        assert result["all_affine"] is True


class TestTraceCommand:
    def test_affine_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--p", "7", "--set", "1,2,4", "--perm", "3,5,0,2,4,6,1"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"] == "AFFINE"
        assert result["degree"] == 1
        assert result["min_power_index"] == 3

    def test_non_preserving_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "trace", "--p", "5", "--set", "1", "--perm", "1,0,2,3,4"
        )
        assert code == 1
        assert "does not preserve" in err


class TestScanCommand:
    def test_p5(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--p", "5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["subsets"] == 14
        assert result["violations"] == 0
        assert len(result["rows"]) == 14

    def test_jobs_do_not_change_bytes(self, capsys):
        _, one, _ = run_cli(capsys, "scan", "--p", "7", "--jobs", "1")
        _, two, _ = run_cli(capsys, "scan", "--p", "7", "--jobs", "2")
        assert one == two

    def test_huge_jobs_do_not_change_bytes(self, capsys, fake_pool, monkeypatch):
        monkeypatch.setattr(burnside.automorphisms.os, "cpu_count", lambda: 4)
        _, one, _ = run_cli(capsys, "scan", "--p", "7", "--jobs", "1")
        _, many, _ = run_cli(capsys, "scan", "--p", "7", "--jobs", "100000")
        monkeypatch.setenv("BURNSIDE_JOBS", "100000")
        _, env, _ = run_cli(capsys, "scan", "--p", "7")
        assert fake_pool == [4, 4]
        assert one == many == env

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BURNSIDE_JOBS", "2")
        code, out, _ = run_cli(capsys, "scan", "--p", "5")
        assert code == 0
        assert json.loads(out)["result"]["subsets"] == 14

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_complement_classes_counts_pairs(self, capsys, p):
        code, out, _ = run_cli(capsys, "scan", "--p", str(p))
        assert code == 0
        result = json.loads(out)["result"]
        pairs = {
            frozenset([tuple(row["diff_set"]), tuple(sorted(set(range(1, p)) - set(row["diff_set"])))])
            for row in result["rows"]
        }
        assert all(len(pair) == 2 for pair in pairs)  # U != U^c
        assert result["complement_classes"] == len(pairs)

    @pytest.mark.parametrize("p, digest", [
        ("11", "f3eb227c82457471a701118ba707aa177f937b090182ff392a877101026cbeca"),
        ("13", "b42d33f76bc7f932e786be3560167194414f7220e8edf802bea6a6f1d53b45da"),
    ])
    def test_report_bytes(self, capsys, p, digest):
        code, out, _ = run_cli(capsys, "scan", "--p", p, "--jobs", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--p", "17")
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_p2_exits_1(self, capsys, jobs):
        # No difference set exists mod 2: an input error, not a traceback.
        code, out, err = run_cli(capsys, "scan", "--p", "2", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "p >= 3" in err


class TestInterpCommand:
    def test_affine(self, capsys):
        code, out, _ = run_cli(capsys, "interp", "--p", "5", "--perm", "1,3,0,2,4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["coefficients"] == [1, 2]
        assert result["degree"] == 1
        assert result["is_affine"] is True
        assert result["rendered"] == "1 + 2*X"

    def test_transposition(self, capsys):
        code, out, _ = run_cli(capsys, "interp", "--p", "5", "--perm", "1,0,2,3,4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["coefficients"] == [1, 2, 1, 1]
        assert result["is_affine"] is False

    def test_non_bijection_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "interp", "--p", "5", "--perm", "1,1,2,3,4")
        assert code == 1


_SQUARES_97 = ",".join(map(str, sorted({i * i % 97 for i in range(1, 97)})))
_AFFINE_97 = ",".join(str((5 * i + 3) % 97) for i in range(97))


class TestGoldenReportBytes:
    # SHA-256 of stdout; any change to a report byte of these commands fails.
    @pytest.mark.parametrize("argv, stdin, digest", [
        (("aut", "--p", "7", "--set", "1,2,4"), None,
         "3e017fcbd1fcb064fb6e45ee4126d4cf8a2957213dd2a92a4a9b1361626c962a"),
        (("aut", "--p", "19", "--set", "6,13"), None,
         "47172850a7e6de4c79f6b93321c0b59ea9da704592a56064d2f245b57f20a380"),
        (("aut", "--p", "97", "--set", _SQUARES_97), None,
         "3234d3be76afc83738945255c0300652265f4a0dc702cd741f2053cc66574eb0"),
        (("classify", "--group", "-"), "p=5\n1,2,3,4,0\n0,4,3,2,1\n",
         "22cb5dfbe1cdb9722e0cb8306435ec60eb821649340213100c2975472b1f1aa6"),
        (("classify", "--group", "-"), "p=7\n1,2,3,4,5,6,0\n0,2,4,6,1,3,5\n",
         "e69b38a47a52bc8c6dbbb090de4c1c39b4e42c239067f70ab78a37a61d527698"),
        (("classify", "--group", "-"), "p=5\n1,2,3,4,0\n1,0,2,3,4\n",
         "67ed852824d9ee6a274b9eed86d6afe6c39e8aa53c6182e6adca0ced7cb14e16"),
        (("classify", "--group", "-"), "p=5\n1,0,2,3,4\n",
         "9c29e59db669e3e6f740ffcb87ae8ea263f65963bd0eb04248951b1bc4a61b01"),
        (("interp", "--p", "5", "--perm", "1,0,2,3,4"), None,
         "e0a8a9b95eb4ab32b058c084d00dcf706c91ec0c1cb53b8ab79816cf54b7f8a0"),
        (("interp", "--p", "97", "--perm", _AFFINE_97), None,
         "b475de80edf9b1c2334125c2928d1d0f7661c20c59e04646b85623b7ca589aa1"),
    ], ids=["aut-paley-7", "aut-sparse-19", "aut-squares-97", "classify-d5",
            "classify-frobenius-21", "classify-s5", "classify-intransitive",
            "interp-transposition-5", "interp-affine-97"])
    def test_report_bytes(self, capsys, monkeypatch, argv, stdin, digest):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDispatchPlumbing:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_flag_exits_1(self, capsys):
        assert main(["aut", "--p", "7"]) == 1

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--p", "5", "--set", "1", "--format", "text")
        assert code == 0
        assert "elapsed_seconds" in out
        assert "automorphism_count: 5" in out

    def test_json_has_no_timing(self, capsys):
        _, out, _ = run_cli(capsys, "aut", "--p", "5", "--set", "1")
        assert "elapsed" not in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "aut", "--p", "5", "--set", "1", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["automorphism_count"] == 5

    def test_input_digest_present(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--p", "5")
        digest = json.loads(out)["input_sha256"]
        assert len(digest) == 64

    def test_parser_reuse_keeps_no_state(self, capsys, tmp_path):
        # main() reuses one parser: flags from one call must not leak into the next
        target = tmp_path / "report.txt"
        first = run_cli(capsys, "aut", "--p", "5", "--set", "1")
        assert run_cli(capsys, "aut", "--p", "7", "--set", "1,2,4", "--format", "text",
                       "--output", str(target))[:2] == (0, "")
        assert run_cli(capsys, "aut", "--p", "5")[0] == 1
        assert run_cli(capsys, "aut", "--p", "5", "--set", "1") == first

    def test_import_leaves_process_pool_unloaded(self):
        # only a parallel scan needs multiprocessing; see automorphisms.ProcessPoolExecutor
        src = os.path.dirname(os.path.dirname(burnside.automorphisms.__file__))
        probe = ("import sys, burnside.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
