import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import burnside.automorphisms
import burnside.classifier
from burnside import verify_certificate
from burnside.classifier import Classification
from burnside.automorphisms import ScanRow
from burnside.cli import _json_chunks, _ScanRows, _text_chunks, main, parse_group_file
from burnside.errors import InputError
from burnside.permutations import Perm

from conftest import exhaustive_report_rows

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

    @pytest.mark.parametrize("modulus", ["\u0665", "\uff15", "0_5", " +5 "])
    def test_modulus_is_a_plain_decimal(self, capsys, tmp_path, modulus):
        # int() reads each of these as 5; only the last is a plain decimal.
        path = tmp_path / "c5.grp"
        path.write_text(f"p={modulus}\n1,2,3,4,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--group", str(path))
        if modulus == " +5 ":
            assert code == 0
            assert json.loads(out)["arguments"]["p"] == 5
        else:
            assert (code, out) == (1, "")
            assert err == f"error: {path}:1: bad modulus {modulus.strip()!r}\n"


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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_ignored(self, capsys, monkeypatch, tmp_path, d5_path, source):
        raw = b"\xef\xbb\xbf" + D5_FILE.encode()
        if source == "file":
            path = tmp_path / "bom.grp"
            path.write_bytes(raw)
            group = str(path)
        else:
            stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            group = "-"
        code, out, err = run_cli(capsys, "classify", "--group", group)
        assert (code, err) == (0, "")
        report = json.loads(out)
        _, plain, _ = run_cli(capsys, "classify", "--group", d5_path)
        assert report["result"] == json.loads(plain)["result"]
        # the digest is of the text as read, mark included
        assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()

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
        # Inject a fault: affine recognition of the conjugates that always
        # fails leaves D_5, which is not doubly transitive, without a
        # certificate: a theorem contradiction.
        monkeypatch.setattr(burnside.classifier, "conjugate_affine_coeffs", lambda *_: None)
        code, out, err = run_cli(capsys, "classify", "--group", d5_path)
        assert code == 2
        assert out == ""
        counterexample = json.loads(err)["counterexample"]
        assert counterexample == {
            "p": 5, "generators": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]}

    def test_no_p_cycle_exits_2(self, capsys, d5_path, monkeypatch):
        # Inject a fault: a breadth-first search that yields only the
        # identity finds no p-cycle, which contradicts the theorem.
        monkeypatch.setattr(burnside.classifier, "bfs_elements",
                            lambda field, seeds: iter([Perm.identity(field)]))
        code, out, err = run_cli(capsys, "classify", "--group", d5_path)
        assert code == 2
        assert out == ""
        counterexample = json.loads(err)["counterexample"]
        assert counterexample == {
            "p": 5, "generators": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]}

    def test_full_multiplier_group_exits_2(self, capsys, monkeypatch):
        # Inject a fault: AGL(1, 5) reported as not doubly transitive. Its
        # multipliers 1 and 2 generate all of F_5*, so it has no certificate
        # either, which contradicts the theorem.
        monkeypatch.setattr(burnside.classifier, "is_doubly_transitive", lambda spec: False)
        monkeypatch.setattr("sys.stdin", io.StringIO("p=5\n1,2,3,4,0\n0,2,4,1,3\n"))
        code, out, err = run_cli(capsys, "classify", "--group", "-")
        assert code == 2
        assert out == ""
        counterexample = json.loads(err)["counterexample"]
        assert counterexample == {
            "p": 5, "generators": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]]}


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
        assert err == "error: cannot parse difference set '1,x'\n"

    @pytest.mark.parametrize("text", ["1_0,\u0663", "\u0663", "\uff11", "1,\xa02"])
    def test_set_entries_are_plain_decimals(self, capsys, text):
        # int() reads these as {3, 10}, {3}, {1} and {1, 2}.
        code, out, err = run_cli(capsys, "aut", "--p", "13", "--set", text)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse difference set {text!r}\n"

    @pytest.mark.parametrize("option, value, argv", [
        ("--p", "1_3", ["aut", "--set", "1"]),
        ("--p", "\uff11\uff13", ["aut", "--set", "1"]),
        ("--p", "\u0667", ["trace", "--set", "1", "--perm", "0,1,2,3,4,5,6"]),
        ("--p", "0_5", ["interp", "--perm", "0,1,2,3,4"]),
        ("--jobs", "\u0662", ["scan", "--p", "5"]),
    ])
    def test_int_options_are_plain_decimals(self, capsys, option, value, argv):
        # int() reads each value as a prime or a worker count; the error is
        # argparse's own for a value int() rejects.
        code, out, err = run_cli(capsys, *argv, option, value)
        assert (code, out) == (1, "")
        assert err.endswith(f"argument {option}: invalid int value: {value!r}\n")

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

    def test_unparsable_perm_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--p", "5", "--set", "1", "--perm", "1,0,x")
        assert code == 1
        assert err == "error: cannot parse permutation '1,0,x'\n"


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
        assert fake_pool == [4]
        assert one == many

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

    # The digests were taken from the exhaustive scan, which searched every set.
    @pytest.mark.parametrize("p, digest", [
        ("11", "f3eb227c82457471a701118ba707aa177f937b090182ff392a877101026cbeca"),
        ("13", "b42d33f76bc7f932e786be3560167194414f7220e8edf802bea6a6f1d53b45da"),
        ("17", "4daba45d01951d700cff0cf952f77e5306038e2ef8698be5392d53edce5197c7"),
    ])
    def test_report_bytes(self, capsys, p, digest):
        code, out, _ = run_cli(capsys, "scan", "--p", p, "--jobs", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_writer_matches_json_dumps(self, capsys, p):
        code, out, _ = run_cli(capsys, "scan", "--p", str(p))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_writer_on_any_row_values(self):
        # Each row is its own set and size followed by its orbit's fields,
        # whatever their values.
        tails = [
            {"stabilizer_size": 1, "automorphism_count": 0, "all_affine": False,
             "min_power_index": 12},
            {"stabilizer_size": 2, "automorphism_count": 86, "all_affine": True,
             "min_power_index": 3},
        ]
        reps = [ScanRow((), 0, *tail.values()) for tail in tails]
        for sets, orbits in (
            ([(2, 30, 41)], [0]),
            ([(2, 30, 41), (5,), (1, 7)], [0, 1, 0]),
        ):
            head = {"command": "scan", "arguments": {"p": 43}, "input_sha256": "00"}
            rows = [{"diff_set": list(s), "size": len(s), **tails[o]}
                    for s, o in zip(sets, orbits)]
            report = {**head, "result": {"p": 43, "violations": 0, "rows": rows}}
            # The writer joins each set's member texts, as the scan hands them over.
            texts = [tuple(map(str, s)) for s in sets]
            streamed = {**head, "result": {"p": 43, "violations": 0,
                                           "rows": _ScanRows(iter(texts), orbits, reps)}}
            chunks = list(_json_chunks(streamed))
            # the head, one block per run of equal-size sets, the end; here
            # every set is a size of its own
            assert len(chunks) == len(sets) + 2
            assert "".join(chunks) == json.dumps(report, indent=2) + "\n"
            # Rows that are not a _ScanRows are dumped whole, in one chunk.
            assert list(_json_chunks(report)) == [json.dumps(report, indent=2) + "\n"]

    def test_streamed_file_peak_below_its_size(self, capsys, tmp_path):
        # The rows are written one at a time, so the traced peak of a
        # p = 17 scan stays below the 19.4 MB it writes.
        target = tmp_path / "scan.json"
        tracemalloc.start()
        try:
            code = main(["scan", "--p", "17", "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == ""
        assert peak < target.stat().st_size
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "4daba45d01951d700cff0cf952f77e5306038e2ef8698be5392d53edce5197c7")

    def test_text_bytes(self, capsys):
        # The text rendering does not go through the JSON writer; all but its
        # timing line is pinned.
        code, out, _ = run_cli(capsys, "scan", "--p", "11", "--format", "text")
        assert code == 0
        body, elapsed = out.rsplit("elapsed_seconds: ", 1)
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "32e6b1d7f76a05af084881816d68a5ed0b4e20416c2c04b24b0f052149f45d34")
        assert elapsed.endswith("\n") and "\n" not in elapsed[:-1]

    def test_text_bytes_p13(self, capsys):
        # Taken from the text renderer that built every row dict first.
        code, out, _ = run_cli(capsys, "scan", "--p", "13", "--format", "text")
        assert code == 0
        body = out.rsplit("elapsed_seconds: ", 1)[0]
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "e62b392cf2da723541289b8d99e43d6fa52ecf8a0eadffbd9c447c979001d9f5")

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_text_writer_matches_generic_renderer(self, capsys, p):
        # The streamed rows against the generic renderer on row dicts from
        # the exhaustive scan; only the timing line may differ.
        code, out, _ = run_cli(capsys, "scan", "--p", str(p), "--format", "text")
        assert code == 0
        _, json_out, _ = run_cli(capsys, "scan", "--p", str(p))
        report = json.loads(json_out)
        report["result"]["rows"] = exhaustive_report_rows(p)
        expected = "".join(_text_chunks(report, 0.0))
        assert out.rsplit("elapsed_seconds: ", 1)[0] == expected.rsplit("elapsed_seconds: ", 1)[0]

    def test_streamed_text_peak_below_its_size(self, capsys, tmp_path):
        # Text rows are written one at a time too: the traced peak of a
        # p = 17 text scan stays below the 11.4 MB it writes.
        target = tmp_path / "scan.txt"
        tracemalloc.start()
        try:
            code = main(["scan", "--p", "17", "--format", "text", "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == ""
        assert peak < target.stat().st_size

    # Refused before any 2**(p-1)-slot table is built: from p = 67 on, such
    # a list is past the interpreter's maximum size.
    @pytest.mark.parametrize("p", [29, 67, 97])
    def test_cap_is_one_line(self, capsys, p):
        code, out, err = run_cli(capsys, "scan", "--p", str(p))
        assert code == 1
        assert out == ""
        assert err.startswith("error: subset scan is capped at p <= 23")
        assert err.count("\n") == 1

    def test_cap_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--p", "29")
        assert code == 1
        assert "cap" in err

    def test_unsafe_cap_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--p", "13", "--unsafe-cap")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --unsafe-cap" in err

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
_POWER5_97 = ",".join(str(i ** 5 % 97) for i in range(97))  # degree 5


def _shuffled(p, seed):
    table = list(range(p))
    random.Random(seed).shuffle(table)
    return ",".join(map(str, table))


def _group_file(p, maps, seed=None):
    """The group file of the maps x -> a*x + b, relabelled by the shuffle
    of range(p) that random.Random(seed) makes (none without a seed)."""
    sigma = list(range(p))
    if seed is not None:
        random.Random(seed).shuffle(sigma)
    inverse = sorted(range(p), key=sigma.__getitem__)
    rows = (",".join(str(sigma[(a * inverse[i] + b) % p]) for i in range(p)) for a, b in maps)
    return "".join(f"{line}\n" for line in (f"p={p}", *rows))


# T.<35, 22> mod 97: 35 has order 3 and 22 order 4, so together they
# generate the subgroup of order 12, which neither generates alone.
THREE_GENERATORS_97 = _group_file(97, ((1, 1), (35, 0), (22, 2)), seed=97)


def golden_group_files():
    """The group file of every classify report pinned byte for byte, by name."""
    return {
        "d5": "p=5\n1,2,3,4,0\n0,4,3,2,1\n",
        "frobenius-21": "p=7\n1,2,3,4,5,6,0\n0,2,4,6,1,3,5\n",
        "no-p-cycle-generator-21": "p=7\n2,4,6,1,3,5,0\n0,2,4,6,1,3,5\n",
        "s5": "p=5\n1,2,3,4,0\n1,0,2,3,4\n",
        "intransitive": "p=5\n1,0,2,3,4\n",
        "two-multipliers-19": _group_file(19, ((18, 3), (7, 5))),
        "index-two-97": _group_file(97, ((1, 1), (25, 3)), seed=97),
        "three-generators-97": THREE_GENERATORS_97,
    }


class TestThreeGeneratorCertificate:
    # The classify bytes of THREE_GENERATORS_97, as CI pins them.
    DIGEST = "7c75436a8133499f2626ab289acaecb775017fc8fdbeb2a22814e8b9981c2e10"

    def test_report_bytes_and_recheck(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(THREE_GENERATORS_97))
        code, out, _ = run_cli(capsys, "classify", "--group", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGEST
        result = json.loads(out)["result"]
        assert result["group_order"] == 97 * 12
        assert sorted(c["a"] for c in result["embedding"]) == [1, 22, 35]
        spec = parse_group_file(io.StringIO(THREE_GENERATORS_97))
        assert verify_certificate(spec, Classification.from_payload(result))


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
        # x -> 2x+1 and x -> 2x: order 21, no 7-cycle among the generators
        (("classify", "--group", "-"), "p=7\n2,4,6,1,3,5,0\n0,2,4,6,1,3,5\n",
         "f15f17ab0b01ad8b4c543ea65ad0c84d068c460c818812eeb24fa5e53f316769"),
        (("classify", "--group", "-"), "p=5\n1,2,3,4,0\n1,0,2,3,4\n",
         "67ed852824d9ee6a274b9eed86d6afe6c39e8aa53c6182e6adca0ced7cb14e16"),
        (("classify", "--group", "-"), "p=5\n1,0,2,3,4\n",
         "9c29e59db669e3e6f740ffcb87ae8ea263f65963bd0eb04248951b1bc4a61b01"),
        # x -> 18x+3 and x -> 7x+5: no 19-cycle, U = <-1, 7>, order 114
        (("classify", "--group", "-"), _group_file(19, ((18, 3), (7, 5))),
         "8fe105da210b31cf0b403c8287b8b23961f4890a41670f85baeb71d0148aaee8"),
        # the index-2 group of TestLargestDegree: order 97 * 48 = 4656
        (("classify", "--group", "-"), _group_file(97, ((1, 1), (25, 3)), seed=97),
         "0f378c3d0fd443b0323066a74fe67618470114a1aeb5d8e6a6e8138764a6e77a"),
        (("interp", "--p", "5", "--perm", "1,0,2,3,4"), None,
         "e0a8a9b95eb4ab32b058c084d00dcf706c91ec0c1cb53b8ab79816cf54b7f8a0"),
        (("interp", "--p", "97", "--perm", _AFFINE_97), None,
         "b475de80edf9b1c2334125c2928d1d0f7661c20c59e04646b85623b7ca589aa1"),
        (("interp", "--p", "97", "--perm", _POWER5_97), None,
         "91b230cc8d64e337dbd4a6c3ff335d8002fd7057a1d5cd802ec8b82d8229ca20"),
        (("interp", "--p", "97", "--perm", _shuffled(97, 97)), None,
         "9ef746c8bfa113c8e41caf2ff591b3e900187ed077e1d7233e711090aa04b877"),
    ], ids=["aut-paley-7", "aut-sparse-19", "aut-squares-97", "classify-d5",
            "classify-frobenius-21", "classify-no-p-cycle-generator-21",
            "classify-s5", "classify-intransitive",
            "classify-two-multipliers-19", "classify-index-two-97",
            "interp-transposition-5", "interp-affine-97",
            "interp-power5-97", "interp-shuffled-97"])
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

    @pytest.mark.parametrize("argv", [
        ["scan", "--p", "5"],
        ["aut", "--p", "5", "--set", "1"],
    ])
    def test_output_into_missing_directory_exits_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output:")
        assert "Traceback" not in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv, kept", [
        (["scan", "--p", "13"], 100),
        (["scan", "--p", "13", "--format", "text"], 100),
        # The whole report is still in stdout's buffer when the flush fails.
        (["aut", "--p", "5", "--set", "1"], 0),
    ], ids=["scan-json", "scan-text", "aut"])
    def test_closed_stdout_exits_1(self, argv, kept):
        # The reader goes away after `kept` bytes, with stdout block-buffered
        # as it is by default: one error line, and no traceback from the
        # write or the interpreter's flush at exit.
        src = os.path.dirname(os.path.dirname(burnside.automorphisms.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen([sys.executable, "-m", "burnside.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(kept)) == kept
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            err = proc.stderr.read().decode()
        assert err.startswith("error: cannot write output:")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

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
        # only a parallel scan needs multiprocessing; see automorphisms._scan_sets
        src = os.path.dirname(os.path.dirname(burnside.automorphisms.__file__))
        probe = ("import sys, burnside.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
