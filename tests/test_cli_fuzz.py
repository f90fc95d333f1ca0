"""A seeded fuzz of the command line's input edges.

Random group files and options, most of them valid or one edit away from
valid, go through ``main`` in process: group files with a byte order
mark, CRLF line ends, comments, shuffled lines, non-permutations, huge or
non-ASCII integers and missing or non-prime moduli, and random ``aut``,
``trace``, ``interp`` and ``scan`` options and formats. Every call must
exit 0 or 1 and raise nothing. An exit 0 writes a report that a second
call repeats byte for byte (JSON, or text up to its timing line); an
exit 1 writes nothing to stdout and creates no ``--output`` file.

The seed and the number of calls are fixed, so every run makes the same
calls. They take about 1.4 s on a 2-vCPU host with Python 3.11.7,
against a budget of 5 s.
"""

import collections
import io
import json
import os
import random

import pytest

from burnside.cli import main

SEED = 15
CALLS = 1500

PRIMES = (3, 5, 7, 11, 13, 17, 31, 97)
SCAN_PRIMES = (3, 5, 7, 11)
# Integer texts that no option or group file accepts as a valid value.
BAD_INTS = ("", " ", "x", "1.5", "0x7", "1_0", "٣", "１", "1e3",
            "9" * 40, "-" + "9" * 40, "9" * 5000)
BAD_MODULI = ("0", "1", "4", "9", "-5", "101", "9" * 40, "٧", "seven", "")


def _list_text(rng, p, values):
    """The values as a comma-separated list: usually exact, otherwise with
    one entry changed, dropped, repeated or replaced by a bad text."""
    texts = [str(v) for v in values]
    roll = rng.random()
    if roll < 0.7 or not texts:
        return ",".join(texts)
    i = rng.randrange(len(texts))
    if roll < 0.8:
        texts[i] = str(rng.choice((rng.randrange(p), -1, p, 2 * p + 1)))
    elif roll < 0.85:
        del texts[i]
    elif roll < 0.9:
        texts.insert(i, texts[i])
    else:
        texts[i] = rng.choice(BAD_INTS)
    return ",".join(texts)


def _a_set(rng, p):
    return rng.sample(range(1, p), rng.randrange(1, p - 1))


def _affine(p, a, b):
    return [(a * x + b) % p for x in range(p)]


def _a_map(rng, p, elements):
    """Mostly a map preserving U-differences, x -> a*x + b with a*U = U;
    otherwise any permutation."""
    if rng.random() < 0.8:
        multipliers = [a for a in range(1, p)
                       if {a * u % p for u in elements} == set(elements)]
        return _affine(p, rng.choice(multipliers), rng.randrange(p))
    images = list(range(p))
    rng.shuffle(images)
    return images


def _group_file(rng):
    """The bytes of a group file, and whether it is given on stdin."""
    p = rng.choice(PRIMES[:5])
    generators = [_affine(p, 1, 1)] if rng.random() < 0.8 else []
    for _ in range(rng.randrange(3)):
        if rng.random() < 0.5:
            generators.append(_affine(p, rng.randrange(1, p), rng.randrange(p)))
        else:
            generators.append(rng.sample(range(p), p))
    lines = [_list_text(rng, p, g) for g in generators]
    roll = rng.random()
    if roll < 0.85:
        lines.insert(0, f"p={p}" if rng.random() < 0.8 else f"p = {p}  # modulus")
    elif roll < 0.95:
        lines.insert(0, f"p={rng.choice(BAD_MODULI)}")
    if rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "# comment", "   ")))
    if rng.random() < 0.05:
        rng.shuffle(lines)
    text = ("\r\n" if rng.random() < 0.3 else "\n").join(lines) + "\n"
    raw = text.encode()
    if rng.random() < 0.2:
        raw = b"\xef\xbb\xbf" + raw
    if rng.random() < 0.03:
        raw = b"\xff" + raw  # not UTF-8
    return raw, rng.random() < 0.3


def _arguments(rng, tmp_path, index):
    """(argv, group file bytes or None, read on stdin) for one call."""
    command = rng.choice(("classify", "aut", "trace", "interp", "scan"))
    p = rng.choice(SCAN_PRIMES if command == "scan" else PRIMES)
    p_text = rng.choice(BAD_MODULI + BAD_INTS) if rng.random() < 0.08 else str(p)
    elements = _a_set(rng, p)
    raw, on_stdin = None, False
    if command == "classify":
        raw, on_stdin = _group_file(rng)
        path = tmp_path / f"group{index}.grp"
        path.write_bytes(raw)
        argv = ["classify", "--group", "-" if on_stdin else str(path)]
    elif command == "aut":
        argv = ["aut", "--p", p_text, "--set", _list_text(rng, p, elements)]
    elif command == "trace":
        argv = ["trace", "--p", p_text, "--set", _list_text(rng, p, elements),
                "--perm", _list_text(rng, p, _a_map(rng, p, elements))]
    elif command == "interp":
        argv = ["interp", "--p", p_text, "--perm", _list_text(rng, p, _a_map(rng, p, elements))]
    else:
        jobs = rng.choice(("1",) * 8 + ("0", "-1", "x", "1.5"))
        argv = ["scan", "--p", p_text, "--jobs", jobs]
    if rng.random() < 0.03:
        del argv[rng.randrange(1, len(argv))]
    if rng.random() < 0.02:
        argv.append("--unknown")
    roll = rng.random()
    if roll < 0.1:
        argv += ["--format", "text"]
    elif roll < 0.15:
        argv += ["--format", rng.choice(("json", "xml", ""))]
    if rng.random() < 0.25:
        folder = tmp_path if rng.random() < 0.9 else tmp_path / "missing"
        argv += ["--output", str(folder / f"out{index}")]
    return argv, raw, on_stdin


def _run(capsys, monkeypatch, argv, raw, on_stdin):
    if on_stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    try:
        code = main(argv)
    except Exception as exc:  # a traceback: the input edge is not handled
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert "Traceback" not in err, (argv, err)
    return code, out


def _report(argv, out):
    """The report a call wrote, on stdout or in its --output file (the
    last argument when given)."""
    if "--output" in argv:
        assert out == ""
        with open(argv[-1], encoding="utf-8") as fh:
            return fh.read()
    return out


def test_seeded_cli_fuzz(capsys, monkeypatch, tmp_path):
    rng = random.Random(SEED)
    outcomes = collections.Counter()
    for index in range(CALLS):
        argv, raw, on_stdin = _arguments(rng, tmp_path, index)
        code, out = _run(capsys, monkeypatch, argv, raw, on_stdin)
        outcomes[argv[0], code] += 1
        assert code in (0, 1), argv
        if code == 1:
            assert out == "", argv
            assert "--output" not in argv or not os.path.exists(argv[-1]), argv
            continue
        report = _report(argv, out)
        again, second = _run(capsys, monkeypatch, argv, raw, on_stdin)
        assert again == 0
        if "text" in argv:
            # the last line is the run's elapsed time
            assert report.splitlines()[:-1] == _report(argv, second).splitlines()[:-1]
        else:
            assert json.loads(report)["command"] == argv[0]
            assert _report(argv, second) == report, argv
    for command in ("classify", "aut", "trace", "interp", "scan"):
        assert outcomes[command, 0] >= 20 and outcomes[command, 1] >= 5, outcomes
