"""Command-line front end.

Commands
  classify  --group FILE        decide the dichotomy for a generated group
  aut       --p N --set U       enumerate difference-preserving permutations
  trace     --p N --set U --perm P   replay the affinity argument stepwise
  scan      --p N [--jobs K]    run aut over every valid set mod p
  interp    --p N --perm P      interpolating polynomial of a permutation

Group files: first significant line "p=<prime>", then one generator per
line as a comma-separated image list; '#' starts a comment, blank lines
and a leading UTF-8 byte order mark are ignored. Every integer, in a file
or an option, is a plain ASCII decimal (``fields.parse_int``).

Exit codes: 0 success, 1 invalid input or usage (or output that cannot
be written), 2 internal invariant violation (a theorem came out false,
i.e. a bug; the counterexample is serialized to stderr). A trace whose
verdict is VIOLATION still writes its report, then exits 2.

Structured (JSON) reports are deterministic: identical inputs render to
identical bytes, with timing kept out of them. The plain-text rendering
is a convenience and carries no stability guarantee.

A report is written to stdout or --output as a sequence of text chunks.
A scan report is formatted as it is written, its JSON rows in blocks of
at most ``SCAN_BLOCK`` rows of one size and its text rows one at a
time, so no copy of the whole report is held. Every check runs before
the first byte is written, so a failed command writes nothing and
creates no --output file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import sys
import time
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .automorphisms import (
    ScanRow,
    canonical_subsets,
    enumerate_diff_preserving,
    walk_orbits,
)
from .classifier import classify
from .errors import InputError, InternalInvariantViolation
from .fields import DiffSet, PrimeField, parse_int, parse_ints
from .groups import GroupSpec
from .permutations import Perm, recognize_affine
from .polynomials import interpolate
from .trace import AFFINE, run_trace

# Rows per JSON block of a scan report: each block is one string built by
# one join, about 70 KB mod 13, so no chunk grows with the report. Blocks
# of 64 and of 2048 rows wrote a p = 13 report within noise of this.
SCAN_BLOCK = 256


def parse_group_file(stream: IO[str], name: str = "<group>") -> GroupSpec:
    """Parse a group file into a validated GroupSpec."""
    field: Optional[PrimeField] = None
    generators: list[Perm] = []
    for lineno, raw in enumerate(stream, start=1):
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")  # a UTF-8 byte order mark
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field is None:
            if not line.startswith("p=") and not line.startswith("p ="):
                raise InputError(
                    f"{name}:{lineno}: expected 'p=<integer>' before generators"
                )
            text = line.split("=", 1)[1].strip()
            try:
                p = parse_int(text)
            except ValueError:
                raise InputError(f"{name}:{lineno}: bad modulus {text!r}") from None
            try:
                field = PrimeField(p)
            except InputError as exc:
                raise InputError(f"{name}:{lineno}: {exc}") from None
            continue
        try:
            generators.append(Perm.from_text(field, line))
        except InputError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from None
    if field is None:
        raise InputError(f"{name}: missing 'p=<integer>' line")
    if not generators:
        raise InputError(f"{name}: no generators given")
    return GroupSpec(field, tuple(generators))


def _int_option(text: str) -> int:
    """An integer option's value, a plain decimal as ``parse_int`` reads it;
    anything else is the usage error argparse gives for ``type=int``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage errors exit 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="burnside", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", metavar="FILE", default=None)

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify a generated group")
    p_classify.add_argument("--group", required=True, metavar="FILE",
                            help="group file, or '-' for stdin")

    p_aut = sub.add_parser("aut", parents=[common],
                           help="enumerate difference-preserving permutations")
    p_aut.add_argument("--p", required=True, type=_int_option)
    p_aut.add_argument("--set", required=True, metavar="u1,u2,...")

    p_trace = sub.add_parser("trace", parents=[common],
                             help="replay the affinity argument for one input")
    p_trace.add_argument("--p", required=True, type=_int_option)
    p_trace.add_argument("--set", required=True, metavar="u1,u2,...")
    p_trace.add_argument("--perm", required=True, metavar="i0,i1,...")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="enumerate over every valid set mod p")
    p_scan.add_argument("--p", required=True, type=_int_option)
    p_scan.add_argument("--jobs", type=_int_option, default=1)

    p_interp = sub.add_parser("interp", parents=[common],
                              help="interpolate a permutation")
    p_interp.add_argument("--p", required=True, type=_int_option)
    p_interp.add_argument("--perm", required=True, metavar="i0,i1,...")

    return parser


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cmd_classify(args) -> tuple[dict, dict, str, int]:
    name = "<stdin>" if args.group == "-" else args.group
    try:
        if args.group == "-":
            content = sys.stdin.read()
        else:
            with open(args.group, "r", encoding="utf-8") as fh:
                content = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read group input: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"group input {name} is not UTF-8: {exc}") from None
    spec = parse_group_file(io.StringIO(content), name)
    result = classify(spec).to_payload()
    arguments = {
        "p": spec.field.p,
        "generators": [list(g.images) for g in spec.generators],
    }
    return result, arguments, _digest(content), 0


def _cmd_aut(args) -> tuple[dict, dict, str, int]:
    field = PrimeField(args.p)
    dset = DiffSet(field, parse_ints(args.set, "difference set"))
    result = enumerate_diff_preserving(field, dset)
    payload = {
        "p": field.p,
        "diff_set": list(dset.elements),
        "mult_stabilizer": list(result.mult_stabilizer),
        "automorphism_count": len(result.automorphisms),
        "all_affine": result.all_affine,
        "automorphisms": [list(q.images) for q in result.automorphisms],
        "cycle_forms": [q.cycle_string() for q in result.automorphisms],
    }
    arguments = {"p": field.p, "set": list(dset.elements)}
    digest = _digest(f"aut p={field.p} set={dset.elements}")
    return payload, arguments, digest, 0


def _cmd_trace(args) -> tuple[dict, dict, str, int]:
    field = PrimeField(args.p)
    dset = DiffSet(field, parse_ints(args.set, "difference set"))
    perm = Perm.from_text(field, args.perm)
    report = run_trace(field, dset, perm)
    payload = report.to_payload()
    payload["perm"] = list(perm.images)
    arguments = {
        "p": field.p,
        "set": list(dset.elements),
        "perm": list(perm.images),
    }
    digest = _digest(f"trace p={field.p} set={dset.elements} perm={perm.images}")
    code = 0 if report.verdict == AFFINE else 2
    return payload, arguments, digest, code


class _ScanRows(NamedTuple):
    """The rows of a scan report, one per set, each from its orbit's row.

    Each set is the tuple of its members' decimal texts, as
    ``canonical_subsets`` yields them over the texts of 1..p-1, so the
    writers join a row's set without formatting any member.
    """

    sets: Iterable[tuple[str, ...]]  # every set, in canonical order
    orbits: list[int]  # the orbit index of each set
    reps: list[ScanRow]  # the checked row of each orbit's representative


def _cmd_scan(args) -> tuple[dict, dict, str, int]:
    field = PrimeField(args.p)
    reps, orbits = walk_orbits(field, jobs=args.jobs)
    payload = {
        "p": field.p,
        "subsets": len(orbits),
        # U != U^c for every valid U, so the sets split into exactly len/2 pairs.
        "complement_classes": len(orbits) // 2,
        # An orbit invariant, so the representatives hold every value.
        "max_automorphism_count": max(r.automorphism_count for r in reps),
        "violations": 0,
        "rows": _ScanRows(canonical_subsets([str(u) for u in field.nonzero()]),
                          orbits, reps),
    }
    arguments = {"p": field.p}
    return payload, arguments, _digest(f"scan p={field.p}"), 0


def _cmd_interp(args) -> tuple[dict, dict, str, int]:
    field = PrimeField(args.p)
    perm = Perm.from_text(field, args.perm)
    poly = interpolate(field, perm)
    payload = {
        "p": field.p,
        "perm": list(perm.images),
        "coefficients": list(poly.coeffs),
        "degree": int(poly.degree),
        "is_affine": recognize_affine(perm) is not None,
        "rendered": poly.render(),
    }
    arguments = {"p": field.p, "perm": list(perm.images)}
    digest = _digest(f"interp p={field.p} perm={perm.images}")
    return payload, arguments, digest, 0


_COMMANDS = {
    "classify": _cmd_classify,
    "aut": _cmd_aut,
    "trace": _cmd_trace,
    "scan": _cmd_scan,
    "interp": _cmd_interp,
}


def _json_chunks(report: dict) -> Iterator[str]:
    """``json.dumps(report, indent=2) + "\\n"``, in chunks; one chunk unless
    ``report["result"]["rows"]`` is a ``_ScanRows`` (with at least one set).

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder, and a
    scan report is almost all rows of one shape (a non-empty int list, ints
    and a bool). So the report is dumped without its rows, and each orbit's
    tail is formatted once: its fields from ``stabilizer_size`` to
    ``min_power_index``, the row's end and the next row's opening. A row is
    then its set's member texts joined, its size and its orbit's tail, in
    the same layout. Each run of sets of one size is written in blocks of
    at most ``SCAN_BLOCK`` rows, one join each over the joined sets, that
    size's text and the tails looked up by orbit; the last block drops the
    opening its last tail carries. No row dict, no member ``str`` and no
    whole-report string is built per row.
    """
    result = report["result"]
    rows = result.get("rows")
    if not isinstance(rows, _ScanRows):
        yield json.dumps(report, indent=2) + "\n"
        return
    head = json.dumps({**report, "result": {**result, "rows": []}}, indent=2)
    before, after = head.rsplit('"rows": []', 1)
    opening = ',\n      {\n        "diff_set": [\n          '
    tails = [
        f""",
        "stabilizer_size": {r.stabilizer_size},
        "automorphism_count": {r.automorphism_count},
        "all_affine": {"true" if r.all_affine else "false"},
        "min_power_index": {r.min_power_index}
      }}{opening}"""
        for r in rows.reps
    ]
    join = ",\n          ".join
    # zip pulls from its arguments left to right and stops at the first
    # that ends, so a block that runs out of sets takes no orbit's tail.
    tail_of = map(tails.__getitem__, rows.orbits)
    block = f'{before}"rows": [{opening[1:]}'
    for size, sets in itertools.groupby(rows.sets, len):
        size_text = itertools.repeat(f'\n        ],\n        "size": {size}')
        while text := "".join(itertools.chain.from_iterable(
                zip(map(join, itertools.islice(sets, SCAN_BLOCK)), size_text, tail_of))):
            yield block
            block = text
    yield block[:-len(opening)]
    yield f"\n    ]{after}\n"


def _text_chunks(report: dict, elapsed: float) -> Iterator[str]:
    """The plain-text rendering of a report, one line per chunk.

    Each scalar or flat list is a ``key: value`` line; a dict or a nested
    list is a ``key:`` line over its items, indented two more spaces. A
    ``_ScanRows`` value renders as the list of its row dicts would, but a
    row at a time: each orbit's lines from ``stabilizer_size`` on are
    rendered once, and each row is its index, its set's member texts
    joined, its size and its orbit's lines.
    """

    def emit(key: str, value, indent: int) -> Iterator[str]:
        pad = "  " * indent
        if isinstance(value, dict):
            yield f"{pad}{key}:\n"
            for k, v in value.items():
                yield from emit(k, v, indent + 1)
        elif isinstance(value, _ScanRows):
            yield f"{pad}{key}:\n"
            tails = [
                f"{pad}    stabilizer_size: {r.stabilizer_size}\n"
                f"{pad}    automorphism_count: {r.automorphism_count}\n"
                f"{pad}    all_affine: {r.all_affine}\n"
                f"{pad}    min_power_index: {r.min_power_index}\n"
                for r in value.reps
            ]
            for idx, (combo, orbit) in enumerate(zip(value.sets, value.orbits)):
                yield (f"{pad}  [{idx}]:\n{pad}    diff_set: [{', '.join(combo)}]"
                       f"\n{pad}    size: {len(combo)}\n{tails[orbit]}")
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                joined = ", ".join(str(v) for v in value)
                yield f"{pad}{key}: [{joined}]\n"
            else:
                yield f"{pad}{key}:\n"
                for idx, v in enumerate(value):
                    yield from emit(f"[{idx}]", v, indent + 1)
        else:
            yield f"{pad}{key}: {value}\n"

    for key, value in report.items():
        yield from emit(key, value, 0)
    yield f"elapsed_seconds: {elapsed:.3f}\n"


# Built once per process: a parser keeps no state between parse_args calls,
# and building one (each add_argument probes the terminal size) costs about a
# third of a small `aut` call.
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        result, arguments, digest, code = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantViolation as exc:
        failure = {"error": str(exc), "counterexample": exc.payload}
        print(json.dumps(failure, indent=2), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    report = {
        "command": args.command,
        "arguments": arguments,
        "input_sha256": digest,
        "result": result,
    }
    if args.format == "text":
        chunks = _text_chunks(report, elapsed)
    else:
        chunks = _json_chunks(report)

    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:
            # Whatever stdout still buffers is dropped: with its descriptor
            # on os.devnull, the interpreter's last flush has nowhere to fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    if code != 0:
        print("trace verdict VIOLATION: a checked identity failed on valid "
              "input; this is a bug", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
