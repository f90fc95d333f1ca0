"""The four workloads: input generation from a seed, one timed call per item,
and the check of every output.

The program sees only argv and group-file text; every command goes through
``burnside.cli.main`` in this process with its output captured in memory.
Inputs are generated per pass from ``(seed, pass)``; each pass has the same
shape (same primes, set sizes and group orders), so what varies with the
seed is which sets, relabellings and maps are drawn, not how much work a
pass holds. Shapes whose seed cost is far beyond a run are left out; they
are listed as known defects in ``baseline.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Item:
    """One program input and what its output must say."""

    argv: list[str]
    stdin: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    code: int
    out: str
    verified: bool | None = None


def call_cli(bz, argv: list[str], stdin: str | None = None) -> tuple[int, str]:
    """Run ``burnside.cli.main(argv)`` with stdin/stdout/stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bz.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _primitive_root(p: int) -> int:
    for g in range(1, p):
        if _mult_order(g, p) == p - 1:
            return g
    raise ValueError(p)


def _mult_order(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


def mult_stabilizer(p: int, elements) -> list[int]:
    """M(U) = {a : aU = U}, computed here and not by the program."""
    target = set(elements)
    return [a for a in range(1, p) if {a * u % p for u in target} == target]


def _result(out: str) -> dict:
    return json.loads(out)["result"]


def _set_arg(rng: random.Random, elements) -> str:
    shown = list(elements)
    rng.shuffle(shown)
    return ",".join(map(str, shown))


# ---------------------------------------------------------------------------
# certify: classify + verify_certificate on every non-doubly-transitive
# transitive subgroup of AGL(1, p), p <= 23, on C_97, and on S_p and A_p for
# the doubly transitive branch. Around the middle, cost rises by 10-40% from
# one group kind to the next, so a median taken there moves with the host's
# speed swings. C_23 is drawn eleven times (relabelled afresh each time), so a
# pass holds 45 groups: the median (rank 23 of 45) sits in the middle of the
# block of equal-cost C_23 draws, and p90 (0.9 * 45 = 40.5) in the middle of
# the order-114 group at p = 19, whose cost lies far from both neighbours'.

CERTIFY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
MEDIAN_BLOCK = (23, 11)  # (p, draws of C_p per pass)
DOUBLY_TRANSITIVE_PRIMES = (29, 31, 43, 97)
BIG_P = 97


def _relabel(images: list[int], sigma: list[int]) -> list[int]:
    """sigma g sigma^-1 as an image table."""
    out = [0] * len(images)
    for i, v in enumerate(images):
        out[sigma[i]] = sigma[v]
    return out


def _group_text(p: int, name: str, generators, rng: random.Random) -> str:
    sigma = list(range(p))
    rng.shuffle(sigma)
    gens = [_relabel(g, sigma) for g in generators]
    rng.shuffle(gens)
    lines = [f"# {name}, relabelled", f"p={p}"]
    lines += [",".join(map(str, g)) for g in gens]
    return "\n".join(lines) + "\n"


class Certify:
    name = "certify"
    seeded = True
    min_items = 100
    weight = 1  # work units per item

    def generate(self, seed: int, pass_index: int) -> list[Item]:
        rng = _rng(seed, self.name, pass_index)
        items = []
        for p in CERTIFY_PRIMES:
            for d in range(2, p):
                if (p - 1) % d:
                    continue
                k = (p - 1) // d
                draws = MEDIAN_BLOCK[1] if (p, k) == (MEDIAN_BLOCK[0], 1) else 1
                for _ in range(draws):
                    b = rng.randrange(1, p)
                    gens = [[(i + b) % p for i in range(p)]]
                    if k > 1:
                        m = rng.choice([a for a in range(2, p) if _mult_order(a, p) == k])
                        c = rng.randrange(p)
                        gens.append([(m * i + c) % p for i in range(p)])
                    text = _group_text(p, f"index-{d} affine subgroup", gens, rng)
                    items.append(Item(["classify", "--group", "-"], text,
                                      {"variant": "SOLVABLE_AFFINE", "order": p * k}))
        for p in DOUBLY_TRANSITIVE_PRIMES:
            b = rng.randrange(1, p)
            cycle = [(i + b) % p for i in range(p)]
            groups = [(f"S_{p}", [cycle, [1, 0] + list(range(2, p))]),
                      (f"A_{p}", [cycle, [1, 2, 0] + list(range(3, p))])]
            for name, gens in groups:
                items.append(Item(["classify", "--group", "-"], _group_text(p, name, gens, rng),
                                  {"variant": "DOUBLY_TRANSITIVE", "order": None}))
        b = rng.randrange(1, BIG_P)
        cycle = [(i + b) % BIG_P for i in range(BIG_P)]
        items.append(Item(["classify", "--group", "-"], _group_text(BIG_P, "C_97", [cycle], rng),
                          {"variant": "SOLVABLE_AFFINE", "order": BIG_P}))
        return items

    def warmup(self) -> list[Item]:
        text = "p=7\n1,2,3,4,5,6,0\n0,2,4,6,1,3,5\n"
        return [Item(["classify", "--group", "-"], text,
                     {"variant": "SOLVABLE_AFFINE", "order": 21})]

    def run(self, bz, item: Item) -> Outcome:
        code, out = call_cli(bz, item.argv, item.stdin)
        if code != 0:
            return Outcome(code, out)
        classification = bz.classifier.Classification.from_payload(_result(out))
        spec = bz.cli.parse_group_file(io.StringIO(item.stdin))
        return Outcome(code, out, bz.classifier.verify_certificate(spec, classification))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        result = _result(outcome.out)
        if result["variant"] != item.expect["variant"]:
            return f"variant {result['variant']} != {item.expect['variant']}"
        if not outcome.verified:
            return "verify_certificate returned False"
        order = item.expect["order"]
        if order is not None and result.get("group_order") != order:
            return f"group_order {result.get('group_order')} != {order}"
        return None

    def properties(self, windows: list[list[Item]]) -> dict:
        items = [it for window in windows for it in window]
        mix = Counter(it.expect["order"] or 0 for it in items)  # 0: doubly transitive
        return {"group_order_mix": {str(order or "doubly_transitive"): n
                                    for order, n in sorted(mix.items())},
                "groups": len(items)}


# ---------------------------------------------------------------------------
# scan: one exhaustive `scan --p 13 --jobs 1`; its bytes are fixed.

SCAN_ARGV = ["scan", "--p", "13", "--jobs", "1"]
SCAN_SUBSETS = 2 ** 12 - 2
# SHA-256 of the JSON report at the commit the baseline was taken on.
SCAN_SHA256 = "b42d33f76bc7f932e786be3560167194414f7220e8edf802bea6a6f1d53b45da"


class Scan:
    name = "scan"
    seeded = False  # a single fixed input; the seed changes nothing
    min_items = 3
    weight = SCAN_SUBSETS  # items_per_s counts subsets

    def generate(self, seed: int, pass_index: int) -> list[Item]:
        return [Item(list(SCAN_ARGV), None, {"sha256": SCAN_SHA256})]

    def warmup(self) -> list[Item]:
        return [Item(["scan", "--p", "5", "--jobs", "1"], None, {"sha256": None})]

    def run(self, bz, item: Item) -> Outcome:
        return Outcome(*call_cli(bz, item.argv))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        digest = hashlib.sha256(outcome.out.encode()).hexdigest()
        if item.expect["sha256"] not in (None, digest):
            return f"report sha256 {digest} != {item.expect['sha256']}"
        return None

    def properties(self, windows: list[list[Item]]) -> dict:
        return {"subsets_per_call": SCAN_SUBSETS, "calls": sum(map(len, windows))}


# ---------------------------------------------------------------------------
# aut: sparse sets (|U| <= 2 at p in {17, 19}) and dense sets (|U| ~ p/3 and
# (p-1)/2 at p up to 97). Search cost swings by orders of magnitude between
# sparse sets of one size, so every pass holds the whole sparse population
# and the seed only orders it; dense sets cost about the same for every draw
# of a given (p, |U|), so those are drawn from the seed.

SPARSE_PRIMES = (17, 19)
DENSE_PRIMES = (29, 37, 43, 53, 61, 73, 97)
DENSE_DRAWS = 3


def dense_sizes(p: int) -> tuple[int, int]:
    return (math.ceil(p / 3), (p - 1) // 2)


class Aut:
    name = "aut"
    seeded = True
    min_items = 100
    weight = 1  # work units per item

    def _item(self, rng: random.Random, p: int, elements, stratum: str) -> Item:
        elements = sorted(elements)
        return Item(["aut", "--p", str(p), "--set", _set_arg(rng, elements)], None,
                    {"p": p, "set": elements, "stratum": stratum,
                     "count": p * len(mult_stabilizer(p, elements))})

    def generate(self, seed: int, pass_index: int) -> list[Item]:
        rng = _rng(seed, self.name, pass_index)
        items = []
        for p in SPARSE_PRIMES:
            items += [self._item(rng, p, [u], "sparse") for u in range(1, p)]
            # {u, -u} pairs are left out: see known defects
            items += [self._item(rng, p, (u, v), "sparse")
                      for u in range(1, p) for v in range(u + 1, p) if u + v != p]
        for p in DENSE_PRIMES:
            for k in dense_sizes(p):
                for _ in range(DENSE_DRAWS):
                    items.append(self._item(rng, p, rng.sample(range(1, p), k), "dense"))
        rng.shuffle(items)
        return items

    def warmup(self) -> list[Item]:
        return [self._item(random.Random(0), 7, [1, 2, 4], "warmup")]

    def run(self, bz, item: Item) -> Outcome:
        return Outcome(*call_cli(bz, item.argv))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        result = _result(outcome.out)
        if result["diff_set"] != item.expect["set"]:
            return f"diff_set {result['diff_set']} != {item.expect['set']}"
        if result["automorphism_count"] != item.expect["count"]:
            return (f"automorphism_count {result['automorphism_count']} "
                    f"!= p*|M(U)| = {item.expect['count']}")
        if result["all_affine"] is not True:
            return "all_affine is not true"
        return None

    def properties(self, windows: list[list[Item]]) -> dict:
        items = [it for window in windows for it in window]
        sparse = sum(1 for it in items if it.expect["stratum"] == "sparse")
        return {"sparse_share": round(sparse / len(items), 4),
                "sparse_items": sparse, "items": len(items)}


# ---------------------------------------------------------------------------
# trace: affine maps x -> a*x + b with a in M(U), several per set.

# (p, |U|, |H|): U is a union of |U|/|H| cosets of the order-|H| subgroup H
# of F_p^*, so M(U) contains H and the maps get non-trivial multipliers.
# Trace cost is set by p and |U|. Machine speed swings make neighbouring
# costs trade places, so the median and p90 each sit in the middle of a
# block of nine equal-cost traces (a fifth of the pass), not at an edge.
TRACE_SETS = (
    (13, 1, 1), (13, 3, 3), (13, 6, 6), (31, 1, 1), (31, 5, 5), (31, 10, 5),
    (61, 6, 6), (61, 6, 6), (61, 6, 6),  # median block
    (61, 12, 4), (97, 8, 8), (61, 30, 30),
    (97, 48, 48), (97, 48, 48), (97, 48, 48),  # p90 block
)
MAPS_PER_SET = 3


def reduced(p: int, elements) -> tuple[int, ...]:
    """The set the trace works on: U, or its complement if |U| > (p-1)/2."""
    if 2 * len(elements) <= p - 1:
        return tuple(sorted(elements))
    inside = set(elements)
    return tuple(u for u in range(1, p) if u not in inside)


class Trace:
    name = "trace"
    seeded = True
    min_items = 100
    weight = 1  # work units per item

    def _items(self, rng: random.Random, p: int, size: int, h: int, maps: int):
        g = _primitive_root(p)
        subgroup = [pow(g, (p - 1) // h * j, p) for j in range(h)]
        cosets = rng.sample(range((p - 1) // h), size // h)
        elements = sorted(pow(g, c, p) * s % p for c in cosets for s in subgroup)
        if rng.random() < 0.5:  # present U or its complement: same reduced set
            inside = set(elements)
            elements = [u for u in range(1, p) if u not in inside]
        stab = mult_stabilizer(p, elements)
        out = []
        for _ in range(maps):
            a, b = rng.choice(stab), rng.randrange(p)
            perm = [(a * i + b) % p for i in range(p)]
            out.append(Item(
                ["trace", "--p", str(p), "--set", _set_arg(rng, elements),
                 "--perm", ",".join(map(str, perm))], None,
                {"p": p, "reduced": reduced(p, elements)}))
        return out

    def generate(self, seed: int, pass_index: int) -> list[Item]:
        rng = _rng(seed, self.name, pass_index)
        items = []
        for p, size, h in TRACE_SETS:
            items += self._items(rng, p, size, h, MAPS_PER_SET)
        return items

    def warmup(self) -> list[Item]:
        # one cheap trace per prime fills the interpolation basis caches
        rng = random.Random(0)
        return [self._items(rng, p, 1, 1, 1)[0] for p in sorted({s[0] for s in TRACE_SETS})]

    def run(self, bz, item: Item) -> Outcome:
        return Outcome(*call_cli(bz, item.argv))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        result = _result(outcome.out)
        if result["verdict"] != "AFFINE" or result["degree"] != 1:
            return f"verdict {result['verdict']} degree {result['degree']}"
        return None

    def properties(self, windows: list[list[Item]]) -> dict:
        """A trace repeats a reduced set if an earlier trace of its window
        (the items run by one import of the program) used the same one: only
        those can reuse a per-set result cached by the program."""
        repeats = traces = 0
        for window in windows:
            seen = {(it.expect["p"], it.expect["reduced"]) for it in window}
            repeats += len(window) - len(seen)
            traces += len(window)
        return {"repeated_reduced_set_share": round(repeats / traces, 4),
                "repeated_reduced_set_traces": repeats, "traces": traces,
                "windows": len(windows)}


WORKLOADS = {w.name: w for w in (Certify(), Scan(), Aut(), Trace())}
