"""Benchmark for burnside: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root; standard library only, one process):

    python3 perfbench/run.py --workload certify|scan|aut|trace|all \
        [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the checkout and driven through
``burnside.cli.main`` with argv and in-memory stdin/stdout. Every output is
checked; a failed check, a non-zero exit code or an exception counts as a
failed item, never as a crash of the benchmark.

``--trace 0`` (end-to-end): run whole passes of the workload until
``--seconds`` have been measured and at least the workload's minimum item
count is reached. Set-up (fresh import, input generation, warm-up) is
repeated every ``SETUP_EVERY_S`` seconds between items, and ``setup_s`` is
the median of those set-ups. Latency is the program call per item (for
``certify``, classify plus ``verify_certificate``); ``items_per_s`` is
completed work (groups, subsets, sets or traces) over the summed latency.

The end-to-end figures are reference-host equivalents, not the wall
times of this run: every end-to-end time is scaled to the speed of a
reference host by a speed probe (``SpeedProbe``), a fixed kernel of the
benchmark's own, timed every ``PROBE_EVERY_S`` seconds. On a shared host
the same work runs tens of percent slower in some seconds than in others
and the level drifts over minutes; raw times then differ between runs of
the same code by more than any useful bound. The probe runs no program
code and runs with the garbage collector off, so neither the program's
code nor the size of its heap moves the scale, and a change to the program
moves the scaled times in full. The reference is the probe's time on that
host at its fastest, so scaled times are lower than the wall times
measured here. The unscaled wall times are printed in the run details.

``--trace 1`` (per layer): one fixed pass, run untraced and traced in turn,
twice each, with spans and counts kept in memory (see ``tracer.py``). Its
length is set by the pass, not by ``--seconds``, so that counts repeat
exactly. The run fails its correctness flag unless the four passes print
byte-identical outputs, every count repeats across the two traced passes,
every span is closed and lies inside its parent, the top-level spans
(whose durations the self times of all spans add up to) cover the traced
phase, and (for a seeded workload) the next seed generates different
inputs. Per-layer times are unscaled wall time;
``bench.trace_overhead_ratio`` is the traced over the untraced passes,
which run in turn.

The last line of stdout is the JSON result; the metric names and units are
read from ``BENCHMARK.json`` at the repository root. The line before it
holds run details (passes, samples, fail ratio, input digest and the
workload properties). With ``--workload all`` the metric names are
prefixed by the workload, and ``peak_rss_mb`` is the process peak so far.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SPANNED, Tracer
from workloads import WORKLOADS, Item

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed again this often during a run and its median reported.
SETUP_EVERY_S = 2.0
# How often the speed probe runs, and the probe kernel's time on the
# reference host (2-vCPU Xeon at 2.0 GHz, Python 3.11.7, at its fastest).
PROBE_EVERY_S = 0.2
REFERENCE_KERNEL_NS = 1_600_000
# the traced pass must be covered by its per-item spans up to loop overhead
MIN_ROOT_COVERAGE = 0.95


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


@dataclass
class Program:
    cli: object
    classifier: object


@dataclass
class PassResult:
    latencies_ns: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failed: int = 0
    wall_ns: int = 0


def load_program() -> Program:
    """Import burnside afresh from ``src/`` of this checkout."""
    if not (SRC / "burnside" / "__init__.py").is_file():
        raise BenchError(f"no program at {SRC / 'burnside'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "burnside" or m.startswith("burnside.")]:
        del sys.modules[name]
    cli = importlib.import_module("burnside.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"burnside imported from {cli.__file__}, not {SRC}")
    return Program(cli, importlib.import_module("burnside.classifier"))


def setup(wl, seed: int) -> tuple[float, Program, list[Item], PassResult]:
    """Import, generate the first pass and warm up; returns its duration."""
    start = time.perf_counter()
    bz = load_program()
    items = wl.generate(seed, 0)
    warm = run_pass(wl, bz, wl.warmup())
    return time.perf_counter() - start, bz, items, warm


def run_pass(wl, bz: Program, items: list[Item], tracer: Tracer | None = None) -> PassResult:
    res = PassResult()
    start = time.perf_counter_ns()
    for item in items:
        root = tracer.begin_item() if tracer else None
        t0 = time.perf_counter_ns()
        took = None
        try:
            outcome = wl.run(bz, item)
            took = time.perf_counter_ns() - t0
            error = wl.check(item, outcome)
            digest = hashlib.sha256(f"{outcome.code}\n{outcome.out}".encode()).hexdigest()
        except Exception:  # one broken item is a failure, not the end of the run
            error, digest = traceback.format_exc(), "exception"
        finally:
            if tracer:
                tracer.close(root)
        res.latencies_ns.append(took if took is not None else time.perf_counter_ns() - t0)
        res.digests.append(digest)
        if error:
            res.failed += 1
            print(f"FAIL {wl.name} {' '.join(item.argv[:5])}: {error}", file=sys.stderr)
    res.wall_ns = time.perf_counter_ns() - start
    return res


def probe_kernel() -> int:
    """Fixed pure-Python work of the kinds the program does (tuples and a
    dict, as in permutation work; a coefficient convolution, as in
    polynomial work). It runs no program code."""
    acc, seen = 0, {}
    for i in range(600):
        t = tuple((i * j + 7) % 97 for j in range(8))
        seen[t] = seen.get(t, 0) + 1
        acc = (acc * 31 + sum(t)) % 1000003
    for r in range(3):
        a, b = range(1 + r, 60), range(3, 50)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 97
        acc ^= sum(out)
    return acc


class SpeedProbe:
    """Times ``probe_kernel`` through a run to follow the host's speed.

    On a shared host the same work takes tens of percent longer in some
    seconds than in others, and the level drifts over minutes. A time
    measured after probe sample i is scaled by REFERENCE_KERNEL_NS over the
    median of the samples i-2 .. i+2, i.e. to the reference host's speed;
    the median keeps one disturbed sample from skewing its neighbours.
    Samples are taken between timed calls, at most one per
    ``PROBE_EVERY_S``: a burst after a call of several seconds would sample
    the host's speed over a few milliseconds only, not over the call. One
    scale per run, from the median of all its samples, was tried too and
    was no steadier over ten seeds.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.last = 0.0

    def sample(self) -> int:
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            probe_kernel()
            self.samples.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def scale(self, i: int) -> float:
        return REFERENCE_KERNEL_NS / statistics.median(self.samples[max(0, i - 2):i + 3])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seed: int, seconds: float) -> tuple[dict, int, int, bool, dict]:
    """End-to-end run: whole passes for ``seconds``, set up afresh every
    ``SETUP_EVERY_S``; every time is scaled by the speed probe. Workload
    properties are counted per set-up window, the items one import runs,
    since a fresh import drops whatever the program had cached."""
    probe = SpeedProbe()

    def timed_setup():
        i = probe.sample()
        took, bz, items, warm = setup(wl, seed)
        probe.sample()
        return took, took * probe.scale(i), bz, items, warm

    raw_setup, took, bz, first, warm = timed_setup()
    setups, raw_setups = [took], [raw_setup]
    windows: list[list[Item]] = [[]]
    warm_attempted, warm_failed = len(warm.digests), warm.failed
    last_setup = time.perf_counter()
    timed: list[tuple[int, int]] = []  # (raw latency ns, probe sample before it)
    failed = elapsed_ns = passes = 0
    while passes == 0 or elapsed_ns < seconds * 1e9 or len(timed) < wl.min_items:
        items = first if passes == 0 else wl.generate(seed, passes)
        for item in items:
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                raw_setup, took, bz, _, warm = timed_setup()
                setups.append(took)
                raw_setups.append(raw_setup)
                warm_attempted += len(warm.digests)
                warm_failed += warm.failed
                last_setup = time.perf_counter()
                windows.append([])
            if probe.due():
                probe.sample()
            res = run_pass(wl, bz, [item])
            timed.append((res.latencies_ns[0], len(probe.samples) - 1))
            failed += res.failed
            elapsed_ns += res.wall_ns
            windows[-1].append(item)
        passes += 1
    probe.sample()
    raw_ms = [ns / 1e6 for ns, _ in timed]
    lat_ms = [ns / 1e6 * probe.scale(i) for ns, i in timed]
    completed = (len(timed) - failed) * wl.weight
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": completed / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = len(timed) + warm_attempted
    failed += warm_failed
    info = {"passes": passes, "latency_samples": len(timed),
            "fail_ratio": failed / attempted,
            "measured_s": round(elapsed_ns / 1e9, 3),
            "unscaled": {"setup_s": statistics.median(raw_setups),
                         "items_per_s": completed / (sum(raw_ms) / 1e3),
                         "latency_p50_ms": statistics.median(raw_ms),
                         "latency_p90_ms": statistics.quantiles(
                             raw_ms, n=10, method="inclusive")[8]},
            "probe_kernel_ms": {"samples": len(probe.samples),
                                "median": statistics.median(probe.samples) / 1e6,
                                "min": min(probe.samples) / 1e6,
                                "max": max(probe.samples) / 1e6},
            "inputs_sha256": fingerprint(first),
            "properties": wl.properties(windows)}
    return values, attempted, failed, True, info


def fingerprint(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps([item.argv, item.stdin]).encode())
    return h.hexdigest()


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value the tracer can give, zero where nothing ran."""
    values: dict[str, float] = {}
    for short, functions in SPANNED.items():
        for attr in functions:
            for suffix in ("calls", "total_ms", "self_ms"):
                values[f"{short}.{attr}.{suffix}"] = 0
    for name, row in tracer.aggregate().items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.total_ms"] = row["total_ns"] / 1e6
        values[f"{name}.self_ms"] = row["self_ns"] / 1e6
    values.update(tracer.counts)
    return values


def counts_of(values: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in values.items() if not k.endswith("_ms")}


def measure_traced(wl, seed: int) -> tuple[dict, int, int, bool, dict]:
    """Untraced and traced passes in turn, twice each; self-checks the tracer."""
    _, bz, items, warm = setup(wl, seed)
    plain, traced = [], []
    for _ in range(2):
        plain.append(run_pass(wl, bz, items))
        tracer = Tracer()
        tracer.install()
        try:
            res = run_pass(wl, bz, items, tracer)
        finally:
            tracer.uninstall()
        traced.append((tracer, res))
    (tracer, first), (tracer2, second) = traced
    values = layer_values(tracer)
    c1, c2 = counts_of(values), counts_of(layer_values(tracer2))
    values["bench.trace_overhead_ratio"] = (
        (first.wall_ns + second.wall_ns) / sum(r.wall_ns for r in plain))

    problems = []
    if not plain[0].digests == plain[1].digests == first.digests == second.digests:
        problems.append("traced and untraced outputs differ")
    if c1 != c2:
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        problems.append(f"counts differ between traced passes: {diff}")
    bad = tracer.malformed()
    if bad:
        problems.append(f"{len(bad)} spans open or outside their parent")
    coverage = tracer.root_ns() / first.wall_ns
    if not MIN_ROOT_COVERAGE <= coverage <= 1:
        problems.append(f"top-level spans cover {coverage:.4f} of the traced phase")
    if wl.seeded and fingerprint(wl.generate(seed + 1, 0)) == fingerprint(items):
        problems.append("seed + 1 generates the same inputs")
    for problem in problems:
        print(f"TRACER CHECK FAILED {wl.name}: {problem}", file=sys.stderr)

    attempted = 4 * len(items) + len(warm.digests)
    failed = warm.failed + sum(r.failed for r in plain) + first.failed + second.failed
    info = {"items_per_pass": len(items), "spans": len(tracer.start),
            "root_coverage": round(coverage, 5), "tracer_checks_failed": problems,
            "inputs_sha256": fingerprint(items), "properties": wl.properties([items])}
    return values, attempted, failed, not problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                values, attempted, failed, ok, info = measure_traced(wl, args.seed)
            else:
                values, attempted, failed, ok, info = measure(wl, args.seed, args.seconds)
            missing = [m["name"] for m in wanted if m["name"] not in values]
            if missing:
                raise BenchError(f"no value for metrics {missing}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in wanted}
            for metric, v in metrics.items():
                print(f"{name:8s} {metric:56s} {v['value']:>16.4f} {v['unit']}")
            print(json.dumps({"info": {"workload": name, "seed": args.seed, **info}}))
            results.append((name, metrics, attempted, failed, ok))
    except (BenchError, OSError, ImportError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{n}.{k}": v for n, m, *_ in results for k, v in m.items()}
    attempted = sum(r[2] for r in results)
    failed = sum(r[3] for r in results)
    correct = failed == 0 and all(r[4] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
