"""Record the benchmark baseline into ``perfbench/baseline.json``.

Usage (from the repository root):

    python3 perfbench/baseline.py --commit <git sha>

For every workload in ``BENCHMARK.json`` this runs ``run.py`` with tracing
off for ``run_seconds``, once per seed in each of two sets of ten seeds,
then twice with tracing on (seed 1), one process at a time. Per set it
records each end-to-end metric's median, quartiles and spread (quartile
distance over median) against the bound in ``BENCHMARK.json``, and how far
the second set's median lies from the first's. It also records the failed
and attempted item counts, the workload properties, the per-layer values
of the first traced run and whether the second traced run repeated every
count. Only the known defects are kept from the existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEED_SETS = (tuple(range(1, 11)), tuple(range(11, 21)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def summarise(runs: list[tuple[dict, dict]], bounds: dict) -> dict:
    e2e = {}
    for metric, bound in bounds.items():
        values = [r["metrics"][metric]["value"] for _, r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        e2e[metric] = {"unit": runs[0][1]["metrics"][metric]["unit"],
                       "median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "bound": bound}
    return e2e


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    out = {
        "program_commit": args.commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mode": "single process; scan runs with --jobs 1; no worker pools",
        "run_seconds": seconds,
        "seed_sets": [list(seeds) for seeds in SEED_SETS],
        "known_defects": old.get("known_defects", []),
        "workloads": {},
    }
    # one seed set at a time over every workload, as two separate sessions would
    sets = {name: [] for name in names}
    for seeds in SEED_SETS:
        for name in names:
            sets[name].append([run(name, seed, seconds, 0) for seed in seeds])
    for name in names:
        first, second = sets[name]
        e2e = [summarise(first, bounds), summarise(second, bounds)]
        # how much worse the second set's median is than the first's, as a
        # share of the first (negative when it is better)
        worse = {}
        for metric in bounds:
            a, b = e2e[0][metric]["median"], e2e[1][metric]["median"]
            worse[metric] = (b - a) / a if better[metric] == "lower" else (a - b) / a
        info1, traced1 = run(name, 1, seconds, 1)
        _, traced2 = run(name, 1, seconds, 1)
        counts1 = {k: v["value"] for k, v in traced1["metrics"].items() if v["unit"] == "count"}
        counts2 = {k: v["value"] for k, v in traced2["metrics"].items() if v["unit"] == "count"}
        runs = first + second
        out["workloads"][name] = {
            "end_to_end": e2e[0],
            "end_to_end_second_set": e2e[1],
            "second_set_median_worse_by": worse,
            "second_set_within_bounds": all(worse[m] <= bounds[m] for m in bounds),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "all_correct": all(r["correct"] for _, r in runs),
            "distinct_inputs": len({i["inputs_sha256"] for i, _ in runs}),
            "properties_seed_1": first[0][0]["properties"],
            "per_layer_seed_1": {k: v["value"] for k, v in traced1["metrics"].items()},
            "traced_properties_seed_1": info1["properties"],
            "traced_correct": traced1["correct"] and traced2["correct"],
            "counts_repeat_across_processes": counts1 == counts2,
            "traced_items_per_pass": info1["items_per_pass"],
        }
        print(json.dumps({name: {"spreads": [{m: round(v["spread"], 3) for m, v in s.items()}
                                             for s in e2e],
                                 "worse": {m: round(v, 3) for m, v in worse.items()}}}),
              flush=True)
    OUT.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
