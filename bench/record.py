#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):
  python3 bench/record.py --seeds 1-10 [--out FILE]

Runs `bench/run.py --trace 0` once per seed and workload of BENCHMARK.json,
for its run_seconds, interleaving the workloads so that slow drift of the
machine spreads over all of them.  Reports for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  Then
makes one traced run per workload, on the first seed.  --out writes
everything as JSON; the recorded baseline of the unchanged program is
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]

    results = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            results[w].append(bench(w, seed, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in results[w][-1]["metrics"].items()),
                file=sys.stderr)

    summary = {"seeds": args.seeds, "seconds": SPEC["run_seconds"], "workloads": {}}
    for w in workloads:
        runs = results[w]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for m in SPEC["end_to_end"]:
            entry["metrics"][m["name"]] = {
                **spread([r["metrics"][m["name"]]["value"] for r in runs]),
                "unit": m["unit"], "bound": m["bound"]}
        traced = bench(w, args.seeds[0], 1)
        entry["traced_seed"] = args.seeds[0]
        entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][w] = entry
    last = ROOT / ".bench_runs" / "results" / f"{workloads[-1]}-seed{args.seeds[-1]}-trace0.json"
    summary["machine"] = json.loads(last.read_text())["machine"]
    summary["machine"].pop("seed")

    print(f"{'workload':<15} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8} {'bound/3':>8}")
    for w, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:<15} {name:<12} {m['median']:>10.4f} {m['q1']:>10.4f} {m['q3']:>10.4f} "
                  f"{m['spread']:>8.4f} {m['bound'] / 3:>8.4f}")
        print(f"{w:<15} failed {entry['failed']} of {entry['attempted']} commands")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
