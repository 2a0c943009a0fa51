"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cm_scan --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the bound in BENCHMARK.json.  Raw results are
appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    harness.OUT.mkdir(exist_ok=True)
    log = harness.OUT / f"spread-{args.workload}.jsonl"
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name:12s} median {med:.6g}  spread {share:.4f}  bound {bounds[name]}  "
              f"{'ok' if share <= bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
