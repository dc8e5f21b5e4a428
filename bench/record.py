"""Run the benchmark over several seeds and write one JSON record.

Usage (from the repository root)::

    python3 bench/record.py --seeds 1-10 --seconds 45 --out bench/baseline-seed.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
stores every run's result line and run record, plus each metric's median,
quartiles and spread (interquartile range over median) per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    return {"record": record, "result": json.loads(lines[-1]), "process_s": elapsed}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        record["workloads"][workload] = {"summary": summary(runs), "runs": runs}
        for name, s in record["workloads"][workload]["summary"].items():
            print(f"  {name:<44} median {s['median']:.6g} {s['unit']:<6} spread {s['spread']}")
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
