"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/baseline.py [--seeds 10]

Every workload in BENCHMARK.json runs once per seed 1..N, then once traced
with seed 1. For each end-to-end metric perfbench/baseline.json gets the
median and quartiles of the per-run values, and the spread (interquartile
range over median) next to the bound in BENCHMARK.json. The traced run's
per-layer metrics are stored as they are. Host details (Python version, CPU
count) go in the same file, which is rewritten as a whole.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    out = {
        "host": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "run_seconds": declared["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for workload in names:
        rows = [run_once(workload, s, declared["run_seconds"], 0) for s in out["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in rows),
                 "failed": sum(r["failed"] for r in rows), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": rows[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            print(f"{workload:<12} {name:<18} median {median:12.4f} spread {spread:.4f}"
                  f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}", flush=True)
        traced = run_once(workload, 1, declared["run_seconds"], 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
