"""Pipeline benchmark for actionsense.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates a seeded scale-up of
the fixture corpus, then for S seconds runs the workload's CLI command
sequence, each time in a fresh interpreter (``worker.py``) that also times
set-up. The first sequence counts provider requests and warms the caches;
the timed ones after it run with nothing wrapped. Outputs are checked on
every run and their digests must agree. The last stdout line is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json
(medians over the runs); with ``--trace 1`` TRACE_RUNS more runs with every
layer wrapped give the per-layer metrics (medians over the traced runs). Each
traced run follows an untraced one, and ``trace.overhead_s`` is the median
of the differences within these pairs. On eval_wide each pair is followed by
a run at half the corpus, and ``evaluate.doubling_ratio`` is the median of
the untraced run's evaluate time over the half run's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from corpus_gen import generate_corpus, write_config
from workloads import WORKLOADS

TIME_LIMIT_S = 170.0
MIN_RUNS = 3
MIN_SETUP_SAMPLES = 7
TRACE_RUNS = 3
# make_providers never connects, so set-up of the HTTP workload needs no server.
SETUP_LM = {"kind": "http", "url": "http://127.0.0.1:9/lm"}
STEP_METRICS = {
    "build": "build_s",
    "stats": "stats_s",
    "generate": "generate_s",
    "warm_generate": "cache.warm_generate_s",
    "evaluate": "evaluate_s",
}


class BenchError(Exception):
    pass


class Bench:
    """Spawns workers for one workload and seed inside a private work dir."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.spawned = 0

    def corpus(self, name: str, copies: int, groups: int) -> tuple[Path, dict, Path]:
        corpus_dir = self.work / name
        predicted = generate_corpus(corpus_dir, SRC, copies, groups, self.seed)
        lm = SETUP_LM if self.workload.http else None
        setup_config = write_config(self.work / f"{name}-setup.json", corpus_dir, self.seed, lm)
        return corpus_dir, predicted, setup_config

    def spawn(self, corpus, count=False, trace=False, setup_only=False, trace_path=None) -> dict:
        corpus_dir, predicted, setup_config = corpus
        self.spawned += 1
        run_dir = self.work / f"run{self.spawned}"
        run_dir.mkdir()
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "corpus_dir": str(corpus_dir),
            "out_dir": str(run_dir / "out"),
            "predicted": predicted,
            "count": count,
            "trace": trace,
            "trace_path": str(trace_path) if trace_path else None,
            "setup_only": setup_only,
            "result_path": str(run_dir / "result.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before the run could start")
        argv = [sys.executable, str(HERE / "worker.py"), str(setup_config), str(run_dir / "cache"),
                str(spec_path)]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
        shutil.rmtree(run_dir)
        package = result.get("package")
        if package and not Path(package).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported actionsense from {package}, not from {SRC}")
        return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def median_step(results: list[dict], label: str) -> float:
    """Median seconds of one command over the runs; 0 if no run has it."""
    values = [s["seconds"] for r in results for s in r["steps"] if s["label"] == label]
    return statistics.median(values) if values else 0.0


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Counting and timed runs for ``seconds``, set-up samples, then traced runs and probe."""
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work, started + TIME_LIMIT_S)
        corpus = bench.corpus("corpus", workload.copies, workload.groups)
        loop_start = time.monotonic()
        # Also compiles bytecode and warms the page cache for the timed runs.
        counting = bench.spawn(corpus, count=True)
        runs = []
        while True:
            t0 = time.monotonic()
            runs.append(bench.spawn(corpus))
            last = time.monotonic() - t0
            if len(runs) >= MIN_RUNS and time.monotonic() - loop_start + last > seconds:
                break
        setup = [r["setup_s"] for r in runs]
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(bench.spawn(corpus, setup_only=True)["setup_s"])

        out = {"counting": counting, "runs": runs, "setup": setup, "paired": [], "traced": [],
               "probes": []}
        if traced:
            trace_path = ROOT / ".perfbench_work" / f"trace-{workload.name}.tsv"
            half = None
            if workload.name == "eval_wide":
                half = bench.corpus("half", workload.copies // 2, workload.groups // 2)
            # Runs compared with each other are made back to back, so that the
            # host's speed, which drifts over a run, cancels out.
            for _ in range(TRACE_RUNS):
                out["paired"].append(bench.spawn(corpus))
                out["traced"].append(bench.spawn(corpus, trace=True, trace_path=trace_path))
                if half is not None:
                    out["probes"].append(bench.spawn(half))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def account(workload, measured: dict) -> tuple[int, int, list[str]]:
    """Commands attempted, operations failed, and the failure messages."""
    same = [measured["counting"]] + measured["runs"] + measured["paired"] + measured["traced"]
    runs = same + measured["probes"]
    attempted = len(workload.steps) * len(runs)
    failed = sum(
        len(workload.steps) - sum(step["ok"] for step in r["steps"]) for r in runs
    )
    messages = [m for r in runs for m in r["failures"]]
    # The probe runs a smaller corpus, so only same-corpus runs must agree.
    reference = same[0]["digests"]
    for r in same[1:]:
        if r["digests"] != reference:
            messages.append(f"digests differ across runs: {r['digests']} != {reference}")
            failed += 1
    counts = sorted({r["provider_requests"] for r in same if r["provider_requests"] is not None})
    if len(counts) > 1:
        messages.append(f"provider request counts differ across runs: {counts}")
        failed += 1
    return attempted, min(failed, attempted), messages


def layer_values(workload, measured: dict) -> dict[str, float]:
    runs, traced = measured["runs"], measured["traced"]
    layers = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(measured["paired"], traced)
    )
    for label, name in STEP_METRICS.items():
        layers[name] = median_step(runs, label)
    layers["evaluate.doubling_ratio"] = 0.0
    if measured["probes"]:
        layers["evaluate.doubling_ratio"] = statistics.median(
            median_step([full], "evaluate") / median_step([half], "evaluate")
            for full, half in zip(measured["paired"], measured["probes"])
        )
    return layers


def report(workload, seed: int, measured: dict, traced: bool) -> tuple[dict, list[str]]:
    declared = load_declared()
    runs = measured["runs"]
    samples = {
        "setup_s": measured["setup"],
        "wall_s": [r["wall_s"] for r in runs],
        "provider_requests": [measured["counting"]["provider_requests"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    attempted, failed, messages = account(workload, measured)
    lines = [f"perfbench {workload.name} seed={seed} runs={len(runs)} traced={int(traced)}"]
    for entry in declared["end_to_end"]:
        q1, med, q3 = quartiles(samples[entry["name"]])
        values = samples[entry["name"]]
        lines.append(
            f"  {entry['name']:<18} {med:12.4f} {entry['unit']:<6} q1 {q1:.4f} q3 {q3:.4f}"
            f" min {min(values):.4f} max {max(values):.4f} n={len(values)}"
        )
    for label in workload.steps:
        lines.append(f"  step {label:<13} {median_step(runs, label):12.4f} s      median")
    digests = runs[0]["digests"]
    lines.append("digests " + " ".join(f"{k}={v}" for k, v in sorted(digests.items())))

    if traced:
        values = layer_values(workload, measured)
        group = declared["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        group = declared["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in group}
    if traced:
        for name, metric in metrics.items():
            lines.append(f"  {name:<34} {metric['value']:14.6f} {metric['unit']}")
        q1, _, q3 = quartiles(samples["wall_s"])
        lines.append(
            f"  trace.overhead_s is within host noise when smaller than the untraced"
            f" wall_s interquartile range, {q3 - q1:.4f} s"
        )
    lines.extend(f"FAILED: {m}" for m in messages[:20])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "actionsense" / "cli.py").is_file():
        print(f"perfbench: no actionsense sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result, lines = report(workload, args.seed, measured, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
