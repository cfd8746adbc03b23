"""One measured command sequence in a fresh interpreter.

Usage: worker.py SETUP_CONFIG CACHE_DIR SPEC_JSON

The worker first times set-up (importing actionsense, ``load_config`` and
``make_providers``) before importing anything else the package would import.
Unless the spec asks for set-up only, it then runs the workload's CLI
commands in process, checks their outputs and writes timings, peak RSS,
digests and check failures to the spec's result path. Provider requests are
counted only when the spec asks for counting or tracing: the counters wrap
provider methods, so timed runs go without them.
"""

import sys
import time


def measure_setup(config: str, cache_dir: str) -> float:
    started = time.perf_counter()
    from actionsense import cli

    cfg = cli.load_config(config)
    cli.make_providers(cfg, cache_dir)
    return time.perf_counter() - started


def run_sequence(spec: dict, workload) -> dict:
    import contextlib
    import io
    import json
    import resource
    import traceback
    from collections import Counter
    from pathlib import Path

    import checks
    from actionsense import cli
    from corpus_gen import write_config
    from fake_lm import FakeLM

    out_dir = Path(spec["out_dir"])
    corpus_dir = Path(spec["corpus_dir"])
    predicted = spec["predicted"]
    counts = Counter()
    counted = spec["count"] or spec["trace"]
    tracer = None
    if counted:
        import spans

        spans.count_requests(counts)
    if spec["trace"]:
        tracer = spans.Tracer(counts)
        tracer.install()

    fake = None
    if workload.http:
        samples_path = Path(cli.__file__).parent / "fixtures" / "lm.json"
        samples = json.loads(samples_path.read_text(encoding="utf-8"))["samples"]
        fake = FakeLM(samples, spec["seed"])

    def requests() -> int:
        stubs = sum(v for k, v in counts.items() if k.startswith("requests."))
        return stubs + (fake.requests if fake else 0)

    steps, failures, cold = [], [], {}
    with fake or contextlib.nullcontext():
        lm = {"kind": "http", "url": fake.url} if fake else None
        config = str(write_config(out_dir.parent / "config.json", corpus_dir, spec["seed"], lm))
        for label in workload.steps:
            argv = workload.argv(label, config, str(out_dir))
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if tracer is not None:
                        code = tracer.run_command(label, lambda: cli.main(argv))
                    else:
                        code = cli.main(argv)
            except Exception:
                code = None
                stderr.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            if code == 0:
                problems = _check_step(label, out_dir, workload, predicted, stdout, cold)
            else:
                problems = [f"{label} exited {code}: {stderr.getvalue().strip()[-500:]}"]
            steps.append({"label": label, "ok": not problems, "seconds": seconds})
            failures.extend(problems)
            if code != 0:
                break

    result = {
        "package": cli.__file__,
        "steps": steps,
        "wall_s": sum(step["seconds"] for step in steps),
        "provider_requests": requests() if counted else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "digests": checks.artifact_digests(out_dir),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, fake)
        tracer.write(spec["trace_path"])
    return result


def _check_step(label, out_dir, workload, predicted, stdout, cold) -> list[str]:
    import checks

    if label == "build":
        return checks.check_dataset(out_dir, predicted)
    if label == "stats":
        return checks.check_stats_output(out_dir, stdout.getvalue())
    generations = out_dir / "generations_main.jsonl"
    if label == "generate":
        cold["generations"] = checks.digest(generations)
        return checks.check_generations(generations, workload, predicted)
    if label == "warm_generate":
        if checks.digest(generations) != cold["generations"]:
            return ["warm generate output differs from the cold run"]
        return []
    if label == "evaluate":
        return checks.check_report(out_dir, workload)
    return []


if __name__ == "__main__":
    setup_s = measure_setup(sys.argv[1], sys.argv[2])
    import json

    from workloads import WORKLOADS

    with open(sys.argv[3], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_s}
    if not spec.get("setup_only"):
        result.update(run_sequence(spec, WORKLOADS[spec["workload"]]))
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
