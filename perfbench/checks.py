"""Output checks for one command sequence, and the digests of its artifacts.

Counts are predicted from the corpus generator, not read back from the
program: a dataset holds 9 instances per noun group and 11 triplets per copy;
a generation cell holds 5 lines per instance, minus the instances without an
image on image masks; a report covers the full requested grid with every
value on the 0-100 display scale.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

N_SAMPLES = 3
TYPE_ORDER = ("precondition", "effect", "goal", "before", "after")
INFERENCE_TYPES = len(TYPE_ORDER)
REPORT_COLUMNS = ("B", "M", "C", "A50", "unique", "novel")
STATS_LABELS = {
    "Videos": "videos",
    "Before Events": "before_events",
    "After Events": "after_events",
}


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_dataset(run_dir: Path, predicted: dict) -> list[str]:
    failures = []
    instances = _lines(run_dir / "dataset.jsonl")
    if len(instances) != predicted["instances"]:
        failures.append(f"dataset has {len(instances)} instances, expected {predicted['instances']}")
    triplets = _lines(run_dir / "triplets.jsonl")
    if len(triplets) != predicted["triplets"]:
        failures.append(f"{len(triplets)} triplets, expected {predicted['triplets']}")
    stats = json.loads((run_dir / "stats.json").read_text(encoding="utf-8"))
    for key, want in (
        ("videos", predicted["videos"]),
        ("before_events", predicted["triplets"]),
        ("after_events", predicted["triplets"]),
    ):
        if stats.get(key) != want:
            failures.append(f"stats.json {key}={stats.get(key)}, expected {want}")
    return failures


def check_stats_output(run_dir: Path, printed: str) -> list[str]:
    stats = json.loads((run_dir / "stats.json").read_text(encoding="utf-8"))
    rows = {}
    for line in printed.splitlines():
        label, _, value = line.rpartition("  ")
        rows[label.strip()] = value.strip()
    return [
        f"stats printed {label}={rows.get(label)}, stats.json has {stats[key]}"
        for label, key in STATS_LABELS.items()
        if rows.get(label) != str(stats[key])
    ]


def check_generations(path: Path, workload, predicted: dict) -> list[str]:
    failures = []
    lines = _lines(path)
    per_mask = {
        mask: predicted["image_instances"] if "Image" in mask.split("+") else predicted["instances"]
        for mask in workload.masks
    }
    expected = INFERENCE_TYPES * len(workload.variants) * sum(per_mask.values())
    if len(lines) != expected:
        failures.append(f"{path.name} has {len(lines)} lines, expected {expected}")
    seen = set()
    for line in lines:
        key = (line["instance_id"], line["inference_type"], line["condition"], line["variant"])
        if key in seen:
            failures.append(f"duplicate generation {key}")
        seen.add(key)
        if line["condition"] not in per_mask or line["variant"] not in workload.variants:
            failures.append(f"generation outside the requested grid: {key}")
        if not (len(line["texts"]) == len(line["nll"]) == len(line["perplexity"]) == N_SAMPLES):
            failures.append(f"{key}: expected {N_SAMPLES} scored samples")
            continue
        for nll, ppl in zip(line["nll"], line["perplexity"]):
            if not (math.isfinite(nll) and nll >= 0 and abs(ppl - math.exp(nll)) <= 1e-9 * ppl):
                failures.append(f"{key}: nll {nll} and perplexity {ppl} disagree")
        if len(failures) > 20:
            break
    return failures


def check_report(run_dir: Path, workload) -> list[str]:
    """Evaluate writes one row per mask, or with a single mask one per (type, variant)."""
    if len(workload.masks) > 1:
        name, grid = "modality_report", [("all", mask) for mask in workload.masks]
    else:
        name = "prompt_report"
        grid = [(t, f"P{t[0]}{v}") for t in TYPE_ORDER for v in workload.variants]
    rows = json.loads((run_dir / f"{name}.json").read_text(encoding="utf-8"))["rows"]
    failures = []
    if [(r["type"], r["condition"]) for r in rows] != grid:
        failures.append(f"{name} rows {[(r['type'], r['condition']) for r in rows]} != {grid}")
    for row in rows:
        for column in REPORT_COLUMNS:
            value = row[column]
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 100.0):
                failures.append(f"{name} {row['condition']} {column}={value} outside [0, 100]")
    return failures


def artifact_digests(run_dir: Path) -> dict[str, str]:
    out = {}
    for key, name in (
        ("dataset", "dataset.jsonl"),
        ("triplets", "triplets.jsonl"),
        ("stats", "stats.json"),
        ("generations", "generations_main.jsonl"),
        ("report", "modality_report.json"),
        ("report", "prompt_report.json"),
    ):
        path = run_dir / name
        if path.exists():
            out[key] = digest(path)
    return out
