"""The benchmark's workloads: corpus size and the CLI command sequence each runs.

Sizes keep one command sequence to a few seconds on a 2-core host, so a
measured run repeats it several times and reports medians. Why each workload
was chosen is stated once, in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_MASKS = (
    "Image",
    "Image+OG",
    "AOPair",
    "TextDesc",
    "TextDesc+AOPair",
    "Image+TextDesc",
    "Image+AOPair",
    "Image+TextDesc+AOPair",
    "Image+TextDesc+OG",
    "Image+TextDesc+AOPair+OG",
)


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int
    groups: int
    steps: tuple[str, ...]
    masks: tuple[str, ...] = ()
    variants: tuple[int, ...] = (1,)
    http: bool = False

    def argv(self, step: str, config: str, out: str) -> list[str]:
        if step == "build":
            return ["build-dataset", "--config", config, "--out", out]
        if step == "stats":
            return ["stats", f"{out}/dataset.jsonl"]
        if step in ("generate", "warm_generate"):
            return [
                "generate", "--config", config, "--out", out,
                "--modalities", ",".join(self.masks),
                "--variants", ",".join(str(v) for v in self.variants),
            ]
        if step == "evaluate":
            return ["evaluate", "--config", config, "--out", out]
        raise ValueError(f"unknown step {step!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval_wide",
            copies=16,
            groups=16,
            steps=("build", "generate", "evaluate"),
            masks=("AOPair", "TextDesc", "Image+TextDesc+AOPair+OG"),
        ),
        Workload(
            "gen_grid",
            copies=10,
            groups=10,
            steps=("build", "generate"),
            masks=ALL_MASKS,
            variants=(1, 2, 3, 4),
        ),
        Workload(
            "ingest_deep",
            copies=200,
            groups=10,
            steps=("build", "stats"),
        ),
        Workload(
            "http_lm",
            copies=2,
            groups=2,
            steps=("build", "generate", "warm_generate", "evaluate"),
            masks=("AOPair",),
            http=True,
        ),
    )
}
