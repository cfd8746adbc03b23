"""Batch command-line orchestration for dataset builds, generation, and eval.

Commands: build-dataset, stats, generate, evaluate, ablate, report. Runs are
deterministic (fixed seed, deterministic providers, content-addressed caches)
and resumable through a manifest that records stage completion in pipeline
order: ingest -> extract -> triplets -> assemble -> generate -> evaluate.

Exit codes: 0 success, 2 configuration or input error, 3 provider failure
(over HTTP, after the request's retries).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import assembly, extraction, generation, metrics, shapes, stubs, triplets
from .atomic import write_atomic as _write_atomic
from .corpus import Corpus, InvalidWindow, MalformedAnnotation
from .generation import (
    InferenceType,
    MODALITY_COMBOS,
    PromptSpec,
    combo_label,
    parse_combo_label,
    prompt_id,
)
from .providers import (
    HttpCorefProvider,
    HttpLMProvider,
    HttpParseProvider,
    HttpRCProvider,
    HttpSession,
    ProviderError,
    ResponseCache,
    chunks,
    with_retries,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3


class ConfigError(Exception):
    pass


def _setting(default, valid=lambda value: True, must: str = "", stages=()):
    """Declare a RunConfig field: all that load_config checks and a run records of it.

    A value must have the JSON type of ``default`` and pass ``valid``, which
    compares without a float conversion, so an int too large for a float is
    judged too; ``must`` says what ``valid`` asks. ``stages`` names the stages
    whose output the value shapes; for ``providers`` it maps each role to them.
    """
    metadata = {"valid": valid, "must": must, "stages": stages}
    if isinstance(default, (list, dict)):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    annotation_file: str = _setting("", stages=("build",))
    recipe_file: str = _setting("", stages=("build",))
    out_dir: str = _setting("")
    min_count: int = _setting(
        extraction.DEFAULT_MIN_COUNT, lambda v: v >= 0, "at least 0", ("build",)
    )
    seed: int = _setting(13, stages=("generate", "evaluate"))
    nucleus_p: float = _setting(0.9, lambda v: 0 <= v <= 1, "from 0 to 1", ("generate",))
    n_samples: int = _setting(5, lambda v: v >= 1, "at least 1", ("generate",))
    max_new_tokens: int = _setting(16, lambda v: v >= 1, "at least 1", ("generate",))
    fps: float = _setting(30.0, lambda v: 0 < v <= 1000, "above 0 and at most 1000", ("build",))
    pool_size: int = _setting(
        metrics.DEFAULT_POOL_SIZE, lambda v: v >= 2, "at least 2", ("evaluate",)
    )
    acc_mode: str = _setting(
        "top_gt", lambda v: v in ("top_gt", "top1"), "one of top_gt, top1", ("evaluate",)
    )
    # kept so that configs written with it load; requests go out one at a time
    workers: int = _setting(1, lambda v: v == 1, "1 (requests go one at a time)")
    # the grid fields pick cells rather than shape them; _check_grid makes them canonical cells
    modalities: list[str] = _setting(["all"], bool, "a non-empty list")
    variants: list[int] = _setting([1, 2, 3, 4], bool, "a non-empty list")
    modality_stage_variant: int = _setting(1)
    retries: int = _setting(3, lambda v: 1 <= v <= 10, "from 1 to 10")
    retry_base_delay: float = _setting(0.05, lambda v: 0 <= v <= 60, "from 0 to 60")
    providers: dict = _setting(
        {},
        stages={
            "coref": ("build",),
            "parse": ("build",),
            "rc": ("build",),
            "lm": ("generate", "evaluate"),
            "vision": ("generate", "evaluate"),
        },
    )


_SCHEMA = {f.name: f.metadata for f in fields(RunConfig)}
# each field has its default's JSON type; the one object field maps roles to provider specs
_TYPE_SHAPES = {
    str: shapes.STRING, int: shapes.INT, float: shapes.NUMBER, list: shapes.LIST,
    dict: shapes.dict_of({"kind": shapes.STRING, "path?": shapes.STRING, "url?": shapes.STRING}),
}
_CONFIG = shapes.obj({f"{k}?": _TYPE_SHAPES[type(v)] for k, v in vars(RunConfig()).items()})


def stage_settings(cfg: RunConfig, stage: str) -> dict:
    """The values of the fields that shape ``stage``'s output, with only its provider roles."""
    settings = {}
    for name, schema in _SCHEMA.items():
        stages, value = schema["stages"], getattr(cfg, name)
        if isinstance(stages, dict):
            settings[name] = {r: s for r, s in value.items() if stage in stages.get(r, ())}
        elif stage in stages:
            settings[name] = value
    return settings


def _resolve_path(value: str, base: Path) -> str:
    if value.startswith("fixtures:"):
        return str(stubs.fixture_path(value[len("fixtures:"):]))
    path = Path(value)
    return str(path if path.is_absolute() else base / path)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = shapes.check(json.load(fh), _CONFIG)
    except (OSError, ValueError) as exc:  # a directory, not JSON, not UTF-8, or its shape
        raise ConfigError(f"config {path} is not a run config: {exc}") from exc
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config fields in {path}: {sorted(unknown)}")
    for name, value in raw.items():
        if not _SCHEMA[name]["valid"](value):
            must, shown = _SCHEMA[name]["must"], json.dumps(value)
            raise ConfigError(f"config {path}: field {name!r} must be {must}, not {shown}")
    cfg = RunConfig(**raw)

    base = path.parent
    for attr in ("annotation_file", "recipe_file", "out_dir"):
        value = getattr(cfg, attr)
        if value:
            setattr(cfg, attr, _resolve_path(value, base))
    for spec in cfg.providers.values():
        if "path" in spec:
            spec["path"] = _resolve_path(spec["path"], base)
    # Overrides come from the command line, so a relative --out stays relative
    # to the working directory.
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    _check_grid(cfg)
    return cfg


# A grid cell is a mask label in its combo_label spelling and a variant int; config fields,
# flags, the manifest's generate record and generation lines are all read by _mask and _variant.
_VARIANTS = {str(v): v for _, v in generation.PROMPTS}  # --variants gives them as text
_MASK_LABELS = [combo_label(mask) for mask in MODALITY_COMBOS]


def _mask(label) -> str:
    """The canonical spelling of mask ``label``, whatever order it lists its modalities in."""
    try:
        mask = parse_combo_label(label)
        PromptSpec(InferenceType.GOAL, 1, mask)
    except (ValueError, AttributeError, TypeError) as exc:
        raise ValueError(f"bad modality mask {label!r}: {exc}") from None
    return combo_label(mask)


def _variant(value) -> int:
    """``value``, if it is a prompt variant: an int, never its text."""
    if type(value) is not int or value not in _VARIANTS.values():
        raise ValueError(f"unknown prompt variant {value!r}; choose from {', '.join(_VARIANTS)}")
    return value


def _cells(values, read) -> list:
    """``read`` of each of ``values``, a non-empty list in which no cell is named twice."""
    if not values:
        raise ValueError(f"must be a non-empty list, not {values!r}")
    cells = [read(value) for value in values]
    for i, cell in enumerate(cells):
        if cell in cells[:i]:
            what = "modality masks" if read is _mask else "prompt variants"
            first = values[cells.index(cell)]
            raise ValueError(f"{what} {first!r} and {values[i]!r} repeat a cell")
    return cells


def _check_grid(cfg: RunConfig) -> None:
    """Read the grid fields into canonical cells, or raise ConfigError."""
    try:
        labels = _MASK_LABELS if cfg.modalities == ["all"] else cfg.modalities
        cfg.modalities = _cells(labels, _mask)
        cfg.variants = _cells(cfg.variants, _variant)
        cfg.modality_stage_variant = _variant(cfg.modality_stage_variant)
    except ValueError as exc:
        raise ConfigError(f"bad grid in config: {exc}") from None


# each stage's record is an object, with the settings it ran under if it records them
_MANIFEST = shapes.obj({
    "stages": shapes.dict_of({"settings?": shapes.OBJECT}),
    "cells": shapes.dict_of(shapes.STRING),
    "failures": shapes.LIST,
})


class Manifest:
    def __init__(self, run_dir: Path):
        self.path = Path(run_dir) / "manifest.json"
        self.data = {"stages": {}, "cells": {}, "failures": []}

    @classmethod
    def load(cls, run_dir: Path) -> "Manifest":
        manifest = cls(run_dir)
        if manifest.path.exists():
            try:
                with open(manifest.path, encoding="utf-8") as fh:
                    manifest.data = shapes.check(json.load(fh), _MANIFEST)
            except (OSError, ValueError) as exc:  # a directory, not JSON, not UTF-8, or its shape
                raise ConfigError(f"manifest {manifest.path} is not a run manifest: {exc}") from exc
        return manifest

    def save(self) -> None:
        _write_atomic(self.path, (json.dumps(self.data, indent=1),))

    def mark_stage(self, stage: str, **info) -> None:
        self.data["stages"][stage] = info
        self.save()

    def has_stage(self, stage: str) -> bool:
        return stage in self.data["stages"]

    def check_settings(self, cfg: RunConfig, mark: str, stage: str, command: str) -> None:
        """Raise ConfigError naming each ``stage`` setting other than the one ``mark`` recorded."""
        record = self.data["stages"].get(mark)
        if record is None:
            return
        recorded = record.get("settings", {})
        changed = [k for k, v in stage_settings(cfg, stage).items() if recorded.get(k) != v]
        if changed:
            raise ConfigError(
                f"stage {mark!r} in {self.path.parent} ran with other {', '.join(changed)}"
                f" than the config gives; run {command} again"
            )

    def mark_cell(self, key: str, path: str) -> None:
        # a cell file holds what its last writer made, so no other key may claim it
        self.data["cells"] = {k: p for k, p in self.data["cells"].items() if p != path}
        self.data["cells"][key] = path
        self.save()

    def cell_done(self, key: str) -> bool:
        entry = self.data["cells"].get(key)
        return entry is not None and Path(entry).exists()

    def record_failure(self, *messages: str) -> None:
        """Record each of ``messages``, in one save."""
        self.data["failures"].extend(messages)
        self.save()


@dataclass
class Providers:
    """One command's providers, with the connections and response log they share."""

    coref: object | None = None
    parse: object | None = None
    rc: object | None = None
    lm: object | None = None
    vision: object | None = None
    session: HttpSession = field(default_factory=HttpSession)
    cache: ResponseCache | None = None

    def close(self) -> None:
        self.session.close()
        if self.cache is not None:
            self.cache.close()


def make_providers(cfg: RunConfig, cache_dir: Path, roles=None) -> Providers:
    """The configured providers of ``roles`` (default: every role); their command closes them."""
    cache = ResponseCache(cache_dir)
    session = HttpSession()
    built = Providers(session=session, cache=cache)
    retry = lambda send: with_retries(send, attempts=cfg.retries, base_delay=cfg.retry_base_delay)
    http = {"session": session, "retry": retry}  # only requests retry: a stub answers the same
    factories = {
        ("coref", "stub"): lambda spec: stubs.StubCorefProvider(spec["path"]),
        ("parse", "stub"): lambda spec: stubs.StubParseProvider(spec["path"]),
        ("rc", "stub"): lambda spec: stubs.StubRCProvider(spec["path"]),
        ("lm", "stub"): lambda spec: stubs.StubLMProvider(spec.get("path"), seed=cfg.seed),
        ("vision", "stub"): lambda spec: stubs.StubVisionProvider(),
        ("coref", "http"): lambda spec: HttpCorefProvider(spec["url"], cache, **http),
        ("parse", "http"): lambda spec: HttpParseProvider(spec["url"], cache, **http),
        ("rc", "http"): lambda spec: HttpRCProvider(spec["url"], cache, **http),
        ("lm", "http"): lambda spec: HttpLMProvider(spec["url"], cache, seed=cfg.seed, **http),
    }
    for name, spec in cfg.providers.items():
        if roles is not None and name not in roles:
            continue
        kind = spec.get("kind")
        factory = factories.get((name, kind))
        if factory is None:
            if kind not in {k for _, k in factories}:
                raise ConfigError(f"provider {name!r} has unknown kind {kind!r}")
            raise ConfigError(f"no {kind} implementation for provider {name!r}")
        try:
            setattr(built, name, factory(spec))
        except KeyError as exc:  # a spec without the field its kind reads, or a table without it
            raise ConfigError(f"provider {name!r} of kind {kind!r} lacks {exc}") from exc
        except (OSError, ValueError) as exc:  # missing, a directory, not JSON, not UTF-8, a list
            raise ConfigError(f"provider {name!r} table {spec.get('path')}: {exc}") from exc
    return built


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# build-dataset


def run_build_dataset(cfg: RunConfig) -> None:
    run_dir = Path(cfg.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(run_dir)

    for attr, label in (("annotation_file", "annotation"), ("recipe_file", "recipe index")):
        value = getattr(cfg, attr)
        if not value or not Path(value).exists():
            raise ConfigError(f"{label} file not found: {value or '<unset>'}")

    corpus = Corpus.load(cfg.annotation_file, cfg.recipe_file)
    providers = make_providers(cfg, run_dir / "cache")
    with contextlib.closing(providers):
        _build_dataset(cfg, run_dir, manifest, corpus, providers)


def _build_dataset(cfg: RunConfig, run_dir: Path, manifest: Manifest, corpus, providers) -> None:
    if providers.coref is None or providers.parse is None:
        raise ConfigError("build-dataset needs coref and parse providers")

    manifest.mark_stage("ingest", videos=len(corpus.videos))

    # each video with segments is one coref document
    resolved: dict[tuple[str, int], str] = {}
    for videos in chunks([video for video in corpus.videos if video.segments]):
        try:
            documents = extraction.resolve_videos(videos, providers.coref)
        except ProviderError as exc:
            manifest.record_failure(
                *(f"extract: video {v.video_id} kept its sentences: {exc}" for v in videos)
            )
            documents = extraction.unresolved(videos)
        for video, sentences in zip(videos, documents):
            for seg, sentence in zip(video.segments, sentences):
                resolved[video.video_id, seg.index] = sentence.resolved

    try:
        parse = lambda chunk: extraction.extract_pairs(chunk, providers.parse)
        pairs = _in_chunks(parse, list(resolved.items()))
    except ProviderError as exc:
        manifest.record_failure(f"extract: {exc}")
        raise ProviderError(f"parse provider failed after retries: {exc}") from exc

    counts = extraction.count_lemma_frequencies(pairs)
    kept = extraction.filter_pairs_by_frequency(pairs, counts, cfg.min_count)
    manifest.mark_stage("extract", pairs=len(pairs), kept=len(kept))

    buckets = triplets.group_by_ingredient(triplets.events_from_pairs(kept))
    triplet_list = triplets.all_triplets(buckets)
    triplets_path = run_dir / "triplets.jsonl"
    triplets.write_triplets(triplet_list, triplets_path)
    manifest.mark_stage("triplets", count=len(triplet_list), file=str(triplets_path))

    # each distinct effect question once, in the order triplets first ask it
    asked = [assembly.effect_questions(triplet, corpus) for triplet in triplet_list]
    items = list(dict.fromkeys(item for questions in asked for item in questions))
    answers = None
    if items and providers.rc is not None:
        try:
            answers = assembly.AnswerTable(items, _in_chunks(providers.rc.answer_many, items))
        except ProviderError as exc:
            manifest.record_failure(f"assemble: {exc}")
            raise ProviderError(f"rc provider failed after retries: {exc}") from exc
    instances = [
        assembly.build_instance(t, corpus, rc=answers, resolved=resolved, fps=cfg.fps, questions=q)
        for t, q in zip(triplet_list, asked)
    ]

    merged = sorted(assembly.merge_by_action_object(instances), key=lambda i: i.instance_id)
    try:  # ids slug their action-object pair, so two pairs can share one
        assembly.check_unique_ids(merged, lambda p: f"action-object pair {merged[p].action_object}")
    except ValueError as exc:
        raise ConfigError(f"dataset not written: {exc}") from None
    dataset_path = run_dir / "dataset.jsonl"
    assembly.write_dataset(merged, dataset_path)
    stats = assembly.compute_statistics(merged)
    _write_atomic(run_dir / "stats.json", (json.dumps(stats.to_dict(), indent=1) + "\n",))
    manifest.mark_stage(
        "assemble", instances=len(merged), dataset=str(dataset_path), stats=str(run_dir / "stats.json"),
        settings=stage_settings(cfg, "build"),
    )
    print(f"wrote {len(merged)} instances to {dataset_path}")


# ---------------------------------------------------------------------------
# stats


def _read_dataset(path: Path) -> list:
    try:
        return assembly.read_dataset(path)
    except (OSError, ValueError) as exc:  # ValueError names the line of a bad record
        raise ConfigError(f"dataset not readable: {path}: {exc}") from exc


def run_stats(dataset_path: str) -> None:
    report = assembly.compute_statistics(_read_dataset(Path(dataset_path)))
    width = max(len(label) for label, _ in report.rows())
    for label, value in report.rows():
        print(f"{label.ljust(width)}  {value}")


# ---------------------------------------------------------------------------
# the generate -> evaluate grid, shared by generate, evaluate and ablate


@dataclass
class _Run:
    """An opened run directory: manifest, providers and the built dataset."""

    dir: Path
    manifest: Manifest
    providers: Providers
    instances: list


def _open_run(cfg: RunConfig, command: str, after: str | None, dataset_path=None) -> _Run:
    """Open the run for ``command``, which needs stage ``after`` done (if given) and an LM.

    Only the providers of the roles that shape the command's stages are built.
    """
    run_dir = Path(cfg.out_dir)
    manifest = Manifest.load(run_dir)
    if after and not manifest.has_stage(after):
        raise ConfigError(
            f"stage {command!r} requires completed stage {after!r}; run the pipeline in order"
        )
    if dataset_path is None:
        manifest.check_settings(cfg, "assemble", "build", "build-dataset")
    instances = _read_dataset(Path(dataset_path or run_dir / "dataset.jsonl"))
    stages = ("generate", "evaluate") if command == "ablate" else (command,)
    roles = [r for r, shaped in _SCHEMA["providers"]["stages"].items() if set(shaped) & set(stages)]
    providers = make_providers(cfg, run_dir / "cache", roles)
    if providers.lm is None:
        raise ConfigError(f"{command} needs an lm provider")
    return _Run(run_dir, manifest, providers, instances)


def _mask_inputs(instances, mask, vision) -> dict:
    """Mask table: instance id -> its mask step under ``mask``, or the MissingModality it raised."""
    table = {}
    for instance in instances:
        try:
            table[instance.instance_id] = generation.mask_input(instance, mask, vision)
        except generation.MissingModality as exc:  # its traceback would hold the table in a cycle
            table[instance.instance_id] = exc.with_traceback(None)
    return table


def _in_chunks(ask, inputs: list) -> list:
    """``ask``'s outputs for ``inputs``: one unretried call per chunk, in order."""
    return [out for chunk in chunks(inputs) for out in ask(chunk)]


def _generate_cell(cfg: RunConfig, lm, instances, masked, label, specs) -> list[dict]:
    """The lines of one (mask label, variant) cell, in instance order, then type order.

    Each input's distinct non-empty samples are scored once; an empty one has no score.
    """
    inputs = [
        (instance.instance_id, spec, generation.compose_input_sequence(instance, spec, masked=step))
        for instance in instances
        if not isinstance(step := masked[instance.instance_id], generation.MissingModality)
        for spec in specs
    ]
    sequences = [sequence for *_, sequence in inputs]
    sample = lambda chunk: generation.generate_inferences(
        chunk, lm, cfg.n_samples, nucleus_p=cfg.nucleus_p, max_new=cfg.max_new_tokens
    )
    samples = _in_chunks(sample, sequences)
    distinct = [list(dict.fromkeys(t for t in texts if t)) for texts in samples]
    items = [(sequence, texts) for sequence, texts in zip(sequences, distinct) if texts]
    scored = iter(_in_chunks(lambda c: generation.score_many(c, lm), items))
    lines = []
    for (instance_id, spec, _), texts, asked in zip(inputs, samples, distinct):
        by_text = {c.text: c for c in (next(scored) if asked else ())}
        lines.append(
            {
                "instance_id": instance_id,
                "inference_type": spec.inference_type.value,
                "condition": label,
                "variant": spec.variant,
                "prompt_id": spec.prompt_id,
                "texts": texts,
                "nll": [by_text[t].nll if t else None for t in texts],
                "perplexity": [by_text[t].perplexity if t else None for t in texts],
            }
        )
    return lines


# one encoder for every generation line, which json.dumps would build anew per call
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _generate(cfg: RunConfig, run: _Run, labels, variants, resume: bool, phase: str) -> Path:
    """Generate and score each (mask label, variant) cell, combine them and mark ``generate``.

    Each instance's mask step is made once per mask label and shared by the
    label's variants and inference types.
    """
    failures = 0
    cell_paths: list[Path] = []
    # a resumed run reuses only cells made under the same generation settings
    settings = stage_settings(cfg, "generate")
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest()
    for label in labels:
        mask = parse_combo_label(label)
        masked = None  # the label's mask table, made for its first cell that is not resumed
        for variant in variants:
            cell = f"{label}__P{variant}"
            key = f"{phase}:{cell}:{digest[:16]}"
            cell_path = run.dir / f"gen_cells_{phase}" / f"{cell}.jsonl"
            cell_paths.append(cell_path)
            if resume and run.manifest.cell_done(key):
                continue
            specs = [PromptSpec(t, variant, mask) for t in InferenceType]
            try:
                if masked is None:
                    masked = _mask_inputs(run.instances, mask, run.providers.vision)
                lines = _generate_cell(cfg, run.providers.lm, run.instances, masked, label, specs)
            except ProviderError as exc:
                failures += 1
                run.manifest.record_failure(f"{key}: {exc}")
                continue
            _write_atomic(cell_path, (_LINE_ENCODER.encode(line) + "\n" for line in lines))
            run.manifest.mark_cell(key, str(cell_path))

    if failures:
        raise ProviderError(f"{failures} generation cells failed after retries (see manifest)")
    combined = run.dir / f"generations_{phase}.jsonl"
    _write_atomic(combined, (p.read_text(encoding="utf-8") for p in cell_paths))
    run.manifest.mark_stage(
        "generate",
        file=str(combined),
        masks=list(labels),
        variants=list(variants),
        request_groups=len(labels) * len(variants) * len(run.instances),
        phase=phase,
        settings=settings,
    )
    print(f"wrote generations to {combined}")
    return combined


# a generation line as evaluate reads it; _mask and _variant read its cell, and its type is a name
_GENERATION_LINE = shapes.obj({
    "instance_id": shapes.STRING,
    **dict.fromkeys(("inference_type", "condition", "variant"), shapes.ANY),
    "texts": [shapes.STRING],
})
INFERENCE_TYPE_NAMES = tuple(t.value for t in InferenceType)


def _read_generations(path: Path, instance_ids) -> dict[tuple[str, str, int], list]:
    """Dataset instances' generations: (type, mask label, variant) -> [(instance_id, texts)].

    Cells are keyed by the canonical mask label, however a line spells it.
    """
    cells: dict[tuple[str, str, int], list] = {}
    first_line: dict[tuple, int] = {}  # (instance_id, *cell key) -> the line that gave it
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                line = shapes.check(json.loads(raw), _GENERATION_LINE)
                if line["instance_id"] not in instance_ids:
                    raise ValueError(f"instance {line['instance_id']!r} is not in the dataset")
                if line["inference_type"] not in INFERENCE_TYPE_NAMES:
                    raise ValueError(f"unknown inference type {line['inference_type']!r}")
                key = (line["inference_type"], _mask(line["condition"]), _variant(line["variant"]))
            except ValueError as exc:  # JSONDecodeError is a ValueError
                raise ConfigError(f"{path}:{number}: not a generation record: {exc}") from None
            generation_key = (line["instance_id"], *key)
            first = first_line.setdefault(generation_key, number)
            if first != number:
                raise ConfigError(f"{path}:{number}: repeats line {first}'s {generation_key}")
            cells.setdefault(key, []).append((line["instance_id"], line["texts"]))
    return cells


def _cell_metrics(cfg: RunConfig, entries, index, sequences, lm) -> dict:
    """Six-metric scores for one (type, mask, variant) cell.

    ``sequences`` maps each instance with references to its composed input,
    against which its A@50 pool is ranked.
    """
    pools = [index.pool(instance_id, cfg.seed, cfg.pool_size) for instance_id in sequences]
    items = [(sequences[p.instance_id], [c.text for c in p.candidates]) for p in pools]
    scored = _in_chunks(lambda chunk: generation.score_many(chunk, lm), items)
    pools = [
        metrics.score_pool(pool, lambda texts, row=row: [c.perplexity for c in row])
        for pool, row in zip(pools, scored)
    ]

    all_texts = [t for _, texts in entries for t in texts]
    return {
        **index.overlap_scores(entries),
        "A50": metrics.acc_at_50(pools, mode=cfg.acc_mode) if pools else 0.0,
        "unique": metrics.uniqueness(all_texts) if all_texts else 0.0,
        "novel": metrics.novelty(all_texts, index.texts) if all_texts else 0.0,
    }


def _evaluate_grid(cfg: RunConfig, cells, instances, providers, labels, variants) -> dict:
    """Score every (type, mask label, variant) cell by type; a cell not generated is an error.

    Pools rank against the input generate composed, through the same mask
    table: one per mask label over the instances its cells name, all made
    before any pool is scored.
    """
    for label, variant, itype in itertools.product(labels, variants, INFERENCE_TYPE_NAMES):
        if (itype, label, variant) not in cells:
            raise ConfigError(f"incomplete grid, missing cell ({itype}, {label}, P{variant})")

    by_id = {i.instance_id: i for i in instances}
    masked = {}  # mask label -> its mask table
    for label in labels:
        named = {i: by_id[i] for t, v in itertools.product(INFERENCE_TYPE_NAMES, variants)
                 for i, _ in cells[(t, label, v)]}
        masked[label] = _mask_inputs(named.values(), parse_combo_label(label), providers.vision)
        for step in masked[label].values():
            if isinstance(step, generation.MissingModality):
                raise ConfigError(f"{step}, yet the generations hold its {label} lines")

    scores = {}
    for itype in INFERENCE_TYPE_NAMES:
        # one type at a time, so only that type's tokens and pools are held
        index = metrics.ReferenceIndex(by_id.values(), itype)
        for label, variant in itertools.product(labels, variants):
            key = (itype, label, variant)
            spec = PromptSpec(InferenceType(itype), variant, parse_combo_label(label))
            sequences = {}
            for instance_id, _ in cells[key]:
                if index.references(instance_id):
                    sequences[instance_id] = generation.compose_input_sequence(
                        by_id[instance_id], spec, masked=masked[label][instance_id]
                    )
            scores[key] = _cell_metrics(cfg, cells[key], index, sequences, providers.lm)
    return scores


def _report(scores, row_key) -> metrics.EvalReport:
    """One row per ``row_key(type, mask label, variant)``: the mean of its cells in type order."""
    groups: dict[tuple[str, str], list] = {}
    for key, cell in scores.items():
        groups.setdefault(row_key(*key), []).append(cell)
    means = (
        (row, {c: sum(cell[c] for cell in group) / len(group) for c in metrics.METRIC_COLUMNS})
        for row, group in groups.items()
    )
    return metrics.EvalReport(rows=tuple(metrics.ReportRow.from_cell(*row, m) for row, m in means))


def _evaluate(cfg: RunConfig, run: _Run, generations_path, labels=None, variants=None):
    """Score the grid into a modality, prompt or full report, write it, mark ``evaluate``.

    Without mask labels and variants the grid is the one the generations cover.
    """
    generations_path = Path(generations_path)
    if not generations_path.is_file():
        raise ConfigError(f"generations not found: {generations_path}")
    cells = _read_generations(generations_path, {i.instance_id for i in run.instances})
    if not cells:
        raise ConfigError(f"generations {generations_path} hold no generation records")
    if labels is None:
        labels = list(dict.fromkeys(label for _, label, _ in cells))
        variants = list(dict.fromkeys(variant for _, _, variant in cells))

    try:
        scores = _evaluate_grid(cfg, cells, run.instances, run.providers, labels, variants)
    except ProviderError as exc:
        run.manifest.record_failure(f"evaluate: {exc}")
        raise ProviderError(f"pool scoring failed after retries: {exc}") from exc

    # each grid shape's report and the row each (type, mask label, variant) cell goes to
    if len(labels) > 1 and len(variants) == 1:
        name, row_key = "modality_report", lambda t, label, v: ("all", label)
    elif len(labels) == 1:
        name, row_key = "prompt_report", lambda t, label, v: (t, prompt_id(InferenceType(t), v))
    else:
        name, row_key = "report", lambda t, label, v: (t, f"{label}|P{v}")
    report = _report(scores, row_key)
    report_path = run.dir / f"{name}.json"
    _write_atomic(report_path, (report.to_json() + "\n",))
    _write_atomic(run.dir / f"{name}.txt", (report.to_text() + "\n",))
    run.manifest.mark_stage("evaluate", report=str(report_path))
    print(f"wrote {report_path}")
    return report


def run_generate(cfg: RunConfig, resume: bool = False) -> None:
    run = _open_run(cfg, "generate", "assemble")
    with contextlib.closing(run.providers):
        _generate(cfg, run, cfg.modalities, cfg.variants, resume, "main")


_GENERATE_RECORD = shapes.obj({"file": shapes.STRING, "masks": shapes.LIST, "variants": shapes.LIST})


def _generated_grid(manifest: Manifest) -> tuple[str, list[str], list[int]]:
    """The file, canonical mask labels and variants of the manifest's ``generate`` record."""
    record = manifest.data["stages"]["generate"]
    where = f"manifest {manifest.path}: stage 'generate'"
    try:
        grid = [shapes.check(record, _GENERATE_RECORD)["file"]]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for name, read in (("masks", _mask), ("variants", _variant)):
        try:
            grid.append(_cells(record[name], read))
        except ValueError as exc:
            raise ConfigError(f"{where}: field {name!r}: {exc}") from None
    return tuple(grid)


def run_evaluate(cfg: RunConfig, generations_path=None, dataset_path=None) -> None:
    run = _open_run(cfg, "evaluate", None if generations_path else "generate", dataset_path)
    with contextlib.closing(run.providers):
        if generations_path:
            _evaluate(cfg, run, generations_path)
        else:
            file, labels, variants = _generated_grid(run.manifest)
            run.manifest.check_settings(cfg, "generate", "generate", "generate")
            _evaluate(cfg, run, file, labels, variants)


def run_ablate(cfg: RunConfig, resume: bool = False, modalities_only: bool = False) -> None:
    """The modality grid at one prompt variant, then every variant on its best row."""
    run = _open_run(cfg, "ablate", "assemble")
    with contextlib.closing(run.providers):
        variants = [cfg.modality_stage_variant]
        combined = _generate(cfg, run, _MASK_LABELS, variants, resume, "modality")
        modality_report = _evaluate(cfg, run, combined, _MASK_LABELS, variants)
        if modalities_only:
            return
        # Best modality row: argmax of mean(B, M, C, A50) on the display scale.
        best = max(
            modality_report.rows, key=lambda r: (r.B * 100 + r.M * 100 + r.C * 10 + r.A50 * 100) / 4
        )
        combined = _generate(cfg, run, [best.condition], cfg.variants, resume, "prompt")
        _evaluate(cfg, run, combined, [best.condition], cfg.variants)
        print(f"best modality: {best.condition}")


# ---------------------------------------------------------------------------
# report


_REPORT = shapes.obj({
    "rows": [{
        "type": shapes.STRING, "condition": shapes.STRING,
        **dict.fromkeys(metrics.METRIC_COLUMNS, shapes.NUMBER),
    }],
})


def run_report(report_path: str, as_csv: bool = False) -> None:
    path = Path(report_path)
    if not path.exists():
        raise ConfigError(f"report not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            rows = shapes.check(json.load(fh), _REPORT)["rows"]
    except (OSError, ValueError) as exc:  # a directory, not JSON, not UTF-8, or its shape
        raise ConfigError(f"report {path} is not a report JSON: {exc}") from exc
    if not rows:
        raise ConfigError(f"report {path} has no rows")
    sys.stdout.write(metrics.format_csv(rows) if as_csv else metrics.format_table(rows) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="run seed (overrides config)")


def _load(args) -> RunConfig:
    overrides = {"out_dir": getattr(args, "out", None), "seed": getattr(args, "seed", None)}
    if getattr(args, "modalities", None):
        overrides["modalities"] = args.modalities.split(",")
    if getattr(args, "variants", None):
        overrides["variants"] = [_VARIANTS.get(v, v) for v in args.variants.split(",")]
    cfg = load_config(args.config, overrides)
    if not cfg.out_dir:
        raise ConfigError("no output directory; set out_dir in config or pass --out")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionsense",
        description="Build action commonsense datasets and evaluate generated inferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="run the collection pipeline")
    _add_config_args(p)

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("dataset", help="dataset JSONL path")

    p = sub.add_parser("generate", help="sample and score inferences over a grid")
    _add_config_args(p)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--modalities", help="comma-separated mask labels or 'all'")
    p.add_argument("--variants", help="comma-separated prompt variants")

    p = sub.add_parser("evaluate", help="score generations into report tables")
    _add_config_args(p)
    p.add_argument("--generations", help="generations JSONL (defaults to manifest)")
    p.add_argument("--dataset", help="dataset JSONL (defaults to run dir)")

    p = sub.add_parser("ablate", help="modality grid, then prompt grid on the best row")
    _add_config_args(p)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--modalities-only", action="store_true")

    p = sub.add_parser("report", help="render a report JSON as a table")
    p.add_argument("report", help="report JSON path")
    p.add_argument("--csv", action="store_true")

    return parser


def main(argv=None) -> int:
    """Run one command; the only place errors become exit codes.

    The command runs with the cyclic garbage collector paused: its data holds no cycles.
    """
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "build-dataset":
            run_build_dataset(_load(args))
        elif args.command == "stats":
            run_stats(args.dataset)
        elif args.command == "generate":
            run_generate(_load(args), resume=args.resume)
        elif args.command == "evaluate":
            run_evaluate(_load(args), args.generations, args.dataset)
        elif args.command == "ablate":
            run_ablate(_load(args), resume=args.resume, modalities_only=args.modalities_only)
        elif args.command == "report":
            run_report(args.report, as_csv=args.csv)
    except (
        ConfigError, MalformedAnnotation, InvalidWindow, metrics.InsufficientNegatives,
        generation.SequenceOverflow,
    ) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except ProviderError as exc:
        return _fail(str(exc), EXIT_PROVIDER)
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
