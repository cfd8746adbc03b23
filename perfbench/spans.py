"""Out-of-tree tracing of the actionsense layers.

``count_requests`` wraps every public method of the stub providers with a
request counter; it is installed only in the counting and traced runs, never
in the timed ones. ``Tracer.install`` replaces the
public functions of each module, and the provider and cache methods, with
wrappers that record a span per call (name, start, end, parent span,
enclosing command) or only bump a counter for calls too frequent to time.
Spans are kept in memory in flat arrays; ``layer_metrics`` derives per-layer
self times, counts and ratios from them, and ``write`` dumps them as TSV when
the run ends. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter, defaultdict

from actionsense import (
    assembly,
    cli,
    corpus,
    extraction,
    generation,
    metrics,
    providers,
    stubs,
    triplets,
)

# (owner, attribute, span name); owners that are classes get method wrappers.
SPANS = (
    (corpus.Corpus, "load", "corpus.load"),
    (extraction, "resolve_coreferences", "extraction.resolve"),
    (extraction, "extract_verb_ingredient_pairs", "extraction.extract"),
    (extraction, "count_lemma_frequencies", "extraction.count"),
    (extraction, "filter_pairs_by_frequency", "extraction.filter"),
    (stubs.StubCorefProvider, "resolve", "coref.resolve"),
    (stubs.StubParseProvider, "parse", "parse.parse"),
    (stubs.StubRCProvider, "answer", "rc.answer"),
    (triplets, "events_from_pairs", "triplets.events"),
    (triplets, "group_by_ingredient", "triplets.group"),
    (triplets, "all_triplets", "triplets.windows"),
    (triplets, "write_triplets", "triplets.write"),
    (assembly, "build_instance", "assembly.build_instance"),
    (assembly, "merge_by_action_object", "assembly.merge"),
    (assembly, "write_dataset", "assembly.write_dataset"),
    (assembly, "read_dataset", "assembly.read_dataset"),
    (assembly, "compute_statistics", "assembly.stats"),
    (generation, "compose_input_sequence", "generation.compose"),
    (generation, "generate_inferences", "generation.generate"),
    (generation, "score_candidate", "generation.score"),
    (stubs.StubLMProvider, "sample", "lm.sample"),
    (stubs.StubLMProvider, "logprobs", "lm.logprobs"),
    (providers.HttpLMProvider, "sample", "lm.sample"),
    (providers.HttpLMProvider, "logprobs", "lm.logprobs"),
    (providers, "_post_json", "http.post"),
    (providers.ResponseCache, "get", "cache.get"),
    (providers.ResponseCache, "put", "cache.put"),
    (metrics, "build_candidate_pool", "metrics.pool_build"),
    (metrics, "score_pool", "metrics.pool_score"),
    (metrics, "cider", "metrics.cider"),
    (metrics, "bleu2", "metrics.bleu2"),
    (metrics, "meteor", "metrics.meteor"),
    (metrics, "acc_at_50", "metrics.acc_at_50"),
    (metrics, "uniqueness", "metrics.diversity"),
    (metrics, "novelty", "metrics.diversity"),
)

# Stub providers whose public method calls each stand for one request to a
# text tool or LM. Every public method counts, so a method added later (a
# batched op, say) is counted without a change here.
REQUESTS = (
    (stubs.StubCorefProvider, "requests.coref"),
    (stubs.StubParseProvider, "requests.parse"),
    (stubs.StubRCProvider, "requests.rc"),
    (stubs.StubLMProvider, "requests.lm"),
)

# Calls counted without a span: too frequent to time, or CLI-internal I/O
# whose time belongs to the command's own self time.
COUNTS = (
    (assembly.CommonsenseInstance, "inference_set", "assembly.inference_set_calls"),
    (cli.Manifest, "save", "cli.manifest_saves"),
    (cli, "_write_atomic", "cli.atomic_writes"),
)


def _counted(counts: Counter, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counted_request(counts: Counter, name: str, fn, depth: list[int]):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        # A public method calling another one of the same provider (a batched
        # op falling back to single calls, say) is still one request.
        counts[name] += depth[0] == 0
        depth[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1

    return counted


def count_requests(counts: Counter) -> None:
    """Count stub provider requests into ``counts`` for the life of the process."""
    for owner, name in REQUESTS:
        depth = [0]
        for attr, value in list(vars(owner).items()):
            if not attr.startswith("_") and isinstance(value, (types.FunctionType, classmethod)):
                _patch(owner, attr, lambda fn, n=name, d=depth: _counted_request(counts, n, fn, d))


class Tracer:
    """Spans in flat arrays, plus named counters."""

    def __init__(self, counts: Counter):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.counts = counts
        self._stack = [-1]
        self._command = -1
        self.command_labels: dict[int, str] = {}

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.command.append(self._command)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_command(self, label: str, fn):
        """Run one CLI command as a root span; its index is the command id."""
        idx = self._open(self._name(f"cli.{label}"))
        self._command = idx
        self.command[idx] = idx
        self.command_labels[idx] = label
        try:
            return fn()
        finally:
            self._close(idx)
            self._command = -1

    def span(self, name: str, fn):
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except generation.MissingModality:
                if name == "generation.generate":
                    self.counts["generation.skipped_groups"] += 1
                raise
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "cache.get":
            self.counts["cache.hits"] += result is not None
        elif name == "extraction.filter":
            self.counts["extraction.pairs"] += len(args[0])
            self.counts["extraction.kept"] += len(result)
        elif name == "assembly.merge":
            self.counts["assembly.merge_in"] += len(args[0])
            self.counts["assembly.merge_out"] += len(result)
        elif name == "triplets.windows":
            self.counts["triplets.count"] += len(result)

    def install(self) -> None:
        """Patch every traced function; lasts for the life of the process."""
        for owner, attr, name in SPANS:
            _patch(owner, attr, lambda fn, n=name: self.span(n, fn))
        for owner, attr, name in COUNTS:
            _patch(owner, attr, lambda fn, n=name: _counted(self.counts, n, fn))
        original = cli.with_retries

        def counting_sleep(seconds):
            self.counts["providers.retries"] += 1
            time.sleep(seconds)

        def with_retries(fn, attempts=3, base_delay=0.1, sleep=None):
            return original(fn, attempts=attempts, base_delay=base_delay, sleep=counting_sleep)

        cli.with_retries = with_retries

    def self_times(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def calls_in(self, name: str, command_label: str) -> int:
        nid = self._ids.get(name)
        return sum(
            1
            for i in range(len(self.start))
            if self.name_id[i] == nid and self.command_labels.get(self.command[i]) == command_label
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcommand\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.command[i]}\n"
                )


def _patch(owner, attr, make_wrapper) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(raw))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, fake_lm=None) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence (times are self times)."""
    rows = tracer.self_times()
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(rows[n][2] for n in names if n in rows)

    def calls(*names: str) -> int:
        return sum(rows[n][0] for n in names if n in rows)

    if fake_lm is not None:
        http_requests, http_connections = fake_lm.requests, fake_lm.connections
    else:
        http_requests = http_connections = 0
    gets = calls("cache.get")
    out = {
        "corpus.load_s": self_s("corpus.load"),
        "extraction.resolve_s": self_s("extraction.resolve", "coref.resolve"),
        "extraction.extract_s": self_s(
            "extraction.extract", "parse.parse", "extraction.count", "extraction.filter"
        ),
        "extraction.extract_calls": calls("extraction.extract"),
        "extraction.kept_ratio": _ratio(counts["extraction.kept"], counts["extraction.pairs"]),
        "parse.calls": calls("parse.parse"),
        "triplets.group_s": self_s("triplets.events", "triplets.group", "triplets.windows"),
        "triplets.write_s": self_s("triplets.write"),
        "triplets.count": counts["triplets.count"],
        "assembly.build_instance_s": self_s("assembly.build_instance", "rc.answer"),
        "assembly.merge_s": self_s("assembly.merge"),
        "assembly.merge_ratio": _ratio(counts["assembly.merge_out"], counts["assembly.merge_in"]),
        "rc.calls": calls("rc.answer"),
        "assembly.write_dataset_s": self_s("assembly.write_dataset"),
        "assembly.read_dataset_s": self_s("assembly.read_dataset"),
        "assembly.stats_s": self_s("assembly.stats"),
        "assembly.inference_set_calls": counts["assembly.inference_set_calls"],
        "generation.compose_s": self_s("generation.compose"),
        "generation.compose_calls": calls("generation.compose"),
        "generation.compose_per_group": _ratio(
            tracer.calls_in("generation.compose", "generate"),
            tracer.calls_in("generation.generate", "generate"),
        ),
        "generation.generate_s": self_s("generation.generate"),
        "generation.score_s": self_s("generation.score"),
        "generation.skipped_groups": counts["generation.skipped_groups"],
        "lm_requests": http_requests if fake_lm is not None else counts["requests.lm"],
        "lm.sample_calls": calls("lm.sample"),
        "lm.logprobs_calls": calls("lm.logprobs"),
        "lm.sample_s": self_s("lm.sample"),
        "lm.logprobs_s": self_s("lm.logprobs"),
        "providers.retries": counts["providers.retries"],
        "http.requests": http_requests,
        "http.connections": http_connections,
        "http.requests_per_connection": _ratio(http_requests, http_connections),
        "http.post_s": self_s("http.post"),
        "cache.hits": counts["cache.hits"],
        "cache.hit_ratio": _ratio(counts["cache.hits"], gets),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "metrics.pool_build_s": self_s("metrics.pool_build"),
        "metrics.pool_score_s": self_s("metrics.pool_score"),
        "metrics.cider_s": self_s("metrics.cider"),
        "metrics.bleu2_s": self_s("metrics.bleu2"),
        "metrics.meteor_s": self_s("metrics.meteor"),
        "metrics.acc_at_50_s": self_s("metrics.acc_at_50"),
        "metrics.diversity_s": self_s("metrics.diversity"),
        "cli.manifest_saves": counts["cli.manifest_saves"],
        "cli.atomic_writes": counts["cli.atomic_writes"],
        "trace.spans": len(tracer.start),
    }
    for label in ("build", "stats", "generate", "warm_generate", "evaluate"):
        out[f"cli.self_s.{label}"] = self_s(f"cli.{label}")
    return out
