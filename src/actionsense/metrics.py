"""Automatic evaluation: overlap metrics, ranked retrieval and diversity.

All text metrics share one normalization: object tags are collapsed to a
single placeholder, then text is lowercased, punctuation-stripped, and
whitespace-split. This makes every metric invariant under object-tag
renaming.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .assembly import OBJECT_TAG_RE

OBJECT_PLACEHOLDER = "[Object]"

SMOOTH_EPSILON = 1e-9  # stands in for zero n-gram precisions

DEFAULT_POOL_SIZE = 50


class EmptyCandidate(Exception):
    pass


class EmptyList(Exception):
    pass


class CorpusTooSmall(Exception):
    pass


class InsufficientNegatives(Exception):
    pass


class UnscoredCandidate(Exception):
    pass


class MissingCell(Exception):
    pass


def normalize_object_tags(text: str) -> str:
    """Collapse every numbered object tag to the same placeholder."""
    return OBJECT_TAG_RE.sub(OBJECT_PLACEHOLDER, text)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return re.sub(r"[^\w\s]", " ", text.lower()).split()


def _prep(text: str) -> list[str]:
    return tokenize(normalize_object_tags(text))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_references(refs: Sequence[list[str]]) -> tuple[list[int], list[Counter]]:
    """Reference lengths and, for n = 1 and 2, each n-gram's highest count in any reference."""
    max_ref = []
    for n in (1, 2):
        counts = Counter()
        for ref in refs:
            for gram, count in _ngrams(ref, n).items():
                counts[gram] = max(counts[gram], count)
        max_ref.append(counts)
    return [len(ref) for ref in refs], max_ref


def _bleu2(cand: list[str], ref_lengths: Sequence[int], max_ref: Sequence[Counter]) -> float:
    if not ref_lengths:
        raise EmptyCandidate("no usable reference")
    log_precision = 0.0
    for n, max_counts in zip((1, 2), max_ref):
        guess = max(0, len(cand) - n + 1)
        correct = sum(min(count, max_counts[gram]) for gram, count in _ngrams(cand, n).items())
        precision = correct / guess if guess else 0.0
        log_precision += math.log(precision if precision > 0 else SMOOTH_EPSILON)

    c = len(cand)
    r = min((abs(length - c), length) for length in ref_lengths)[1]
    brevity = 1.0 if c >= r else math.exp(1 - r / c)
    return brevity * math.exp(log_precision / 2)


def bleu2(candidate: str, references: Sequence[str]) -> float:
    """Geometric mean of clipped 1/2-gram precision with a brevity penalty.

    Zero precisions are smoothed to SMOOTH_EPSILON; single-sentence inputs
    make exact zeros common otherwise.
    """
    cand = _prep(candidate)
    if not cand:
        raise EmptyCandidate(candidate)
    return _bleu2(cand, *_bleu_references([ref for ref in map(_prep, references) if ref]))


def _stem(token: str) -> str:
    """Lightweight suffix stemmer for the stem matching stage."""
    for suffix in ("ing", "ed", "es", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _align(
    cand: list[str], ref: list[str], synonyms: Mapping[str, set[str]] | None
) -> list[tuple[int, int]]:
    cand_stems = [_stem(t) for t in cand]
    ref_stems = [_stem(t) for t in ref]
    stages: list[Callable[[int, int], bool]] = [
        lambda i, j: cand[i] == ref[j],
        lambda i, j: cand_stems[i] == ref_stems[j],
    ]
    if synonyms:
        stages.append(
            lambda i, j: ref[j] in synonyms.get(cand[i], ()) or cand[i] in synonyms.get(ref[j], ())
        )

    matched: list[tuple[int, int]] = []
    cand_used = [False] * len(cand)
    ref_used = [False] * len(ref)
    for stage in stages:
        for i in range(len(cand)):
            if cand_used[i]:
                continue
            for j in range(len(ref)):
                if not ref_used[j] and stage(i, j):
                    matched.append((i, j))
                    cand_used[i] = ref_used[j] = True
                    break
    return sorted(matched)


def _meteor(
    cand: list[str], refs: Sequence[list[str]], synonyms=None, alpha=0.9, beta=3.0, gamma=0.5
) -> float:
    best = 0.0
    for ref in refs:
        if not ref:
            continue
        matched = _align(cand, ref, synonyms)
        m = len(matched)
        if m == 0:
            continue
        precision = m / len(cand)
        recall = m / len(ref)
        fmean = precision * recall / (alpha * precision + (1 - alpha) * recall)
        chunks = 1
        for (i0, j0), (i1, j1) in zip(matched, matched[1:]):
            if i1 != i0 + 1 or j1 != j0 + 1:
                chunks += 1
        penalty = 0.0 if chunks <= 1 else gamma * (chunks / m) ** beta
        best = max(best, fmean * (1 - penalty))
    return best


def meteor(
    candidate: str,
    references: Sequence[str],
    synonyms: Mapping[str, set[str]] | None = None,
    alpha: float = 0.9,
    beta: float = 3.0,
    gamma: float = 0.5,
) -> float:
    """Unigram harmonic-mean score with a fragmentation penalty.

    Matching runs exact and stem stages by default; a synonym table is
    pluggable. A single contiguous alignment carries no penalty, so exact
    matches score 1.0.
    """
    cand = _prep(candidate)
    if not cand:
        raise EmptyCandidate(candidate)
    return _meteor(cand, [_prep(r) for r in references], synonyms, alpha, beta, gamma)


def _tfidf_vector(tokens: list[str], n: int, doc_freq: Counter, n_docs: int):
    counts = _ngrams(tokens, n)
    total = sum(counts.values())
    vec = {}
    norm_sq = 0.0
    for gram, count in counts.items():
        weight = (count / total) * math.log(n_docs / max(1.0, doc_freq[gram]))
        vec[gram] = weight
        norm_sq += weight * weight
    return vec, math.sqrt(norm_sq)


def _cider(groups: Sequence[tuple[list, list[tuple[str, list[str]]]]], nmax: int) -> dict:
    """CIDEr per candidate key; ``groups`` pairs tokenized references with (key, tokens) candidates.

    Every candidate is one document holding its group's references, so a
    group's n-grams count once per candidate in the document frequencies, and
    its reference vectors are built once.
    """
    n_docs = sum(len(cands) for _, cands in groups)
    doc_freq = [Counter() for _ in range(nmax + 1)]
    for refs, cands in groups:
        for n in range(1, nmax + 1):
            grams = set()
            for ref in refs:
                grams.update(_ngrams(ref, n).keys())
            for gram in grams:
                doc_freq[n][gram] += len(cands)

    scores = {}
    for refs, cands in groups:
        ref_vecs = [
            [_tfidf_vector(ref, n, doc_freq[n], n_docs) for ref in refs] for n in range(1, nmax + 1)
        ]
        for key, cand in cands:
            per_n = []
            for n, vecs in enumerate(ref_vecs, 1):
                cand_vec, cand_norm = _tfidf_vector(cand, n, doc_freq[n], n_docs)
                sims = []
                for ref_vec, ref_norm in vecs:
                    if cand_norm == 0 or ref_norm == 0:
                        sims.append(0.0)
                        continue
                    dot = sum(w * ref_vec.get(g, 0.0) for g, w in cand_vec.items())
                    sims.append(dot / (cand_norm * ref_norm))
                per_n.append(sum(sims) / len(sims) if sims else 0.0)
            scores[key] = 10.0 * sum(per_n) / nmax
    return scores


def cider(
    candidates_by_instance: Mapping[str, str],
    references_by_instance: Mapping[str, Sequence[str]],
    nmax: int = 4,
) -> tuple[dict[str, float], float]:
    """TF-IDF weighted n-gram cosine, averaged over n=1..4 and scaled by 10.

    Document frequencies come from the reference sets of the evaluation
    corpus, so at least two instances are required.
    """
    ids = list(candidates_by_instance)
    if len(ids) < 2:
        raise CorpusTooSmall("need at least 2 instances for document frequencies")
    missing = [i for i in ids if i not in references_by_instance]
    if missing:
        raise KeyError(f"instances without references: {missing}")

    groups = [
        ([_prep(r) for r in references_by_instance[i]], [(i, _prep(candidates_by_instance[i]))])
        for i in ids
    ]
    scores = _cider(groups, nmax)
    return scores, sum(scores.values()) / len(scores)


@dataclass(frozen=True)
class ScoredText:
    """A pool candidate; unscored until nll/perplexity are filled in."""

    text: str
    perplexity: float | None = None
    is_ground_truth: bool = False

    def with_perplexity(self, perplexity: float) -> "ScoredText":
        return ScoredText(self.text, perplexity, self.is_ground_truth)


@dataclass(frozen=True)
class CandidatePool:
    instance_id: str
    candidates: tuple[ScoredText, ...]
    gt_count: int
    size: int = DEFAULT_POOL_SIZE

    def __post_init__(self):
        if len(self.candidates) != self.size:
            raise ValueError(f"pool must hold exactly {self.size} candidates")
        if self.gt_count < 1:
            raise ValueError("pool needs at least one ground-truth candidate")


class _Without(Sequence):
    """A sorted list less the items at some sorted positions, viewed without a copy."""

    def __init__(self, items: Sequence[str], skip: Sequence[int]):
        self._items = items
        self._skip = skip

    def __len__(self) -> int:
        return len(self._items) - len(self._skip)

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < len(self):
            raise IndexError(i)
        for position in self._skip:
            if position > i:
                break
            i += 1
        return self._items[i]


class ReferenceIndex:
    """One inference type's references over an evaluation dataset, read once.

    It holds each instance's sorted references, every reference text's
    tokens, and which instances, with their image keys, own each text.
    Candidate pools drawn from it are cached per instance, so evaluate builds
    each pool once however many masks and variants it scores.
    """

    def __init__(self, instances: Iterable, inference_type: str):
        self.inference_type = inference_type
        self._refs: list[tuple[str, ...]] = []  # per dataset position
        self._images: list[str | None] = []
        self._members: dict[tuple[str, str], list[int]] = {}  # ("id"|"image", key) -> positions
        self._owners: dict[str, list[int]] = {}  # reference text -> positions
        self._tokens: dict[str, list[str]] = {}
        self._pools: dict[tuple, CandidatePool] = {}
        for position, instance in enumerate(instances):
            refs = tuple(sorted(instance.inference_set(inference_type)))
            image = instance.image.key if instance.image is not None else None
            self._refs.append(refs)
            self._images.append(image)
            self._members.setdefault(("id", instance.instance_id), []).append(position)
            if image is not None:
                self._members.setdefault(("image", image), []).append(position)
            for text in refs:
                self._owners.setdefault(text, []).append(position)
                if text not in self._tokens:
                    self._tokens[text] = _prep(text)
        self.texts = sorted(self._owners)  # every reference text of the type

    def _position(self, instance_id: str) -> int:
        return self._members[("id", instance_id)][-1]  # a later duplicate id wins

    def references(self, instance_id: str) -> tuple[str, ...]:
        return self._refs[self._position(instance_id)]

    def overlap_scores(self, entries: Iterable[tuple[str, Sequence[str]]]) -> dict[str, float]:
        """Mean B, M and C of one report cell from (instance id, generated texts) entries.

        Instances without a usable reference (one with a word character) and
        texts without tokens are skipped. Each kept text is one CIDEr
        document, keyed ``instance_id#k``; C is 0 below two documents.
        """
        refs_of = lambda instance_id: [self._tokens[r] for r in self.references(instance_id)]
        bleu_scores = []
        meteor_scores = []
        cider_cands: dict[str, tuple[str, list[str]]] = {}
        for instance_id, texts in entries:
            refs = refs_of(instance_id)
            if not any(refs):
                continue
            bleu_refs = _bleu_references([ref for ref in refs if ref])
            for k, text in enumerate(texts):
                cand = _prep(text)
                if not cand:
                    continue
                bleu_scores.append(_bleu2(cand, *bleu_refs))
                meteor_scores.append(_meteor(cand, refs))
                cider_cands[f"{instance_id}#{k}"] = (instance_id, cand)

        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
        cider_mean = 0.0
        if len(cider_cands) >= 2:
            by_instance: dict[str, list[tuple[str, list[str]]]] = {}
            for key, (instance_id, cand) in cider_cands.items():
                by_instance.setdefault(instance_id, []).append((key, cand))
            scores = _cider([(refs_of(i), cands) for i, cands in by_instance.items()], 4)
            cider_mean = mean([scores[key] for key in cider_cands])
        return {"B": mean(bleu_scores), "M": mean(meteor_scores), "C": cider_mean}

    def pool(self, instance_id: str, seed, pool_size: int = DEFAULT_POOL_SIZE) -> CandidatePool:
        """The candidate pool of an indexed instance: drawn on first use, then cached."""
        key = (instance_id, seed, pool_size)
        if key not in self._pools:
            position = self._position(instance_id)
            self._pools[key] = self.draw_pool(
                instance_id, self._images[position], self._refs[position], seed, pool_size
            )
        return self._pools[key]

    def draw_pool(
        self, instance_id: str, image: str | None, gts: Sequence[str], seed, pool_size: int
    ) -> CandidatePool:
        """Ground truths ``gts`` plus a seeded uniform sample of this type's other texts.

        A text is a negative unless it is a ground truth or every instance
        owning it is ``instance_id`` or has the image key ``image`` (if set);
        negatives are drawn from their sorted order.
        """
        if not gts:
            raise ValueError(f"instance {instance_id} has no {self.inference_type} ground truth")
        if len(gts) >= pool_size:
            raise InsufficientNegatives(
                f"{len(gts)} ground truths leave no room in a pool of {pool_size}"
            )
        excluded = set(self._members.get(("id", instance_id), ()))
        if image is not None:
            excluded.update(self._members.get(("image", image), ()))
        gt_set = set(gts)
        skip = sorted(
            bisect.bisect_left(self.texts, text)
            for text in gt_set.union(*(self._refs[p] for p in excluded))
            if text in self._owners
            and (text in gt_set or all(p in excluded for p in self._owners[text]))
        )
        negatives = _Without(self.texts, skip)

        need = pool_size - len(gts)
        if len(negatives) < need:
            raise InsufficientNegatives(
                f"need {need} negatives for {instance_id}/{self.inference_type},"
                f" only {len(negatives)} available"
            )
        rng = random.Random(f"{seed}:{instance_id}:{self.inference_type}")
        sampled = rng.sample(negatives, need)

        candidates = [ScoredText(text=t, is_ground_truth=True) for t in gts]
        candidates.extend(ScoredText(text=t) for t in sampled)
        return CandidatePool(
            instance_id=instance_id,
            candidates=tuple(candidates),
            gt_count=len(gts),
            size=pool_size,
        )


def build_candidate_pool(
    instance,
    dataset,
    seed,
    inference_type: str,
    pool_size: int = DEFAULT_POOL_SIZE,
) -> CandidatePool:
    """Ground truths plus a seeded uniform sample of same-type negatives.

    Negatives come from instances with a different image, are deduplicated
    against the ground truths and each other, and pad the pool to exactly
    ``pool_size`` distinct texts.
    """
    image = instance.image.key if instance.image is not None else None
    gts = sorted(instance.inference_set(inference_type))
    return ReferenceIndex(dataset, inference_type).draw_pool(
        instance.instance_id, image, gts, seed, pool_size
    )


def score_pool(
    pool: CandidatePool, perplexities_fn: Callable[[list[str]], Sequence[float]]
) -> CandidatePool:
    """The pool with perplexities filled in by one call of ``perplexities_fn`` on all its texts."""
    perplexities = perplexities_fn([c.text for c in pool.candidates])
    return CandidatePool(
        instance_id=pool.instance_id,
        candidates=tuple(
            c.with_perplexity(p) for c, p in zip(pool.candidates, perplexities, strict=True)
        ),
        gt_count=pool.gt_count,
        size=pool.size,
    )


def acc_at_50(pools: Sequence[CandidatePool], mode: str = "top_gt") -> float:
    """Mean retrieval accuracy of ground truths under perplexity ranking.

    Candidates are ranked by ascending perplexity, ties broken by text. The
    default scores each pool by the fraction of ground truths inside the top
    gt_count ranks; ``mode="top1"`` instead checks only the best rank.
    """
    if not pools:
        raise EmptyList("no pools to score")
    total = 0.0
    for pool in pools:
        for candidate in pool.candidates:
            if candidate.perplexity is None:
                raise UnscoredCandidate(f"{pool.instance_id}: {candidate.text!r}")
        ranked = sorted(pool.candidates, key=lambda c: (c.perplexity, c.text))
        if mode == "top1":
            total += 1.0 if ranked[0].is_ground_truth else 0.0
        else:
            hits = sum(1 for c in ranked[: pool.gt_count] if c.is_ground_truth)
            total += hits / pool.gt_count
    return total / len(pools)


def uniqueness(generated: Sequence[str]) -> float:
    """Distinct generations over total, after tag normalization."""
    if not generated:
        raise EmptyList("no generated sentences")
    distinct = {normalize_object_tags(t) for t in generated}
    return len(distinct) / len(generated)


def novelty(generated: Sequence[str], training_set) -> float:
    """Fraction of generations absent from the (tag-normalized) training set."""
    if not generated:
        raise EmptyList("no generated sentences")
    train = {normalize_object_tags(t) for t in training_set}
    fresh = sum(1 for t in generated if normalize_object_tags(t) not in train)
    return fresh / len(generated)


METRIC_COLUMNS = ("B", "M", "C", "A50", "unique", "novel")


@dataclass(frozen=True)
class ReportRow:
    inference_type: str
    condition: str
    B: float
    M: float
    C: float
    A50: float
    unique: float
    novel: float

    def __post_init__(self):
        for name in ("B", "M", "A50", "unique", "novel"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name}={value} outside [0, 1]")
        if not (0.0 <= self.C <= 10.0):
            raise ValueError(f"C={self.C} outside [0, 10]")

    @classmethod
    def from_cell(cls, inference_type: str, condition: str, cell: Mapping[str, float]):
        """The row for one report cell; ``cell`` maps each of METRIC_COLUMNS to a score."""
        return cls(inference_type, condition, **{c: cell[c] for c in METRIC_COLUMNS})


@dataclass(frozen=True)
class EvalReport:
    """Rows of (inference type, condition) metric scores.

    Rows store fractions (CIDEr in [0, 10]); serialized tables use a 0-100
    display scale to match conventional reporting.
    """

    rows: tuple[ReportRow, ...]

    def _scaled(self, row: ReportRow) -> dict:
        return {
            "type": row.inference_type,
            "condition": row.condition,
            "B": round(row.B * 100, 2),
            "M": round(row.M * 100, 2),
            "C": round(row.C * 10, 2),
            "A50": round(row.A50 * 100, 2),
            "unique": round(row.unique * 100, 2),
            "novel": round(row.novel * 100, 2),
        }

    def to_json(self) -> str:
        return json.dumps({"rows": [self._scaled(r) for r in self.rows]}, indent=1)

    def to_text(self) -> str:
        return format_table([self._scaled(r) for r in self.rows])

    def to_csv(self) -> str:
        return format_csv([self._scaled(r) for r in self.rows])


REPORT_HEADER = ("type", "condition", *METRIC_COLUMNS)


def format_table(rows: Sequence[Mapping]) -> str:
    """Display-scale report rows as a left-aligned text table with a header."""
    table = [REPORT_HEADER] + [tuple(str(row[c]) for c in REPORT_HEADER) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(REPORT_HEADER))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
    )


def format_csv(rows: Sequence[Mapping]) -> str:
    """Display-scale report rows as CSV with a header; other keys are ignored."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_HEADER, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def aggregate_report(
    scores: Mapping[tuple[str, str], Mapping[str, float]],
    types: Sequence[str] | None = None,
    conditions: Sequence[str] | None = None,
) -> EvalReport:
    """Assemble the full (type x condition) grid; missing cells are an error."""
    if types is None:
        types = list(dict.fromkeys(t for t, _ in scores))
    if conditions is None:
        conditions = list(dict.fromkeys(c for _, c in scores))

    rows = []
    for t in types:
        for c in conditions:
            if (t, c) not in scores:
                raise MissingCell(f"({t}, {c})")
            rows.append(ReportRow.from_cell(t, c, scores[(t, c)]))
    return EvalReport(rows=tuple(rows))
