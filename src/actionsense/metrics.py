"""Automatic evaluation: overlap metrics, ranked retrieval, diversity, agreement.

All text metrics share one normalization: object tags are collapsed to a
single placeholder, then text is lowercased, punctuation-stripped, and
whitespace-split. This makes every metric invariant under object-tag
renaming.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


class LengthMismatch(Exception):
    pass


class DegenerateAgreement(Exception):
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


def bleu2(candidate: str, references: Sequence[str]) -> float:
    """Geometric mean of clipped 1/2-gram precision with a brevity penalty.

    Zero precisions are smoothed to SMOOTH_EPSILON; single-sentence inputs
    make exact zeros common otherwise.
    """
    cand = _prep(candidate)
    if not cand:
        raise EmptyCandidate(candidate)
    refs = [_prep(r) for r in references if _prep(r)]
    if not refs:
        raise EmptyCandidate("no usable reference")

    log_precision = 0.0
    for n in (1, 2):
        cand_counts = _ngrams(cand, n)
        max_ref = Counter()
        for ref in refs:
            for gram, count in _ngrams(ref, n).items():
                max_ref[gram] = max(max_ref[gram], count)
        guess = max(0, len(cand) - n + 1)
        correct = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        precision = correct / guess if guess else 0.0
        log_precision += math.log(precision if precision > 0 else SMOOTH_EPSILON)

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    brevity = 1.0 if c >= r else math.exp(1 - r / c)
    return brevity * math.exp(log_precision / 2)


def _stem(token: str) -> str:
    """Lightweight suffix stemmer for the stem matching stage."""
    for suffix in ("ing", "ed", "es", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _align(
    cand: list[str], ref: list[str], synonyms: Mapping[str, set[str]] | None
) -> list[tuple[int, int]]:
    stages: list[Callable[[str, str], bool]] = [
        lambda a, b: a == b,
        lambda a, b: _stem(a) == _stem(b),
    ]
    if synonyms:
        stages.append(lambda a, b: b in synonyms.get(a, ()) or a in synonyms.get(b, ()))

    matched: list[tuple[int, int]] = []
    cand_used = [False] * len(cand)
    ref_used = [False] * len(ref)
    for stage in stages:
        for i, cand_tok in enumerate(cand):
            if cand_used[i]:
                continue
            for j, ref_tok in enumerate(ref):
                if ref_used[j]:
                    continue
                if stage(cand_tok, ref_tok):
                    matched.append((i, j))
                    cand_used[i] = True
                    ref_used[j] = True
                    break
    return sorted(matched)


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

    best = 0.0
    for reference in references:
        ref = _prep(reference)
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

    n_docs = len(ids)
    doc_freq = [Counter() for _ in range(nmax + 1)]
    tokenized_refs = {
        inst: [_prep(r) for r in references_by_instance[inst]] for inst in ids
    }
    for inst in ids:
        for n in range(1, nmax + 1):
            grams = set()
            for ref in tokenized_refs[inst]:
                grams.update(_ngrams(ref, n).keys())
            for gram in grams:
                doc_freq[n][gram] += 1

    scores = {}
    for inst in ids:
        cand = _prep(candidates_by_instance[inst])
        refs = tokenized_refs[inst]
        per_n = []
        for n in range(1, nmax + 1):
            cand_vec, cand_norm = _tfidf_vector(cand, n, doc_freq[n], n_docs)
            sims = []
            for ref in refs:
                ref_vec, ref_norm = _tfidf_vector(ref, n, doc_freq[n], n_docs)
                if cand_norm == 0 or ref_norm == 0:
                    sims.append(0.0)
                    continue
                dot = sum(w * ref_vec.get(g, 0.0) for g, w in cand_vec.items())
                sims.append(dot / (cand_norm * ref_norm))
            per_n.append(sum(sims) / len(sims) if sims else 0.0)
        scores[inst] = 10.0 * sum(per_n) / nmax
    mean = sum(scores.values()) / len(scores)
    return scores, mean


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
    gts = sorted(instance.inference_set(inference_type))
    if not gts:
        raise ValueError(f"instance {instance.instance_id} has no {inference_type} ground truth")
    if len(gts) >= pool_size:
        raise InsufficientNegatives(
            f"{len(gts)} ground truths leave no room in a pool of {pool_size}"
        )

    own_image = instance.image.key if instance.image is not None else None
    negatives = set()
    for other in dataset:
        if other.instance_id == instance.instance_id:
            continue
        if own_image is not None and other.image is not None and other.image.key == own_image:
            continue
        negatives.update(other.inference_set(inference_type))
    negatives -= set(gts)

    need = pool_size - len(gts)
    if len(negatives) < need:
        raise InsufficientNegatives(
            f"need {need} negatives for {instance.instance_id}/{inference_type},"
            f" only {len(negatives)} available"
        )
    rng = random.Random(f"{seed}:{instance.instance_id}:{inference_type}")
    sampled = rng.sample(sorted(negatives), need)

    candidates = [ScoredText(text=t, is_ground_truth=True) for t in gts]
    candidates.extend(ScoredText(text=t) for t in sampled)
    return CandidatePool(
        instance_id=instance.instance_id,
        candidates=tuple(candidates),
        gt_count=len(gts),
        size=pool_size,
    )


def score_pool(pool: CandidatePool, perplexity_fn: Callable[[str], float]) -> CandidatePool:
    return CandidatePool(
        instance_id=pool.instance_id,
        candidates=tuple(c.with_perplexity(perplexity_fn(c.text)) for c in pool.candidates),
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


def cohen_kappa(ratings_a: Sequence, ratings_b: Sequence, categories: Sequence) -> float:
    """Chance-corrected agreement: (p_o - p_e) / (1 - p_e)."""
    if len(ratings_a) != len(ratings_b):
        raise LengthMismatch(f"{len(ratings_a)} vs {len(ratings_b)} ratings")
    n = len(ratings_a)
    if n == 0:
        raise LengthMismatch("empty rating lists")
    cats = set(categories)
    for value in (*ratings_a, *ratings_b):
        if value not in cats:
            raise ValueError(f"rating {value!r} outside categories {sorted(map(str, cats))}")
    observed = sum(1 for a, b in zip(ratings_a, ratings_b) if a == b) / n
    count_a = Counter(ratings_a)
    count_b = Counter(ratings_b)
    expected = sum((count_a[c] / n) * (count_b[c] / n) for c in categories)
    if expected == 1.0:
        raise DegenerateAgreement("expected agreement is 1; kappa undefined")
    return (observed - expected) / (1 - expected)


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
