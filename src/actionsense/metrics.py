"""Automatic evaluation: overlap metrics, ranked retrieval and diversity.

All text metrics share one normalization: object tags are collapsed to a
single placeholder, then text is lowercased, punctuation-stripped, and
whitespace-split. This makes every metric invariant under object-tag
renaming.
"""

import bisect
import json
import math
import random
import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NamedTuple

from . import shapes
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


def normalize_object_tags(text: str) -> str:
    """Collapse every numbered object tag to the same placeholder."""
    return OBJECT_TAG_RE.sub(OBJECT_PLACEHOLDER, text)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return re.sub(r"[^\w\s]", " ", text.lower()).split()


def _prep(text: str) -> list[str]:
    return tokenize(normalize_object_tags(text))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


class _Text:
    """One text's tokens, with their stems and n-gram counts made on first use."""

    __slots__ = ("tokens", "_stems", "_grams")

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self._stems: list[str] | None = None
        self._grams: dict[int, Counter] = {}

    @property
    def stems(self) -> list[str]:
        if self._stems is None:
            self._stems = [_stem(t) for t in self.tokens]
        return self._stems

    def grams(self, n: int) -> Counter:
        counts = self._grams.get(n)
        if counts is None:
            counts = self._grams[n] = _ngrams(self.tokens, n)
        return counts


class _References:
    """One instance's reference texts, with their BLEU clip table made on first use."""

    __slots__ = ("texts", "_bleu")

    def __init__(self, texts: Sequence[_Text]):
        self.texts = texts
        self._bleu: tuple[list[int], list[Counter]] | None = None

    @property
    def usable(self) -> bool:
        """Whether any reference has a word character."""
        return any(t.tokens for t in self.texts)

    @property
    def bleu(self) -> tuple[list[int], list[Counter]]:
        """Non-empty reference lengths and, for n = 1 and 2, each n-gram's highest count in one."""
        if self._bleu is None:
            refs = [t for t in self.texts if t.tokens]
            max_ref = []
            for n in (1, 2):
                counts = Counter()
                for ref in refs:
                    for gram, count in ref.grams(n).items():
                        counts[gram] = max(counts[gram], count)
                max_ref.append(counts)
            self._bleu = [len(ref.tokens) for ref in refs], max_ref
        return self._bleu


def _bleu2(cand: _Text, refs: _References) -> float:
    ref_lengths, max_ref = refs.bleu
    if not ref_lengths:
        raise EmptyCandidate("no usable reference")
    log_precision = 0.0
    for n, max_counts in zip((1, 2), max_ref):
        guess = max(0, len(cand.tokens) - n + 1)
        correct = sum(min(count, max_counts.get(gram, 0)) for gram, count in cand.grams(n).items())
        precision = correct / guess if guess else 0.0
        log_precision += math.log(precision if precision > 0 else SMOOTH_EPSILON)

    c = len(cand.tokens)
    r = min((abs(length - c), length) for length in ref_lengths)[1]
    brevity = 1.0 if c >= r else math.exp(1 - r / c)
    return brevity * math.exp(log_precision / 2)


def bleu2(candidate: str, references: Sequence[str]) -> float:
    """Geometric mean of clipped 1/2-gram precision with a brevity penalty.

    Zero precisions are smoothed to SMOOTH_EPSILON; single-sentence inputs
    make exact zeros common otherwise.
    """
    cand = _Text(_prep(candidate))
    if not cand.tokens:
        raise EmptyCandidate(candidate)
    return _bleu2(cand, _References([_Text(_prep(r)) for r in references]))


def _stem(token: str) -> str:
    """Lightweight suffix stemmer for the stem matching stage."""
    for suffix in ("ing", "ed", "es", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _align(
    cand_text: _Text, ref_text: _Text, synonyms: Mapping[str, set[str]] | None
) -> list[tuple[int, int]]:
    cand, ref = cand_text.tokens, ref_text.tokens
    matched: list[tuple[int, int]] = []
    cand_used = [False] * len(cand)
    ref_used = [False] * len(ref)
    # exact, then stem stages: each candidate token takes the first free equal reference token
    for cand_keys, ref_keys in ((cand, ref), (cand_text.stems, ref_text.stems)):
        for i, key in enumerate(cand_keys):
            if cand_used[i]:
                continue
            for j, ref_key in enumerate(ref_keys):
                if not ref_used[j] and key == ref_key:
                    matched.append((i, j))
                    cand_used[i] = ref_used[j] = True
                    break
    if synonyms:
        for i in range(len(cand)):
            if cand_used[i]:
                continue
            for j in range(len(ref)):
                if not ref_used[j] and (
                    ref[j] in synonyms.get(cand[i], ()) or cand[i] in synonyms.get(ref[j], ())
                ):
                    matched.append((i, j))
                    cand_used[i] = ref_used[j] = True
                    break
    return sorted(matched)


def _meteor(
    cand: _Text, refs: Sequence[_Text], synonyms=None, alpha=0.9, beta=3.0, gamma=0.5
) -> float:
    best = 0.0
    for ref in refs:
        if not ref.tokens:
            continue
        matched = _align(cand, ref, synonyms)
        m = len(matched)
        if m == 0:
            continue
        precision = m / len(cand.tokens)
        recall = m / len(ref.tokens)
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
    cand = _Text(_prep(candidate))
    if not cand.tokens:
        raise EmptyCandidate(candidate)
    return _meteor(cand, [_Text(_prep(r)) for r in references], synonyms, alpha, beta, gamma)


def _tfidf_vector(counts: Counter, idf: Mapping[tuple, float], unseen: float):
    """TF-IDF vector of n-gram ``counts`` and its norm; ``unseen`` weighs n-grams not in ``idf``."""
    total = sum(counts.values())
    vec = {}
    norm_sq = 0.0
    for gram, count in counts.items():
        weight = (count / total) * idf.get(gram, unseen)
        vec[gram] = weight
        norm_sq += weight * weight
    return vec, math.sqrt(norm_sq)


class _Cider:
    """One CIDEr corpus: IDF weights from its documents' references, and scoring against them.

    Every candidate is one document holding its references, so a reference
    set's n-grams count once per candidate in the document frequencies. Each
    reference set's tf-idf vectors are made once per corpus, on first use.
    """

    def __init__(self, documents: Iterable[tuple[_References, int]], nmax: int):
        """``documents`` pairs each reference set with its number of candidate documents."""
        documents = list(documents)
        n_docs = sum(count for _, count in documents)
        self.nmax = nmax
        # an n-gram in no document weighs as one in a single document
        self.unseen = math.log(n_docs / 1.0)
        self.idf = []
        for n in range(1, nmax + 1):
            doc_freq: dict[tuple, int] = {}
            for refs, count in documents:
                for gram in set().union(*(t.grams(n) for t in refs.texts)):
                    doc_freq[gram] = doc_freq.get(gram, 0) + count
            self.idf.append({g: math.log(n_docs / max(1.0, df)) for g, df in doc_freq.items()})
        self._refs: dict[_References, list] = {}  # references -> their vectors per n, per text

    def _vector(self, text: _Text, n: int) -> tuple[dict, float]:
        return _tfidf_vector(text.grams(n), self.idf[n - 1], self.unseen)

    def score(self, cand: _Text, refs: _References) -> float:
        """One candidate's CIDEr against its references."""
        vectors = self._refs.get(refs)
        if vectors is None:
            n_range = range(1, self.nmax + 1)
            vectors = self._refs[refs] = [[self._vector(r, n) for r in refs.texts] for n in n_range]
        per_n = []
        for n, ref_vectors in enumerate(vectors, 1):
            cand_vec, cand_norm = self._vector(cand, n)
            sims = []
            for ref_vec, ref_norm in ref_vectors:
                if cand_norm == 0 or ref_norm == 0:
                    sims.append(0.0)
                    continue
                # an n-gram missing from the reference adds 0.0 to a sum of
                # non-negative terms, so skipping it leaves the sum unchanged
                dot = sum(w * ref_vec[g] for g, w in cand_vec.items() if g in ref_vec)
                sims.append(dot / (cand_norm * ref_norm))
            per_n.append(sum(sims) / len(sims) if sims else 0.0)
        return 10.0 * sum(per_n) / self.nmax


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

    refs = [_References([_Text(_prep(r)) for r in references_by_instance[i]]) for i in ids]
    corpus = _Cider(((r, 1) for r in refs), nmax)
    scores = {
        i: corpus.score(_Text(_prep(candidates_by_instance[i])), r) for i, r in zip(ids, refs)
    }
    return scores, sum(scores.values()) / len(scores)


class ScoredText(NamedTuple):
    """A pool candidate; unscored until nll/perplexity are filled in."""

    text: str
    perplexity: float | None = None
    is_ground_truth: bool = False

    def with_perplexity(self, perplexity: float) -> "ScoredText":
        return ScoredText(self.text, perplexity, self.is_ground_truth)


@shapes.checked
class CandidatePool(NamedTuple):
    instance_id: str
    candidates: tuple[ScoredText, ...]
    gt_count: int
    size: int = DEFAULT_POOL_SIZE

    def _check(self) -> None:
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

    It holds each instance's sorted references and which instances, with
    their image keys, own each reference text. The reference side of the
    overlap metrics is made on first use and kept: each reference text's
    tokens, stems and n-gram counts, and each reference set's BLEU clip
    table. Generated texts are counted afresh in every cell. Candidate pools
    are cached per instance too, so evaluate builds each pool once however
    many masks and variants it scores.
    """

    def __init__(self, instances: Iterable, inference_type: str):
        self.inference_type = inference_type
        self._refs: list[tuple[str, ...]] = []  # per dataset position
        self._images: list[str | None] = []
        self._positions: dict[str, int] = {}  # instance id, unique as in a dataset -> position
        self._by_image: dict[str, list[int]] = {}  # image key -> positions
        self._owners: dict[str, list[int]] = {}  # reference text -> positions
        self._texts: dict[str, _Text] = {}  # reference text -> its tokens, stems and n-grams
        self._ref_sets: dict[tuple[str, ...], _References] = {}  # references -> their tables
        self._pools: dict[tuple, CandidatePool] = {}
        for position, instance in enumerate(instances):
            refs = tuple(sorted(instance.inference_set(inference_type)))
            image = instance.image.key if instance.image is not None else None
            self._refs.append(refs)
            self._images.append(image)
            self._positions[instance.instance_id] = position
            if image is not None:
                self._by_image.setdefault(image, []).append(position)
            for text in refs:
                self._owners.setdefault(text, []).append(position)
        self.texts = sorted(self._owners)  # every reference text of the type

    def references(self, instance_id: str) -> tuple[str, ...]:
        return self._refs[self._positions[instance_id]]

    def _references(self, position: int) -> _References:
        """The tables of a position's references, shared by every position with the same ones."""
        key = self._refs[position]
        refs = self._ref_sets.get(key)
        if refs is None:
            for text in key:
                if text not in self._texts:
                    self._texts[text] = _Text(_prep(text))
            refs = self._ref_sets[key] = _References([self._texts[t] for t in key])
        return refs

    def overlap_scores(self, entries: Iterable[tuple[str, Sequence[str]]]) -> dict[str, float]:
        """Mean B, M and C of one report cell from (instance id, generated texts) entries.

        Instances without a usable reference (one with a word character) and
        texts without tokens are skipped. Each kept text is one CIDEr
        document; C is 0 below two documents. Each distinct generated text
        is read, and each distinct (references, text) document scored, once
        per call; nothing about them is kept after it.
        """
        texts: dict[str, _Text] = {}  # generated text -> its tokens and n-grams
        kept: list[tuple[_References, _Text]] = []  # (references, text) of each document
        for instance_id, generated in entries:
            refs = self._references(self._positions[instance_id])
            if refs.usable:
                for text in generated:
                    cand = texts.get(text)
                    if cand is None:
                        cand = texts[text] = _Text(_prep(text))
                    if cand.tokens:
                        kept.append((refs, cand))
        corpus = None
        if len(kept) >= 2:
            corpus = _Cider(Counter(refs for refs, _ in kept).items(), 4)

        scores: dict[tuple[_References, _Text], tuple[float, float, float]] = {}  # B, M, C
        for refs, cand in kept:
            if (refs, cand) not in scores:
                c = corpus.score(cand, refs) if corpus is not None else 0.0
                scores[refs, cand] = _bleu2(cand, refs), _meteor(cand, refs.texts), c
        per_document = [scores[document] for document in kept]
        mean = lambda k: sum(s[k] for s in per_document) / len(kept) if kept else 0.0
        return {"B": mean(0), "M": mean(1), "C": mean(2)}

    def pool(self, instance_id: str, seed, pool_size: int = DEFAULT_POOL_SIZE) -> CandidatePool:
        """The candidate pool of an indexed instance: drawn on first use, then cached."""
        key = (instance_id, seed, pool_size)
        if key not in self._pools:
            position = self._positions[instance_id]
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
                f"{len(gts)} ground truths leave no room in a pool of {pool_size};"
                f" raise pool_size above {len(gts)}"
            )
        excluded = set(self._by_image.get(image, ()))  # no image key is None
        if instance_id in self._positions:
            excluded.add(self._positions[instance_id])
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
                f" only {len(negatives)} available;"
                f" lower pool_size to at most {len(gts) + len(negatives)}"
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


@shapes.checked
class ReportRow(NamedTuple):
    inference_type: str
    condition: str
    B: float
    M: float
    C: float
    A50: float
    unique: float
    novel: float

    def _check(self) -> None:
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


class EvalReport(NamedTuple):
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
