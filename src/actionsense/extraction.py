"""Co-reference resolution and verb-ingredient pair mining over segment text.

Co-reference and dependency parsing are delegated to pluggable providers; this
module owns what happens with their output: mining (verb, ingredient) pairs
from parse trees, counting lemma frequencies across a corpus, and dropping
pairs whose verb or noun is too rare to trust.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

from . import shapes
from .corpus import VideoRecord
from .providers import ProviderError

DEFAULT_MIN_COUNT = 10

# Relations under which a noun is treated as undergoing the verb's action.
# Nouns reached through "conj" from such a noun are propagated to the same verb.
OBJECT_RELATIONS = frozenset({"dobj", "obj", "nsubjpass", "obl"})

NOUN_POS = frozenset({"NOUN", "PROPN"})


class CorefProvider(Protocol):
    def resolve(self, documents: Sequence[Sequence[str]]) -> list[list[str]]:
        """One list of resolved sentences per document, in order."""
        ...


class ParseProvider(Protocol):
    def parse_many(self, sentences: Sequence[str]) -> list["ParseTree"]: ...


@dataclass(frozen=True)
class Token:
    text: str
    lemma: str
    pos: str


# a dependency parse as a parse provider answers it, checked before ParseTree.from_dict
TREE = shapes.obj({
    "tokens": [{"text": shapes.STRING, "lemma": shapes.STRING, "pos": shapes.STRING}],
    "arcs": [shapes.tuple_of("[head, dependent, relation]", shapes.INT, shapes.INT, shapes.STRING)],
})


@dataclass(frozen=True)
class ParseTree:
    """Dependency tree: arcs are (head_index, dependent_index, relation).

    Every token except the single root appears exactly once as a dependent.
    """

    tokens: tuple[Token, ...]
    arcs: tuple[tuple[int, int, str], ...]

    @classmethod
    def from_dict(cls, raw) -> "ParseTree":
        """The tree of ``raw``, of shape ``TREE``; a ValueError if it is not one tree."""
        tokens = tuple(Token(t["text"], t["lemma"], t["pos"]) for t in raw["tokens"])
        return cls(tokens=tokens, arcs=tuple(map(tuple, raw["arcs"])))

    def __post_init__(self) -> None:
        n = len(self.tokens)
        dependents = [d for _, d, _ in self.arcs]
        if len(set(dependents)) != len(dependents):
            raise ValueError("token with more than one head")
        for h, d, _ in self.arcs:
            if not (0 <= h < n and 0 <= d < n):
                raise ValueError(f"arc ({h},{d}) out of token range")
        roots = set(range(n)) - set(dependents)
        if n and len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {sorted(roots)}")

    def children(self, head: int, relation: str | None = None) -> list[int]:
        return [
            d for h, d, rel in self.arcs if h == head and (relation is None or rel == relation)
        ]


@dataclass(frozen=True)
class VerbIngredientPair:
    verb: str
    ingredient: str
    video_id: str
    segment_index: int


@dataclass(frozen=True)
class LemmaCounts:
    verb_counts: Counter
    noun_counts: Counter


@dataclass(frozen=True)
class ResolvedSentence:
    original: str
    resolved: str
    flagged: bool = False


def resolve_videos(
    videos: Sequence[VideoRecord], provider: CorefProvider
) -> list[list[ResolvedSentence]]:
    """Resolve pronouns in the segment sentences of ``videos``, in one request.

    Each video is one document, the list of its sentences. The provider's
    failure raises ProviderError, as does a document answered with another
    number of sentences, naming its video; ``unresolved`` is the fallback. A
    sentence resolved to nothing but whitespace keeps its original and is
    flagged alone.
    """
    documents = [[seg.sentence for seg in video.segments] for video in videos]
    resolved = provider.resolve(documents)
    if len(resolved) != len(documents):
        raise ProviderError(f"coref returned {len(resolved)} documents for {len(documents)} videos")
    for video, document, sentences in zip(videos, documents, resolved):
        if len(sentences) != len(document):
            raise ProviderError(
                f"coref returned {len(sentences)} sentences for {len(document)} inputs"
                f" (video {video.video_id})"
            )
    return [
        [
            ResolvedSentence(original=orig, resolved=res)
            if res.strip()
            else ResolvedSentence(original=orig, resolved=orig, flagged=True)
            for orig, res in zip(document, sentences)
        ]
        for document, sentences in zip(documents, resolved)
    ]


def unresolved(videos: Sequence[VideoRecord]) -> list[list[ResolvedSentence]]:
    """Each video's sentences kept as they are, flagged: a failed coref request's fallback."""
    return [
        [ResolvedSentence(seg.sentence, seg.sentence, flagged=True) for seg in video.segments]
        for video in videos
    ]


def resolve_coreferences(video: VideoRecord, provider: CorefProvider) -> list[ResolvedSentence]:
    """``resolve_videos`` for one video, ``unresolved`` if it fails; no segments send no request."""
    try:
        return resolve_videos([video], provider)[0] if video.segments else []
    except ProviderError:
        return unresolved([video])[0]


def _compound_lemma(tree: ParseTree, noun_index: int) -> str:
    """Lemma of the noun with compound modifiers prefixed ('olive oil')."""
    modifiers = sorted(tree.children(noun_index, "compound"))
    parts = [tree.tokens[i].lemma for i in modifiers] + [tree.tokens[noun_index].lemma]
    return " ".join(p.lower() for p in parts)


def _conj_closure(tree: ParseTree, noun_index: int) -> list[int]:
    out = []
    frontier = [noun_index]
    while frontier:
        current = frontier.pop(0)
        for child in sorted(tree.children(current, "conj")):
            if child not in out:
                out.append(child)
                frontier.append(child)
    return out


def _pairs_from_tree(
    tree: ParseTree, video_id: str, segment_index: int, relations: frozenset[str]
) -> list[VerbIngredientPair]:
    candidates = []  # (verb_index, noun_index)
    for head, dep, rel in tree.arcs:
        if rel not in relations:
            continue
        if tree.tokens[head].pos != "VERB" or tree.tokens[dep].pos not in NOUN_POS:
            continue
        candidates.append((head, dep))
        for conj in _conj_closure(tree, dep):
            if tree.tokens[conj].pos in NOUN_POS:
                candidates.append((head, conj))

    pairs = []
    seen = set()
    for verb_index, noun_index in sorted(candidates):
        verb = tree.tokens[verb_index].lemma.lower()
        noun = _compound_lemma(tree, noun_index)
        if not verb or not noun:
            continue
        if (verb, noun) in seen:
            continue
        seen.add((verb, noun))
        pairs.append(
            VerbIngredientPair(
                verb=verb, ingredient=noun, video_id=video_id, segment_index=segment_index
            )
        )
    return pairs


def extract_pairs(
    sentences: Sequence[tuple[tuple[str, int], str]],
    provider: ParseProvider,
    relations: frozenset[str] = OBJECT_RELATIONS,
) -> list[VerbIngredientPair]:
    """Mine (verb lemma, noun lemma) pairs from resolved sentences, parsed in one request.

    ``sentences`` holds ((video id, segment index), resolved sentence)
    entries. A noun qualifies when its head is a verb through a relation in
    the allow-list; nouns conjoined to a qualifying noun inherit the same
    verb. Pairs come in entry order and are deduplicated within each
    sentence.
    """
    if not all(sentence for _, sentence in sentences):
        raise ValueError("sentence must be non-empty")
    if not sentences:
        return []
    trees = provider.parse_many([sentence for _, sentence in sentences])
    return [
        pair
        for ((video_id, index), _), tree in zip(sentences, trees, strict=True)
        for pair in _pairs_from_tree(tree, video_id, index, relations)
    ]


def extract_verb_ingredient_pairs(
    resolved_sentence: str,
    provider,
    video_id: str,
    segment_index: int,
    relations: frozenset[str] = OBJECT_RELATIONS,
) -> list[VerbIngredientPair]:
    """``extract_pairs`` for one sentence, over the provider's single-item ``parse``."""
    if not resolved_sentence:
        raise ValueError("sentence must be non-empty")
    return _pairs_from_tree(provider.parse(resolved_sentence), video_id, segment_index, relations)


def count_lemma_frequencies(pairs) -> LemmaCounts:
    """Count verb and noun lemmas independently across all pairs."""
    verbs = Counter()
    nouns = Counter()
    for pair in pairs:
        verbs[pair.verb] += 1
        nouns[pair.ingredient] += 1
    return LemmaCounts(verb_counts=verbs, noun_counts=nouns)


def filter_pairs_by_frequency(
    pairs, counts: LemmaCounts, min_count: int = DEFAULT_MIN_COUNT
) -> list[VerbIngredientPair]:
    """Keep a pair only when both its verb and noun clear the frequency bar."""
    return [
        p
        for p in pairs
        if counts.verb_counts[p.verb] >= min_count and counts.noun_counts[p.ingredient] >= min_count
    ]
