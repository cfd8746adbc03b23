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

from .corpus import VideoRecord
from .providers import ProviderError

DEFAULT_MIN_COUNT = 10

# Relations under which a noun is treated as undergoing the verb's action.
# Nouns reached through "conj" from such a noun are propagated to the same verb.
OBJECT_RELATIONS = frozenset({"dobj", "obj", "nsubjpass", "obl"})

NOUN_POS = frozenset({"NOUN", "PROPN"})


class CorefProvider(Protocol):
    def resolve(self, texts: Sequence[str]) -> list[str]: ...


class ParseProvider(Protocol):
    def parse_many(self, sentences: Sequence[str]) -> list["ParseTree"]: ...


@dataclass(frozen=True)
class Token:
    text: str
    lemma: str
    pos: str


@dataclass(frozen=True)
class ParseTree:
    """Dependency tree: arcs are (head_index, dependent_index, relation).

    Every token except the single root appears exactly once as a dependent.
    """

    tokens: tuple[Token, ...]
    arcs: tuple[tuple[int, int, str], ...]

    @classmethod
    def from_dict(cls, raw) -> "ParseTree":
        tokens = tuple(
            Token(text=t["text"], lemma=t["lemma"], pos=t["pos"]) for t in raw["tokens"]
        )
        arcs = tuple((int(h), int(d), str(r)) for h, d, r in raw["arcs"])
        tree = cls(tokens=tokens, arcs=arcs)
        tree.validate()
        return tree

    def to_dict(self) -> dict:
        return {
            "tokens": [{"text": t.text, "lemma": t.lemma, "pos": t.pos} for t in self.tokens],
            "arcs": [list(a) for a in self.arcs],
        }

    def validate(self) -> None:
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


def resolve_coreferences(
    video: VideoRecord, provider: CorefProvider, retry=lambda resolve: resolve()
) -> list[ResolvedSentence]:
    """Resolve pronouns in all segment sentences of one video, in one request.

    ``retry`` makes the request: it calls the function it is given, which
    raises ProviderError when the provider fails or breaks its length
    contract, as many times as it allows. If the last call raises, the
    originals are kept and flagged rather than aborting the video; a sentence
    resolved to nothing but whitespace keeps its original and is flagged alone.
    """
    originals = [seg.sentence for seg in video.segments]

    def resolve() -> list[str]:
        resolved = provider.resolve(originals)
        if len(resolved) != len(originals):
            raise ProviderError(
                f"coref returned {len(resolved)} sentences for {len(originals)} inputs"
                f" (video {video.video_id})"
            )
        return resolved

    try:
        resolved = retry(resolve)
    except ProviderError:
        return [ResolvedSentence(original=s, resolved=s, flagged=True) for s in originals]
    return [
        ResolvedSentence(original=orig, resolved=res)
        if res.strip()
        else ResolvedSentence(original=orig, resolved=orig, flagged=True)
        for orig, res in zip(originals, resolved)
    ]


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
    videos: Sequence[tuple[str, Sequence[tuple[int, str]]]],
    provider: ParseProvider,
    relations: frozenset[str] = OBJECT_RELATIONS,
) -> list[VerbIngredientPair]:
    """Mine (verb lemma, noun lemma) pairs from several videos' resolved sentences.

    ``videos`` holds (video id, [(segment index, resolved sentence), ...])
    pairs; all their sentences are parsed in one provider request. A noun
    qualifies when its head is a verb through a relation in the allow-list;
    nouns conjoined to a qualifying noun inherit the same verb. Pairs are
    emitted in video, segment then sentence order and deduplicated within
    each sentence.
    """
    sentences = [sentence for _, indexed in videos for _, sentence in indexed]
    if not all(sentences):
        raise ValueError("sentence must be non-empty")
    if not sentences:
        return []
    trees = provider.parse_many(sentences)
    keys = [(video_id, index) for video_id, indexed in videos for index, _ in indexed]
    return [
        pair
        for (video_id, index), tree in zip(keys, trees, strict=True)
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
