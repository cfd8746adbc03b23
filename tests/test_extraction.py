import json
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from actionsense.extraction import (
    LemmaCounts,
    ParseTree,
    VerbIngredientPair,
    count_lemma_frequencies,
    extract_verb_ingredient_pairs,
    filter_pairs_by_frequency,
    resolve_coreferences,
    resolve_videos,
    unresolved,
)
from actionsense.providers import ProviderError
from actionsense.stubs import fixture_path


def gold_tree(spec, arcs):
    tokens = []
    for part in spec.split():
        text, lemma, pos = part.split("/")
        tokens.append({"text": text, "lemma": lemma, "pos": pos})
    return ParseTree.from_dict({"tokens": tokens, "arcs": arcs})


class FixedParse:
    def __init__(self, tree):
        self.tree = tree

    def parse(self, sentence):
        return self.tree


class FailingCoref:
    def resolve(self, documents):
        raise ProviderError("unreachable")


class ShortCoref:
    """Resolves each document from ``table``, dropping the last sentence of those ``cut`` picks."""

    def __init__(self, table, cut=lambda document: True):
        self.table, self.cut, self.requests = table, cut, []

    def resolve(self, documents):
        self.requests.append(documents)
        resolved = [[self.table.get(s, s) for s in document] for document in documents]
        return [r[:-1] if self.cut(d) else r for d, r in zip(documents, resolved)]


def document(video) -> list[str]:
    return [seg.sentence for seg in video.segments]


class TestResolveCoreferences:
    def test_blt_substitutions_match_table(self, corpus, coref_provider):
        with open(fixture_path("coref.json"), encoding="utf-8") as fh:
            table = json.load(fh)
        video = corpus.video("blt01")
        resolved = resolve_coreferences(video, coref_provider)
        assert len(resolved) == len(video.segments)
        for seg, sentence in zip(video.segments, resolved):
            assert sentence.original == seg.sentence
            assert sentence.resolved == table.get(seg.sentence, seg.sentence)
        assert "put the tomatoes aside" in resolved[0].resolved
        assert "heat the oil" in resolved[1].resolved
        assert "spread the mayonnaise" in resolved[3].resolved
        assert "chop the lettuce" in resolved[4].resolved

    def test_pronounless_sentence_unchanged(self, corpus, coref_provider):
        video = corpus.video("blt01")
        resolved = resolve_coreferences(video, coref_provider)
        assert resolved[2].resolved == video.segments[2].sentence
        assert not resolved[2].flagged

    def test_provider_error_keeps_originals_flagged(self, corpus):
        video = corpus.video("blt01")
        resolved = resolve_coreferences(video, FailingCoref())
        assert all(s.flagged for s in resolved)
        assert [s.resolved for s in resolved] == [seg.sentence for seg in video.segments]

    def test_length_contract_violation_flagged(self, corpus):
        resolved = resolve_coreferences(corpus.video("blt01"), ShortCoref({}))
        assert all(s.flagged for s in resolved)


class TestResolveVideos:
    def table(self):
        return json.loads(fixture_path("coref.json").read_text(encoding="utf-8"))

    def test_one_request_resolves_each_video_as_its_own_document(self, corpus, coref_provider):
        coref = ShortCoref(self.table(), cut=lambda document: False)
        resolved = resolve_videos(corpus.videos, coref)
        assert coref.requests == [[document(v) for v in corpus.videos]]
        assert resolved == [resolve_coreferences(v, coref_provider) for v in corpus.videos]
        assert not any(s.flagged for video in resolved for s in video)

    def test_one_short_document_fails_the_request_and_flags_every_video(self, corpus):
        videos = corpus.videos[:3]
        coref = ShortCoref(self.table(), cut=lambda sentences: sentences == document(videos[1]))
        with pytest.raises(ProviderError, match=re.escape(f"(video {videos[1].video_id})")):
            resolve_videos(videos, coref)
        assert len(coref.requests) == 1
        # the fallback keeps every video of the failed request as it was, flagged
        for video, sentences in zip(videos, unresolved(videos)):
            assert [s.resolved for s in sentences] == document(video)
            assert all(s.flagged for s in sentences)

    def test_blank_resolution_is_flagged_alone(self, corpus):
        videos = corpus.videos[:2]
        first = videos[1].segments[0].sentence
        resolved = resolve_videos(videos, ShortCoref({first: " "}, cut=lambda document: False))
        assert [s.flagged for video in resolved for s in video] == [
            video is videos[1] and seg.sentence == first
            for video in videos for seg in video.segments
        ]
        assert resolved[1][0].resolved == first


class TestExtractPairs:
    def test_blt_first_segment_pairs(self, parse_provider):
        pairs = extract_verb_ingredient_pairs(
            "Grill the tomatoes and put the tomatoes aside and fry the bacon",
            parse_provider,
            "blt01",
            1,
        )
        assert {(p.verb, p.ingredient) for p in pairs} == {
            ("grill", "tomato"),
            ("put", "tomato"),
            ("fry", "bacon"),
        }

    def test_verbless_fragment(self):
        tree = gold_tree(
            "the/the/DET red/red/ADJ bowl/bowl/NOUN",
            [[2, 0, "det"], [2, 1, "amod"]],
        )
        assert extract_verb_ingredient_pairs("the red bowl", FixedParse(tree), "v", 1) == []

    def test_gold_parse_crack_and_whisk(self):
        tree = gold_tree(
            "crack/crack/VERB the/the/DET eggs/egg/NOUN and/and/CCONJ "
            "whisk/whisk/VERB the/the/DET eggs/egg/NOUN",
            [[2, 1, "det"], [0, 2, "dobj"], [4, 3, "cc"], [0, 4, "conj"],
             [6, 5, "det"], [4, 6, "dobj"]],
        )
        pairs = extract_verb_ingredient_pairs(
            "crack the eggs and whisk the eggs", FixedParse(tree), "v", 1
        )
        assert {(p.verb, p.ingredient) for p in pairs} == {("crack", "egg"), ("whisk", "egg")}

    def test_compound_noun_prefixes_modifier(self, parse_provider):
        pairs = extract_verb_ingredient_pairs(
            "Brown the ground beef in a pan", parse_provider, "sheph01", 1
        )
        assert ("brown", "ground beef") in {(p.verb, p.ingredient) for p in pairs}

    def test_conjoined_noun_inherits_verb(self, parse_provider):
        pairs = extract_verb_ingredient_pairs(
            "Mix the potatoes with flour and milk", parse_provider, "boxty01", 3
        )
        got = {(p.verb, p.ingredient) for p in pairs}
        assert {("mix", "flour"), ("mix", "milk")} <= got

    def test_duplicates_within_sentence_deduplicated(self):
        tree = gold_tree(
            "stir/stir/VERB the/the/DET soup/soup/NOUN and/and/CCONJ "
            "stir/stir/VERB the/the/DET soup/soup/NOUN",
            [[2, 1, "det"], [0, 2, "dobj"], [4, 3, "cc"], [0, 4, "conj"],
             [6, 5, "det"], [4, 6, "dobj"]],
        )
        pairs = extract_verb_ingredient_pairs("x", FixedParse(tree), "v", 1)
        assert [(p.verb, p.ingredient) for p in pairs] == [("stir", "soup")]

    def test_lemmas_come_from_sentence_tokens(self, corpus, parse_provider, resolved):
        for video in corpus.videos:
            for seg in video.segments:
                sentence = resolved[(video.video_id, seg.index)]
                tree = parse_provider.parse(sentence)
                lemmas = {t.lemma.lower() for t in tree.tokens}
                for pair in extract_verb_ingredient_pairs(
                    sentence, parse_provider, video.video_id, seg.index
                ):
                    assert pair.verb in lemmas
                    assert set(pair.ingredient.split()) <= lemmas


def make_pairs(spec):
    return [VerbIngredientPair(v, n, "v", 1) for v, n in spec]


class TestCounts:
    def test_empty(self):
        counts = count_lemma_frequencies([])
        assert counts.verb_counts == Counter() and counts.noun_counts == Counter()

    def test_hand_count(self):
        counts = count_lemma_frequencies(
            make_pairs([("fry", "bacon"), ("fry", "egg"), ("cook", "bacon")])
        )
        assert counts.verb_counts == Counter({"fry": 2, "cook": 1})
        assert counts.noun_counts == Counter({"bacon": 2, "egg": 1})

    def test_fixture_counts_match_one_pass_recount(self, fixture_pairs):
        counts = count_lemma_frequencies(fixture_pairs)
        verbs, nouns = {}, {}
        for pair in fixture_pairs:
            verbs[pair.verb] = verbs.get(pair.verb, 0) + 1
            nouns[pair.ingredient] = nouns.get(pair.ingredient, 0) + 1
        assert dict(counts.verb_counts) == verbs
        assert dict(counts.noun_counts) == nouns


class TestFilter:
    def test_one_side_below_threshold_dropped(self):
        counts = LemmaCounts(Counter({"fry": 12}), Counter({"bacon": 9}))
        assert filter_pairs_by_frequency(make_pairs([("fry", "bacon")]), counts, 10) == []

    def test_min_count_zero_is_identity(self, fixture_pairs):
        counts = count_lemma_frequencies(fixture_pairs)
        assert filter_pairs_by_frequency(fixture_pairs, counts, 0) == fixture_pairs

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fry", "cook", "chop", "mix"]),
                st.sampled_from(["bacon", "egg", "potato"]),
            ),
            max_size=40,
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_brute_force_filter(self, spec, min_count):
        pairs = make_pairs(spec)
        counts = count_lemma_frequencies(pairs)
        kept = filter_pairs_by_frequency(pairs, counts, min_count)
        brute = [
            p
            for p in pairs
            if sum(q.verb == p.verb for q in pairs) >= min_count
            and sum(q.ingredient == p.ingredient for q in pairs) >= min_count
        ]
        assert kept == brute

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fry", "cook", "chop"]),
                st.sampled_from(["bacon", "egg"]),
            ),
            max_size=30,
        ),
        st.integers(min_value=0, max_value=6),
    )
    def test_idempotent(self, spec, min_count):
        pairs = make_pairs(spec)
        counts = count_lemma_frequencies(pairs)
        once = filter_pairs_by_frequency(pairs, counts, min_count)
        assert filter_pairs_by_frequency(once, counts, min_count) == once
