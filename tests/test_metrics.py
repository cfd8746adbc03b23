import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from actionsense import metrics
from actionsense.corpus import FrameRef
from actionsense.assembly import CommonsenseInstance, build_instance, merge_by_action_object
from actionsense.metrics import (
    CandidatePool,
    CorpusTooSmall,
    EmptyCandidate,
    EmptyList,
    EvalReport,
    InsufficientNegatives,
    ReferenceIndex,
    ReportRow,
    ScoredText,
    UnscoredCandidate,
    acc_at_50,
    bleu2,
    build_candidate_pool,
    cider,
    meteor,
    normalize_object_tags,
    novelty,
    score_pool,
    tokenize,
    uniqueness,
)
from actionsense.generation import InferenceType
from actionsense.reference import FULL_RUN_AGREEMENT_KAPPA

GOLDEN_GENERATIONS = Path(__file__).parent / "data" / "golden_generations_aopair_p1.jsonl"


class TestNormalization:
    def test_tag_renaming_collapses(self):
        assert normalize_object_tags("[Object1] is golden") == normalize_object_tags(
            "[Object2] is golden"
        )

    def test_tag_free_text_unchanged(self):
        assert normalize_object_tags("fry the bacon") == "fry the bacon"

    def test_multi_digit_tags(self):
        text = "[Object12] near [Object3]"
        oracle = re.sub(r"\[Object\d+\]", "[Object]", text)
        assert normalize_object_tags(text) == oracle == "[Object] near [Object]"

    def test_tokenize_strips_punctuation_and_lowercases(self):
        assert tokenize("Fry, the BACON!") == ["fry", "the", "bacon"]


class TestBleu2:
    def test_identity_scores_one(self):
        assert bleu2("fry the bacon", ["fry the bacon"]) == pytest.approx(1.0)

    def test_hand_computed_clipped_counts(self):
        # unigrams 2/3, bigrams 1/2, equal lengths so no brevity penalty
        score = bleu2("fry the bacon", ["cook the bacon"])
        assert score == pytest.approx(math.sqrt((2 / 3) * (1 / 2)), abs=1e-4)
        assert score == pytest.approx(0.5774, abs=1e-4)

    def test_disjoint_is_smoothed_near_zero(self):
        assert bleu2("fry the bacon", ["whisk some eggs"]) <= 1e-8

    def test_empty_candidate_rejected(self):
        with pytest.raises(EmptyCandidate):
            bleu2("", ["fry the bacon"])
        with pytest.raises(EmptyCandidate):
            bleu2("!!!", ["fry the bacon"])

    def test_brevity_penalty_applies_to_short_candidates(self):
        long_ref = "fry the bacon until it is very crispy"
        assert bleu2("fry the bacon", [long_ref]) < bleu2(long_ref, [long_ref])

    def test_tag_renaming_invariance(self):
        a = bleu2("[Object1] is golden", ["[Object9] is golden"])
        b = bleu2("[Object4] is golden", ["[Object2] is golden"])
        assert a == b == pytest.approx(1.0)


class TestMeteor:
    def test_identity_scores_one(self):
        assert meteor("fry the bacon", ["fry the bacon"]) == pytest.approx(1.0)

    def test_disjoint_scores_zero(self):
        assert meteor("fry the bacon", ["whisk some eggs"]) == 0.0

    def test_two_chunk_hand_example(self):
        # cand [the bacon is crispy], ref [the bacon looks very crispy]
        # matches (0,0) (1,1) (3,4): m=3, two chunks
        precision, recall = 3 / 4, 3 / 5
        fmean = precision * recall / (0.9 * precision + 0.1 * recall)
        expected = fmean * (1 - 0.5 * (2 / 3) ** 3)
        got = meteor("the bacon is crispy", ["the bacon looks very crispy"])
        assert got == pytest.approx(expected, abs=1e-9)

    def test_stem_stage_matches_inflections(self):
        assert meteor("frying bacon", ["fry bacon"]) > 0.0

    def test_synonym_table_pluggable(self):
        base = meteor("tasty", ["delicious"])
        with_syn = meteor("tasty", ["delicious"], synonyms={"tasty": {"delicious"}})
        assert base == 0.0 and with_syn == pytest.approx(1.0)

    def test_best_reference_wins(self):
        score = meteor("fry the bacon", ["whisk some eggs", "fry the bacon"])
        assert score == pytest.approx(1.0)

    def test_tag_renaming_invariance(self):
        a = meteor("[Object1] is golden", ["[Object9] is golden"])
        b = meteor("[Object7] is golden", ["[Object2] is golden"])
        assert a == b


class TestCider:
    def test_self_similarity_matches_vector_oracle(self):
        cands = {"i1": "red apple", "i2": "green pear"}
        refs = {"i1": ["red apple"], "i2": ["green pear"]}
        scores, mean = cider(cands, refs)
        # oracle for i1: every 1/2-gram has df=1 so idf=log 2; candidate and
        # reference vectors are identical, cosine 1 at n=1,2 and empty at n=3,4
        oracle = 10.0 * (1.0 + 1.0 + 0.0 + 0.0) / 4
        assert scores["i1"] == pytest.approx(oracle)
        assert scores["i2"] == pytest.approx(oracle)
        assert mean == pytest.approx(oracle)

    def test_partial_overlap_hand_value(self):
        cands = {"i1": "red apple", "i2": "green pear"}
        refs = {"i1": ["red orange"], "i2": ["green pear"]}
        scores, _ = cider(cands, refs)
        # n=1: cand {red, apple}, ref {red, orange}; idf equal for all terms,
        # tf equal, so cosine is 1/2; bigrams disjoint
        assert scores["i1"] == pytest.approx(10.0 * (0.5 + 0 + 0 + 0) / 4)

    def test_disjoint_ngrams_score_zero(self):
        cands = {"i1": "blue sky", "i2": "green pear"}
        refs = {"i1": ["red apple"], "i2": ["green pear"]}
        scores, _ = cider(cands, refs)
        assert scores["i1"] == 0.0

    def test_permutation_invariance(self):
        cands = {"i1": "red apple", "i2": "green pear", "i3": "red pear"}
        refs = {"i1": ["red apple"], "i2": ["green pear"], "i3": ["red apple", "green pear"]}
        forward, _ = cider(cands, refs)
        backward, _ = cider(dict(reversed(cands.items())), refs)
        assert forward == backward

    def test_corpus_too_small(self):
        with pytest.raises(CorpusTooSmall):
            cider({"i1": "red apple"}, {"i1": ["red apple"]})

    def test_tag_renaming_invariance(self):
        a, _ = cider(
            {"i1": "[Object1] golden", "i2": "soft pear"},
            {"i1": ["[Object5] golden"], "i2": ["soft pear"]},
        )
        b, _ = cider(
            {"i1": "[Object8] golden", "i2": "soft pear"},
            {"i1": ["[Object2] golden"], "i2": ["soft pear"]},
        )
        assert a == b


def pool_instance(instance_id, goals, image_key=None):
    image = None
    if image_key is not None:
        image = FrameRef(image_key, 1, 0, 0.0)
    return CommonsenseInstance(
        instance_id=instance_id,
        image=image,
        text_description="",
        action_object=("do", instance_id),
        goals=frozenset(goals),
        preconditions=frozenset(),
        effects=frozenset(),
        before_events=frozenset(),
        after_events=frozenset(),
        provenance=(),
    )


class TestCandidatePool:
    def make_dataset(self, n_negatives):
        target = pool_instance("target", ["gt inference"], image_key="img-target")
        others = [
            pool_instance(f"other{i}", [f"negative {i}"], image_key=f"img-{i}")
            for i in range(n_negatives)
        ]
        return target, [target] + others

    def test_exact_fit_fills_pool(self):
        target, dataset = self.make_dataset(49)
        pool = build_candidate_pool(target, dataset, seed=13, inference_type="goal")
        assert len(pool.candidates) == 50
        assert pool.gt_count == 1
        assert sum(c.is_ground_truth for c in pool.candidates) == 1

    def test_insufficient_negatives(self):
        target, dataset = self.make_dataset(20)
        with pytest.raises(InsufficientNegatives, match="lower pool_size to at most 21"):
            build_candidate_pool(target, dataset, seed=13, inference_type="goal")
        # a pool no larger than the ground truths needs a larger pool_size, not a smaller one
        with pytest.raises(InsufficientNegatives, match="raise pool_size above 1"):
            build_candidate_pool(target, dataset, seed=13, inference_type="goal", pool_size=1)

    def test_same_image_negatives_excluded(self):
        target = pool_instance("target", ["gt"], image_key="shared")
        twin = pool_instance("twin", ["from same frame"], image_key="shared")
        others = [pool_instance(f"o{i}", [f"neg {i}"], image_key=f"k{i}") for i in range(60)]
        pool = build_candidate_pool(target, [target, twin] + others, 13, "goal")
        assert all(c.text != "from same frame" for c in pool.candidates)

    def test_same_seed_identical_different_seed_differs(self):
        target, dataset = self.make_dataset(200)
        a = build_candidate_pool(target, dataset, 13, "goal")
        b = build_candidate_pool(target, dataset, 13, "goal")
        c = build_candidate_pool(target, dataset, 14, "goal")
        texts = lambda pool: [cand.text for cand in pool.candidates]
        assert texts(a) == texts(b)
        assert texts(a) != texts(c)

    def test_membership_matches_independent_sampler(self):
        target, dataset = self.make_dataset(120)
        pool = build_candidate_pool(target, dataset, 13, "goal", pool_size=50)
        negatives = sorted(
            {f"negative {i}" for i in range(120)}
        )
        rng = random.Random("13:target:goal")
        expected = rng.sample(negatives, 49)
        assert [c.text for c in pool.candidates] == ["gt inference"] + expected

    def test_pool_size_is_enforced(self):
        with pytest.raises(ValueError):
            CandidatePool("x", (ScoredText("a", 1.0, True),), gt_count=1, size=50)


def oracle_pool(instance, dataset, seed, inference_type, pool_size):
    """Pool texts by the dataset scan the reference index replaced."""
    gts = sorted(instance.inference_set(inference_type))
    own = instance.image.key if instance.image is not None else None
    negatives = set()
    for other in dataset:
        if other.instance_id != instance.instance_id and not (
            own is not None and other.image is not None and other.image.key == own
        ):
            negatives.update(other.inference_set(inference_type))
    rng = random.Random(f"{seed}:{instance.instance_id}:{inference_type}")
    return gts + rng.sample(sorted(negatives - set(gts)), pool_size - len(gts))


def string_level_overlap(dataset, entries):
    """A cell's B, M and C from the string-level metrics, one CIDEr document per kept text."""
    refs_of = {i.instance_id: sorted(i.goals) for i in dataset}
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    bleu, met, cands, refs = [], [], {}, {}
    for instance_id, texts in entries:
        gts = refs_of[instance_id]
        if not any(tokenize(g) for g in gts):
            continue
        for k, text in enumerate(texts):
            if tokenize(text):
                bleu.append(bleu2(text, gts))
                met.append(meteor(text, gts))
                cands[f"{instance_id}#{k}"], refs[f"{instance_id}#{k}"] = text, gts
    c = cider(cands, refs)[1] if len(cands) >= 2 else 0.0
    return {"B": mean(bleu), "M": mean(met), "C": c}


class TestReferenceIndex:
    def synthetic_dataset(self, n_others):
        # a and b share an image; c and d have none; "common" is owned by a,
        # which a's pool excludes, and by c, which it does not
        return [
            pool_instance("a", ["gt a", "common", "only shared"], image_key="shared"),
            pool_instance("b", ["only shared", "b text", "common 2"], image_key="shared"),
            pool_instance("c", ["common", "c text"]),
            pool_instance("d", ["gt a", "d text"]),
        ] + [
            pool_instance(f"o{i}", [f"neg {i}", "common 2"], image_key=f"k{i % 7}")
            for i in range(n_others)
        ]

    # 20 others fit random.sample's list-copy branch, 120 its indexing branch
    @pytest.mark.parametrize("n_others", [20, 120])
    def test_pools_equal_dataset_scan_oracle(self, n_others):
        dataset = self.synthetic_dataset(n_others)
        index = ReferenceIndex(dataset, "goal")
        for instance in dataset:
            for seed in (13, 14):
                expected = oracle_pool(instance, dataset, seed, "goal", 8)
                pool = index.pool(instance.instance_id, seed, pool_size=8)
                assert [c.text for c in pool.candidates] == expected
                assert pool.gt_count == len(instance.goals)
                adapter = build_candidate_pool(instance, dataset, seed, "goal", pool_size=8)
                assert adapter == pool
        assert index.pool("a", 13, pool_size=8) is index.pool("a", 13, pool_size=8)

    def test_overlap_scores_equal_string_level_metrics(
        self, corpus, fixture_triplets, rc_provider, resolved
    ):
        dataset = merge_by_action_object(
            build_instance(t, corpus, rc=rc_provider, resolved=resolved) for t in fixture_triplets
        )
        by_id = {i.instance_id: i for i in dataset}
        lines = [json.loads(line) for line in GOLDEN_GENERATIONS.read_text().splitlines()]
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
        for itype in (t.value for t in InferenceType):
            # generated texts plus its own and a neighbour's references, for scores far from 0
            entries = [
                (
                    line["instance_id"],
                    line["texts"]
                    + sorted(by_id[line["instance_id"]].inference_set(itype))
                    + sorted(dataset[k - 1].inference_set(itype)),
                )
                for k, line in enumerate(l for l in lines if l["inference_type"] == itype)
            ]
            bleu, met, cands, refs = [], [], {}, {}
            for instance_id, texts in entries:
                gts = sorted(by_id[instance_id].inference_set(itype))
                for k, text in enumerate(texts if gts else ()):
                    if tokenize(text):
                        bleu.append(bleu2(text, gts))
                        met.append(meteor(text, gts))
                        cands[f"{instance_id}#{k}"], refs[f"{instance_id}#{k}"] = text, gts
            expected = {"B": mean(bleu), "M": mean(met), "C": cider(cands, refs)[1]}
            assert len(cands) >= 2 and expected["M"] > 0.1 and expected["C"] > 0.1
            assert ReferenceIndex(dataset, itype).overlap_scores(entries) == expected


    def test_instance_without_usable_references_is_skipped(self):
        dataset = [
            pool_instance("a", ["fry the bacon", "toast the bread"]),
            pool_instance("b", ["boil the potatoes"]),
            pool_instance("bad", ["!!!", "..."]),
        ]
        entries = [("a", ["fry bacon", "toast it"]), ("b", ["boil the potatoes", "!?"])]
        index = ReferenceIndex(dataset, "goal")
        scores = index.overlap_scores(entries)
        assert index.overlap_scores(entries + [("bad", ["fry the bacon"])]) == scores
        assert scores["B"] > 0 and scores["C"] > 0

    def shared_cells(self):
        """Three cells over one dataset, their generated texts repeating across cells.

        "a" has a reference without tokens, and "b" and "c" each have a sample
        without tokens.
        """
        dataset = [
            pool_instance("a", ["fry the bacon until crisp", "!!!", "serve the toast warm"]),
            pool_instance("d", ["boil the potatoes"]),
            pool_instance("b", ["slice the tomatoes thin", "toast the bread"]),
            pool_instance("e", ["mash the boiled potatoes", "salt the water"]),
            pool_instance("c", ["crack the eggs into a bowl"]),
        ]
        cells = [
            [
                ("a", ["fry bacon crisp", "toast warm bread"]),
                ("b", ["slice tomatoes", "", "toast the bread"]),
                ("d", ["boil the potatoes"]),
            ],
            [
                ("a", ["fry bacon crisp", "serve the toast warm"]),
                ("e", ["mashing potatoes", "boil the potatoes"]),
                ("c", ["crack eggs", "fry bacon crisp"]),
            ],
            [
                ("b", ["toast the bread", "fry bacon crisp"]),
                ("c", ["crack the eggs into a bowl", "?!", "slice tomatoes"]),
                ("a", ["fry bacon crisp"]),
            ],
        ]
        return dataset, cells

    def test_shared_index_equals_string_metrics_and_fresh_indexes(self):
        dataset, cells = self.shared_cells()
        index = ReferenceIndex(dataset, "goal")
        for entries in cells + cells:  # the second round reads what the first one kept
            scores = index.overlap_scores(entries)
            assert scores == string_level_overlap(dataset, entries)
            assert scores == ReferenceIndex(dataset, "goal").overlap_scores(entries)
            assert scores["B"] > 0.1 and scores["M"] > 0.1 and scores["C"] > 0.1

    def test_each_reference_is_counted_once_per_index_and_each_text_once_per_cell(
        self, monkeypatch
    ):
        dataset, cells = self.shared_cells()
        prep_calls, ngram_calls, stem_calls = Counter(), Counter(), []
        prep, ngrams, stem = metrics._prep, metrics._ngrams, metrics._stem

        def counted_prep(text):
            prep_calls[text] += 1
            return prep(text)

        def counted_ngrams(tokens, n):
            ngram_calls[(tuple(tokens), n)] += 1
            return ngrams(tokens, n)

        def counted_stem(token):
            stem_calls.append(token)
            return stem(token)

        monkeypatch.setattr(metrics, "_prep", counted_prep)
        monkeypatch.setattr(metrics, "_ngrams", counted_ngrams)
        monkeypatch.setattr(metrics, "_stem", counted_stem)
        index = ReferenceIndex(dataset, "goal")
        for entries in cells + cells:
            index.overlap_scores(entries)
        refs = {r for i in dataset for r in i.goals}
        per_cell = [{text for _, texts in entries for text in texts} for entries in cells + cells]
        generated = [text for texts in per_cell for text in texts]
        assert len(generated) < sum(len(texts) for entries in cells + cells for _, texts in entries)
        assert refs & set(generated) and not all(map(tokenize, [*refs, *generated]))
        # a reference is read once per index, a generated text once per cell it is in
        assert prep_calls == Counter(refs) + Counter(generated)
        # and each reference and each generated text with tokens is counted and stemmed then
        counted = Counter(tuple(tokenize(r)) for r in refs)
        counted.update(tuple(tokenize(t)) for t in generated if tokenize(t))
        assert ngram_calls == {(t, n): count for t, count in counted.items() for n in (1, 2, 3, 4)}
        assert len(stem_calls) == sum(len(t) * count for t, count in counted.items())

    GENERATED = [
        "fry bacon crisp",
        "toast the bread",  # a reference of b
        "serve the toast warm",  # a reference of a
        "boil the potatoes",
        "Boil the potatoes!",
        "slice tomatoes",
        "mashing potatoes",
        "[Object1] fries the [Object2]",
        "",
        "?!",
    ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_memoised_scores_equal_fresh_ones(self, data):
        dataset, _ = self.shared_cells()
        entry = st.tuples(
            st.sampled_from([i.instance_id for i in dataset]),
            st.lists(st.sampled_from(self.GENERATED), max_size=4),
        )
        cells = data.draw(
            st.lists(st.lists(entry, max_size=5, unique_by=lambda e: e[0]), min_size=1, max_size=3)
        )
        # each cell's twin has other texts with tokens in the same places, so equal kept
        # counts; its trim drops each entry's last text, so the same instances, other counts
        worded = st.sampled_from([t for t in self.GENERATED if tokenize(t)])
        twins = [
            [(i, [data.draw(worded) if tokenize(t) else t for t in texts]) for i, texts in entries]
            for entries in cells
        ]
        trims = [[(i, texts[:-1]) for i, texts in entries] for entries in cells]
        index = ReferenceIndex(dataset, "goal")
        for entries in [c for group in zip(cells, twins, trims) for c in group] + cells:
            scores = index.overlap_scores(entries)
            assert scores == string_level_overlap(dataset, entries)
            assert scores == ReferenceIndex(dataset, "goal").overlap_scores(entries)


class TestAccAt50:
    def separable_pool(self):
        candidates = [ScoredText("gt", 1.0, True)] + [
            ScoredText(f"neg {i}", 1e9 + i) for i in range(49)
        ]
        return CandidatePool("p", tuple(candidates), gt_count=1)

    def test_separable_scorer_perfect_accuracy(self):
        assert acc_at_50([self.separable_pool()]) == 1.0

    def test_unscored_candidate_rejected(self):
        candidates = [ScoredText("gt", None, True)] + [
            ScoredText(f"neg {i}", 1.0) for i in range(49)
        ]
        with pytest.raises(UnscoredCandidate):
            acc_at_50([CandidatePool("p", tuple(candidates), gt_count=1)])

    def test_ties_break_lexicographically(self):
        # all perplexities equal: ranking falls back to text order, so the
        # ground truth "aaa" wins while "zzz" loses
        win = [ScoredText("aaa", 2.0, True)] + [ScoredText(f"m{i:02d}", 2.0) for i in range(49)]
        lose = [ScoredText("zzz", 2.0, True)] + [ScoredText(f"m{i:02d}", 2.0) for i in range(49)]
        assert acc_at_50([CandidatePool("w", tuple(win), gt_count=1)]) == 1.0
        assert acc_at_50([CandidatePool("l", tuple(lose), gt_count=1)]) == 0.0

    def test_random_scorer_expectation_near_chance(self):
        rng = random.Random(0)
        pools = []
        for p in range(2000):
            candidates = [ScoredText("gt", rng.random(), True)] + [
                ScoredText(f"neg {i}", rng.random()) for i in range(49)
            ]
            pools.append(CandidatePool(f"p{p}", tuple(candidates), gt_count=1))
        accuracy = acc_at_50(pools)
        sigma = math.sqrt(0.02 * 0.98 / 2000)
        assert abs(accuracy - 1 / 50) <= 4 * sigma

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(1)
        pools = []
        for p in range(50):
            candidates = [ScoredText("gt", rng.uniform(1, 9), True)] + [
                ScoredText(f"neg {i}", rng.uniform(1, 9)) for i in range(49)
            ]
            pools.append(CandidatePool(f"p{p}", tuple(candidates), gt_count=1))
        transformed = [
            CandidatePool(
                pool.instance_id,
                tuple(ScoredText(c.text, c.perplexity**1.5 + 3, c.is_ground_truth) for c in pool.candidates),
                pool.gt_count,
            )
            for pool in pools
        ]
        assert acc_at_50(pools) == acc_at_50(transformed)

    def test_top1_mode(self):
        pool = self.separable_pool()
        assert acc_at_50([pool], mode="top1") == 1.0

    def test_score_pool_fills_perplexities(self):
        candidates = [ScoredText("b", None, True)] + [ScoredText(f"n{i}") for i in range(49)]
        pool = CandidatePool("p", tuple(candidates), gt_count=1)
        scored = score_pool(pool, lambda texts: [float(len(text)) for text in texts])
        assert all(c.perplexity is not None for c in scored.candidates)
        assert acc_at_50([scored]) == 1.0

    def test_multi_gt_top_gt_precision(self):
        candidates = [
            ScoredText("gt one", 1.0, True),
            ScoredText("neg best", 1.5),
            ScoredText("gt two", 2.0, True),
        ] + [ScoredText(f"neg {i}", 10.0 + i) for i in range(47)]
        pool = CandidatePool("p", tuple(candidates), gt_count=2)
        assert acc_at_50([pool]) == pytest.approx(0.5)


class TestDiversity:
    def test_identical_sentences(self):
        assert uniqueness(["same"] * 5) == pytest.approx(1 / 5)

    def test_all_distinct(self):
        assert uniqueness(["a", "b", "c"]) == 1.0

    def test_tag_normalized_distinctness(self):
        sentences = ["[Object1] is hot", "[Object2] is hot", "a", "b", "b", "c"]
        assert uniqueness(sentences) == pytest.approx(4 / 6, abs=1e-4)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyList):
            uniqueness([])
        with pytest.raises(EmptyList):
            novelty([], set())

    def test_novelty_all_copied(self):
        train = {"fry the bacon", "whisk the eggs"}
        assert novelty(["fry the bacon", "whisk the eggs"], train) == 0.0

    def test_novelty_empty_training_set(self):
        assert novelty(["anything"], set()) == 1.0

    def test_novelty_matches_membership_oracle(self):
        train = {"a", "b", "[Object] x"}
        generated = ["a", "c", "[Object3] x", "d"]
        expected = sum(
            1 for g in generated if normalize_object_tags(g) not in train
        ) / len(generated)
        assert novelty(generated, train) == pytest.approx(expected)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=20))
    def test_uniqueness_lower_bound(self, sentences):
        assert uniqueness(sentences) >= 1 / len(sentences)

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10),
        st.sets(st.sampled_from(["a", "b", "c"])),
        st.sets(st.sampled_from(["a", "b", "c"])),
    )
    def test_novelty_monotone_in_training_set(self, generated, train, extra):
        assert novelty(generated, train | extra) <= novelty(generated, train)


class TestCohenKappa:
    def test_full_run_agreement_fixtures_present(self):
        assert FULL_RUN_AGREEMENT_KAPPA[("precondition", "Pp2")] == (0.78, 0.76)
        assert FULL_RUN_AGREEMENT_KAPPA[("before", "Pb3")] == (0.81, 0.81)


class TestReferenceRows:
    def test_best_prompt_rows_recorded(self):
        from actionsense.reference import FULL_RUN_BEST_PROMPT_ROWS

        pp2 = FULL_RUN_BEST_PROMPT_ROWS["Pp2"]
        assert (pp2["B"], pp2["M"], pp2["C"], pp2["A50"]) == (18.33, 20.41, 19.19, 24.28)
        assert set(FULL_RUN_BEST_PROMPT_ROWS) == {"Pp2", "Pe4", "Pg4", "Pb3", "Pa3"}


class TestEvalReport:
    SCORES = {"B": 0.5, "M": 0.25, "C": 2.0, "A50": 0.1, "unique": 0.8, "novel": 0.4}

    def test_serialized_golden(self):
        report = EvalReport(rows=(ReportRow.from_cell("goal", "c1", self.SCORES),))
        assert json.loads(report.to_json()) == {
            "rows": [
                {
                    "type": "goal",
                    "condition": "c1",
                    "B": 50.0,
                    "M": 25.0,
                    "C": 20.0,
                    "A50": 10.0,
                    "unique": 80.0,
                    "novel": 40.0,
                }
            ]
        }

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            ReportRow.from_cell("goal", "c1", {**self.SCORES, "B": 1.5})

    def test_csv_export(self):
        cells = [(t, c) for t in ("goal", "effect") for c in ("c1", "c2")]
        report = EvalReport(rows=tuple(ReportRow.from_cell(t, c, self.SCORES) for t, c in cells))
        rows = json.loads(report.to_json())["rows"]
        csv_text = metrics.format_csv(rows)
        assert csv_text.splitlines()[0] == "type,condition,B,M,C,A50,unique,novel"
        assert len(csv_text.strip().splitlines()) == 5
