"""End-to-end acceptance checks. Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS/FAIL line per criterion."""

import contextlib
import json
import math
import random
import time

import pytest

from actionsense import cli
from actionsense.assembly import form_preconditions
from actionsense.extraction import extract_verb_ingredient_pairs, resolve_coreferences
from actionsense.generation import (
    GenerationConfig,
    compose_input_sequence,
    score_candidate,
    seq2seq_loss,
)
from actionsense.metrics import (
    CandidatePool,
    ScoredText,
    acc_at_50,
    bleu2,
    cider,
    meteor,
)
from actionsense.reference import FULL_RUN_DATASET_STATS
from actionsense.triplets import (
    EventRef,
    build_adjoining_triplets,
    events_from_pairs,
    group_by_ingredient,
)
from test_generation import FixedProbsLM, UniformLM, make_instance, spec


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {description}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {description}: PASS", flush=True)


def test_1_triplet_law_over_random_corpora():
    with criterion(1, "triplet count law over 1000 random corpora"):
        started = time.monotonic()
        rng = random.Random(0)
        ingredients = ["potato", "egg", "bacon", "onion"]
        for _ in range(1000):
            events = []
            for video in range(rng.randint(1, 4)):
                for ingredient in rng.sample(ingredients, rng.randint(1, 4)):
                    k = rng.randint(0, 10)
                    for index in sorted(rng.sample(range(1, 31), k)):
                        events.append(
                            EventRef(f"v{video}", index, "do", ingredient)
                        )
            rng.shuffle(events)
            buckets = group_by_ingredient(events)
            for per_video in buckets.values():
                for bucket in per_video.values():
                    triplets = build_adjoining_triplets(bucket)
                    k = len(bucket)
                    assert len(triplets) == max(0, k - 2)
                    oracle = [tuple(bucket[i : i + 3]) for i in range(max(0, k - 2))]
                    assert [(t.past, t.current, t.future) for t in triplets] == oracle
                    for t in triplets:
                        assert (
                            t.past.segment_index
                            < t.current.segment_index
                            < t.future.segment_index
                        )
        assert time.monotonic() - started < 10.0


def test_2_blt_fixture_reproduction(corpus, coref_provider, parse_provider):
    with criterion(2, "BLT fixture: first-segment pairs and bacon triplet"):
        video = corpus.video("blt01")
        resolved = resolve_coreferences(video, coref_provider)
        pairs = []
        for seg, sentence in zip(video.segments, resolved):
            pairs.extend(
                extract_verb_ingredient_pairs(
                    sentence.resolved, parse_provider, video.video_id, seg.index
                )
            )
        first = {(p.verb, p.ingredient) for p in pairs if p.segment_index == 1}
        assert {(v, n) for v, n in first if n == "tomato"} == {
            ("grill", "tomato"),
            ("put", "tomato"),
        }
        bacon = group_by_ingredient(events_from_pairs(pairs))["bacon"]["blt01"]
        assert [e.segment_index for e in bacon] == [1, 2, 7]
        triplets = build_adjoining_triplets(bacon)
        assert len(triplets) == 1
        t = triplets[0]
        assert (
            t.past.segment_index,
            t.current.segment_index,
            t.future.segment_index,
        ) == (1, 2, 7)
        assert (t.past.verb, t.current.verb, t.future.verb) == ("fry", "cook", "place")


def test_3_precondition_fixture(corpus, fixture_triplets):
    with criterion(3, "peel-then-cut potato preconditions"):
        triplet = next(
            t
            for t in fixture_triplets
            if t.video_id == "mash01" and t.current.verb == "cut"
        )
        assert form_preconditions(triplet, corpus) == {
            "potato",
            "peeler",
            "knife",
            "chopping board",
        }


def test_4_metric_oracles():
    with criterion(4, "overlap metric oracles and tag invariance"):
        started = time.monotonic()
        assert bleu2("fry the bacon", ["cook the bacon"]) == pytest.approx(0.5774, abs=1e-4)
        assert bleu2("fry the bacon", ["fry the bacon"]) == pytest.approx(1.0)
        assert meteor("fry the bacon", ["fry the bacon"]) == pytest.approx(1.0)
        scores, _ = cider(
            {"i1": "blue sky", "i2": "green pear"},
            {"i1": ["red apple"], "i2": ["green pear"]},
        )
        assert scores["i1"] == 0.0
        renamed = lambda text: text.replace("[Object1]", "[Object8]")
        cand, ref = "[Object1] is golden", "[Object1] turns golden"
        assert bleu2(cand, [ref]) == bleu2(renamed(cand), [ref])
        assert meteor(cand, [ref]) == meteor(renamed(cand), [ref])
        a, _ = cider({"i1": cand, "i2": "x y"}, {"i1": [ref], "i2": ["x y"]})
        b, _ = cider({"i1": renamed(cand), "i2": "x y"}, {"i1": [ref], "i2": ["x y"]})
        assert a == b
        assert time.monotonic() - started < 5.0


def test_5_perplexity_contract():
    with criterion(5, "perplexity and sequence-loss contracts"):
        scored = score_candidate(
            compose_input_sequence(make_instance(), spec()),
            "golden yolk",
            FixedProbsLM([0.5, 0.25]),
        )
        assert scored.perplexity == pytest.approx(2.8284271247461903, abs=1e-6)
        for vocab in (7, 50, 1000):
            uniform = score_candidate(
                compose_input_sequence(make_instance(), spec()),
                "one two three four",
                UniformLM(vocab),
            )
            assert uniform.perplexity == pytest.approx(vocab, rel=1e-12)
        lm = UniformLM(23)
        batch = [
            (make_instance(), spec(), "soft golden curds"),
            (make_instance(), spec(), "brown crispy strips of bacon"),
        ]
        result = seq2seq_loss(batch, lm)
        nlls = [
            score_candidate(compose_input_sequence(i, s), target, lm).nll
            for i, s, target in batch
        ]
        assert abs(result.loss - sum(nlls) / len(nlls)) < 1e-9


def test_6_retrieval_accuracy_contract():
    with criterion(6, "candidate-pool retrieval accuracy"):
        separable = CandidatePool(
            "p",
            tuple(
                [ScoredText("gt", 1.0, True)]
                + [ScoredText(f"neg {i}", 1e9 + i) for i in range(49)]
            ),
            gt_count=1,
        )
        assert acc_at_50([separable]) == 1.0

        rng = random.Random(13)
        pools = []
        for p in range(10_000):
            candidates = [ScoredText("gt", rng.random(), True)] + [
                ScoredText(f"neg {i}", rng.random()) for i in range(49)
            ]
            pool = CandidatePool(f"p{p}", tuple(candidates), gt_count=1)
            assert len(pool.candidates) == 50
            pools.append(pool)
        accuracy = acc_at_50(pools)
        sigma = math.sqrt((1 / 50) * (49 / 50) / 10_000)
        assert abs(accuracy - 1 / 50) <= 3 * sigma


def _run_pipeline(fixture_config, out):
    assert cli.main(["build-dataset", "--config", str(fixture_config), "--out", str(out)]) == 0
    assert cli.main(["ablate", "--config", str(fixture_config), "--out", str(out)]) == 0
    return out


def test_7_structural_grid_reproduction(fixture_config, tmp_path):
    with criterion(7, "ablation grid shapes and statistics row set"):
        out = _run_pipeline(fixture_config, tmp_path / "run")
        modality = json.loads((out / "modality_report.json").read_text())
        prompt = json.loads((out / "prompt_report.json").read_text())
        assert len(modality["rows"]) == 10
        assert len(prompt["rows"]) == 20
        columns = {"B", "M", "C", "A50", "unique", "novel"}
        for row in modality["rows"] + prompt["rows"]:
            assert columns <= set(row)
        stats = json.loads((out / "stats.json").read_text())
        assert set(FULL_RUN_DATASET_STATS) <= set(stats)


def test_8_end_to_end_determinism(fixture_config, tmp_path):
    with criterion(8, "byte-identical artifacts across seeded reruns"):
        started = time.monotonic()
        a = _run_pipeline(fixture_config, tmp_path / "a")
        b = _run_pipeline(fixture_config, tmp_path / "b")
        artifacts = (
            "dataset.jsonl",
            "generations_modality.jsonl",
            "generations_prompt.jsonl",
            "modality_report.json",
            "prompt_report.json",
            "stats.json",
        )
        for name in artifacts:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert time.monotonic() - started < 60.0


def test_9_documented_constants(fixture_config, tmp_path):
    with criterion(9, "decoding, budget, and corpus reference constants"):
        cfg = GenerationConfig()
        assert cfg.nucleus_p == 0.9
        assert cfg.max_visual_features == 15
        assert cfg.max_sequence_length == 64
        assert cfg.learning_rate == 5e-5
        run_cfg = cli.RunConfig()
        assert run_cfg.min_count == 10
        assert run_cfg.nucleus_p == 0.9
        assert run_cfg.pool_size == 50
        assert FULL_RUN_DATASET_STATS == {
            "videos": 1601,
            "images": 8522,
            "textual_descriptions": 8522,
            "recipe_types": 89,
            "unique_objects": 176,
            "unique_actions": 93,
            "goals": 10341,
            "preconditions": 17209,
            "effects": 6428,
            "before_events": 12665,
            "after_events": 12665,
        }
