import hashlib
import itertools
import json
import math
import string

import pytest
from hypothesis import given, strategies as st

from actionsense.assembly import CommonsenseInstance
from actionsense.corpus import FrameRef
from actionsense.generation import (
    AO_END,
    AO_START,
    EVENT_END,
    EVENT_START,
    IMG_END,
    IMG_START,
    MAX_SEQUENCE_LENGTH,
    MODALITY_COMBOS,
    EmptyBatch,
    GenerationConfig,
    InferenceType,
    MissingModality,
    Modality,
    PROMPTS,
    PromptSpec,
    SequenceOverflow,
    UnknownVariant,
    build_prompt,
    combo_label,
    compose_input_sequence,
    generate_inferences,
    mask_input,
    score_candidate,
    score_many,
    seq2seq_loss,
)
from actionsense.providers import ProviderError
from actionsense.stubs import StubVisionProvider


def make_instance(image=True, description="cracking [Object1] using [Object2]"):
    frame = FrameRef("v", 2, 90, 3.0, "clip.mp4", "frame.jpg") if image else None
    return CommonsenseInstance(
        instance_id="v:2:crack_egg",
        image=frame,
        text_description=description,
        action_object=("crack", "egg"),
        goals=frozenset({"Make Omelet"}),
        preconditions=frozenset({"egg", "fork"}),
        effects=frozenset({"runny"}),
        before_events=frozenset({"get the eggs"}),
        after_events=frozenset({"whisk the eggs"}),
        provenance=(),
        bindings=(("[Object1]", "egg"), ("[Object2]", "fork")),
    )


def spec(itype=InferenceType.PRECONDITION, variant=2, mask=frozenset({Modality.AO_PAIR})):
    return PromptSpec(inference_type=itype, variant=variant, modality_mask=mask)


class EchoLM:
    def __init__(self, texts):
        self.texts = texts
        self.sample_calls = 0

    def sample_many(self, sequences, nucleus_p, max_new, n):
        self.sample_calls += 1
        return [list(self.texts[:n]) for _ in sequences]

    def logprobs(self, sequence, continuation):
        return [-1.0] * len(continuation.split())


class FixedProbsLM:
    def __init__(self, probs):
        self.probs = probs

    def sample(self, sequence, nucleus_p, max_new, n):
        return []

    def logprobs(self, sequence, continuation):
        tokens = continuation.split()
        assert len(tokens) == len(self.probs)
        return [math.log(p) for p in self.probs]


class UniformLM:
    def __init__(self, vocab_size):
        self.vocab_size = vocab_size

    def logprobs(self, sequence, continuation):
        return [-math.log(self.vocab_size)] * len(continuation.split())


class RecordingLM:
    def __init__(self):
        self.sequences = []

    def logprobs(self, sequence, continuation):
        self.sequences.append(sequence)
        return [-1.0] * len(continuation.split())


class TestPrompts:
    def test_imperative_precondition_prompt(self):
        assert (
            build_prompt(spec(InferenceType.PRECONDITION, 2))
            == "Describe a list of necessary conditions required to execute this action"
        )

    def test_structured_goal_prompt(self):
        assert (
            build_prompt(spec(InferenceType.GOAL, 4))
            == "List down the recipes one can prepare which requires performing this action"
        )

    def test_out_of_range_variant(self):
        with pytest.raises(UnknownVariant):
            build_prompt(spec(InferenceType.EFFECT, 7))

    def test_twenty_distinct_prompts(self):
        assert len(PROMPTS) == 20
        assert len(set(PROMPTS.values())) == 20


class TestModalityCombos:
    def test_first_combo_is_image_only(self):
        assert MODALITY_COMBOS[0] == frozenset({Modality.IMAGE})

    def test_grounding_always_rides_with_image(self):
        for combo in MODALITY_COMBOS:
            if Modality.OG in combo:
                assert Modality.IMAGE in combo

    def test_ten_distinct_combos(self):
        combos = MODALITY_COMBOS
        assert len(combos) == 10
        assert len(set(combos)) == 10

    def test_grid_order(self):
        labels = [combo_label(c) for c in MODALITY_COMBOS]
        assert labels == [
            "Image",
            "Image+OG",
            "AOPair",
            "TextDesc",
            "TextDesc+AOPair",
            "Image+TextDesc",
            "Image+AOPair",
            "Image+TextDesc+AOPair",
            "Image+TextDesc+OG",
            "Image+TextDesc+AOPair+OG",
        ]

    def test_grounding_without_image_rejected(self):
        with pytest.raises(ValueError):
            PromptSpec(InferenceType.GOAL, 1, frozenset({Modality.OG, Modality.TEXT_DESC}))


class TestCompose:
    def test_text_only_action_pair(self):
        sequence = compose_input_sequence(make_instance(), spec())
        prompt_tokens = build_prompt(spec()).split()
        assert sequence.tokens == [
            AO_START, "crack", "egg", AO_END, *prompt_tokens, "s_precondition",
        ]
        assert sequence.visual_refs == {}

    def test_grounded_image_layout(self):
        mask = frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.OG})
        sequence = compose_input_sequence(
            make_instance(), spec(mask=mask), vision=StubVisionProvider()
        )
        prompt_tokens = build_prompt(spec()).split()
        expected = [
            IMG_START, "<img>", "[Object1]", "[Object2]", IMG_END,
            EVENT_START, "cracking", "[Object1]", "using", "[Object2]", EVENT_END,
            *prompt_tokens, "s_precondition",
        ]
        assert sequence.tokens == expected
        # image slots and grounded event tags both link to object features
        assert sequence.visual_refs == {1: 0, 2: 1, 3: 2, 7: 1, 9: 2}
        assert sequence.fusion == "additive"

    def test_event_tag_followed_by_any_punctuation_links_to_its_feature(self):
        # a tag keeps the punctuation that trailed the word it replaced (assembly._strip_token)
        mask = frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.OG})
        for trail in ["", *string.punctuation, ").", "\"]"]:
            description = f"cracking [Object1]{trail} using [Object2]{trail}"
            sequence = compose_input_sequence(
                make_instance(description=description), spec(mask=mask), vision=StubVisionProvider()
            )
            assert sequence.visual_refs == {1: 0, 2: 1, 3: 2, 7: 1, 9: 2}, trail

    def test_event_tag_followed_by_a_word_is_not_linked(self):
        mask = frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.OG})
        instance = make_instance(description="cracking [Object1]'s shell using [Object2]s")
        sequence = compose_input_sequence(instance, spec(mask=mask), vision=StubVisionProvider())
        assert sequence.visual_refs == {1: 0, 2: 1, 3: 2}

    def test_text_fallback_serializes_object_labels(self):
        mask = frozenset({Modality.IMAGE, Modality.OG})
        sequence = compose_input_sequence(make_instance(), spec(mask=mask))
        image_block = sequence.blocks[0]
        assert image_block.name == "image"
        assert "egg" in image_block.tokens and "fork" in image_block.tokens
        assert sequence.visual_refs == {}

    def test_ungrounded_text_uses_labels(self):
        mask = frozenset({Modality.TEXT_DESC})
        sequence = compose_input_sequence(make_instance(), spec(mask=mask))
        event = next(b for b in sequence.blocks if b.name == "event")
        assert "egg" in event.tokens
        assert all(not t.startswith("[Object") for t in event.tokens)

    def test_missing_image_raises(self):
        with pytest.raises(MissingModality):
            compose_input_sequence(
                make_instance(image=False), spec(mask=frozenset({Modality.IMAGE}))
            )

    def test_masked_out_modalities_absent(self):
        sequence = compose_input_sequence(make_instance(), spec())
        assert sequence.block_names() == ["ao", "prompt", "start"]

    def test_field_block_containment_for_nested_masks(self):
        instance = make_instance()
        for small in MODALITY_COMBOS:
            for big in MODALITY_COMBOS:
                if not small < big:
                    continue
                a = compose_input_sequence(instance, spec(mask=small)).block_names()
                b = compose_input_sequence(instance, spec(mask=big)).block_names()
                it = iter(b)
                assert all(name in it for name in a)

    def test_truncation_drops_event_words_from_left(self):
        words = [f"w{i}" for i in range(80)]
        instance = make_instance(description=" ".join(words))
        mask = frozenset({Modality.TEXT_DESC, Modality.AO_PAIR})
        sequence = compose_input_sequence(instance, spec(mask=mask))
        assert len(sequence) == MAX_SEQUENCE_LENGTH
        event = next(b for b in sequence.blocks if b.name == "event")
        kept = list(event.tokens[1:-1])
        assert kept == words[len(words) - len(kept):]
        ao = next(b for b in sequence.blocks if b.name == "ao")
        assert ao.tokens == (AO_START, "crack", "egg", AO_END)

    def test_overlong_prompt_raises(self, monkeypatch):
        key = (InferenceType.PRECONDITION, 2)
        monkeypatch.setitem(PROMPTS, key, " ".join(["word"] * 70))
        with pytest.raises(SequenceOverflow):
            compose_input_sequence(make_instance(), spec())

    def test_wire_form_of_every_cell_is_pinned(self):
        # sha256 recorded before composition was split into a mask step and a prompt step;
        # the long description is cut in every mask that holds it, grounded tags and all
        digest = hashlib.sha256()
        for description in (
            "cracking [Object1] using [Object2]",
            " ".join(["cracking [Object1] using [Object2]."] * 16),
        ):
            instance = make_instance(description=description)
            for vision in (None, StubVisionProvider()):
                for mask, itype, variant in itertools.product(
                    MODALITY_COMBOS, InferenceType, (1, 2, 3, 4)
                ):
                    sequence = compose_input_sequence(instance, spec(itype, variant, mask), vision)
                    digest.update(json.dumps(sequence.to_wire(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "61c9c2b695cabe1ac557d8fdf8ab3c9cae03a0f81a98506e9c3876d0fa527cad"
        )

    @pytest.mark.parametrize("vision", [None, StubVisionProvider()], ids=["text-only", "vision"])
    def test_shared_mask_step_composes_what_a_fresh_one_does(self, vision):
        instance = make_instance(description=" ".join(["cracking [Object1] using [Object2]"] * 16))
        for mask in MODALITY_COMBOS:
            masked = mask_input(instance, mask, vision)
            for itype, variant in itertools.product(InferenceType, (1, 2, 3, 4)):
                shared = compose_input_sequence(instance, spec(itype, variant, mask), masked=masked)
                assert shared == compose_input_sequence(instance, spec(itype, variant, mask), vision)

    def test_mask_step_of_another_mask_rejected(self):
        masked = mask_input(make_instance(), frozenset({Modality.TEXT_DESC}))
        with pytest.raises(ValueError):
            compose_input_sequence(make_instance(), spec(), masked=masked)

    def test_mask_step_raises_for_a_missing_modality(self):
        with pytest.raises(MissingModality):
            mask_input(make_instance(image=False), frozenset({Modality.IMAGE}))
        with pytest.raises(MissingModality):
            mask_input(make_instance(description=""), frozenset({Modality.TEXT_DESC}))

    def test_token_counts_across_all_masks(self):
        # hand-composed layout budget: image block holds the slot row
        # (2 delimiters + global + 2 objects with vision), the event block the
        # 4 description words, the pair block "crack egg"
        instance = make_instance()
        prompt_len = len(build_prompt(spec()).split())
        image, event, ao, start = 5, 6, 4, 1
        expected = {
            "Image": image,
            "Image+OG": image,
            "AOPair": ao,
            "TextDesc": event,
            "TextDesc+AOPair": event + ao,
            "Image+TextDesc": image + event,
            "Image+AOPair": image + ao,
            "Image+TextDesc+AOPair": image + event + ao,
            "Image+TextDesc+OG": image + event,
            "Image+TextDesc+AOPair+OG": image + event + ao,
        }
        for mask in MODALITY_COMBOS:
            sequence = compose_input_sequence(
                instance, spec(mask=mask), vision=StubVisionProvider()
            )
            assert len(sequence) == expected[combo_label(mask)] + prompt_len + start, mask


class TestGenerate:
    def test_echo_stub_verbatim(self):
        lm = EchoLM(["a pan", "a bowl", "a fork"])
        texts = generate_inferences([compose_input_sequence(make_instance(), spec())], lm, 3)
        assert texts == [["a pan", "a bowl", "a fork"]]

    def test_zero_samples(self):
        lm = EchoLM(["a pan"])
        sequence = compose_input_sequence(make_instance(), spec())
        assert generate_inferences([sequence, sequence], lm, 0) == [[], []]
        assert lm.sample_calls == 0

    def test_strip_at_end_of_field(self):
        lm = EchoLM(["a pan e_inf trailing junk", " e_inf", "a bowl "])
        texts = generate_inferences([compose_input_sequence(make_instance(), spec())], lm, 3)
        assert texts == [["a pan", "", "a bowl"]]

    def test_several_sequences_in_one_request(self):
        lm = EchoLM(["a pan e_inf", "a bowl"])
        sequences = [compose_input_sequence(make_instance(), spec(variant=v)) for v in (1, 2, 3)]
        assert generate_inferences(sequences, lm, 2) == [["a pan", "a bowl"]] * 3
        assert lm.sample_calls == 1

    def test_greedy_stub_repeats_modal_continuation(self, lm_provider):
        [texts] = generate_inferences(
            [compose_input_sequence(make_instance(), spec())], lm_provider, 4, nucleus_p=0.0
        )
        assert len(set(texts)) == 1 and len(texts) == 4

    def test_fixed_seed_is_deterministic(self, lm_provider):
        first = generate_inferences(
            [compose_input_sequence(make_instance(), spec())], lm_provider, 3
        )
        second = generate_inferences(
            [compose_input_sequence(make_instance(), spec())], lm_provider, 3
        )
        assert first == second


class TestScoring:
    def test_uniform_vocabulary_perplexity_equals_vocab_size(self):
        scored = score_candidate(
            compose_input_sequence(make_instance(), spec()), "golden crispy bits", UniformLM(50)
        )
        assert scored.perplexity == pytest.approx(50.0, abs=1e-9)

    def test_half_quarter_probabilities(self):
        scored = score_candidate(
            compose_input_sequence(make_instance(), spec()),
            "golden yolk",
            FixedProbsLM([0.5, 0.25]),
        )
        assert scored.nll == pytest.approx(-(math.log(0.5) + math.log(0.25)) / 2)
        assert scored.perplexity == pytest.approx(2.8284271247461903, abs=1e-9)

    def test_conditioning_field_order(self):
        lm = RecordingLM()
        mask = frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.AO_PAIR, Modality.OG})
        score_candidate(compose_input_sequence(make_instance(), spec(mask=mask)), "golden", lm)
        assert lm.sequences[0].block_names() == ["image", "event", "ao", "prompt", "start"]
        assert lm.sequences[0].blocks[-1].tokens == ("s_precondition",)

    def test_perplexity_is_exp_of_nll(self):
        scored = score_candidate(
            compose_input_sequence(make_instance(), spec()), "soft and fluffy", UniformLM(17)
        )
        assert scored.perplexity == pytest.approx(math.exp(scored.nll), abs=1e-12)

    def test_batch_scores_are_single_scores_with_perplexity_exp_of_nll(self, lm_provider):
        items = [
            (compose_input_sequence(make_instance(), spec(variant=v)), candidates)
            for v, candidates in ((1, ["golden", "soft and fluffy"]), (2, ["a runny yolk"]))
        ]
        batch = score_many(items, lm_provider)
        assert batch == [
            [score_candidate(sequence, c, lm_provider) for c in candidates]
            for sequence, candidates in items
        ]
        assert [[c.text for c in row] for row in batch] == [c for _, c in items]
        assert all(c.perplexity == math.exp(c.nll) for row in batch for c in row)

    @pytest.mark.parametrize(
        "row", [[-800.0], [-1e308, -1e308]], ids=["mean-below-709.8", "sum-overflows"]
    )
    def test_perplexity_too_large_for_a_float_is_a_provider_error_naming_the_candidate(self, row):
        class LowLM:  # finite log-probabilities for a burnt candidate, exp(nll) overflowing
            def score_many(self, items):
                return [[row if "burnt" in c else [-1.0] for c in cands] for _, cands in items]

        sequence = compose_input_sequence(make_instance(), spec())
        with pytest.raises(ProviderError, match="perplexity of 'burnt' overflows"):
            score_many([(sequence, ["golden"]), (sequence, ["crisp", "burnt"])], LowLM())
        assert score_candidate(sequence, "golden", UniformLM(math.exp(709))).perplexity > 1e307

    def test_score_independent_of_other_candidates(self):
        lm = UniformLM(11)
        instance = make_instance()
        one = score_candidate(compose_input_sequence(instance, spec()), "golden", lm)
        score_candidate(compose_input_sequence(instance, spec()), "something else entirely", lm)
        two = score_candidate(compose_input_sequence(instance, spec()), "golden", lm)
        assert one == two

    @given(st.integers(min_value=2, max_value=10_000))
    def test_uniform_perplexity_matches_vocab(self, vocab):
        scored = score_candidate(
            compose_input_sequence(make_instance(), spec()), "one two three", UniformLM(vocab)
        )
        assert scored.perplexity == pytest.approx(vocab, rel=1e-12)


class TestSeq2SeqLoss:
    def test_certainty_gives_zero_loss(self):
        lm = FixedProbsLM([1.0, 1.0])
        batch = [(make_instance(), spec(), "golden yolk")]
        assert seq2seq_loss(batch, lm).loss == pytest.approx(0.0, abs=1e-12)

    def test_equals_mean_candidate_nll(self):
        lm = UniformLM(23)
        instances = [make_instance(), make_instance()]
        batch = [(i, spec(), "soft golden curds") for i in instances]
        result = seq2seq_loss(batch, lm)
        nlls = [
            score_candidate(compose_input_sequence(i, spec()), "soft golden curds", lm).nll
            for i in instances
        ]
        assert result.loss == pytest.approx(sum(nlls) / len(nlls), abs=1e-9)

    def test_tp_mode_adds_two_terms_per_instance(self):
        lm = UniformLM(23)
        batch = [(make_instance(), spec(), "soft curds")] * 3
        result = seq2seq_loss(batch, lm, tp_mode=True)
        assert len(result.terms) == 3 * len(batch)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            seq2seq_loss([], UniformLM(5))


class TestConfigDefaults:
    def test_decoding_and_budget_defaults(self):
        cfg = GenerationConfig()
        assert cfg.nucleus_p == 0.9
        assert cfg.max_visual_features == 15
        assert cfg.max_sequence_length == 64
        assert cfg.learning_rate == 5e-5
        assert cfg.batch_size == 32
        assert cfg.seed == 13
        assert cfg.n_samples == 5
