import pytest

from actionsense.assembly import (
    build_instance,
    compute_statistics,
    effect_questions,
    effects_from_answers,
    form_action_object_pair,
    form_before_after,
    form_goal,
    form_preconditions,
    form_textual_description,
    instance_from_dict,
    instance_to_dict,
    merge_by_action_object,
    normalize_phrase,
    simple_lemma,
)
from actionsense.corpus import (
    Corpus,
    ObjectAnnotation,
    RecipeIndex,
    Segment,
    UnknownRecipeId,
    VideoRecord,
    slice_transcript,
)
from actionsense.triplets import EventRef, SegmentTriplet


def find_triplet(triplets, video_id, current_verb):
    for t in triplets:
        if t.video_id == video_id and t.current.verb == current_verb:
            return t
    raise AssertionError(f"no triplet {video_id}/{current_verb}")


def egg_triplet():
    return SegmentTriplet(
        ingredient="egg",
        past=EventRef("egg01", 1, "crack", "egg"),
        current=EventRef("egg01", 2, "whisk", "egg"),
        future=EventRef("egg01", 3, "pour", "egg"),
    )


@pytest.fixture(scope="module")
def instances(corpus, fixture_triplets, rc_provider, resolved):
    return [
        build_instance(t, corpus, rc=rc_provider, resolved=resolved)
        for t in fixture_triplets
    ]


class TestLemmaHelpers:
    @pytest.mark.parametrize(
        "word,lemma",
        [("tomatoes", "tomato"), ("eggs", "egg"), ("knives", "knife"),
         ("berries", "berry"), ("dishes", "dish"), ("glass", "glass"), ("bacon", "bacon")],
    )
    def test_simple_lemma(self, word, lemma):
        assert simple_lemma(word) == lemma

    def test_normalize_phrase(self):
        assert normalize_phrase("the Golden, Potatoes!") == "the golden potato"


def _mini_corpus(sentence, objects):
    video = VideoRecord(
        video_id="mini",
        recipe_id="r",
        segments=(
            Segment(1, 0.0, 5.0, "start here"),
            Segment(2, 6.0, 10.0, sentence, objects=objects),
            Segment(3, 11.0, 15.0, "finish up"),
        ),
    )
    return Corpus(videos=(video,), index=RecipeIndex({"r": "Mini Dish"}))


def _mini_triplet(ingredient="counter"):
    return SegmentTriplet(
        ingredient=ingredient,
        past=EventRef("mini", 1, "start", ingredient),
        current=EventRef("mini", 2, "wipe", ingredient),
        future=EventRef("mini", 3, "finish", ingredient),
    )


class TestTextualDescription:
    def test_cracking_sentence_grounds_both_objects(self):
        corpus = _mini_corpus(
            "cracking the egg using a fork",
            objects=(ObjectAnnotation("egg"), ObjectAnnotation("fork")),
        )
        grounded = form_textual_description(_mini_triplet("egg"), corpus)
        assert grounded.template == "cracking [Object1] using [Object2]"
        assert grounded.bindings["[Object1]"].label == "egg"
        assert grounded.bindings["[Object2]"].label == "fork"
        assert grounded.image_only_tags == frozenset()

    def test_no_annotated_objects_leaves_text_unchanged(self):
        corpus = _mini_corpus("wipe the counter clean", objects=())
        grounded = form_textual_description(_mini_triplet(), corpus)
        assert grounded.template == "wipe the counter clean"
        assert grounded.bindings == {}

    def test_repeated_mention_reuses_tag(self):
        corpus = _mini_corpus(
            "Assemble the sandwich and cut the sandwich in half",
            objects=(ObjectAnnotation("sandwich"), ObjectAnnotation("knife")),
        )
        grounded = form_textual_description(_mini_triplet("sandwich"), corpus)
        assert grounded.template == "Assemble [Object1] and cut [Object1] in half"
        assert grounded.bindings["[Object1]"].label == "sandwich"
        # knife is annotated but unmentioned: bound image-only
        assert grounded.bindings["[Object2]"].label == "knife"
        assert "[Object2]" in grounded.image_only_tags

    def test_multiword_label_matches_span(self):
        corpus = _mini_corpus(
            "cut it on the chopping board",
            objects=(ObjectAnnotation("chopping board"),),
        )
        grounded = form_textual_description(_mini_triplet(), corpus)
        assert grounded.template == "cut it on [Object1]"

    def test_resolved_sentence_preferred(self):
        corpus = _mini_corpus("chop it finely", objects=(ObjectAnnotation("onion"),))
        grounded = form_textual_description(
            _mini_triplet("onion"), corpus, resolved={("mini", 2): "chop the onions finely"}
        )
        assert grounded.template == "chop [Object1] finely"


class TestActionObjectPair:
    def test_crack_egg(self):
        triplet = SegmentTriplet(
            ingredient="egg",
            past=EventRef("egg01", 1, "crack", "egg"),
            current=EventRef("egg01", 2, "crack", "egg"),
            future=EventRef("egg01", 3, "pour", "egg"),
        )
        assert form_action_object_pair(triplet) == ("crack", "egg")

    def test_primary_verb_is_first_in_sentence_order(self):
        current = EventRef("v", 2, "grill", "tomato", extra_verbs=("put",))
        triplet = SegmentTriplet(
            ingredient="tomato",
            past=EventRef("v", 1, "wash", "tomato"),
            current=current,
            future=EventRef("v", 3, "serve", "tomato"),
        )
        assert form_action_object_pair(triplet) == ("grill", "tomato")

    def test_identity_with_current_event(self, fixture_triplets):
        for triplet in fixture_triplets:
            verb, noun = form_action_object_pair(triplet)
            assert (verb, noun) == (triplet.current.verb, triplet.current.ingredient)


class TestGoal:
    def test_blt_templates(self, corpus, fixture_triplets):
        triplet = find_triplet(fixture_triplets, "blt01", "cook")
        assert form_goal(triplet, corpus) == {"Make BLT", "Cook BLT", "Prepare BLT"}

    def test_unknown_recipe_id(self, corpus, fixture_triplets):
        triplet = find_triplet(fixture_triplets, "blt01", "cook")
        videos = tuple(
            v if v.video_id != "blt01" else VideoRecord(
                video_id=v.video_id, recipe_id="r999", segments=v.segments,
                transcript=v.transcript, media=v.media, flags=v.flags,
            )
            for v in corpus.videos
        )
        broken = Corpus(videos=videos, index=corpus.index)
        with pytest.raises(UnknownRecipeId) as excinfo:
            form_goal(triplet, broken)
        assert "r999" in str(excinfo.value)


class TestPreconditions:
    def test_peel_then_cut_potato(self, corpus, fixture_triplets):
        triplet = find_triplet(fixture_triplets, "mash01", "cut")
        assert form_preconditions(triplet, corpus) == {
            "potato", "peeler", "knife", "chopping board",
        }

    def test_objectless_segments_yield_empty_set(self):
        corpus = _mini_corpus("wipe the counter clean", objects=())
        assert form_preconditions(_mini_triplet(), corpus) == frozenset()

    def test_union_matches_label_oracle(self, corpus, fixture_triplets):
        for triplet in fixture_triplets:
            video = corpus.video(triplet.video_id)
            expected = set()
            for idx in (triplet.past.segment_index, triplet.current.segment_index):
                expected |= {o.label for o in video.segment(idx).objects}
            assert form_preconditions(triplet, corpus) == expected


def effects(triplet, corpus, rc):
    """The effects in ``rc``'s answers to the triplet's effect questions, which it has."""
    questions = effect_questions(triplet, corpus)
    assert questions
    return effects_from_answers(rc.answer_many(questions))


class TestEffects:
    def test_golden_and_crisp(self, corpus, fixture_triplets, rc_provider):
        triplet = find_triplet(fixture_triplets, "boxty01", "fry")
        assert effects(triplet, corpus, rc_provider) == {"golden", "crisp"}

    def test_empty_window_yields_empty_set(self, corpus, fixture_triplets):
        triplet = find_triplet(fixture_triplets, "boxty01", "mix")
        assert effect_questions(triplet, corpus) == []

    def test_canned_table_exact_set(self, corpus, fixture_triplets, rc_provider):
        triplet = find_triplet(fixture_triplets, "blt01", "cook")
        assert effects(triplet, corpus, rc_provider) == {"brown", "crispy"}

    def test_answer_filtering(self, corpus, fixture_triplets):
        class Wordy:
            def answer_many(self, items):
                return [self.answer(context, q) for context, q in items]

            def answer(self, context, question):
                if question.startswith("What color"):
                    return "the bacon turns brown"  # 4 tokens, kept after split
                if question.startswith("What texture"):
                    return "now cook the bacon nice and slow"  # too long
                return None

        triplet = find_triplet(fixture_triplets, "blt01", "cook")
        assert effects(triplet, corpus, Wordy()) == {"the bacon turns brown"}

    def test_effects_are_substrings_of_window(self, corpus, fixture_triplets, rc_provider):
        for triplet in fixture_triplets:
            video = corpus.video(triplet.video_id)
            window = slice_transcript(
                video,
                video.segment(triplet.current.segment_index).t_start,
                video.segment(triplet.future.segment_index).t_start,
            )
            if window.text:
                for effect in effects(triplet, corpus, rc_provider):
                    assert effect in window.text


class TestBeforeAfter:
    def test_bacon_triplet(self, corpus, fixture_triplets, resolved):
        triplet = find_triplet(fixture_triplets, "blt01", "cook")
        before, after = form_before_after(triplet, corpus, resolved)
        assert "fry the bacon" in before
        assert after == "Place the bacon on the bread"

    def test_before_matches_corpus_sentence(self, corpus, fixture_triplets):
        for triplet in fixture_triplets:
            before, after = form_before_after(triplet, corpus)
            video = corpus.video(triplet.video_id)
            assert before == video.segment(triplet.past.segment_index).sentence
            assert after == video.segment(triplet.future.segment_index).sentence

    def test_resolved_lookup_oracle(self, corpus, fixture_triplets, resolved):
        for triplet in fixture_triplets:
            before, after = form_before_after(triplet, corpus, resolved)
            assert before == resolved[(triplet.video_id, triplet.past.segment_index)]
            assert after == resolved[(triplet.video_id, triplet.future.segment_index)]


class TestBuildInstance:
    def test_current_event_image_is_segment_midpoint_frame(self, instances):
        cook_bacon = next(i for i in instances if i.action_object == ("cook", "bacon"))
        image = cook_bacon.image
        # segment 2 spans [10, 18] so the midpoint frame at 30 fps is index 120
        assert image.segment_index == 2
        assert image.frame_index == 120
        assert image.timestamp == pytest.approx(14.0)

    def test_videos_without_media_yield_text_only_instances(self, instances):
        for inst in instances:
            if inst.provenance[0].video_id == "egg01":
                assert inst.image is None
                assert "text-only" in inst.flags


class TestMerge:
    def test_mash_potato_merges_three_recipes(self, instances):
        merged = merge_by_action_object(instances)
        mash = [i for i in merged if i.action_object == ("mash", "potato")]
        assert len(mash) == 1
        goals = mash[0].goals
        assert {"Make Shepherd's Pie", "Make Mashed Potato", "Make Boxty"} <= goals
        assert len(mash[0].provenance) == 3

    def test_single_source_pair_is_identity(self, instances):
        merged = {i.action_object: i for i in merge_by_action_object(instances)}
        single = [i for i in instances if i.action_object == ("cook", "bacon")]
        assert merged[("cook", "bacon")] == single[0]

    def test_merged_sets_equal_group_by_oracle(self, instances):
        merged = {i.action_object: i for i in merge_by_action_object(instances)}
        oracle = {}
        for inst in instances:
            bucket = oracle.setdefault(inst.action_object, {"goals": set(), "pre": set()})
            bucket["goals"] |= inst.goals
            bucket["pre"] |= inst.preconditions
        for pair, expected in oracle.items():
            assert merged[pair].goals == expected["goals"]
            assert merged[pair].preconditions == expected["pre"]

    def test_idempotent(self, instances):
        once = merge_by_action_object(instances)
        assert merge_by_action_object(once) == once

    def test_order_insensitive_sets(self, instances):
        forward = {i.action_object: i for i in merge_by_action_object(instances)}
        backward = {i.action_object: i for i in merge_by_action_object(instances[::-1])}
        for pair, inst in forward.items():
            other = backward[pair]
            assert inst.goals == other.goals
            assert inst.preconditions == other.preconditions
            assert inst.effects == other.effects
            assert inst.before_events == other.before_events
            assert inst.after_events == other.after_events


class TestStatistics:
    def test_empty_dataset_all_zero(self):
        report = compute_statistics([])
        assert all(value == 0 for _, value in report.rows())

    def test_fixture_counts_match_recount_oracle(self, instances):
        merged = merge_by_action_object(instances)
        report = compute_statistics(merged)
        videos, frames, descriptions, triplet_count = set(), set(), set(), 0
        for inst in merged:
            for entry in inst.provenance:
                videos.add(entry.video_id)
                descriptions.add((entry.video_id, entry.triplet.current.segment_index))
                if entry.image is not None:
                    frames.add((entry.image.video_id, entry.image.segment_index))
                triplet_count += 1
        assert report.videos == len(videos)
        assert report.images == len(frames)
        assert report.textual_descriptions == len(descriptions)
        assert report.recipe_types == 5
        assert report.goals == sum(len(i.goals) for i in merged)
        assert report.preconditions == sum(len(i.preconditions) for i in merged)
        assert report.effects == sum(len(i.effects) for i in merged)
        assert report.before_events == triplet_count

    def test_before_equals_after_equals_triplet_count(self, instances, fixture_triplets):
        report = compute_statistics(merge_by_action_object(instances))
        assert report.before_events == report.after_events == len(fixture_triplets)


class TestInstanceSerialization:
    def test_round_trip(self, instances):
        for inst in merge_by_action_object(instances):
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_before_after_strictly_ordered(self, instances):
        for inst in instances:
            for entry in inst.provenance:
                t = entry.triplet
                assert t.past.segment_index < t.current.segment_index < t.future.segment_index
