import json
import math

import pytest
from hypothesis import given, strategies as st

from actionsense.corpus import (
    DuplicateVideoId,
    InvalidWindow,
    MalformedAnnotation,
    MediaRef,
    MissingClip,
    Segment,
    TranscriptLine,
    VideoRecord,
    load_corpus,
    middle_frame,
    slice_transcript,
)
from actionsense.stubs import fixture_path

ANNOTATIONS = fixture_path("annotations.json")
RECIPES = fixture_path("recipes.json")


def make_video(transcript=(), video_id="v", segments=None):
    segments = segments or (Segment(index=1, t_start=0.0, t_end=10.0, sentence="stir the pot"),)
    return VideoRecord(
        video_id=video_id, recipe_id="r1", segments=tuple(segments), transcript=tuple(transcript)
    )


class TestLoadCorpus:
    def test_blt_fixture(self, corpus):
        video = corpus.video("blt01")
        assert len(video.segments) == 8
        assert corpus.index.name(video.recipe_id) == "BLT"

    def test_empty_annotation_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"videos": []}))
        assert load_corpus(path, RECIPES) == []

    def test_segment_counts_match_manual_recount(self):
        with open(ANNOTATIONS, encoding="utf-8") as fh:
            raw = json.load(fh)
        expected = {v["video_id"]: len(v["segments"]) for v in raw["videos"]}
        loaded = load_corpus(ANNOTATIONS, RECIPES)
        assert len(loaded) == 5
        assert {v.video_id: len(v.segments) for v in loaded} == expected

    def test_duplicate_video_id(self, tmp_path):
        with open(ANNOTATIONS, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["videos"].append(raw["videos"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DuplicateVideoId):
            load_corpus(path, RECIPES)

    def test_malformed_segment_names_record(self, tmp_path):
        with open(ANNOTATIONS, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["videos"][1]["segments"][0]["end"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(MalformedAnnotation) as excinfo:
            load_corpus(path, RECIPES)
        assert excinfo.value.record_index == 1
        assert str(path) in str(excinfo.value)

    def test_missing_media_flagged_not_fatal(self, corpus):
        video = corpus.video("egg01")
        assert "no_media" in video.flags
        assert "no_transcript" in video.flags

    def test_resolved_media_that_exists_loads(self, tmp_path):
        raw = json.loads(ANNOTATIONS.read_text(encoding="utf-8"))
        clip = tmp_path / "clip_01.mp4"
        clip.write_bytes(b"")
        raw["videos"][0]["media"] = {"clips": {"1": str(clip)}, "resolved": True}
        path = tmp_path / "resolved.json"
        path.write_text(json.dumps(raw))
        video = load_corpus(path, RECIPES)[0]
        assert video.media.resolved and video.media.clip_paths == {1: str(clip)}

    def test_relative_resolved_media_is_found_beside_the_annotations(self, tmp_path, monkeypatch):
        raw = json.loads(ANNOTATIONS.read_text(encoding="utf-8"))
        (tmp_path / "corpus" / "media").mkdir(parents=True)
        (tmp_path / "corpus" / "media" / "c1.mp4").write_bytes(b"")
        raw["videos"][0]["media"] = {"clips": {"1": "media/c1.mp4"}, "resolved": True}
        path = tmp_path / "corpus" / "annotations.json"
        path.write_text(json.dumps(raw))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        video = load_corpus(path, RECIPES)[0]
        assert video.media.clip_paths == {1: "media/c1.mp4"}


class TestSliceTranscript:
    def test_zero_length_window_is_empty(self):
        video = make_video([TranscriptLine(0, 5, "a"), TranscriptLine(5, 10, "b")])
        window = slice_transcript(video, 3.0, 3.0)
        assert window.text == "" and window.lines == ()

    def test_overlapping_lines_returned_in_order(self):
        video = make_video([TranscriptLine(0, 5, "first"), TranscriptLine(5, 10, "second")])
        window = slice_transcript(video, 4.0, 6.0)
        assert [l.text for l in window.lines] == ["first", "second"]
        assert window.text == "first second"

    def test_no_transcript_flag(self):
        window = slice_transcript(make_video(), 0.0, 100.0)
        assert window.text == ""
        assert "no_transcript" in window.flags

    def test_invalid_window(self):
        with pytest.raises(InvalidWindow):
            slice_transcript(make_video(), 5.0, 1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=500, allow_nan=False),
                st.floats(min_value=0.1, max_value=50, allow_nan=False),
            ),
            max_size=20,
        )
    )
    def test_full_window_returns_every_line_once_in_order(self, spans):
        lines = sorted(
            (TranscriptLine(s, s + d, f"line{i}") for i, (s, d) in enumerate(spans)),
            key=lambda l: (l.t_start, l.t_end),
        )
        video = make_video(lines)
        window = slice_transcript(video, 0.0, math.inf)
        assert list(window.lines) == list(lines)


class TestMiddleFrame:
    def test_ten_second_clip_at_30fps(self):
        segment = Segment(index=1, t_start=0.0, t_end=10.0, sentence="x")
        media = MediaRef(clip_paths={1: "clip.mp4"})
        frame = middle_frame(media, segment, fps=30.0)
        assert frame.frame_index == 150
        assert frame.timestamp == pytest.approx(5.0)

    def test_single_frame_clip(self):
        segment = Segment(index=1, t_start=0.0, t_end=0.05, sentence="x")
        frame = middle_frame(MediaRef(clip_paths={1: "c"}), segment, fps=30.0)
        assert frame.frame_index == 0

    def test_missing_clip(self):
        segment = Segment(index=2, t_start=0.0, t_end=1.0, sentence="x")
        with pytest.raises(MissingClip):
            middle_frame(MediaRef(clip_paths={1: "c"}), segment)

    @given(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0.01, max_value=600, allow_nan=False),
        st.floats(min_value=1, max_value=60, allow_nan=False),
    )
    def test_timestamp_inside_segment(self, start, duration, fps):
        segment = Segment(index=1, t_start=start, t_end=start + duration, sentence="x")
        frame = middle_frame(MediaRef(clip_paths={1: "c"}), segment, fps=fps)
        assert segment.t_start <= frame.timestamp <= segment.t_end


class TestValidateCorpus:
    def test_unavailable_media_flagged_not_fatal(self, corpus):
        assert "no_media" in corpus.video("egg01").flags


class TestZeroLengthLines:
    def test_zero_length_line_included_when_inside_window(self):
        video = make_video([TranscriptLine(5.0, 5.0, "blip")])
        assert slice_transcript(video, 0.0, 10.0).text == "blip"
        assert slice_transcript(video, 6.0, 10.0).text == ""
