"""Loading, validation, and indexing of segment-annotated video corpora.

The annotation input is one JSON document per corpus:

    {"videos": [{"video_id": ..., "recipe_id": ..., "segments": [...],
                 "transcript": [...], "media": {...}}]}

plus a recipe index file mapping recipe id to recipe name. Missing media or
transcripts are tolerated: the video is still loaded and flagged so that
downstream stages can skip the affected components instead of aborting.
All times are finite JSON numbers of seconds.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import shapes
from .shapes import NUMBER, STRING, TEXT

DEFAULT_FPS = 30.0

FLAG_NO_TRANSCRIPT = "no_transcript"
FLAG_NO_MEDIA = "no_media"


class MalformedAnnotation(Exception):
    """Annotation file violates the corpus schema."""

    def __init__(self, path, record_index, message):
        self.path = str(path)
        self.record_index = record_index
        super().__init__(f"{path} (record {record_index}): {message}")


class DuplicateVideoId(MalformedAnnotation):
    pass


class UnknownRecipeId(KeyError):
    pass


class InvalidWindow(Exception):
    pass


class MissingClip(Exception):
    pass


class TranscriptLine(NamedTuple):
    t_start: float
    t_end: float
    text: str


class ObjectAnnotation(NamedTuple):
    """A lemmatized object label with its bounding boxes (t, x1, y1, x2, y2)."""

    label: str
    boxes: tuple[tuple[float, float, float, float, float], ...] = ()


class Segment(NamedTuple):
    index: int
    t_start: float
    t_end: float
    sentence: str
    objects: tuple[ObjectAnnotation, ...] = ()

    @property
    def midpoint(self) -> float:
        return (self.t_start + self.t_end) / 2.0


class MediaRef(NamedTuple):
    """Per-segment clip and representative-frame paths.

    Paths are only required to exist on disk when ``resolved`` is set; an
    unresolved MediaRef just records where media would live.
    """

    clip_paths: dict[int, str] = {}  # a default {} is shared by every MediaRef: never mutate it
    frame_paths: dict[int, str] = {}
    resolved: bool = False


class VideoRecord(NamedTuple):
    video_id: str
    recipe_id: str
    segments: tuple[Segment, ...]
    transcript: tuple[TranscriptLine, ...] = ()
    media: MediaRef | None = None
    flags: tuple[str, ...] = ()

    def segment(self, index: int) -> Segment:
        for seg in self.segments:
            if seg.index == index:
                return seg
        raise KeyError(f"video {self.video_id} has no segment {index}")


class RecipeIndex(NamedTuple):
    entries: dict[str, str]

    def name(self, recipe_id: str) -> str:
        if recipe_id not in self.entries:
            raise UnknownRecipeId(recipe_id)
        return self.entries[recipe_id]


class TranscriptWindow(NamedTuple):
    text: str
    lines: tuple[TranscriptLine, ...]
    flags: tuple[str, ...] = ()


class FrameRef(NamedTuple):
    """A single decodable frame inside a segment clip."""

    video_id: str
    segment_index: int
    frame_index: int
    timestamp: float
    clip_path: str | None = None
    frame_path: str | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.video_id, self.segment_index)


@dataclass(frozen=True)
class Corpus:
    """An immutable loaded corpus: video records plus the recipe index."""

    videos: tuple[VideoRecord, ...]
    index: RecipeIndex

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {v.video_id: v for v in self.videos})

    def video(self, video_id: str) -> VideoRecord:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise KeyError(f"unknown video id {video_id!r}") from None

    @classmethod
    def load(cls, annotation_file, recipe_index_file) -> "Corpus":
        index = load_recipe_index(recipe_index_file)
        return cls(videos=tuple(load_corpus(annotation_file, index)), index=index)


def _read_json(path, shape):
    """The JSON document in ``path``, if it has ``shape``; else MalformedAnnotation says why."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # a directory, not JSON, not UTF-8
        raise MalformedAnnotation(path, None, f"not a UTF-8 JSON file: {exc}") from None
    try:
        return shapes.check(raw, shape)
    except ValueError as exc:
        raise MalformedAnnotation(path, None, str(exc)) from None


def load_recipe_index(path) -> RecipeIndex:
    return RecipeIndex(entries=_read_json(path, _RECIPES))


# an annotation file and one video record in it; keys of clips and frames are segment indices
_BOX = shapes.tuple_of("[t,x1,y1,x2,y2]", *[NUMBER] * 5)
_SEGMENT_KEY = re.compile("[1-9][0-9]*").fullmatch  # ASCII, no leading 0: one key per segment
_PATHS = shapes.nullable(shapes.dict_of(STRING, "an object keyed by segment index", _SEGMENT_KEY))
_VIDEO = shapes.obj({
    "video_id": TEXT,
    "recipe_id": shapes.kind("a string or an integer", lambda v: type(v) in (str, int)),
    "segments": [{
        "index": shapes.INT, "start": NUMBER, "end": NUMBER, "sentence": TEXT,
        "objects?": [{"label": TEXT, "boxes?": [_BOX]}],
    }],
    "transcript?": shapes.nullable([{"start": NUMBER, "end": NUMBER, "text": STRING}]),
    "media?": shapes.nullable({"clips?": _PATHS, "frames?": _PATHS, "resolved?": shapes.BOOL}),
})
_ANNOTATIONS = shapes.obj({"videos": shapes.LIST})
_RECIPES = shapes.dict_of(TEXT)


def _parse_objects(raw_segment) -> tuple[ObjectAnnotation, ...]:
    objects = tuple(
        ObjectAnnotation(o["label"], tuple(map(tuple, o.get("boxes", []))))
        for o in raw_segment.get("objects", [])
    )
    for obj in objects:
        for box in obj.boxes:
            if not (box[1] < box[3] and box[2] < box[4]):  # x1 < x2 and y1 < y2
                raise ValueError(f"degenerate box for {obj.label!r}: {list(box)}")
    return objects


def _parse_video(raw, index: RecipeIndex, base: Path) -> VideoRecord:
    """One video record; load_corpus names the file and record in what this raises."""
    shapes.check(raw, _VIDEO)
    recipe_id = str(raw["recipe_id"])
    if recipe_id not in index.entries:
        raise ValueError(f"recipe_id {recipe_id!r} not in recipe index")

    segments = tuple(
        Segment(s["index"], s["start"], s["end"], s["sentence"], _parse_objects(s))
        for s in raw["segments"]
    )
    for seg in segments:
        if not seg.t_start < seg.t_end:
            raise ValueError(f"segment {seg.index}: start must precede end")
    indices = [s.index for s in segments]
    if indices != list(range(1, len(segments) + 1)):
        raise ValueError(f"segment indices must be 1..N contiguous, got {indices}")
    starts = [s.t_start for s in segments]
    if any(a >= b for a, b in zip(starts, starts[1:])):
        raise ValueError("segments not strictly ordered by start time")

    transcript = tuple(
        TranscriptLine(t["start"], t["end"], t["text"]) for t in raw.get("transcript") or []
    )
    for line in transcript:
        if line.t_start > line.t_end:
            raise ValueError(f"transcript line at {line.t_start} ends before it starts")

    media = None
    raw_media = raw.get("media")
    if raw_media is not None:
        media = MediaRef(
            clip_paths={int(k): v for k, v in (raw_media.get("clips") or {}).items()},
            frame_paths={int(k): v for k, v in (raw_media.get("frames") or {}).items()},
            resolved=raw_media.get("resolved", False),
        )
        for kind, paths in (("clip", media.clip_paths), ("frame", media.frame_paths)):
            if paths and max(paths) > len(segments):
                raise shapes.error(f"media.{kind}s", _PATHS.must, raw_media[f"{kind}s"])
            for path in paths.values():
                # relative to ``base``, the annotation file's directory
                if media.resolved and not (base / path).exists():
                    raise ValueError(f"resolved {kind} path missing: {path}")

    flags = []
    if not transcript:
        flags.append(FLAG_NO_TRANSCRIPT)
    if media is None or not media.clip_paths:
        flags.append(FLAG_NO_MEDIA)

    return VideoRecord(
        video_id=raw["video_id"],
        recipe_id=recipe_id,
        segments=segments,
        transcript=transcript,
        media=media,
        flags=tuple(flags),
    )


def load_corpus(annotation_file, recipe_index) -> list[VideoRecord]:
    """Load and validate a corpus annotation file against its recipe index.

    ``recipe_index`` is a loaded RecipeIndex or the path of its file. Videos
    with missing media or transcripts load fine and come back flagged. Schema
    violations, a missing field or a value of the wrong type included, raise
    MalformedAnnotation naming the file and record.
    """
    if not isinstance(recipe_index, RecipeIndex):
        recipe_index = load_recipe_index(recipe_index)
    raw = _read_json(annotation_file, _ANNOTATIONS)

    videos = []
    seen = set()
    for i, raw_video in enumerate(raw["videos"]):
        try:
            record = _parse_video(raw_video, recipe_index, Path(annotation_file).parent)
        except ValueError as exc:
            raise MalformedAnnotation(annotation_file, i, str(exc)) from None
        if record.video_id in seen:
            raise DuplicateVideoId(annotation_file, i, f"duplicate video_id {record.video_id!r}")
        seen.add(record.video_id)
        videos.append(record)
    return videos


def slice_transcript(video: VideoRecord, t0: float, t1: float) -> TranscriptWindow:
    """Return transcript lines overlapping [t0, t1), concatenated in time order."""
    if t0 > t1:
        raise InvalidWindow(f"t0={t0} > t1={t1}")
    if not video.transcript:
        return TranscriptWindow(text="", lines=(), flags=(FLAG_NO_TRANSCRIPT,))
    if t0 == t1:
        return TranscriptWindow(text="", lines=())
    picked = []
    for line in sorted(video.transcript, key=lambda l: (l.t_start, l.t_end)):
        if line.t_start == line.t_end:
            if t0 <= line.t_start < t1:
                picked.append(line)
        elif line.t_start < t1 and line.t_end > t0:
            picked.append(line)
    return TranscriptWindow(text=" ".join(l.text for l in picked), lines=tuple(picked))


def middle_frame(
    media: MediaRef | None,
    segment: Segment,
    *,
    fps: float = DEFAULT_FPS,
    video_id: str = "",
) -> FrameRef:
    """Pick the frame nearest the segment midpoint, flooring to a frame index.

    The index is clip-relative: floor(fps * (midpoint - t_start)). Flooring
    keeps the choice deterministic and independent of codec details. A
    segment so long that this overflows a float raises InvalidWindow.
    """
    if media is None or segment.index not in media.clip_paths:
        raise MissingClip(f"no clip for segment {segment.index} of video {video_id!r}")
    frames = fps * (segment.t_end - segment.t_start) / 2.0
    if not math.isfinite(frames):
        raise InvalidWindow(
            f"video {video_id!r} segment {segment.index}: {segment.t_start}..{segment.t_end} s"
            f" is too long to index a frame at {fps} fps"
        )
    frame_index = math.floor(frames)
    return FrameRef(
        video_id=video_id,
        segment_index=segment.index,
        frame_index=frame_index,
        timestamp=segment.t_start + frame_index / fps,
        clip_path=media.clip_paths.get(segment.index),
        frame_path=media.frame_paths.get(segment.index),
    )
