"""Loading, validation, and indexing of segment-annotated video corpora.

The annotation input is one JSON document per corpus:

    {"videos": [{"video_id": ..., "recipe_id": ..., "segments": [...],
                 "transcript": [...], "media": {...}}]}

plus a recipe index file mapping recipe id to recipe name. Missing media or
transcripts are tolerated: the video is still loaded and flagged so that
downstream stages can skip the affected components instead of aborting.
All timestamps are normalized to float seconds at ingestion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True)
class TranscriptLine:
    t_start: float
    t_end: float
    text: str


@dataclass(frozen=True)
class ObjectAnnotation:
    """A lemmatized object label with its bounding boxes (t, x1, y1, x2, y2)."""

    label: str
    boxes: tuple[tuple[float, float, float, float, float], ...] = ()


@dataclass(frozen=True)
class Segment:
    index: int
    t_start: float
    t_end: float
    sentence: str
    objects: tuple[ObjectAnnotation, ...] = ()

    @property
    def midpoint(self) -> float:
        return (self.t_start + self.t_end) / 2.0


@dataclass(frozen=True)
class MediaRef:
    """Per-segment clip and representative-frame paths.

    Paths are only required to exist on disk when ``resolved`` is set; an
    unresolved MediaRef just records where media would live.
    """

    clip_paths: dict[int, str] = field(default_factory=dict)
    frame_paths: dict[int, str] = field(default_factory=dict)
    resolved: bool = False


@dataclass(frozen=True)
class VideoRecord:
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


@dataclass(frozen=True)
class RecipeIndex:
    entries: dict[str, str]

    def name(self, recipe_id) -> str:
        key = str(recipe_id)
        if key not in self.entries:
            raise UnknownRecipeId(key)
        return self.entries[key]

    def __contains__(self, recipe_id) -> bool:
        return str(recipe_id) in self.entries


@dataclass(frozen=True)
class TranscriptWindow:
    text: str
    lines: tuple[TranscriptLine, ...]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FrameRef:
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


def _read_json(path):
    """The JSON document in ``path``; a file that is not UTF-8 JSON is MalformedAnnotation."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise MalformedAnnotation(path, None, f"not a UTF-8 JSON file: {exc}") from None
    except OSError as exc:  # a directory, say
        raise MalformedAnnotation(path, None, f"not a readable file: {exc}") from None


def load_recipe_index(path) -> RecipeIndex:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise MalformedAnnotation(path, None, "recipe index must be a JSON object")
    entries = {}
    for key, name in raw.items():
        if not isinstance(name, str) or not name:
            raise MalformedAnnotation(path, key, "recipe names must be non-empty strings")
        entries[str(key)] = name
    return RecipeIndex(entries=entries)


def _text(value, what: str, *, empty: bool = False) -> str:
    if not isinstance(value, str) or not (value or empty):
        raise ValueError(f"{what} must be a {'' if empty else 'non-empty '}string, got {value!r}")
    return value


def _parse_objects(raw_objects):
    objects = []
    for obj in raw_objects:
        label = _text(obj.get("label"), "object label")
        boxes = []
        for box in obj.get("boxes", []):
            if len(box) != 5:
                raise ValueError(f"box for {label!r} must be [t,x1,y1,x2,y2]")
            t, x1, y1, x2, y2 = (float(v) for v in box)
            if not (x1 < x2 and y1 < y2):
                raise ValueError(f"degenerate box for {label!r}: {box}")
            boxes.append((t, x1, y1, x2, y2))
        objects.append(ObjectAnnotation(label=label, boxes=tuple(boxes)))
    return tuple(objects)


def _parse_video(raw, index: RecipeIndex, base: Path) -> VideoRecord:
    """One video record; load_corpus names the file and record in what this raises."""
    video_id = _text(raw["video_id"], "video_id")
    recipe_id = str(raw["recipe_id"])
    if recipe_id not in index:
        raise ValueError(f"recipe_id {recipe_id!r} not in recipe index")

    segments = []
    for raw_seg in raw["segments"]:
        seg = Segment(
            index=int(raw_seg["index"]),
            t_start=float(raw_seg["start"]),
            t_end=float(raw_seg["end"]),
            sentence=_text(raw_seg["sentence"], "sentence"),
            objects=_parse_objects(raw_seg.get("objects", [])),
        )
        # finite times: a frame index is computed from them
        if not (-math.inf < seg.t_start < seg.t_end < math.inf):
            raise ValueError(f"segment {seg.index}: start must precede end, both finite")
        segments.append(seg)

    indices = [s.index for s in segments]
    if indices != list(range(1, len(segments) + 1)):
        raise ValueError(f"segment indices must be 1..N contiguous, got {indices}")
    starts = [s.t_start for s in segments]
    if any(a >= b for a, b in zip(starts, starts[1:])):
        raise ValueError("segments not strictly ordered by start time")

    transcript = []
    for raw_line in raw.get("transcript", []) or []:
        line = TranscriptLine(
            t_start=float(raw_line["start"]),
            t_end=float(raw_line["end"]),
            text=_text(raw_line["text"], "transcript text", empty=True),
        )
        if line.t_start > line.t_end:
            raise ValueError(f"transcript line at {line.t_start} ends before it starts")
        transcript.append(line)

    media = None
    raw_media = raw.get("media")
    if raw_media is not None:
        media = MediaRef(
            clip_paths={int(k): v for k, v in (raw_media.get("clips") or {}).items()},
            frame_paths={int(k): v for k, v in (raw_media.get("frames") or {}).items()},
            resolved=bool(raw_media.get("resolved", False)),
        )
        for kind, paths in (("clip", media.clip_paths), ("frame", media.frame_paths)):
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
        video_id=video_id,
        recipe_id=recipe_id,
        segments=tuple(segments),
        transcript=tuple(transcript),
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
    raw = _read_json(annotation_file)
    if not isinstance(raw, dict) or not isinstance(raw.get("videos"), list):
        raise MalformedAnnotation(annotation_file, None, "expected top-level {'videos': [...]}")

    videos = []
    seen = set()
    for i, raw_video in enumerate(raw["videos"]):
        try:
            record = _parse_video(raw_video, recipe_index, Path(annotation_file).parent)
        except KeyError as exc:
            raise MalformedAnnotation(annotation_file, i, f"missing field {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise MalformedAnnotation(annotation_file, i, f"malformed value: {exc}") from None
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
    keeps the choice deterministic and independent of codec details.
    """
    if media is None or segment.index not in media.clip_paths:
        raise MissingClip(f"no clip for segment {segment.index} of video {video_id!r}")
    frame_index = math.floor(fps * (segment.t_end - segment.t_start) / 2.0)
    return FrameRef(
        video_id=video_id,
        segment_index=segment.index,
        frame_index=frame_index,
        timestamp=segment.t_start + frame_index / fps,
        clip_path=media.clip_paths.get(segment.index),
        frame_path=media.frame_paths.get(segment.index),
    )
