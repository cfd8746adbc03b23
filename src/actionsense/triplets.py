"""Grouping mined events by ingredient and windowing them into triplets.

An ingredient occurring in K segments of a video yields exactly max(0, K-2)
adjoining (past, current, future) triplets, one per consecutive window of
three occurrences. Triplets never span videos.
"""

import json
from typing import NamedTuple

from . import shapes
from .atomic import write_atomic


class EventRef(NamedTuple):
    """One ingredient occurrence in one segment.

    When several verbs act on the ingredient in the same segment they are
    collapsed into a single event: ``verb`` is the first verb in sentence
    order and the rest ride along in ``extra_verbs``.
    """

    video_id: str
    segment_index: int
    verb: str
    ingredient: str
    extra_verbs: tuple[str, ...] = ()

    @property
    def all_verbs(self) -> tuple[str, ...]:
        return (self.verb, *self.extra_verbs)

    def to_dict(self) -> dict:
        return {
            "segment_index": self.segment_index,
            "verb": self.verb,
            "extra_verbs": list(self.extra_verbs),
        }

    @classmethod
    def from_dict(cls, raw: dict, video_id: str, ingredient: str) -> "EventRef":
        return cls(
            video_id=video_id,
            segment_index=raw["segment_index"],
            verb=raw["verb"],
            ingredient=ingredient,
            extra_verbs=tuple(raw.get("extra_verbs", [])),
        )


@shapes.checked
class SegmentTriplet(NamedTuple):
    ingredient: str
    past: EventRef
    current: EventRef
    future: EventRef

    def _check(self) -> None:
        events = (self.past, self.current, self.future)
        if len({e.video_id for e in events}) != 1:
            raise ValueError("triplet events must come from one video")
        if not (self.past.segment_index < self.current.segment_index < self.future.segment_index):
            raise ValueError("triplet events must be strictly ordered by segment")
        if any(e.ingredient != self.ingredient for e in events):
            raise ValueError("triplet events must share the ingredient")

    @property
    def video_id(self) -> str:
        return self.current.video_id

    def to_dict(self) -> dict:
        return {
            "ingredient": self.ingredient,
            "video_id": self.video_id,
            "past": self.past.to_dict(),
            "current": self.current.to_dict(),
            "future": self.future.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SegmentTriplet":
        video_id = raw["video_id"]
        ingredient = raw["ingredient"]
        return cls(
            ingredient=ingredient,
            past=EventRef.from_dict(raw["past"], video_id, ingredient),
            current=EventRef.from_dict(raw["current"], video_id, ingredient),
            future=EventRef.from_dict(raw["future"], video_id, ingredient),
        )


# an event and a triplet as to_dict writes them; from_dict trusts a value of these shapes
EVENT = {"segment_index": shapes.INT, "verb": shapes.STRING, "extra_verbs?": [shapes.STRING]}
TRIPLET = shapes.obj({"ingredient": shapes.STRING, "video_id": shapes.STRING,
                     **dict.fromkeys(("past", "current", "future"), EVENT)})


def events_from_pairs(pairs) -> list[EventRef]:
    """Turn frequency-filtered pairs into events, one per pair, in input order."""
    return [
        EventRef(
            video_id=p.video_id,
            segment_index=p.segment_index,
            verb=p.verb,
            ingredient=p.ingredient,
        )
        for p in pairs
    ]


def group_by_ingredient(events) -> dict[str, dict[str, list[EventRef]]]:
    """Bucket events by ingredient then video, collapsed to one per segment.

    Within each bucket events are sorted ascending by segment index; for
    repeated (segment, ingredient) occurrences the sort is stable and verbs
    merge in first-seen order.
    """
    merged: dict[tuple[str, str, int], EventRef] = {}
    order: list[tuple[str, str, int]] = []
    for event in events:
        key = (event.ingredient, event.video_id, event.segment_index)
        if key not in merged:
            merged[key] = event
            order.append(key)
        else:
            existing = merged[key]
            new_verbs = [v for v in event.all_verbs if v not in existing.all_verbs]
            if new_verbs:
                merged[key] = EventRef(
                    video_id=existing.video_id,
                    segment_index=existing.segment_index,
                    verb=existing.verb,
                    ingredient=existing.ingredient,
                    extra_verbs=existing.extra_verbs + tuple(new_verbs),
                )

    buckets: dict[str, dict[str, list[EventRef]]] = {}
    for key in order:
        ingredient, video_id, _ = key
        buckets.setdefault(ingredient, {}).setdefault(video_id, []).append(merged[key])
    for per_video in buckets.values():
        for video_id in per_video:
            per_video[video_id] = sorted(per_video[video_id], key=lambda e: e.segment_index)
    return buckets


def build_adjoining_triplets(bucket: list[EventRef]) -> list[SegmentTriplet]:
    """Consecutive windows of three over one sorted ingredient+video bucket."""
    return [
        SegmentTriplet(ingredient=a.ingredient, past=a, current=b, future=c)
        for a, b, c in zip(bucket, bucket[1:], bucket[2:])
    ]


def all_triplets(buckets: dict[str, dict[str, list[EventRef]]]) -> list[SegmentTriplet]:
    out = []
    for per_video in buckets.values():
        for bucket in per_video.values():
            out.extend(build_adjoining_triplets(bucket))
    return out


def write_triplets(triplets, path) -> None:
    write_atomic(path, (json.dumps(t.to_dict(), ensure_ascii=False) + "\n" for t in triplets))


def read_triplets(path) -> list[SegmentTriplet]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(SegmentTriplet.from_dict(shapes.check(json.loads(line), TRIPLET)))
    return out
