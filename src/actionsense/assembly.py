"""Building full commonsense instances from segment triplets.

Each triplet becomes one record carrying the grounded description of the
current event, its action-object pair, and the five inference sets (goals,
preconditions, effects, before events, after events). Records sharing an
action-object pair are then merged across videos so that one pair accumulates
the plausible inferences from every recipe it occurs in.
"""

import json
import re
import string
from functools import cache
from typing import Mapping, NamedTuple, Protocol, Sequence

from . import shapes
from .atomic import write_atomic
from .corpus import FLAG_NO_TRANSCRIPT, Corpus, FrameRef, ObjectAnnotation
from .corpus import middle_frame, slice_transcript
from .shapes import INT, NUMBER, STRING, TEXT
from .triplets import TRIPLET, SegmentTriplet

GOAL_TEMPLATES = ("Make {}", "Cook {}", "Prepare {}")

# One question per surface attribute the narration typically describes.
EFFECT_QUESTIONS = (
    ("color", "What color is {}?"),
    ("texture", "What texture is {}?"),
    ("shape", "What shape is {}?"),
    ("attribute", "What attribute is related to {}?"),
    ("property", "What property is related to {}?"),
)
MAX_EFFECT_TOKENS = 5

FLAG_TEXT_ONLY = "text-only"
FLAG_NO_OBJECTS = "no_objects"

OBJECT_TAG_RE = re.compile(r"\[Object(\d+)\]")
_DETERMINERS = frozenset({"a", "an", "the", "some"})

_IRREGULAR_NOUNS = {
    "knives": "knife",
    "leaves": "leaf",
    "loaves": "loaf",
    "halves": "half",
    "children": "child",
}


class RCProvider(Protocol):
    """Reading comprehension over ``(context, question)`` items, one answer per item in order.

    An answer is a span of its own item's context, or None.
    """

    def answer_many(self, items: Sequence[tuple[str, str]]) -> list[str | None]: ...


class AnswerTable:
    """A build's RC answers, served again to ``answer_many`` by item."""

    def __init__(self, items: Sequence[tuple[str, str]], answers: Sequence[str | None]):
        self._answers = dict(zip(items, answers, strict=True))

    def answer_many(self, items: Sequence[tuple[str, str]]) -> list[str | None]:
        return [self._answers[item] for item in items]


@cache
def simple_lemma(word: str) -> str:
    """Cheap noun lemmatizer used for mention matching and dedup keys."""
    w = word.lower()
    if w in _IRREGULAR_NOUNS:
        return _IRREGULAR_NOUNS[w]
    if len(w) > 4 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 3 and (
        w.endswith("oes")
        or w.endswith("shes")
        or w.endswith("ches")
        or w.endswith("sses")
        or w.endswith("xes")
        or w.endswith("zes")
    ):
        return w[:-2]
    if len(w) > 3 and w.endswith("s") and not (w.endswith("ss") or w.endswith("us") or w.endswith("is")):
        return w[:-1]
    return w


@cache
def normalize_phrase(text: str) -> str:
    """Dedup key: lowercase, strip punctuation, lemmatize the head word."""
    words = re.sub(r"[^\w\s]", " ", text.lower()).split()
    if not words:
        return ""
    words[-1] = simple_lemma(words[-1])
    return " ".join(words)


@shapes.checked
class GroundedText(NamedTuple):
    """Sentence with object mentions rewritten as numbered tags.

    ``bindings`` maps every assigned tag to its annotation; tags whose object
    never occurs in the text are listed in ``image_only_tags`` and exist only
    for vision grounding.
    """

    template: str
    bindings: dict[str, ObjectAnnotation] = {}  # a default {} is shared: never mutate it
    image_only_tags: frozenset[str] = frozenset()

    def _check(self) -> None:
        for tag in OBJECT_TAG_RE.findall(self.template):
            if f"[Object{tag}]" not in self.bindings:
                raise ValueError(f"template tag [Object{tag}] has no binding")

    def label_bindings(self) -> list[tuple[str, str]]:
        return [(tag, ann.label) for tag, ann in self.bindings.items()]


class ProvenanceEntry(NamedTuple):
    video_id: str
    triplet: SegmentTriplet
    image: FrameRef | None = None


class CommonsenseInstance(NamedTuple):
    instance_id: str
    image: FrameRef | None
    text_description: str
    action_object: tuple[str, str]
    goals: frozenset[str]
    preconditions: frozenset[str]
    effects: frozenset[str]
    before_events: frozenset[str]
    after_events: frozenset[str]
    provenance: tuple[ProvenanceEntry, ...]
    bindings: tuple[tuple[str, str], ...] = ()  # tag -> object label
    flags: tuple[str, ...] = ()

    def inference_set(self, inference_type: str) -> frozenset[str]:
        return getattr(self, SET_FIELDS[inference_type])


# the field holding each inference type's set
SET_FIELDS = {
    "goal": "goals", "precondition": "preconditions", "effect": "effects",
    "before": "before_events", "after": "after_events",
}


def _strip_token(token: str) -> tuple[str, str]:
    """Split a token into its core word and trailing punctuation, which a tag for the word keeps."""
    core = token.rstrip(string.punctuation)
    return core, token[len(core):]


def object_tag(token: str) -> str | None:
    """The object tag a token of a description is, before its trailing punctuation; else None."""
    match = OBJECT_TAG_RE.match(token)
    return match.group(0) if match and not _strip_token(token[match.end():])[0] else None


def form_textual_description(
    triplet: SegmentTriplet,
    corpus: Corpus,
    resolved: Mapping[tuple[str, int], str] | None = None,
) -> GroundedText:
    """Ground the current-event sentence against its object annotations.

    Every mention of an annotated object (matched by lemma, longest label
    first, with a leading determiner absorbed) is replaced by a numbered tag;
    repeats of the same object reuse their tag. Objects that never occur in
    the text still receive tags, marked image-only, so the vision side can
    reference them. Grounding is best effort: zero matches just yields
    tag-free text.
    """
    video = corpus.video(triplet.video_id)
    segment = video.segment(triplet.current.segment_index)
    sentence = (resolved or {}).get((triplet.video_id, segment.index), segment.sentence)

    tokens = sentence.split()
    cores = [simple_lemma(_strip_token(t)[0]) for t in tokens]
    labels = sorted(
        {obj.label: obj for obj in segment.objects}.items(),
        key=lambda kv: -len(kv[0].split()),
    )

    matched: list[tuple[int, int, str]] = []  # (start, end, label)
    taken = [False] * len(tokens)
    for label, _ in labels:
        parts = [simple_lemma(p) for p in label.lower().split()]
        width = len(parts)
        for start in range(0, len(tokens) - width + 1):
            if any(taken[start : start + width]):
                continue
            if cores[start : start + width] == parts:
                matched.append((start, start + width, label))
                for i in range(start, start + width):
                    taken[i] = True

    matched.sort()
    tag_by_label: dict[str, str] = {}
    for _, _, label in matched:
        if label not in tag_by_label:
            tag_by_label[label] = f"[Object{len(tag_by_label) + 1}]"

    out_tokens: list[str] = []
    cursor = 0
    for start, end, label in matched:
        out_tokens.extend(tokens[cursor:start])
        if out_tokens and out_tokens[-1].lower() in _DETERMINERS:
            out_tokens.pop()
        _, trail = _strip_token(tokens[end - 1])
        out_tokens.append(tag_by_label[label] + trail)
        cursor = end
    out_tokens.extend(tokens[cursor:])

    annotations = {obj.label: obj for obj in segment.objects}
    bindings = {tag: annotations[label] for label, tag in tag_by_label.items()}
    image_only = []
    for obj in segment.objects:
        if obj.label not in tag_by_label:
            tag = f"[Object{len(bindings) + 1}]"
            bindings[tag] = obj
            image_only.append(tag)

    return GroundedText(
        template=" ".join(out_tokens),
        bindings=bindings,
        image_only_tags=frozenset(image_only),
    )


def form_action_object_pair(triplet: SegmentTriplet) -> tuple[str, str]:
    """The current event's primary verb and ingredient lemmas.

    When several verbs act on the ingredient in the current segment, the
    first verb in sentence order wins; instruments never appear because
    events only carry the noun undergoing the action.
    """
    return (triplet.current.verb, triplet.current.ingredient)


def form_goal(triplet: SegmentTriplet, corpus: Corpus) -> frozenset[str]:
    """The three recipe-level goal strings for the triplet's video."""
    video = corpus.video(triplet.video_id)
    name = corpus.index.name(video.recipe_id)
    return frozenset(t.format(name) for t in GOAL_TEMPLATES)


def form_preconditions(triplet: SegmentTriplet, corpus: Corpus) -> frozenset[str]:
    """Union of object labels annotated on the past and current segments."""
    video = corpus.video(triplet.video_id)
    labels: dict[str, str] = {}
    for index in (triplet.past.segment_index, triplet.current.segment_index):
        for obj in video.segment(index).objects:
            labels.setdefault(normalize_phrase(obj.label), obj.label)
    return frozenset(labels.values())


def _filter_effect_answer(answer: str, keyword: str) -> list[str]:
    words = answer.lower().split()
    if len(words) > MAX_EFFECT_TOKENS:
        return []
    if keyword in words or "what" in words:
        return []
    return [piece.strip() for piece in re.split(r",| and | or ", answer) if piece.strip()]


def effect_questions(triplet: SegmentTriplet, corpus: Corpus) -> list[tuple[str, str]]:
    """The ``(context, question)`` items that ask for the triplet's effects.

    The context is the transcript between the start of the current segment
    and the start of the future segment, and there is one question per
    attribute in ``EFFECT_QUESTIONS`` order; with no narration in that window
    there are none.
    """
    video = corpus.video(triplet.video_id)
    current = video.segment(triplet.current.segment_index)
    future = video.segment(triplet.future.segment_index)
    window = slice_transcript(video, current.t_start, future.t_start)
    if not window.text:
        return []
    return [(window.text, template.format(triplet.ingredient)) for _, template in EFFECT_QUESTIONS]


def effects_from_answers(answers: Sequence[str | None]) -> frozenset[str]:
    """The effects in the answers to ``EFFECT_QUESTIONS``, in order.

    Answers are split on conjunctions, length-filtered, and deduplicated.
    """
    effects: dict[str, str] = {}
    for (keyword, _), answer in zip(EFFECT_QUESTIONS, answers, strict=True):
        if answer is None:
            continue
        for piece in _filter_effect_answer(answer, keyword):
            effects.setdefault(normalize_phrase(piece), piece)
    return frozenset(effects.values())


def form_before_after(
    triplet: SegmentTriplet,
    corpus: Corpus,
    resolved: Mapping[tuple[str, int], str] | None = None,
) -> tuple[str, str]:
    """Descriptions of the past and future events, preferring resolved text."""
    video = corpus.video(triplet.video_id)
    resolved = resolved or {}

    def sentence_at(index: int) -> str:
        return resolved.get((triplet.video_id, index), video.segment(index).sentence)

    return (
        sentence_at(triplet.past.segment_index),
        sentence_at(triplet.future.segment_index),
    )


def _slug(verb: str, ingredient: str) -> str:
    return f"{verb}_{ingredient}".replace(" ", "-")


def build_instance(
    triplet: SegmentTriplet,
    corpus: Corpus,
    rc: RCProvider | None = None,
    resolved: Mapping[tuple[str, int], str] | None = None,
    fps: float = 30.0,
    questions: Sequence[tuple[str, str]] | None = None,
) -> CommonsenseInstance:
    """Assemble one instance from a triplet; flags record missing components.

    ``questions`` are the triplet's ``effect_questions``, which a caller that
    has already asked them passes so that the transcript is sliced once.
    """
    video = corpus.video(triplet.video_id)
    current = video.segment(triplet.current.segment_index)

    flags = []
    image = None
    if video.media is not None and current.index in video.media.clip_paths:
        image = middle_frame(video.media, current, fps=fps, video_id=video.video_id)
    else:
        flags.append(FLAG_TEXT_ONLY)

    grounded = form_textual_description(triplet, corpus, resolved)
    verb, ingredient = form_action_object_pair(triplet)
    goals = form_goal(triplet, corpus)
    preconditions = form_preconditions(triplet, corpus)
    if not preconditions:
        flags.append(FLAG_NO_OBJECTS)

    if questions is None:
        questions = effect_questions(triplet, corpus)
    effects = frozenset()
    if not questions:
        flags.append(FLAG_NO_TRANSCRIPT)
    elif rc is not None:
        effects = effects_from_answers(rc.answer_many(questions))

    before, after = form_before_after(triplet, corpus, resolved)

    return CommonsenseInstance(
        instance_id=f"{triplet.video_id}:{current.index}:{_slug(verb, ingredient)}",
        image=image,
        text_description=grounded.template,
        action_object=(verb, ingredient),
        goals=goals,
        preconditions=preconditions,
        effects=effects,
        before_events=frozenset({before}),
        after_events=frozenset({after}),
        provenance=(ProvenanceEntry(video_id=triplet.video_id, triplet=triplet, image=image),),
        bindings=tuple(grounded.label_bindings()),
        flags=tuple(flags),
    )


def _normalized_union(sets) -> frozenset[str]:
    """Union with dedup by normalized form, keeping a stable representative."""
    groups: dict[str, list[str]] = {}
    for texts in sets:
        for text in texts:
            groups.setdefault(normalize_phrase(text), []).append(text)
    return frozenset(min(texts) for texts in groups.values())


def merge_by_action_object(instances) -> list[CommonsenseInstance]:
    """Union the inference sets of instances sharing an action-object pair.

    Single-source pairs pass through unchanged; merged records keep the first
    source's image and description as representative and concatenate
    provenance in input order. Idempotent, and order-insensitive over the
    inference sets.
    """
    groups: dict[tuple[str, str], list[CommonsenseInstance]] = {}
    for instance in instances:
        groups.setdefault(instance.action_object, []).append(instance)

    merged = []
    for pair, group in groups.items():
        if len(group) == 1:
            merged.append(group[0])
            continue
        first = group[0]
        flags = sorted(set(f for inst in group for f in inst.flags) - {FLAG_TEXT_ONLY})
        image = next((inst.image for inst in group if inst.image is not None), None)
        if image is None:
            flags.append(FLAG_TEXT_ONLY)
        merged.append(
            CommonsenseInstance(
                instance_id=_slug(*pair),
                image=image,
                text_description=first.text_description,
                action_object=pair,
                goals=_normalized_union(i.goals for i in group),
                preconditions=_normalized_union(i.preconditions for i in group),
                effects=_normalized_union(i.effects for i in group),
                before_events=_normalized_union(i.before_events for i in group),
                after_events=_normalized_union(i.after_events for i in group),
                provenance=tuple(p for i in group for p in i.provenance),
                bindings=first.bindings,
                flags=tuple(flags),
            )
        )
    return merged


class StatsReport(NamedTuple):
    """Corpus-level dataset statistics.

    Goal, precondition, and effect totals sum the per-pair inference sets;
    before/after totals count one event per source triplet, so the two are
    always equal. Distinct images can undercount triplets because triplets
    from the same current segment share a frame; the note records this.
    """

    videos: int
    images: int
    textual_descriptions: int
    recipe_types: int
    unique_objects: int
    unique_actions: int
    goals: int
    preconditions: int
    effects: int
    before_events: int
    after_events: int
    notes: tuple[str, ...] = ()

    ROW_LABELS = (
        ("videos", "Videos"),
        ("images", "Images"),
        ("textual_descriptions", "Textual Descriptions"),
        ("recipe_types", "Recipe Types"),
        ("unique_objects", "Unique Objects"),
        ("unique_actions", "Unique Actions"),
        ("goals", "High-level Goals"),
        ("preconditions", "Pre-conditions"),
        ("effects", "Effects"),
        ("before_events", "Before Events"),
        ("after_events", "After Events"),
    )

    def rows(self) -> list[tuple[str, int]]:
        return [(label, getattr(self, fieldname)) for fieldname, label in self.ROW_LABELS]

    def to_dict(self) -> dict:
        return {**self._asdict(), "notes": list(self.notes)}


def compute_statistics(instances) -> StatsReport:
    """One-pass dataset statistics over (possibly merged) instances."""
    videos = set()
    frames = set()
    descriptions = set()
    triplet_count = 0
    for instance in instances:
        for entry in instance.provenance:
            videos.add(entry.video_id)
            descriptions.add((entry.video_id, entry.triplet.current.segment_index))
            if entry.image is not None:
                frames.add(entry.image.key)
            triplet_count += 1

    recipes = {g[len("Make "):] for i in instances for g in i.goals if g.startswith("Make ")}

    return StatsReport(
        videos=len(videos),
        images=len(frames),
        textual_descriptions=len(descriptions),
        recipe_types=len(recipes),
        unique_objects=len({i.action_object[1] for i in instances}),
        unique_actions=len({i.action_object[0] for i in instances}),
        goals=sum(len(i.goals) for i in instances),
        preconditions=sum(len(i.preconditions) for i in instances),
        effects=sum(len(i.effects) for i in instances),
        before_events=triplet_count,
        after_events=triplet_count,
        notes=(
            "before/after totals count one event per source triplet",
            "distinct frames may undercount triplets sharing a current segment",
        ),
    )


def _frame_to_dict(frame: FrameRef | None):
    return None if frame is None else frame._asdict()


def _frame_from_dict(raw) -> FrameRef | None:
    """The frame a record holds, of shape FRAME."""
    return None if raw is None else FrameRef(**{k: raw[k] for k in FrameRef._fields if k in raw})


def instance_to_dict(instance: CommonsenseInstance) -> dict:
    return {
        "instance_id": instance.instance_id,
        "image": _frame_to_dict(instance.image),
        "text_description": instance.text_description,
        "action_object": list(instance.action_object),
        **{name: sorted(getattr(instance, name)) for name in SET_FIELDS.values()},
        "provenance": [
            {
                "video_id": entry.video_id,
                "triplet": entry.triplet.to_dict(),
                "image": _frame_to_dict(entry.image),
            }
            for entry in instance.provenance
        ],
        "bindings": [list(b) for b in instance.bindings],
        "flags": list(instance.flags),
    }


# a frame and a dataset record as _frame_to_dict and instance_to_dict write them
FRAME = shapes.nullable({
    "video_id": STRING, "segment_index": INT, "frame_index": INT, "timestamp": NUMBER,
    "clip_path?": shapes.nullable(STRING), "frame_path?": shapes.nullable(STRING),
})
OBJECT_TAG = shapes.kind(
    "an object tag such as [Object1]", lambda v: type(v) is str and OBJECT_TAG_RE.fullmatch(v)
)
RECORD = shapes.obj({
    "instance_id": STRING, "text_description": STRING,
    "action_object": shapes.tuple_of("two strings", STRING, STRING),
    **dict.fromkeys(SET_FIELDS.values(), [TEXT]),
    "image?": FRAME,
    "provenance?": [{"video_id": STRING, "triplet": TRIPLET, "image?": FRAME}],
    "bindings?": [shapes.tuple_of("an [object tag, label] pair", OBJECT_TAG, STRING)],
    "flags?": [STRING],
})


def instance_from_dict(raw) -> CommonsenseInstance:
    """The instance a dataset record holds; ValueError names the first place that is wrong."""
    shapes.check(raw, RECORD)
    return CommonsenseInstance(
        instance_id=raw["instance_id"],
        image=_frame_from_dict(raw.get("image")),
        text_description=raw["text_description"],
        action_object=tuple(raw["action_object"]),
        **{name: frozenset(raw[name]) for name in SET_FIELDS.values()},
        provenance=tuple(
            ProvenanceEntry(
                video_id=entry["video_id"],
                triplet=SegmentTriplet.from_dict(entry["triplet"]),
                image=_frame_from_dict(entry.get("image")),
            )
            for entry in raw.get("provenance", [])
        ),
        bindings=tuple((tag, label) for tag, label in raw.get("bindings", [])),
        flags=tuple(raw.get("flags", [])),
    )


def write_dataset(instances, path) -> None:
    write_atomic(
        path, (json.dumps(instance_to_dict(i), ensure_ascii=False) + "\n" for i in instances)
    )


def check_unique_ids(instances, describe) -> None:
    """Raise ValueError at the first id two instances share; ``describe(position)`` names each."""
    first: dict[str, int] = {}
    for position, instance in enumerate(instances):
        earlier = first.setdefault(instance.instance_id, position)
        if earlier != position:
            raise ValueError(f"instance id {instance.instance_id!r} repeats:"
                             f" {describe(earlier)} and {describe(position)}")


def read_dataset(path) -> list[CommonsenseInstance]:
    """A dataset file's instances, one per id; ValueError names the line of any bad record."""
    instances, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                instances.append(instance_from_dict(json.loads(line)))
            except ValueError as exc:  # JSONDecodeError is a ValueError
                raise ValueError(f"line {number}: {exc}") from None
            lines.append(number)
    check_unique_ids(instances, lambda position: f"the record on line {lines[position]}")
    return instances
