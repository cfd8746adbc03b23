"""Model-input composition, prompt variants, sampling, and likelihood scoring.

Input sequences follow a fixed field order mirroring the scoring conditional
(visual features, event text, action-object pair, then the inference request):

    s_img ... e_img | s_event ... e_event | s_ao verb noun e_ao | prompt | s_<type>

Two provider conformance levels are supported: backends that accept visual
embedding prefixes get feature slots with an additive-fusion annotation, and
text-only backends get the visual content serialized as object-label text.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Protocol, Sequence

from . import shapes
from .assembly import CommonsenseInstance, OBJECT_TAG_RE, object_tag
from .corpus import ObjectAnnotation
from .providers import ProviderError

MAX_SEQUENCE_LENGTH = 64
MAX_VISUAL_FEATURES = 15

IMG_START, IMG_END = "s_img", "e_img"
EVENT_START, EVENT_END = "s_event", "e_event"
AO_START, AO_END = "s_ao", "e_ao"
INFERENCE_END = "e_inf"


class UnknownVariant(Exception):
    pass


class MissingModality(Exception):
    pass


class SequenceOverflow(Exception):
    pass


class EmptyBatch(Exception):
    pass


class InferenceType(str, Enum):
    PRECONDITION = "precondition"
    EFFECT = "effect"
    GOAL = "goal"
    BEFORE = "before"
    AFTER = "after"


START_TOKENS = {t: f"s_{t.value}" for t in InferenceType}

_TYPE_LETTER = {
    InferenceType.PRECONDITION: "p",
    InferenceType.EFFECT: "e",
    InferenceType.GOAL: "g",
    InferenceType.BEFORE: "b",
    InferenceType.AFTER: "a",
}


class Modality(str, Enum):
    IMAGE = "Image"
    TEXT_DESC = "TextDesc"
    AO_PAIR = "AOPair"
    OG = "OG"


# Variants 1..4 per inference type: sentence-completion, imperative,
# interrogative, and structured-response phrasings.
PROMPTS: dict[tuple[InferenceType, int], str] = {
    (InferenceType.PRECONDITION, 1): "A set of concepts that are required to perform this action are",
    (InferenceType.PRECONDITION, 2): "Describe a list of necessary conditions required to execute this action",
    (InferenceType.PRECONDITION, 3): "What are some pre-requisites related to this action?",
    (InferenceType.PRECONDITION, 4): "List down things without which one cannot perform this action",
    (InferenceType.EFFECT, 1): "Some results of performing this action include",
    (InferenceType.EFFECT, 2): "Describe what changes will be caused by performing this action",
    (InferenceType.EFFECT, 3): "What effects will be produced as a result of performing this action?",
    (InferenceType.EFFECT, 4): "List down the consequences if one performs this action",
    (InferenceType.GOAL, 1): "Some objectives related to this action include",
    (InferenceType.GOAL, 2): "Describe intents of people that are performing this action",
    (InferenceType.GOAL, 3): "What are some high-level goals associated with this action?",
    (InferenceType.GOAL, 4): "List down the recipes one can prepare which requires performing this action",
    (InferenceType.BEFORE, 1): "Some actions that person must have performed before this action are",
    (InferenceType.BEFORE, 2): "Describe which actions might have taken place in past",
    (InferenceType.BEFORE, 3): "What are some actions that typically take place before this action?",
    (InferenceType.BEFORE, 4): "List down some actions that preceded this action",
    (InferenceType.AFTER, 1): "Some actions that person will perform after this action are",
    (InferenceType.AFTER, 2): "Describe which actions are likely to take place in future",
    (InferenceType.AFTER, 3): "What are some actions that typically take place after this action?",
    (InferenceType.AFTER, 4): "List down some actions that will follow this action",
}

# The ten modality combinations of the ablation grid, in grid order.
MODALITY_COMBOS: tuple[frozenset[Modality], ...] = (
    frozenset({Modality.IMAGE}),
    frozenset({Modality.IMAGE, Modality.OG}),
    frozenset({Modality.AO_PAIR}),
    frozenset({Modality.TEXT_DESC}),
    frozenset({Modality.AO_PAIR, Modality.TEXT_DESC}),
    frozenset({Modality.IMAGE, Modality.TEXT_DESC}),
    frozenset({Modality.IMAGE, Modality.AO_PAIR}),
    frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.AO_PAIR}),
    frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.OG}),
    frozenset({Modality.IMAGE, Modality.TEXT_DESC, Modality.AO_PAIR, Modality.OG}),
)

_MASK_ORDER = (Modality.IMAGE, Modality.TEXT_DESC, Modality.AO_PAIR, Modality.OG)


def combo_label(mask: frozenset[Modality]) -> str:
    return "+".join(m.value for m in _MASK_ORDER if m in mask)


def parse_combo_label(label: str) -> frozenset[Modality]:
    return frozenset(Modality(part) for part in label.split("+"))


def prompt_id(inference_type: InferenceType, variant: int) -> str:
    return f"P{_TYPE_LETTER[inference_type]}{variant}"


@shapes.checked
class PromptSpec(NamedTuple):
    inference_type: InferenceType
    variant: int
    modality_mask: frozenset[Modality]

    def _check(self) -> None:
        if Modality.OG in self.modality_mask and Modality.IMAGE not in self.modality_mask:
            raise ValueError("object grounding requires the image modality")

    @property
    def prompt_id(self) -> str:
        return prompt_id(self.inference_type, self.variant)


def build_prompt(spec: PromptSpec) -> str:
    """The exact prompt string for (inference type, variant)."""
    try:
        return PROMPTS[(spec.inference_type, spec.variant)]
    except KeyError:
        raise UnknownVariant(
            f"no variant {spec.variant} for {spec.inference_type.value}"
        ) from None


@shapes.checked
class VisualFeatures(NamedTuple):
    """One whole-image vector plus one per detected object, capped at 15 total."""

    global_vec: tuple[float, ...]
    objects: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def _check(self) -> None:
        if 1 + len(self.objects) > MAX_VISUAL_FEATURES:
            raise ValueError(f"more than {MAX_VISUAL_FEATURES} visual features")
        tags = [tag for tag, _ in self.objects]
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate object tags in visual features")

    def index_of(self, tag: str) -> int | None:
        for i, (t, _) in enumerate(self.objects):
            if t == tag:
                return i + 1  # 0 is the global vector
        return None


class VisionProvider(Protocol):
    def features(self, image, boxes) -> VisualFeatures: ...


class LMProvider(Protocol):
    """Batched sampling and scoring: one answer per input, in order, as a function of it alone."""

    def sample_many(self, sequences, nucleus_p: float, max_new: int, n: int) -> list[list[str]]: ...

    # each item is (sequence, continuations): one list of per-token scores per continuation
    def score_many(self, items) -> list[list[list[float]]]: ...

    def logprobs(self, sequence, continuation: str) -> list[float]: ...  # score_candidate only


class FieldBlock(NamedTuple):
    name: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class TokenSequence:
    """Delimited input sequence with visual-feature links for grounded tokens.

    ``visual_refs`` maps flat token positions to visual feature indices; the
    fusion contract tells embedding-capable providers to add the feature to
    the token embedding at that position.
    """

    blocks: tuple[FieldBlock, ...]
    visual_refs: dict[int, int] = field(default_factory=dict)
    inference_type: InferenceType | None = None
    features: VisualFeatures | None = None
    fusion: str = "additive"

    @property
    def tokens(self) -> list[str]:
        return [tok for block in self.blocks for tok in block.tokens]

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)

    def block_names(self) -> list[str]:
        return [b.name for b in self.blocks]

    def to_wire(self) -> dict:
        return {
            "text_fields": {b.name: " ".join(b.tokens) for b in self.blocks},
            "visual_refs": sorted(self.visual_refs.items()),
            "fusion": self.fusion,
        }


def _visual_tag_order(instance: CommonsenseInstance) -> list[tuple[str, str]]:
    """(tag, label) pairs in tag-number order, capped to the feature budget."""
    ordered = sorted(instance.bindings, key=lambda b: int(OBJECT_TAG_RE.match(b[0]).group(1)))
    return ordered[: MAX_VISUAL_FEATURES - 1]


class MaskedInput(NamedTuple):
    """The mask step of composition: an instance's masked modality blocks and visual features.

    They depend only on (instance, mask), so one is shared by every prompt
    variant and inference type composed for that pair.
    """

    mask: frozenset[Modality]
    blocks: tuple[FieldBlock, ...]
    features: VisualFeatures | None = None


def mask_input(
    instance: CommonsenseInstance,
    mask: frozenset[Modality],
    vision: VisionProvider | None = None,
) -> MaskedInput:
    """The blocks of ``instance``'s modalities in ``mask``; raise MissingModality if one is absent.

    With a vision provider the image block holds feature slots; without one it
    falls back to object-label text.
    """
    features = None
    blocks: list[FieldBlock] = []
    if Modality.IMAGE in mask:
        if instance.image is None:
            raise MissingModality(f"instance {instance.instance_id} has no image")
        tag_labels = _visual_tag_order(instance)
        if vision is not None:
            boxes = [ObjectAnnotation(label=label) for _, label in tag_labels]
            features = vision.features(instance.image, boxes)
            img_tokens = ["<img>"]
            if Modality.OG in mask:
                img_tokens.extend(tag for tag, _ in tag_labels[: len(features.objects)])
            else:
                img_tokens.extend("<obj>" for _ in features.objects)
        else:
            # Text-only fallback: serialize visual content as object labels.
            if Modality.OG in mask:
                img_tokens = [tok for tag, label in tag_labels for tok in (tag, *label.split())]
            else:
                img_tokens = [tok for _, label in tag_labels for tok in label.split()]
        blocks.append(FieldBlock("image", (IMG_START, *img_tokens, IMG_END)))

    if Modality.TEXT_DESC in mask:
        if not instance.text_description:
            raise MissingModality(f"instance {instance.instance_id} has no description")
        event_text = instance.text_description
        if Modality.OG not in mask:
            for tag, label in instance.bindings:
                event_text = event_text.replace(tag, label)
        blocks.append(FieldBlock("event", (EVENT_START, *event_text.split(), EVENT_END)))

    if Modality.AO_PAIR in mask:
        verb, noun = instance.action_object
        blocks.append(FieldBlock("ao", (AO_START, verb, *noun.split(), AO_END)))
    return MaskedInput(mask=mask, blocks=tuple(blocks), features=features)


def compose_input_sequence(
    instance: CommonsenseInstance,
    spec: PromptSpec,
    vision: VisionProvider | None = None,
    masked: MaskedInput | None = None,
) -> TokenSequence:
    """Serialize the masked modalities of an instance into a model input.

    Only masked modalities appear. ``masked`` is the mask step,
    ``mask_input(instance, spec.modality_mask, vision)``, made beforehand to
    share it among the prompts of one (instance, mask); without it the step
    runs here. Overlong sequences are truncated from the left of the event
    description, never the prompt or the action-object pair.
    """
    prompt_tokens = tuple(build_prompt(spec).split())
    if len(prompt_tokens) > MAX_SEQUENCE_LENGTH:
        raise SequenceOverflow(f"prompt {spec.prompt_id} alone has {len(prompt_tokens)} tokens")
    if masked is None:
        masked = mask_input(instance, spec.modality_mask, vision)
    elif masked.mask != spec.modality_mask:
        raise ValueError("the mask step was made under another mask than the prompt's")

    blocks = [
        *masked.blocks,
        FieldBlock("prompt", prompt_tokens),
        FieldBlock("start", (START_TOKENS[spec.inference_type],)),
    ]
    total = sum(len(b.tokens) for b in blocks)
    if total > MAX_SEQUENCE_LENGTH:
        overflow = total - MAX_SEQUENCE_LENGTH
        for i, block in enumerate(blocks):
            if block.name != "event":
                continue
            words = list(block.tokens[1:-1])
            droppable = min(overflow, len(words))
            words = words[droppable:]
            blocks[i] = FieldBlock("event", (EVENT_START, *words, EVENT_END))
            total -= droppable
            break
        if total > MAX_SEQUENCE_LENGTH:
            raise SequenceOverflow(
                f"instance {instance.instance_id} in cell ({spec.inference_type.value},"
                f" {combo_label(spec.modality_mask)}, P{spec.variant}) has {total} tokens"
                f" after truncation, over the limit of {MAX_SEQUENCE_LENGTH}"
            )

    features = masked.features
    return TokenSequence(
        blocks=tuple(blocks),
        visual_refs={} if features is None else _visual_refs(blocks, features, spec.modality_mask),
        inference_type=spec.inference_type,
        features=features,
    )


def _visual_refs(blocks, features: VisualFeatures, mask: frozenset[Modality]) -> dict[int, int]:
    """Flat token position -> visual feature index, for each token grounded in a feature."""
    visual_refs: dict[int, int] = {}
    position = 0
    for block in blocks:
        for offset, token in enumerate(block.tokens):
            if block.name == "image":
                if token == "<img>":
                    visual_refs[position + offset] = 0
                elif token == "<obj>":
                    visual_refs[position + offset] = offset - 1
                elif OBJECT_TAG_RE.fullmatch(token):
                    idx = features.index_of(token)
                    if idx is not None:
                        visual_refs[position + offset] = idx
            elif block.name == "event" and Modality.OG in mask:
                tag = object_tag(token)
                if tag is not None:
                    idx = features.index_of(tag)
                    if idx is not None:
                        visual_refs[position + offset] = idx
        position += len(block.tokens)
    return visual_refs


class ScoredCandidate(NamedTuple):
    """A candidate and its mean negative log-likelihood (nats per token) and perplexity, exp(nll)."""

    text: str
    nll: float
    perplexity: float


def generate_inferences(
    sequences: Sequence[TokenSequence],
    lm: LMProvider,
    n: int,
    *,
    nucleus_p: float = 0.9,
    max_new: int = 16,
) -> list[list[str]]:
    """n inference statements per sequence, in one provider request, each cut at ``e_inf``."""
    if n <= 0:
        return [[] for _ in sequences]
    texts = lm.sample_many(list(sequences), nucleus_p, max_new, n)
    return [[text.partition(INFERENCE_END)[0].strip() for text in row] for row in texts]


def _scored(candidate: str, logprobs: list[float]) -> ScoredCandidate:
    if not logprobs:
        raise ProviderError("provider returned no token log-probabilities")
    nll = -sum(logprobs) / len(logprobs)
    if nll > math.log(sys.float_info.max):  # exp(nll) would overflow a float
        raise ProviderError(
            f"perplexity of {candidate!r} overflows: mean log-probability {-nll} per token"
        )
    return ScoredCandidate(candidate, nll, math.exp(nll))


def score_many(items, lm: LMProvider) -> list[list[ScoredCandidate]]:
    """Each (sequence, candidates) item's candidates by mean per-token NLL, in one request."""
    rows = lm.score_many(items)
    return [
        [_scored(c, row) for c, row in zip(candidates, scores, strict=True)]
        for (_, candidates), scores in zip(items, rows, strict=True)
    ]


def score_candidate(sequence: TokenSequence, candidate: str, lm: LMProvider) -> ScoredCandidate:
    """``score_many`` for one candidate, over the provider's single-item ``logprobs``."""
    if not candidate.strip():
        raise ValueError("candidate must be tokenizable")
    return _scored(candidate, lm.logprobs(sequence, candidate))


def _conditioning_sequence(sequence: TokenSequence, keep: tuple[str, ...]) -> TokenSequence:
    blocks = tuple(b for b in sequence.blocks if b.name in keep)
    return TokenSequence(
        blocks=blocks,
        inference_type=sequence.inference_type,
        features=sequence.features,
    )


class LossResult(NamedTuple):
    loss: float
    terms: tuple[float, ...]


def seq2seq_loss(
    batch: Sequence[tuple[CommonsenseInstance, PromptSpec, str]],
    lm: LMProvider,
    *,
    tp_mode: bool = False,
    vision: VisionProvider | None = None,
) -> LossResult:
    """Mean per-instance target NLL, optionally with description/pair terms.

    In TP mode each instance contributes two extra terms: the event text
    scored against the visual conditioning alone, and the action-object pair
    scored against visual plus event conditioning.
    """
    if not batch:
        raise EmptyBatch("seq2seq_loss needs at least one (instance, spec, target)")
    per_instance = []
    terms: list[float] = []
    for instance, spec, target in batch:
        full = compose_input_sequence(instance, spec, vision)
        instance_terms = [score_candidate(full, target, lm).nll]
        if tp_mode:
            p_target = " ".join(instance.action_object)
            t_target = instance.text_description or p_target
            t_cond = _conditioning_sequence(full, ("image",))
            instance_terms.append(score_candidate(t_cond, t_target, lm).nll)
            p_cond = _conditioning_sequence(full, ("image", "event"))
            instance_terms.append(score_candidate(p_cond, p_target, lm).nll)
        terms.extend(instance_terms)
        per_instance.append(sum(instance_terms))
    return LossResult(loss=sum(per_instance) / len(per_instance), terms=tuple(terms))


class GenerationConfig(NamedTuple):
    """Decoding and (recorded) fine-tuning defaults.

    The optimizer fields are configuration handed to backends that support
    fine-tuning; no training loop runs in this package.
    """

    nucleus_p: float = 0.9
    n_samples: int = 5
    max_new_tokens: int = 16
    seed: int = 13
    max_sequence_length: int = MAX_SEQUENCE_LENGTH
    max_visual_features: int = MAX_VISUAL_FEATURES
    optimizer: str = "adam"
    learning_rate: float = 5e-5
    batch_size: int = 32
