"""Toolkit for building and evaluating action-centric commonsense datasets
from segment-annotated instructional-video corpora."""

from .assembly import (
    CommonsenseInstance,
    GroundedText,
    build_instance,
    compute_statistics,
    merge_by_action_object,
)
from .corpus import Corpus, Segment, VideoRecord, load_corpus, slice_transcript
from .extraction import (
    VerbIngredientPair,
    count_lemma_frequencies,
    extract_pairs,
    extract_verb_ingredient_pairs,
    filter_pairs_by_frequency,
    resolve_coreferences,
)
from .generation import (
    InferenceType,
    Modality,
    PromptSpec,
    build_prompt,
    compose_input_sequence,
    generate_inferences,
    score_candidate,
    score_many,
    seq2seq_loss,
)
from .metrics import (
    acc_at_50,
    bleu2,
    build_candidate_pool,
    cider,
    meteor,
    normalize_object_tags,
    novelty,
    uniqueness,
)
from .triplets import EventRef, SegmentTriplet, build_adjoining_triplets, group_by_ingredient

__version__ = "0.1.0"
