"""The records' contract: immutable tuples, equal and hashed by value, checked when built."""

import importlib
import pkgutil
from collections import Counter

import pytest

import actionsense
from actionsense.assembly import CommonsenseInstance, GroundedText, ProvenanceEntry, StatsReport
from actionsense.corpus import (
    FrameRef,
    MediaRef,
    ObjectAnnotation,
    RecipeIndex,
    Segment,
    TranscriptLine,
    TranscriptWindow,
    VideoRecord,
)
from actionsense.extraction import (
    LemmaCounts,
    ParseTree,
    ResolvedSentence,
    Token,
    VerbIngredientPair,
)
from actionsense.generation import (
    FieldBlock,
    GenerationConfig,
    InferenceType,
    LossResult,
    MaskedInput,
    Modality,
    PromptSpec,
    ScoredCandidate,
    VisualFeatures,
)
from actionsense.metrics import CandidatePool, EvalReport, ReportRow, ScoredText
from actionsense.triplets import EventRef, SegmentTriplet

EGG = ObjectAnnotation("egg", ((1.0, 0.0, 0.0, 5.0, 5.0),))
LINE = TranscriptLine(0.0, 2.0, "crack the egg")
SEGMENT = Segment(1, 0.0, 2.0, "crack the egg", (EGG,))
EVENTS = tuple(EventRef("v1", i, "crack", "egg") for i in (1, 2, 3))
TRIPLET = SegmentTriplet("egg", *EVENTS)
FRAME = FrameRef("v1", 2, 30, 3.0, "c2.mp4")
MASK = frozenset({Modality.AO_PAIR})
ROW = ReportRow("goal", "AOPair", 0.5, 0.25, 5.0, 0.1, 0.8, 0.4)
TOKEN = Token("eggs", "egg", "NOUN")
BLOCK = FieldBlock("ao", ("crack", "egg"))

# one record of each NamedTuple class in the package
RECORDS = [
    LINE,
    EGG,
    SEGMENT,
    MediaRef({1: "c1.mp4"}, {1: "f1.jpg"}, True),
    VideoRecord("v1", "r1", (SEGMENT,), (LINE,)),
    RecipeIndex({"r1": "omelette"}),
    TranscriptWindow("crack the egg", (LINE,)),
    FRAME,
    TOKEN,
    ParseTree((TOKEN,), ()),
    VerbIngredientPair("crack", "egg", "v1", 1),
    LemmaCounts(Counter(crack=3), Counter(egg=3)),
    ResolvedSentence("crack it", "crack the egg", True),
    EVENTS[0],
    TRIPLET,
    GroundedText("crack [Object1]", {"[Object1]": EGG}),
    ProvenanceEntry("v1", TRIPLET, FRAME),
    CommonsenseInstance(
        "v1:2:crack_egg", FRAME, "crack [Object1]", ("crack", "egg"), frozenset({"Make omelette"}),
        frozenset({"egg"}), frozenset(), frozenset({"a"}), frozenset({"b"}),
        (ProvenanceEntry("v1", TRIPLET, FRAME),), (("[Object1]", "egg"),),
    ),
    StatsReport(1, 1, 1, 1, 1, 1, 3, 1, 0, 1, 1),
    PromptSpec(InferenceType.GOAL, 1, MASK),
    VisualFeatures((0.0, 1.0), (("[Object1]", (1.0, 0.0)),)),
    BLOCK,
    MaskedInput(MASK, (BLOCK,)),
    ScoredCandidate("whisk", 1.5, 4.48),
    LossResult(1.5, (1.5,)),
    GenerationConfig(),
    ScoredText("whisk", 4.48, True),
    CandidatePool("p", (ScoredText("gt", None, True), *[ScoredText(f"n{i}") for i in range(49)]), 1),
    ROW,
    EvalReport((ROW,)),
]
RECORD_IDS = [type(r).__name__ for r in RECORDS]

# a dict or Counter field makes a record unhashable, as it made the frozen dataclasses
UNHASHABLE = {MediaRef, RecipeIndex, LemmaCounts, GroundedText}


def test_every_namedtuple_of_the_package_has_a_sample():
    declared = {
        value
        for info in pkgutil.iter_modules(actionsense.__path__)
        for value in vars(importlib.import_module(f"actionsense.{info.name}")).values()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        and value.__module__.startswith("actionsense.")
    }
    assert declared == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_a_record_is_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ to hold it


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_a_record_is_a_tuple_equal_by_value(record):
    again = type(record)(*record)
    assert again is not record and again == record == tuple(record)
    assert list(record) == [getattr(record, name) for name in record._fields]
    if type(record) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(again) == hash(record)


class TestValidatedRecords:
    """Checks the other test modules do not make; each runs when the class builds a record."""

    def test_triplet_events_must_share_the_ingredient(self):
        past, current, future = EVENTS
        with pytest.raises(ValueError, match="share the ingredient"):
            SegmentTriplet("egg", past, current, future._replace(ingredient="flour"))

    def test_a_template_tag_needs_a_binding(self):
        with pytest.raises(ValueError, match=r"\[Object2\] has no binding"):
            GroundedText("crack [Object1] into [Object2]", bindings={"[Object1]": EGG})

    def test_a_pool_needs_a_ground_truth_candidate(self):
        candidates = tuple(ScoredText(f"n{i}") for i in range(50))
        with pytest.raises(ValueError, match="at least one ground-truth"):
            CandidatePool("p", candidates, gt_count=0)

    @pytest.mark.parametrize("column", ["M", "A50", "unique", "novel"])
    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_fraction_columns_stay_in_0_1(self, column, value):
        with pytest.raises(ValueError, match=f"{column}={value} outside"):
            ReportRow(**{**ROW._asdict(), column: value})

    @pytest.mark.parametrize("value", [-0.1, 10.1])
    def test_cider_stays_in_0_10(self, value):
        with pytest.raises(ValueError, match=rf"C={value} outside \[0, 10\]"):
            ReportRow(**{**ROW._asdict(), "C": value})

    def test_positional_and_keyword_construction_are_both_checked(self):
        past, current, future = EVENTS
        with pytest.raises(ValueError, match="strictly ordered"):
            SegmentTriplet("egg", current, past, future)
        with pytest.raises(ValueError, match="strictly ordered"):
            SegmentTriplet(ingredient="egg", past=current, current=past, future=future)
