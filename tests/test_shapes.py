"""Each declared shape compiles to one function, which says whether a value fits and where not."""

import copy
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import actionsense
from actionsense import assembly, cli, corpus, extraction, providers, shapes, stubs, triplets
from actionsense.stubs import fixture_path

SRC_ROOT = os.path.dirname(os.path.dirname(actionsense.__file__))


def fixture(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def spoiled_trees():
    """A well-formed tree JSON, then copies of it with one value replaced, dropped or added."""
    def fresh():
        words = (("Stir", "VERB"), ("it", "PRON"))
        tokens = [{"text": w, "lemma": w.lower(), "pos": pos} for w, pos in words]
        return {"tokens": tokens, "arcs": [[0, 1, "dobj"]]}

    yield fresh()
    for at in (lambda t: t, lambda t: t["tokens"], lambda t: t["tokens"][0], lambda t: t["arcs"],
               lambda t: t["arcs"][0]):
        container = at(fresh())
        for key in list(container) if type(container) is dict else range(len(container)):
            for odd in (0, 2.0, True, None, "dobj", [], {}, "drop"):
                tree = fresh()
                if odd == "drop":
                    del at(tree)[key]
                else:
                    at(tree)[key] = odd
                yield tree
        tree = fresh()
        at(tree).append(0) if type(container) is list else at(tree).setdefault("extra", 0)
        yield tree


def is_tree(raw) -> bool:
    """Whether ``raw`` has shape ``extraction.TREE``: a hand-written reference for the property."""
    tokens, arcs = (raw.get("tokens"), raw.get("arcs")) if type(raw) is dict else (None, None)
    return type(tokens) is type(arcs) is list and all(
        type(t) is dict and type(t.get("text")) is type(t.get("lemma")) is type(t.get("pos")) is str
        for t in tokens
    ) and all(
        type(a) is list and len(a) == 3 and type(a[0]) is type(a[1]) is int and type(a[2]) is str
        for a in arcs
    )


class TestMessages:
    SHAPE = shapes.obj({
        "name": shapes.TEXT,
        "inner": {"count": shapes.INT, "note?": shapes.nullable(shapes.INT)},
        "pairs?": [shapes.tuple_of("a [number, string] pair", shapes.NUMBER, shapes.STRING)],
        "paths?": shapes.dict_of(shapes.STRING, "an object keyed by digits", str.isdigit),
    })
    GOOD = {"name": "n", "inner": {"count": 1}}

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(lambda v: v.update(inner={"count": "1"}),
                         "field 'inner.count' must be an integer, not \"1\"", id="nested-field"),
            pytest.param(lambda v: v.update(pairs=[[1, "a"], 5]),
                         "field 'pairs[1]' must be a [number, string] pair, not 5", id="list-index"),
            pytest.param(lambda v: v.update(pairs=[[1, "a"], [2, 3]]),
                         "field 'pairs[1][1]' must be a string, not 3", id="tuple-index"),
            pytest.param(lambda v: v.update(paths={"1": "a", "x": "b"}),
                         "field 'paths' must be an object keyed by digits, not {\"1\": \"a\", \"x\": \"b\"}",
                         id="dict-key"),
            pytest.param(lambda v: v["inner"].pop("count"), "missing field 'inner.count'",
                         id="missing"),
            pytest.param(lambda v: v["inner"].update(note=2.5),
                         "field 'inner.note' must be an integer, not 2.5", id="nullable-inner"),
            pytest.param(lambda v: v.update(name=" " * 50),
                         "field 'name' must be a non-blank string, not \"" + " " * 39 + "...",
                         id="quote-cut"),
        ],
    )
    def test_each_form(self, change, message):
        value = copy.deepcopy(self.GOOD)
        change(value)
        with pytest.raises(ValueError) as excinfo:
            shapes.check(value, self.SHAPE)
        assert str(excinfo.value) == message

    def test_root_leaf(self):
        with pytest.raises(ValueError, match=r"^must be a JSON object, not \[\]$"):
            shapes.check([], self.SHAPE)

    def test_a_quote_of_forty_characters_is_whole(self):
        with pytest.raises(ValueError) as excinfo:
            shapes.check("x" * 38, shapes.INT)  # 40 characters with its quotes
        assert str(excinfo.value) == f"must be an integer, not \"{'x' * 38}\""

    def test_null_fits_a_nullable_and_a_good_value_comes_back(self):
        value = {**self.GOOD, "inner": {"count": 1, "note": None}}
        assert shapes.check(value, self.SHAPE) is value


@pytest.mark.parametrize(
    "shape, good, bad",
    [
        (shapes.STRING, ["", " ", "a"], [None, 1, ["a"]]),
        (shapes.TEXT, ["a", " a "], ["", " \n", 1]),
        (shapes.INT, [0, -1, 10**400], [True, 1.0, "1", None]),
        (shapes.NUMBER, [0, -2, 1.5, -1e308, 10**300],
         [True, "1", None, float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]),
        (shapes.BOOL, [True, False], [0, 1, None, "true"]),
        (shapes.LIST, [[], [1]], [{}, "[]", None]),
        (shapes.OBJECT, [{}, {"a": 1}], [[], "{}", None]),
        (shapes.ANY, [None, 0, "", [], {}], []),
    ],
    ids=lambda x: x.must if isinstance(x, shapes.Shape) else "",
)
def test_each_leaf_takes_exactly_its_values(shape, good, bad):
    for value in good:
        assert shapes.check(value, shape) is value
    for value in bad:
        with pytest.raises(ValueError, match=f"^must be {shape.must}, not "):
            shapes.check(value, shape)


# a value of each shape the package declares at module level
SAMPLES = [
    (shapes.ANY, None), (shapes.STRING, ""), (shapes.TEXT, "t"), (shapes.INT, 1),
    (shapes.NUMBER, 1.5), (shapes.BOOL, False), (shapes.LIST, []), (shapes.OBJECT, {}),
    (extraction.TREE, next(iter(fixture("parse.json").values()))),
    (stubs._PARSE, fixture("parse.json")), (stubs._COREF, fixture("coref.json")),
    (stubs._RC, fixture("rc.json")), (stubs._LM, fixture("lm.json")),
    (corpus._VIDEO, fixture("annotations.json")["videos"][0]),
    (corpus._ANNOTATIONS, {"videos": [1]}), (corpus._RECIPES, fixture("recipes.json")),
    (corpus._BOX, [0, 1, 2, 3.5, 4]), (corpus._PATHS, {"1": "a.mp4", "12": "b.mp4"}),
    (triplets.TRIPLET, {
        "ingredient": "egg", "video_id": "v",
        "past": {"segment_index": 1, "verb": "crack"},
        "current": {"segment_index": 2, "verb": "whisk", "extra_verbs": ["beat"]},
        "future": {"segment_index": 3, "verb": "fry"},
    }),
    (assembly.FRAME, {"video_id": "v", "segment_index": 1, "frame_index": 2, "timestamp": 0.5,
                      "clip_path": None, "frame_path": "f.jpg"}),
    (assembly.OBJECT_TAG, "[Object1]"),
    (assembly.RECORD, {
        "instance_id": "v:1:egg", "text_description": "whisk the [Object1]",
        "action_object": ["whisk", "egg"],
        **{name: ["t"] for name in assembly.SET_FIELDS.values()},
        "image": None,
        "provenance": [{"video_id": "v", "triplet": {
            "ingredient": "egg", "video_id": "v",
            **{k: {"segment_index": 1, "verb": "whisk"} for k in ("past", "current", "future")},
        }, "image": {"video_id": "v", "segment_index": 1, "frame_index": 0, "timestamp": 0}}],
        "bindings": [["[Object1]", "egg"]], "flags": ["no_transcript"],
    }),
    (cli._CONFIG, fixture("run_config.json")),
    (cli._MANIFEST, {"stages": {"build": {"settings": {"seed": 1}}}, "cells": {"a": "b"},
                     "failures": []}),
    (cli._GENERATION_LINE, {"instance_id": "i", "inference_type": "goal", "condition": "AOPair",
                            "variant": 1, "texts": ["a", "b"]}),
    (cli._GENERATE_RECORD, {"file": "g.jsonl", "masks": ["AOPair"], "variants": [1]}),
    (cli._REPORT, {"rows": [{"type": "all", "condition": "AOPair",
                             **dict.fromkeys(cli.metrics.METRIC_COLUMNS, 1.0)}]}),
    (providers._STRINGS, ["a"]), (providers._DOCUMENTS, [["a", "b"], []]),
    (providers._ANSWERS, ["a", None]), (providers._SCORES, [[-1.5, 0], []]),
]


def declared_shapes():
    for info in pkgutil.iter_modules(actionsense.__path__):
        for name, value in vars(importlib.import_module(f"actionsense.{info.name}")).items():
            if isinstance(value, shapes.Shape):
                yield f"{info.name}.{name}", value


def test_every_declared_shape_has_a_sample_that_fits():
    sampled = {id(shape) for shape, _ in SAMPLES}
    assert [name for name, shape in declared_shapes() if id(shape) not in sampled] == []
    for shape, sample in SAMPLES:
        assert shapes.check(sample, shape) is sample


ODD = st.recursive(
    st.sampled_from([None, True, False, 0, 1, -1, 2.5, 10**400, float("inf"), float("nan"),
                     "", " ", "a", "1", "01", "١", "[Object1]"]) | st.builds(list) | st.builds(dict),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def containers(value, at=()):
    """The path of every list and object in ``value``, its own first."""
    if type(value) in (list, dict):
        yield at
        for key, item in value.items() if type(value) is dict else enumerate(value):
            yield from containers(item, (*at, key))


@st.composite
def spoiled(draw):
    """A sample, with up to three values in it replaced, dropped or added."""
    shape, value = draw(st.sampled_from(SAMPLES))
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(0, 3))):
        places = list(containers(value))
        if not places or draw(st.integers(0, 9)) == 0:
            value = draw(ODD)
            continue
        container = value
        for key in draw(st.sampled_from(places)):
            container = container[key]
        keys = list(container) if type(container) is dict else list(range(len(container)))
        how = draw(st.sampled_from(["replace", "drop", "add"] if keys else ["add"]))
        if how == "add":
            if type(container) is dict:
                container[draw(st.sampled_from(["", "1", "01", "x", *keys]))] = draw(ODD)
            else:
                container.append(draw(ODD))
        elif how == "drop":
            del container[draw(st.sampled_from(keys))]
        else:
            container[draw(st.sampled_from(keys))] = draw(ODD)
    return shape, value


def agree(shape, value) -> bool:
    """Whether ``value`` fits ``shape``. ``check`` must raise exactly when the compiled shape
    rejects ``value``, at a place in ``value``; a tree must fit as ``is_tree`` says."""
    found = shapes._compile(shape)(value)
    assert shape is not extraction.TREE or (found is True) == is_tree(value), value
    try:
        shapes.check(value, shape)
    except ValueError:
        keys, must, at = found
        container = value
        for key in keys[:-1]:
            container = container[key]
        if must is None:  # a missing field
            assert type(container) is dict and keys[-1] not in container, (value, keys)
        else:
            assert (container[keys[-1]] if keys else value) is at, (value, keys)
        return False
    assert found is True, value
    return True


@settings(max_examples=400, deadline=None)
@given(spoiled())
def test_check_raises_exactly_when_the_compiled_shape_rejects(case):
    agree(*case)


def test_spoiled_trees_agree():
    accepted = [tree for tree in spoiled_trees() if agree(extraction.TREE, tree)]
    assert 0 < len(accepted) < 20


def test_import_compiles_nothing_and_a_check_compiles_its_shape_once():
    """Compiling is deferred to the first check, out of the CLI's start-up time."""
    script = """if True:
        import gc
        import actionsense.cli, actionsense.stubs
        from actionsense import shapes, stubs
        def compiled():
            return [o for o in gc.get_objects() if type(o) is shapes.Shape and o.compiled]
        assert compiled() == [], "compiled at import"
        made, real = [], shapes._compile
        shapes._compile = lambda shape: made.append(shape) or real(shape)
        table = stubs._load(stubs.fixture_path("parse.json"), stubs._PARSE)
        shapes.check(table, stubs._PARSE)
        assert made == [stubs._PARSE] and compiled() == [stubs._PARSE], made
    """
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": SRC_ROOT})
