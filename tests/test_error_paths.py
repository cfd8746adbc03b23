"""Failure-branch coverage: schema violations, contract breaches, bad config."""

import ast
import contextlib
import copy
import dataclasses
import functools
import inspect
import io
import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from actionsense import assembly, cli, corpus
from actionsense.corpus import MalformedAnnotation, load_corpus, load_recipe_index
from actionsense.extraction import ParseTree
from actionsense.generation import FieldBlock, InferenceType, TokenSequence, VisualFeatures
from actionsense.metrics import EmptyCandidate, meteor
from actionsense.providers import ProviderError
from actionsense.stubs import StubLMProvider, StubParseProvider, fixture_path


ANNOTATIONS = json.loads(fixture_path("annotations.json").read_text(encoding="utf-8"))


def write_corpus(tmp_path, mutate):
    """The fixture annotations after ``mutate``; bytes that it returns become the whole file."""
    raw = copy.deepcopy(ANNOTATIONS)
    content = mutate(raw)
    path = tmp_path / "annotations.json"
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(raw).encode("utf-8"))
    return path

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def places(value, at=()):
    """Every place in a JSON document as its path of keys, the root included."""
    yield at
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from places(child, (*at, key))


def video(raw, key, value):
    raw["videos"][0][key] = value


def segment(raw, key, value, index=0):
    raw["videos"][0]["segments"][index][key] = value


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


class TestCorpusSchemaErrors:
    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda raw: raw["videos"][0]["segments"][0].pop("sentence"), "missing field"),
            (lambda raw: raw["videos"][0]["segments"][0].update(index=5), "contiguous"),
            (
                lambda raw: raw["videos"][0]["segments"][0]["objects"][0]["boxes"].append([1, 2, 3]),
                "must be [t,x1,y1,x2,y2]",
            ),
            (
                lambda raw: raw["videos"][0]["segments"][0]["objects"][0]["boxes"].append(
                    [1.0, 50.0, 60.0, 40.0, 90.0]
                ),
                "degenerate box",
            ),
            (
                lambda raw: raw["videos"][0]["segments"][0]["objects"].append({"label": ""}),
                "field 'segments[0].objects[2].label' must be a non-blank string, not \"\"",
            ),
            (lambda raw: raw["videos"][0].update(recipe_id="r404"), "not in recipe index"),
            (
                lambda raw: raw["videos"][0]["transcript"].append(
                    {"start": 9.0, "end": 4.0, "text": "backwards"}
                ),
                "ends before it starts",
            ),
            (
                lambda raw: raw["videos"][0]["segments"][1].update(start=0.0, end=18.0),
                "strictly ordered",
            ),
            pytest.param(
                lambda raw: raw["videos"][0]["segments"][2].update(start=28.0, end=20.0),
                "segment 3: start must precede end",
                id="reversed-segment",
            ),
            pytest.param(
                lambda raw: segment(raw, "end", float("inf"), index=7),
                "field 'segments[7].end' must be a finite number, not Infinity",
                id="infinite-end",
            ),
            pytest.param(
                lambda raw: video(raw, "media", {"clips": {"1": "/no/c.mp4"}, "resolved": True}),
                "resolved clip path missing: /no/c.mp4",
                id="resolved-clip-missing",
            ),
            pytest.param(
                lambda raw: video(raw, "segments", 5),
                "field 'segments' must be a list, not 5",
                id="segments-5",
            ),
            pytest.param(
                lambda raw: segment(raw, "start", "abc"),
                "field 'segments[0].start' must be a finite number, not \"abc\"",
                id="start-abc",
            ),
            pytest.param(
                lambda raw: segment(raw, "objects", [5]),
                "field 'segments[0].objects[0]' must be a JSON object, not 5",
                id="object-5",
            ),
            pytest.param(
                lambda raw: raw["videos"].insert(0, 5),
                "(record 0): must be a JSON object, not 5",
                id="video-5",
            ),
            pytest.param(
                lambda raw: raw["videos"][0]["transcript"][0].pop("text"),
                "missing field 'transcript[0].text'",
                id="transcript-line-without-text",
            ),
            pytest.param(
                lambda raw: raw["videos"][0]["transcript"][0].update(text=5),
                "field 'transcript[0].text' must be a string, not 5",
                id="transcript-text-5",
            ),
            pytest.param(
                lambda raw: segment(raw, "sentence", 5),
                "field 'segments[0].sentence' must be a non-blank string, not 5",
                id="sentence-5",
            ),
            pytest.param(
                lambda raw: raw["videos"][0]["media"]["clips"].update(x="clip.mp4"),
                "field 'media.clips' must be an object keyed by segment index, not {",
                id="clip-key-x",
            ),
            pytest.param(
                lambda raw: raw.update(videos=5),
                "(record None): field 'videos' must be a list, not 5",
                id="videos-5",
            ),
            # values that int(), float() and bool() once read as another type
            pytest.param(
                lambda raw: segment(raw, "index", "1"),
                "(record 0): field 'segments[0].index' must be an integer, not \"1\"",
                id="index-text",
            ),
            pytest.param(
                lambda raw: segment(raw, "index", 1.0),
                "(record 0): field 'segments[0].index' must be an integer, not 1.0",
                id="index-float",
            ),
            pytest.param(
                lambda raw: segment(raw, "index", True),
                "(record 0): field 'segments[0].index' must be an integer, not true",
                id="index-bool",
            ),
            pytest.param(
                lambda raw: segment(raw, "start", True),
                "(record 0): field 'segments[0].start' must be a finite number, not true",
                id="start-bool",
            ),
            pytest.param(
                lambda raw: raw["videos"][0]["media"].update(resolved="no"),
                "(record 0): field 'media.resolved' must be true or false, not \"no\"",
                id="resolved-text",
            ),
            pytest.param(lambda raw: b"{not json", "not a UTF-8 JSON file", id="not-json"),
            pytest.param(lambda raw: b"\xff\xfe{}", "not a UTF-8 JSON file", id="not-utf-8"),
        ],
    )
    def test_malformed_annotations_rejected(
        self, tmp_path, fixture_config, capsys, mutate, fragment
    ):
        path = write_corpus(tmp_path, mutate)
        with pytest.raises(MalformedAnnotation) as excinfo:
            load_corpus(path, fixture_path("recipes.json"))
        assert fragment in str(excinfo.value) and str(path) in str(excinfo.value)
        # the CLI reports the same error on one line, with exit 2
        cfg = {**json.loads(fixture_config.read_text()), "annotation_file": str(path)}
        fixture_config.write_text(json.dumps(cfg))
        out = tmp_path / "r"
        assert cli.main(["build-dataset", "--config", str(fixture_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"

    def test_recipe_index_must_be_object_of_names(self, tmp_path):
        path = tmp_path / "recipes.json"
        path.write_text(json.dumps(["not", "a", "map"]))
        with pytest.raises(MalformedAnnotation):
            load_recipe_index(path)
        path.write_text(json.dumps({"r1": ""}))
        with pytest.raises(MalformedAnnotation):
            load_recipe_index(path)
        path.write_text("{nope")
        with pytest.raises(MalformedAnnotation, match="not a UTF-8 JSON file"):
            load_recipe_index(path)

    # Any JSON value in any one place of the annotation file: the CLI keeps its exit codes.
    @settings(max_examples=100, deadline=None)
    @given(place=st.sampled_from(list(places(ANNOTATIONS))), value=JSON_VALUES)
    def test_one_replaced_value_never_escapes_the_exit_codes(
        self, tmp_path_factory, place, value
    ):
        raw = copy.deepcopy(ANNOTATIONS)
        if place:
            functools.reduce(operator.getitem, place[:-1], raw)[place[-1]] = value
        else:
            raw = value
        work = tmp_path_factory.mktemp("fuzz")
        (work / "annotations.json").write_text(json.dumps(raw))
        cfg = json.loads(fixture_path("run_config.json").read_text(encoding="utf-8"))
        cfg.update(annotation_file=str(work / "annotations.json"), retry_base_delay=0)
        (work / "config.json").write_text(json.dumps(cfg))
        config, out = str(work / "config.json"), str(work / "run")
        assert cli.main(["build-dataset", "--config", config, "--out", out]) in (0, 2, 3)


def evaluate_lines(run, lines, out):
    """Exit code, stderr and reports of ``evaluate --generations`` on ``lines``, into ``out``."""
    generations = out / "generations.jsonl"
    generations.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(
            ["evaluate", "--config", str(run / "config.json"), "--out", str(out),
             "--dataset", str(run / "dataset.jsonl"), "--generations", str(generations)]
        )
    return code, err.getvalue(), sorted((p.name, p.read_bytes()) for p in out.glob("*report*"))


class TestGenerationsFileErrors:
    """Evaluate on a generated fixture file with one of its lines changed."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        """The run, its generation lines for two masks at P1, and their evaluate outcome."""
        run = tmp_path_factory.mktemp("generated")
        cfg = json.loads(fixture_path("run_config.json").read_text(encoding="utf-8"))
        (run / "config.json").write_text(json.dumps({**cfg, "retry_base_delay": 0}))
        flags = ["--config", str(run / "config.json"), "--out", str(run)]
        grid = ["--modalities", "Image+TextDesc+AOPair+OG,AOPair", "--variants", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build-dataset", *flags]) == 0
            assert cli.main(["generate", *flags, *grid]) == 0
        lines = (run / "generations_main.jsonl").read_text(encoding="utf-8").splitlines()
        return run, lines, evaluate_lines(run, lines, tmp_path_factory.mktemp("canonical"))

    # Any JSON value in any one place of one line: evaluate keeps its exit codes.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_replaced_value_never_escapes_the_exit_codes(
        self, generated, tmp_path_factory, data
    ):
        run, lines, _ = generated
        number = data.draw(st.integers(0, len(lines) - 1))
        line = json.loads(lines[number])
        place = data.draw(st.sampled_from(list(places(line))))
        value = data.draw(JSON_VALUES)
        if place:
            functools.reduce(operator.getitem, place[:-1], line)[place[-1]] = value
        else:
            line = value
        lines = [*lines[:number], json.dumps(line), *lines[number + 1:]]
        code, err, _ = evaluate_lines(run, lines, tmp_path_factory.mktemp("fuzz"))
        assert code in (0, 2, 3)
        assert err == "" if code == 0 else one_error_line(err)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mask_spelled_in_any_order_gives_the_same_reports(
        self, generated, tmp_path_factory, data
    ):
        run, lines, canonical = generated
        number = data.draw(st.integers(0, len(lines) - 1))
        line = json.loads(lines[number])
        line["condition"] = "+".join(data.draw(st.permutations(line["condition"].split("+"))))
        lines = [*lines[:number], json.dumps(line), *lines[number + 1:]]
        assert canonical[0] == 0 and len(canonical[2]) == 2
        assert evaluate_lines(run, lines, tmp_path_factory.mktemp("permuted")) == canonical


def run_command(argv):
    """Exit code and stderr of one CLI command, run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestDatasetFileErrors:
    """Generate at AOPair P1 and evaluate on the fixture dataset with its records changed."""

    GRID = ["--modalities", "AOPair", "--variants", "1"]

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """The built run, its manifest before generate, and its dataset records."""
        run = tmp_path_factory.mktemp("built")
        cfg = json.loads(fixture_path("run_config.json").read_text(encoding="utf-8"))
        (run / "config.json").write_text(json.dumps({**cfg, "retry_base_delay": 0}))
        flags = ["--config", str(run / "config.json"), "--out", str(run)]
        assert run_command(["build-dataset", *flags]) == (0, "")
        manifest = (run / "manifest.json").read_bytes()
        assert run_command(["generate", *flags, *self.GRID]) == (0, "")
        records = [json.loads(line) for line in (run / "dataset.jsonl").open(encoding="utf-8")]
        return run, manifest, records

    def generate_and_evaluate(self, built, records, work):
        """(exit code, stderr) of generate on ``records`` in ``work``, then of evaluate.

        Evaluate reads what generate wrote, or, when generate failed, the built
        run's generations.
        """
        run, manifest, _ = built
        (work / "manifest.json").write_bytes(manifest)
        (work / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        flags = ["--config", str(run / "config.json"), "--out", str(work)]
        generate = run_command(["generate", *flags, *self.GRID])
        if generate[0] != 0:
            flags += ["--generations", str(run / "generations_main.jsonl")]
        return generate, run_command(["evaluate", *flags])

    # where the error is, for a value wrong only inside
    INSIDE = {"effects": "effects[0]", "flags": "flags[0]", "image": "image.video_id",
              "bindings": "bindings[0][0]", "provenance": "provenance[0].video_id"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("action_object", ["crack"]),
            ("goals", "Make eggs"),
            ("instance_id", 7),
            ("text_description", None),
            ("effects", ["  "]),
            ("flags", [None]),
            ("image", {"video_id": ["blt01"]}),
            ("bindings", [["egg", "[Object1]"]]),
            ("provenance", [{"video_id": 3}]),
        ],
    )
    def test_bad_value_exits_2_naming_its_line_and_field(self, built, tmp_path, field, value):
        records = copy.deepcopy(built[2])
        records[2][field] = value
        place = self.INSIDE.get(field, field)
        for code, err in self.generate_and_evaluate(built, records, tmp_path):
            assert code == 2 and one_error_line(err)
            assert f"dataset.jsonl: line 3: field {place!r} must be " in err

    # Permuted, repeated or changed records: both commands keep the exit codes, and what
    # generate writes, evaluate reads. The one exception is the pool_size error, which
    # depends on evaluate's own setting and on every instance's references, not on the
    # input generate read: taking one instance's after events away leaves too few
    # negatives in the fixture's pools of 10.
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_generate_and_evaluate_keep_the_exit_codes_and_agree(
        self, built, tmp_path_factory, data
    ):
        records = copy.deepcopy(built[2])
        case = data.draw(st.sampled_from(["permute", "repeat", "replace"]))
        if case == "permute":
            records = data.draw(st.permutations(records))
        elif case == "repeat":
            record = records[data.draw(st.integers(0, len(records) - 1))]
            records.insert(data.draw(st.integers(0, len(records))), record)
        else:  # any place of one record, its provenance triplets included
            number = data.draw(st.integers(0, len(records) - 1))
            place = data.draw(st.sampled_from(list(places(records[number]))))
            value = data.draw(JSON_VALUES)
            if place:
                functools.reduce(operator.getitem, place[:-1], records[number])[place[-1]] = value
            else:
                records[number] = value
        generate, evaluate = self.generate_and_evaluate(
            built, records, tmp_path_factory.mktemp("fuzz")
        )
        for code, err in (generate, evaluate):
            assert code in (0, 2) and (err == "" if code == 0 else one_error_line(err))
        if generate[0] == 0:
            assert evaluate[0] == 0 or "pool_size" in evaluate[1]
        if case == "repeat":
            assert generate[0] == 2 and "repeats: the record on line" in generate[1]


    @pytest.mark.parametrize(
        "place, value",
        [
            ("current.segment_index", 2.5),
            ("current.segment_index", "2"),
            ("past.verb", 5),
            ("future.extra_verbs", "abc"),
            ("video_id", 7),
            ("past", [1]),
        ],
    )
    def test_bad_provenance_triplet_exits_2_naming_its_line_and_field(
        self, built, tmp_path, place, value
    ):
        records = copy.deepcopy(built[2])
        *within, name = place.split(".")
        triplet = records[2]["provenance"][0]["triplet"]
        functools.reduce(operator.getitem, within, triplet)[name] = value
        outcomes = self.generate_and_evaluate(built, records, tmp_path)
        outcomes += (run_command(["stats", str(tmp_path / "dataset.jsonl")]),)
        for code, err in outcomes:
            assert code == 2 and one_error_line(err)
            assert f"dataset.jsonl: line 3: field 'provenance[0].triplet.{place}' must be " in err

    # Any JSON value in any one place of the manifest: evaluate keeps its exit codes.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_replaced_manifest_value_never_escapes_the_exit_codes(
        self, built, tmp_path_factory, data
    ):
        run, _, records = built
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        place = data.draw(st.sampled_from(list(places(manifest))))
        value = data.draw(JSON_VALUES)
        if place:
            functools.reduce(operator.getitem, place[:-1], manifest)[place[-1]] = value
        else:
            manifest = value
        work = tmp_path_factory.mktemp("fuzz")
        (work / "manifest.json").write_text(json.dumps(manifest))
        (work / "dataset.jsonl").write_bytes((run / "dataset.jsonl").read_bytes())
        code, err = run_command(
            ["evaluate", "--config", str(run / "config.json"), "--out", str(work)]
        )
        assert code in (0, 2) and (err == "" if code == 0 else one_error_line(err))


class TestReaders:
    READERS = {
        cli: ("load_config", "Manifest.load", "_read_generations", "run_report"),
        assembly: ("read_dataset",),
        corpus: ("load_corpus", "load_recipe_index", "_read_json"),
    }

    def test_readers_catch_only_value_and_os_errors(self):
        """A reader's shapes name what is wrong; a catch-all would hide bugs as exit 2."""
        for module, names in self.READERS.items():
            tree = ast.parse(inspect.getsource(module))
            functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
            functions.update(
                (f"{node.name}.{item.name}", item)
                for node in tree.body if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, ast.FunctionDef)
            )
            for name in names:
                for handler in ast.walk(functions[name]):
                    if isinstance(handler, ast.ExceptHandler):
                        caught = handler.type
                        assert caught is not None, f"{name} has a bare except"
                        types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
                        assert {ast.unparse(t) for t in types} <= {"ValueError", "OSError"}, name


class TestParseTreeValidation:
    def tokens(self, n):
        return [{"text": f"t{i}", "lemma": f"t{i}", "pos": "NOUN"} for i in range(n)]

    def test_token_with_two_heads_rejected(self):
        with pytest.raises(ValueError):
            ParseTree.from_dict(
                {"tokens": self.tokens(3), "arcs": [[0, 1, "det"], [2, 1, "det"]]}
            )

    def test_arc_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ParseTree.from_dict({"tokens": self.tokens(2), "arcs": [[0, 5, "det"]]})

    def test_multiple_roots_rejected(self):
        with pytest.raises(ValueError):
            ParseTree.from_dict({"tokens": self.tokens(3), "arcs": [[0, 1, "det"]]})


class TestVisualFeatureLimits:
    def test_feature_budget_enforced(self):
        objects = tuple((f"[Object{i}]", (0.0,)) for i in range(1, 16))
        with pytest.raises(ValueError):
            VisualFeatures(global_vec=(0.0,), objects=objects)

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValueError):
            VisualFeatures(
                global_vec=(0.0,),
                objects=(("[Object1]", (0.0,)), ("[Object1]", (1.0,))),
            )


class TestMetricErrorBranches:
    def test_meteor_empty_candidate(self):
        with pytest.raises(EmptyCandidate):
            meteor("", ["fry the bacon"])


class TestStubContracts:
    def sequence(self):
        return TokenSequence(
            blocks=(FieldBlock("start", ("s_goal",)),), inference_type=InferenceType.GOAL
        )

    def test_parse_stub_rejects_unknown_sentence(self):
        stub = StubParseProvider(fixture_path("parse.json"))
        with pytest.raises(ProviderError):
            stub.parse("a sentence nobody canned")

    def test_lm_stub_without_samples_rejects_sampling(self):
        stub = StubLMProvider(vocab_size=10)
        with pytest.raises(ProviderError):
            stub.sample(self.sequence(), 0.9, 8, 1)

    def test_lm_stub_empty_continuation(self):
        stub = StubLMProvider(vocab_size=10)
        assert stub.logprobs(self.sequence(), "") == []


class TestConfigErrors:
    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_field": 1}))
        with pytest.raises(cli.ConfigError) as excinfo:
            cli.load_config(path)
        assert "not_a_field" in str(excinfo.value)

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    @pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = cli.main(["build-dataset", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "JSON object" in err

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "absent.json")

    def test_unknown_provider_kind_exits_2(self, fixture_config, tmp_path, capsys):
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"] = {"kind": "carrier-pigeon"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "carrier-pigeon" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", None, [], {}], ids=["string", "null", "list", "object"])
    @pytest.mark.parametrize("field", sorted(vars(cli.RunConfig())))
    def test_config_field_of_wrong_type_never_escapes_the_exit_codes(
        self, fixture_config, tmp_path, capsys, field, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(fixture_config.read_text()), field: value}))
        flags = ["--config", str(config), "--out", str(tmp_path / "run")]
        for command in (
            ["build-dataset", *flags],
            ["generate", *flags, "--modalities", "AOPair", "--variants", "1"],
            ["evaluate", *flags],
        ):
            code = cli.main(command)
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and "Traceback" not in err
            assert err == "" if code == 0 else one_error_line(err)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("retries", "0"),
            ("retries", "-1"),
            ("retries", "11"),
            ("fps", "0"),
            ("fps", "-2.5"),
            ("fps", "Infinity"),
            ("fps", "-Infinity"),
            ("fps", "NaN"),
            ("fps", "1e308"),
            pytest.param("fps", "1" + "0" * 400, id="fps-1e400-int"),
            ("n_samples", "0"),
            ("max_new_tokens", "0"),
            ("workers", "0"),
            ("workers", "-1"),
            ("workers", "2"),
            ("nucleus_p", "1.5"),
            ("nucleus_p", "-0.1"),
            ("min_count", "-5"),
            ("pool_size", "1"),
            ("pool_size", "0"),
            ("retry_base_delay", "-1"),
            ("retry_base_delay", "1e308"),
            ("modalities", "[]"),
            ("variants", "[]"),
        ],
    )
    def test_config_field_out_of_range_exits_2(
        self, fixture_config, tmp_path, capsys, field, value
    ):
        # Python's JSON reader takes Infinity, NaN and ints too large for a float,
        # so the values are written raw
        text = fixture_config.read_text().rstrip()
        config = tmp_path / "config.json"
        config.write_text(f'{text[:-1]}, "{field}": {value}}}')
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err) and repr(field) in err

    def test_every_config_field_declares_its_range_and_stages(self):
        for field in dataclasses.fields(cli.RunConfig):
            assert set(field.metadata) == {"valid", "must", "stages"}, field.name

    # Any JSON value in any one field of the run config: every command keeps its exit codes.
    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(sorted(vars(cli.RunConfig()))), data=st.data())
    def test_one_replaced_field_never_escapes_the_exit_codes(self, tmp_path_factory, name, data):
        if name in ("n_samples", "workers"):  # small ints: n_samples sizes a list, workers takes 1
            value = data.draw(st.integers(-2, 4) | JSON_VALUES.filter(lambda v: type(v) is not int))
        else:
            value = data.draw(JSON_VALUES)
        cfg = json.loads(fixture_path("run_config.json").read_text(encoding="utf-8"))
        cfg.update({"retry_base_delay": 0, name: value})
        work = tmp_path_factory.mktemp("fuzz")
        (work / "config.json").write_text(json.dumps(cfg))
        flags = ["--config", str(work / "config.json"), "--out", str(work / "run")]
        for command in (
            ["build-dataset", *flags],
            ["generate", *flags, "--modalities", "AOPair", "--variants", "1"],
            ["evaluate", *flags],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(command)
            assert code in (0, 2, 3) and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe", b"{nope", b"[]"])
    @pytest.mark.parametrize("role", ["coref", "parse", "rc", "lm"])
    def test_unreadable_provider_table_exits_2(
        self, fixture_config, tmp_path, capsys, role, content
    ):
        table = tmp_path / f"{role}.json"
        if content is not None:
            table.write_bytes(content)
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"][role]["path"] = str(table)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err) and repr(role) in err and str(table) in err

    # each table is the fixture's, with one entry replaced: (role, edit, the field named)
    @pytest.mark.parametrize(
        "role, edit, named",
        [
            ("coref", lambda t, k: {**t, k: 5}, "must be a string, not 5"),
            ("coref", lambda t, k: {**t, k: None}, "must be a string, not null"),
            ("parse", lambda t, k: {**t, k: 5}, "must be a JSON object, not 5"),
            ("parse", lambda t, k: {**t, k: {"tokens": t[k]["tokens"]}}, ".arcs'"),
            ("rc", lambda t, k: {**t, k: 5}, "must be a list, not 5"),
            ("rc", lambda t, k: {**t, k: "golden"}, 'must be a list, not "golden"'),
            ("lm", lambda t, k: {"samples": list(t["samples"].values())}, "'samples' must be"),
            ("lm", lambda t, k: {"samples": {**t["samples"], "goal": [5]}}, "'samples.goal[0]'"),
        ],
        ids=["coref-int", "coref-null", "parse-int", "parse-no-arcs", "rc-int", "rc-string",
             "lm-list", "lm-int"],
    )
    def test_malformed_provider_table_entry_exits_2_naming_the_field(
        self, fixture_config, tmp_path, capsys, role, edit, named
    ):
        table = json.loads(fixture_path(f"{role}.json").read_text(encoding="utf-8"))
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(edit(table, next(iter(table)))))
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"][role]["path"] = str(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err), err
        assert f"provider {role!r} table {path}: " in err and named in err

    def test_long_wrong_value_is_quoted_by_its_first_characters(
        self, fixture_config, tmp_path, capsys
    ):
        table = json.loads(fixture_path("lm.json").read_text(encoding="utf-8"))
        quoted = json.dumps(list(table["samples"].values()))
        path = tmp_path / "lm.json"
        path.write_text(json.dumps({"samples": list(table["samples"].values())}))
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"]["path"] = str(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err), err
        assert len(quoted) > 500
        assert err.endswith(f"field 'samples' must be a JSON object, not {quoted[:40]}...\n")

    # each edit spoils the fixture's first canned tree, which the build parses
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda t: t["arcs"].append([0, t["arcs"][0][1], "dep"]), "more than one head"),
            (lambda t: t["arcs"].append([0, len(t["tokens"]), "dep"]), "out of token range"),
            (lambda t: t["arcs"].pop(), "exactly one root"),
        ],
        ids=["two-heads", "arc-out-of-range", "two-roots"],
    )
    def test_canned_parse_that_is_not_one_tree_exits_3_naming_table_and_sentence(
        self, fixture_config, tmp_path, capsys, edit, named
    ):
        table = json.loads(fixture_path("parse.json").read_text(encoding="utf-8"))
        sentence = next(iter(table))
        edit(table[sentence])
        path = tmp_path / "parse.json"
        path.write_text(json.dumps(table))
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["parse"]["path"] = str(path)
        cfg["retry_base_delay"] = 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 3 and one_error_line(err), err
        assert str(path) in err and repr(sentence) in err and named in err

    def test_a_bad_canned_parse_is_asked_once_and_never_waits_for_a_retry(
        self, fixture_config, tmp_path, monkeypatch, capsys
    ):
        table = json.loads(fixture_path("parse.json").read_text(encoding="utf-8"))
        tree = table[next(iter(table))]
        tree["arcs"].append([0, tree["arcs"][0][1], "dep"])  # a second head
        path = tmp_path / "parse.json"
        path.write_text(json.dumps(table))
        cfg = json.loads(fixture_config.read_text())  # the default retry_base_delay
        cfg["providers"]["parse"]["path"] = str(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        calls, sleeps = [], []
        parse_many = StubParseProvider.parse_many
        monkeypatch.setattr(
            StubParseProvider, "parse_many", lambda self, s: calls.append(s) or parse_many(self, s)
        )
        with_retries = cli.with_retries
        monkeypatch.setattr(
            cli, "with_retries",
            lambda fn, attempts, base_delay: with_retries(fn, attempts, base_delay, sleeps.append),
        )
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 3 and "more than one head" in capsys.readouterr().err
        # the table would answer a retry the same way
        assert len(calls) == 1 and sleeps == []

    def test_provider_spec_without_its_url_exits_2(self, fixture_config, tmp_path, capsys):
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"] = {"kind": "http"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(config), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err) and "'lm'" in err and "'url'" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"{nope",
            b"[]",
            b'{"stages": {"assemble": {}}}',
            lambda data: {**data, "stages": {**data["stages"], "assemble": []}},
            lambda data: {**data, "cells": dict.fromkeys(data["cells"], 5)},
        ],
        ids=["json", "list", "cells", "stage-record", "cell-path"],
    )
    def test_unreadable_manifest_exits_2(self, fixture_config, tmp_path, capsys, content):
        """``content`` is the manifest's bytes, or makes its JSON from the generated run's."""
        flags = ["--config", str(fixture_config), "--out", str(tmp_path / "run")]
        grid = ["--modalities", "AOPair", "--variants", "1"]
        assert cli.main(["build-dataset", *flags]) == 0
        assert cli.main(["generate", *flags, *grid]) == 0
        manifest = tmp_path / "run" / "manifest.json"
        if callable(content):
            content = json.dumps(content(json.loads(manifest.read_text()))).encode("utf-8")
        manifest.write_bytes(content)
        capsys.readouterr()
        code = cli.main(["generate", *flags, *grid, "--resume"])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err) and str(manifest) in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("masks", None), ("file", None), ("variants", None), (None, []),
            ("masks", "AOPair"), ("masks", []), ("masks", ["Nope"]), ("masks", [3]),
            ("file", 3), ("variants", 1), ("variants", [5]), ("variants", ["1"]),
            ("variants", [True]), ("masks", ["AOPair", "AOPair"]),
            ("masks", ["TextDesc+AOPair", "AOPair+TextDesc"]), ("variants", [1, 1]),
        ],
    )
    def test_malformed_generate_record_exits_2_naming_the_field(
        self, fixture_config, tmp_path, capsys, field, value
    ):
        flags = ["--config", str(fixture_config), "--out", str(tmp_path / "run")]
        assert cli.main(["build-dataset", *flags]) == 0
        assert cli.main(["generate", *flags, "--modalities", "AOPair", "--variants", "1"]) == 0
        manifest = tmp_path / "run" / "manifest.json"
        data = json.loads(manifest.read_text())
        if field is None:  # the record itself
            data["stages"]["generate"] = value
        elif value is None:
            del data["stages"]["generate"][field]
        else:
            data["stages"]["generate"][field] = value
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        code = cli.main(["evaluate", *flags])
        err = capsys.readouterr().err
        assert code == 2 and one_error_line(err) and str(manifest) in err
        assert f"'{field or 'stages.generate'}'" in err

    def test_out_dir_required(self, fixture_config, capsys):
        code = cli.main(["build-dataset", "--config", str(fixture_config)])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "actionsense.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "build-dataset" in result.stdout
