import contextlib
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from actionsense import assembly, cli, extraction, generation, metrics, providers, stubs
from actionsense.assembly import (
    CommonsenseInstance,
    compute_statistics,
    effect_questions,
    read_dataset,
)
from actionsense.corpus import Corpus
from actionsense.extraction import (
    count_lemma_frequencies,
    filter_pairs_by_frequency,
    resolve_coreferences,
)
from actionsense.providers import ProviderError
from actionsense.triplets import read_triplets

GOLDEN_DIR = Path(__file__).parent / "data"
# sha256 of the fixture run's generations_main.jsonl over all 10 masks x P1-P4, recorded
# before composition was split into a mask step and a prompt step
FULL_GRID_DIGESTS = {
    "text-only": "10ec74f403a7d563e71e1ff4c468bff6d8217f0aec82631cc0d913606f6bec50",
    "vision-stub": "b6aa739daf25fae4f482e98f781b84bae12448dd10bf3b415f5926e1770d35bf",
    "text-only, event truncated": "ce17a710c312640ebd75731219b05f2ef9dea5ca903336237be8543e03ce31ab",
    "vision-stub, event truncated": "bf4fe12a0366e871b7ea21ddc9bbac60b11a39838d39ee5140f4f34374f29ceb",
}
ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = ROOT / "src"


def load_perfbench(name):
    """A module of ``perfbench/``, which is not a package, by file path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(config, out):
    assert cli.main(["build-dataset", "--config", str(config), "--out", str(out)]) == 0
    return out


def doctor_first_image_instance(dataset: Path, change) -> str:
    """Apply ``change`` to the record of the dataset's first instance with an image; return its id."""
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    record = next(r for r in records if r["image"] is not None)
    change(record)
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    return record["instance_id"]


class TestBuildDataset:
    def test_fixture_build_succeeds(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        dataset = read_dataset(out / "dataset.jsonl")
        assert len(dataset) == 9
        assert (out / "stats.json").exists()
        assert (out / "triplets.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stages"]) >= {"ingest", "extract", "triplets", "assemble"}

    def test_rerun_is_byte_identical(self, fixture_config, tmp_path):
        a = build(fixture_config, tmp_path / "a")
        b = build(fixture_config, tmp_path / "b")
        for name in ("dataset.jsonl", "stats.json", "triplets.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_coref_error_is_retried_before_the_fallback(self, fixture_config, tmp_path):
        expected = build(fixture_config, tmp_path / "steady")
        with text_tool_server(refuse_first={"coref"}) as (url, posts):
            cfg = {**json.loads(fixture_config.read_text()), "retry_base_delay": 0}
            cfg["providers"]["coref"] = {"kind": "http", "url": f"{url}/coref"}
            config = tmp_path / "http_coref.json"
            config.write_text(json.dumps(cfg))
            out = build(config, tmp_path / "flaky")
            # the first coref request was refused and its retry answered
            assert posts == Counter({"coref": 2})
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        for name in ("dataset.jsonl", "stats.json", "triplets.jsonl"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_coref_failure_after_retries_is_recorded_per_video(
        self, fixture_config, tmp_path, monkeypatch, corpus
    ):
        config, unresolved = fallback_configs(fixture_config, tmp_path)
        saves = count_manifest_saves(monkeypatch)
        expected = build(unresolved, tmp_path / "unresolved")
        steady_saves = saves.pop("save")

        def down(self, documents):
            raise ProviderError("coref endpoint down")

        monkeypatch.setattr(stubs.StubCorefProvider, "resolve", down)
        out = build(config, tmp_path / "run")
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert len(failures) == len(corpus.videos)
        for failure, video in zip(failures, corpus.videos):
            assert video.video_id in failure and "coref endpoint down" in failure
        # the failed request's five failures are saved at once
        assert saves["save"] == steady_saves + 1
        assert json.loads((expected / "manifest.json").read_text())["failures"] == []
        for name in ("dataset.jsonl", "stats.json", "triplets.jsonl"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_only_the_failed_coref_chunk_keeps_its_sentences_flagged(
        self, fixture_config, tmp_path, monkeypatch, corpus
    ):
        config, _ = fallback_configs(fixture_config, tmp_path)
        monkeypatch.setattr(providers, "REQUEST_CAP", 2)
        saves = count_manifest_saves(monkeypatch)
        build(config, tmp_path / "steady")
        steady_saves = saves.pop("save")
        second = [[seg.sentence for seg in v.segments] for v in corpus.videos[2:4]]
        resolve = stubs.StubCorefProvider.resolve

        def second_chunk_down(self, documents):
            if documents == second:
                raise ProviderError("coref endpoint down")
            return resolve(self, documents)

        monkeypatch.setattr(stubs.StubCorefProvider, "resolve", second_chunk_down)
        flagged = []
        # a chunk's sentences come from resolve_videos, or from unresolved if its request failed
        for name in ("resolve_videos", "unresolved"):

            def recorded(videos, *rest, original=getattr(extraction, name)):
                resolved = original(videos, *rest)
                flagged.extend(
                    (v.video_id, [s.flagged for s in r]) for v, r in zip(videos, resolved)
                )
                return resolved

            monkeypatch.setattr(extraction, name, recorded)
        out = build(config, tmp_path / "run")
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert len(failures) == 2 and saves["save"] == steady_saves + 1
        for failure, video in zip(failures, corpus.videos[2:4]):
            assert f"video {video.video_id} kept its sentences" in failure
        failed = {v.video_id for v in corpus.videos[2:4]}
        assert flagged == [
            (v.video_id, [v.video_id in failed] * len(v.segments)) for v in corpus.videos
        ]

    def test_missing_annotation_file_exits_2(self, fixture_config, tmp_path, capsys):
        cfg = json.loads(fixture_config.read_text())
        cfg["annotation_file"] = "nowhere/missing.json"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    def test_duplicate_video_id_exits_2(self, fixture_config, tmp_path, capsys):
        from actionsense.stubs import fixture_path

        raw = json.loads(fixture_path("annotations.json").read_text())
        raw["videos"].append(raw["videos"][0])
        annotations = tmp_path / "dup.json"
        annotations.write_text(json.dumps(raw))
        cfg = json.loads(fixture_config.read_text())
        cfg["annotation_file"] = str(annotations)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(raw["videos"][0]["video_id"]) in err
        assert "Traceback" not in err

    def test_segment_too_long_for_a_frame_index_exits_2_naming_it(
        self, fixture_config, tmp_path, capsys
    ):
        from actionsense.stubs import fixture_path

        raw = json.loads(fixture_path("annotations.json").read_text())
        video = raw["videos"][0]
        video["segments"][1]["end"] = 1.7e308  # finite, but fps times half of it is not
        annotations = tmp_path / "long.json"
        annotations.write_text(json.dumps(raw))
        cfg = {**json.loads(fixture_config.read_text()), "annotation_file": str(annotations)}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "r"
        code = cli.main(["build-dataset", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert f"video {video['video_id']!r} segment 2" in err
        assert not (out / "dataset.jsonl").exists()

    def test_two_pairs_with_one_id_stop_the_build_before_the_dataset_is_written(
        self, fixture_config, tmp_path, capsys, monkeypatch
    ):
        # the merged pairs of boxty01's and mash01's potato triplets slug to one id
        form = assembly.form_action_object_pair

        def colliding(triplet):
            verb, ingredient = form(triplet)
            if ingredient != "potato":
                return verb, ingredient
            return "cook", "bacon bits" if triplet.video_id.startswith("mash") else "bacon-bits"

        monkeypatch.setattr(assembly, "form_action_object_pair", colliding)
        out = tmp_path / "run"
        assert cli.main(["build-dataset", "--config", str(fixture_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset not written: ") and err.count("\n") == 1
        assert "'cook_bacon-bits' repeats" in err
        assert "('cook', 'bacon bits')" in err and "('cook', 'bacon-bits')" in err
        assert not (out / "dataset.jsonl").exists()

    def test_relative_out_resolves_against_working_directory(
        self, fixture_config, tmp_path, monkeypatch
    ):
        (tmp_path / "c200").mkdir()
        cfg = json.loads(fixture_config.read_text())
        cfg["out_dir"] = "from_config"
        (tmp_path / "c200" / "config.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        build("c200/config.json", "c200/run")
        assert (tmp_path / "c200" / "run" / "dataset.jsonl").exists()
        assert not (tmp_path / "c200" / "c200").exists()
        # a relative out_dir inside the config still resolves against the config
        assert cli.main(["build-dataset", "--config", "c200/config.json"]) == 0
        assert (tmp_path / "c200" / "from_config" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("resolved_to", ["", "  "])
    def test_sentence_resolved_to_nothing_keeps_its_original_flagged(
        self, fixture_config, tmp_path, corpus, resolved_to
    ):
        from actionsense.extraction import resolve_coreferences
        from actionsense.stubs import fixture_path

        video = corpus.videos[0]
        first = video.segments[0].sentence
        coref = json.loads(fixture_path("coref.json").read_text())
        parse = json.loads(fixture_path("parse.json").read_text())
        # the original's tree is the resolved sentence's, so both yield the same pairs
        parse[first] = parse[coref[first]]
        coref[first] = resolved_to
        cfg = json.loads(fixture_config.read_text())
        for name, table in (("coref", coref), ("parse", parse)):
            (tmp_path / f"{name}.json").write_text(json.dumps(table))
            cfg["providers"][name] = {"kind": "stub", "path": str(tmp_path / f"{name}.json")}
        config = tmp_path / "empty_coref.json"
        config.write_text(json.dumps(cfg))
        out = build(config, tmp_path / "run")
        assert len(read_dataset(out / "dataset.jsonl")) == 9
        sentences = resolve_coreferences(video, stubs.StubCorefProvider(tmp_path / "coref.json"))
        assert (sentences[0].resolved, sentences[0].flagged) == (first, True)
        assert not any(s.flagged for s in sentences[1:])

    @pytest.mark.parametrize("field", ["annotation_file", "recipe_file"])
    def test_input_file_that_is_a_directory_exits_2(self, fixture_config, tmp_path, capsys, field):
        cfg = {**json.loads(fixture_config.read_text()), field: str(tmp_path)}
        fixture_config.write_text(json.dumps(cfg))
        argv = ["build-dataset", "--config", str(fixture_config), "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}") and "Traceback" not in err

    def test_min_count_filter_matches_module_oracle(
        self, fixture_config, tmp_path, fixture_pairs
    ):
        cfg = json.loads(fixture_config.read_text())
        cfg["min_count"] = 10
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(cfg))
        out = build(strict, tmp_path / "run")
        dataset = read_dataset(out / "dataset.jsonl")

        counts = count_lemma_frequencies(fixture_pairs)
        surviving = filter_pairs_by_frequency(fixture_pairs, counts, 10)
        surviving_nouns = {p.ingredient for p in surviving}
        assert {i.action_object[1] for i in dataset} <= surviving_nouns
        # at this corpus scale no verb reaches ten occurrences
        assert dataset == []


class TestStats:
    def test_empty_dataset_all_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["stats", str(empty)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        assert all(line.rstrip().endswith("0") for line in lines)

    def test_matches_compute_statistics_verbatim(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        capsys.readouterr()
        assert cli.main(["stats", str(out / "dataset.jsonl")]) == 0
        printed = capsys.readouterr().out
        report = compute_statistics(read_dataset(out / "dataset.jsonl"))
        for label, value in report.rows():
            assert f"{label}" in printed
            assert str(value) in printed
        width = max(len(label) for label, _ in report.rows())
        expected = "".join(
            f"{label.ljust(width)}  {value}\n" for label, value in report.rows()
        )
        assert printed == expected

    @pytest.mark.parametrize(
        "doctor",
        [
            None,
            lambda line: "[]",
            lambda line: json.dumps({**json.loads(line), "goals": 5}),
            lambda line: line.replace('"current": {"segment_index": 2', '"current": {"segment_index": 9e999'),
            "directory",
        ],
        ids=["missing", "list", "goals-5", "segment-infinity", "directory"],
    )
    def test_unreadable_dataset_exits_2(self, fixture_config, tmp_path, capsys, doctor):
        dataset = tmp_path / "dataset.jsonl"
        if doctor == "directory":
            dataset.mkdir()
        elif doctor is not None:
            built = build(fixture_config, tmp_path / "run") / "dataset.jsonl"
            dataset.write_text(doctor(built.read_text().splitlines()[0]) + "\n")
        capsys.readouterr()
        assert cli.main(["stats", str(dataset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset not readable: {dataset}") and "Traceback" not in err


class TestGenerate:
    def test_requires_built_dataset(self, fixture_config, tmp_path):
        code = cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(tmp_path / "fresh")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (["--variants", "a"], {}),
            (["--variants", "0"], {}),
            (["--variants", "7"], {}),
            (["--modalities", "Bogus"], {}),
            (["--modalities", "OG"], {}),
            ([], {"variants": [5]}),
            ([], {"modalities": ["TextDesc+OG"]}),
            ([], {"modality_stage_variant": 9}),
            ([], {"variants": ["1"]}),
        ],
        ids=[
            "flag-variant-a", "flag-variant-0", "flag-variant-7", "flag-mask-bogus",
            "flag-mask-og", "file-variant", "file-mask", "file-stage-variant",
            "file-variant-text",
        ],
    )
    def test_bad_grid_values_exit_2(self, fixture_config, tmp_path, capsys, flags, fields):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(fixture_config.read_text()), **fields}))
        # a bad config file fails every command, build-dataset included
        out = build(config, tmp_path / "run") if not fields else tmp_path / "run"
        capsys.readouterr()
        code = cli.main(["generate", "--config", str(config), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert ("variant" in err or "modality" in err) and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, fields, repeat",
        [
            (["--modalities", "AOPair,AOPair", "--variants", "1"], {}, "'AOPair' and 'AOPair'"),
            (
                ["--modalities", "TextDesc+AOPair,AOPair+TextDesc", "--variants", "1"],
                {},
                "'TextDesc+AOPair' and 'AOPair+TextDesc'",
            ),
            (["--modalities", "AOPair", "--variants", "1,1"], {}, "variants 1 and 1"),
            ([], {"modalities": ["OG+Image", "AOPair", "Image+OG"]}, "'OG+Image' and 'Image+OG'"),
            ([], {"variants": [2, 3, 2]}, "2 and 2"),
        ],
        ids=["flag-mask", "flag-mask-spelled-twice", "flag-variant", "file-mask", "file-variant"],
    )
    def test_grid_naming_one_cell_twice_exits_2(
        self, fixture_config, tmp_path, capsys, flags, fields, repeat
    ):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({**json.loads(fixture_config.read_text()), **fields}))
        out = build(fixture_config, tmp_path / "run")
        capsys.readouterr()
        code = cli.main(["generate", "--config", str(config), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert repeat in err
        assert not (out / "generations_main.jsonl").exists()

    def test_request_group_accounting(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        code = cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out), "--variants", "1"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        instances = len(read_dataset(out / "dataset.jsonl"))
        assert manifest["stages"]["generate"]["request_groups"] == 10 * instances

    def test_rerun_is_byte_identical(self, fixture_config, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = build(fixture_config, tmp_path / name)
            assert cli.main(
                ["generate", "--config", str(fixture_config), "--out", str(out),
                 "--modalities", "AOPair,TextDesc", "--variants", "1,2"]
            ) == 0
            runs.append((out / "generations_main.jsonl").read_bytes())
        assert runs[0] == runs[1]

    def test_cell_output_matches_golden_file(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        golden = (GOLDEN_DIR / "golden_generations_aopair_p1.jsonl").read_bytes()
        assert (out / "gen_cells_main" / "AOPair__P1.jsonl").read_bytes() == golden

    def test_resume_regenerates_cells_made_under_other_settings(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        one_sample = tmp_path / "one_sample.json"
        cfg = json.loads(fixture_config.read_text())
        one_sample.write_text(json.dumps({**cfg, "n_samples": 1}))
        for config, modalities, n_texts in (
            (fixture_config, "AOPair", 3),
            (one_sample, "AOPair,TextDesc", 1),
            (fixture_config, "AOPair", 3),  # back to the first settings
        ):
            assert cli.main(
                ["generate", "--config", str(config), "--out", str(out),
                 "--modalities", modalities, "--variants", "1", "--resume"]
            ) == 0
            lines = (out / "generations_main.jsonl").read_text().splitlines()
            assert lines and {len(json.loads(line)["texts"]) for line in lines} == {n_texts}

    def test_interrupted_run_resumes_to_identical_output(self, fixture_config, tmp_path):
        full = build(fixture_config, tmp_path / "full")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(full),
             "--modalities", "AOPair,TextDesc", "--variants", "1"]
        ) == 0

        partial = build(fixture_config, tmp_path / "partial")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(partial),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(partial),
             "--modalities", "AOPair,TextDesc", "--variants", "1", "--resume"]
        ) == 0
        assert (
            (full / "generations_main.jsonl").read_bytes()
            == (partial / "generations_main.jsonl").read_bytes()
        )

    def test_empty_sample_is_kept_unscored(self, fixture_config, tmp_path):
        samples = json.loads(stubs.fixture_path("lm.json").read_text())
        samples["samples"]["goal"] = ["e_inf nothing", "Make Boxty", "Cook BLT"]
        lm_path = tmp_path / "lm.json"
        lm_path.write_text(json.dumps(samples))
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"]["path"] = str(lm_path)
        config = tmp_path / "empty.json"
        config.write_text(json.dumps(cfg))
        out = build(config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        generated = (out / "generations_main.jsonl").read_text().splitlines()
        goals = [json.loads(line) for line in generated if '"inference_type": "goal"' in line]
        assert goals
        assert all(sorted(line["texts"]) == ["", "Cook BLT", "Make Boxty"] for line in goals)
        for line in goals:
            for text, nll, perplexity in zip(line["texts"], line["nll"], line["perplexity"]):
                assert (nll is None) == (perplexity is None) == (text == "")
        assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0


class TestInputErrors:
    @pytest.mark.parametrize(
        "command, cell",
        [
            ("generate", "(precondition, Image+OG, P1) has 99 tokens"),
            ("evaluate", "(precondition, Image+OG, P1) has 99 tokens"),
            ("ablate", "(precondition, Image, P1) has 85 tokens"),  # its first mask
        ],
    )
    def test_overlong_input_exits_2_naming_instance_cell_and_length(
        self, fixture_config, tmp_path, capsys, command, cell
    ):
        out = build(fixture_config, tmp_path / "run")
        grid = ["--modalities", "Image+OG", "--variants", "1"]
        if command == "evaluate":
            assert cli.main(["generate", "--config", str(fixture_config), "--out", str(out), *grid]) == 0
        # 14 long object labels: the Image+OG block alone holds 86 tokens, and no cut of
        # the event text brings the input under the 64-token limit
        labels = [[f"[Object{k}]", "very long object label here"] for k in range(1, 15)]
        instance_id = doctor_first_image_instance(
            out / "dataset.jsonl", lambda record: record.update(bindings=labels)
        )
        capsys.readouterr()
        argv = [command, "--config", str(fixture_config), "--out", str(out)]
        code = cli.main(argv + (grid if command == "generate" else []))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert f"instance {instance_id} in cell {cell}" in err

    @pytest.mark.parametrize("command", ["stats", "generate", "evaluate", "ablate"])
    def test_repeated_instance_id_exits_2_naming_it_and_both_records(
        self, fixture_config, tmp_path, capsys, command
    ):
        out = build(fixture_config, tmp_path / "run")
        flags = ["--config", str(fixture_config), "--out", str(out)]
        grid = ["--modalities", "AOPair", "--variants", "1"]
        assert cli.main(["generate", *flags, *grid]) == 0
        dataset = out / "dataset.jsonl"
        records = dataset.read_text().splitlines()
        dataset.write_text("\n".join([*records, records[0]]) + "\n")
        capsys.readouterr()
        argv = {"stats": ["stats", str(dataset)], "generate": ["generate", *flags, *grid]}
        code = cli.main(argv.get(command, [command, *flags]))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: dataset not readable: ")
        instance_id = json.loads(records[0])["instance_id"]
        assert f"instance id {instance_id!r} repeats: the record on line 1 and the record on" \
               f" line {len(records) + 1}" in err

    def test_generations_for_a_missing_modality_exit_2(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        text = (out / "generations_main.jsonl").read_text()
        doctored = out / "image.jsonl"
        doctored.write_text(text.replace('"condition": "AOPair"', '"condition": "Image"'))
        no_image = next(i for i in read_dataset(out / "dataset.jsonl") if i.image is None)
        capsys.readouterr()
        code = cli.main(
            ["evaluate", "--config", str(fixture_config), "--out", str(out),
             "--generations", str(doctored)]
        )
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert f"instance {no_image.instance_id} has no image" in err and "Image lines" in err


class TestProviderFailures:
    def test_unreachable_parse_provider_exits_3(self, fixture_config, tmp_path, capsys):
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["parse"] = {"kind": "http", "url": "http://127.0.0.1:1/parse"}
        cfg["retry_base_delay"] = 0.001
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["build-dataset", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "after retries" in capsys.readouterr().err

    def test_unreachable_lm_provider_exits_3_and_records_failures(
        self, fixture_config, tmp_path
    ):
        out = build(fixture_config, tmp_path / "run")
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"] = {"kind": "http", "url": "http://127.0.0.1:1/lm"}
        cfg["retry_base_delay"] = 0.001
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(
            ["generate", "--config", str(bad), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        )
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"]
        assert not (out / "generations_main.jsonl").exists()

    def test_unreachable_lm_during_evaluate_exits_3_and_records_failure(
        self, fixture_config, tmp_path, capsys
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"] = {"kind": "http", "url": "http://127.0.0.1:1/lm"}
        cfg["retry_base_delay"] = 0.001
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        capsys.readouterr()
        # named generations skip the check that they were made with this lm
        generations = str(out / "generations_main.jsonl")
        code = cli.main(
            ["evaluate", "--config", str(bad), "--out", str(out), "--generations", generations]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "after retries" in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(f.startswith("evaluate:") for f in manifest["failures"])
        assert "evaluate" not in manifest["stages"]


class TestScoreOverflow:
    @pytest.mark.parametrize(
        "row", [[-800.0], [-1e308, -1e308]], ids=["mean-below-709.8", "sum-overflows"]
    )
    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_a_perplexity_too_large_for_a_float_exits_3_naming_the_candidate(
        self, fixture_config, tmp_path, monkeypatch, capsys, command, row
    ):
        cfg = {**json.loads(fixture_config.read_text()), "retry_base_delay": 0}
        config = tmp_path / "no_delay.json"
        config.write_text(json.dumps(cfg))
        flags = ["--config", str(config), "--out", str(build(config, tmp_path / "run"))]
        generate = ["generate", *flags, "--modalities", "AOPair", "--variants", "1"]
        if command == "evaluate":
            assert cli.main(generate) == 0
        # finite log-probabilities whose mean, or its exp, is too large for a float
        monkeypatch.setattr(stubs.StubLMProvider, "_logprobs", lambda lm, h, c: row)
        capsys.readouterr()
        assert cli.main(generate if command == "generate" else ["evaluate", *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert re.search(r"perplexity of '[^']+' overflows", manifest["failures"][-1])


class TestWorkerPool:
    def test_parallel_generation_matches_sequential(self, fixture_config, tmp_path):
        outputs = []
        for name, workers in (("seq", 1), ("par", 4)):
            cfg = json.loads(fixture_config.read_text())
            cfg["workers"] = workers
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(cfg))
            out = build(config, tmp_path / name)
            assert cli.main(
                ["generate", "--config", str(config), "--out", str(out),
                 "--modalities", "AOPair,TextDesc", "--variants", "1"]
            ) == 0
            outputs.append((out / "generations_main.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", list(FULL_GRID_DIGESTS))
    def test_full_grid_bytes_are_pinned_for_one_and_two_workers(
        self, fixture_config, tmp_path, case
    ):
        cfg = json.loads(fixture_config.read_text())
        if case.startswith("vision"):
            cfg["providers"]["vision"] = {"kind": "stub"}
        out = build(fixture_config, tmp_path / "run")
        if case.endswith("event truncated"):
            # six times its event text is cut to fit every mask that holds it
            doctor_first_image_instance(
                out / "dataset.jsonl",
                lambda r: r.update(text_description=" ".join([r["text_description"]] * 6)),
            )
        digests = []
        for workers in (1, 2):
            config = tmp_path / f"workers{workers}.json"
            config.write_text(json.dumps({**cfg, "workers": workers}))
            assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 0
            data = (out / "generations_main.jsonl").read_bytes()
            assert data.count(b"\n") == 1520  # 9 instances x 10 masks x 4 variants x 5 types - 280
            digests.append(hashlib.sha256(data).hexdigest())
        assert digests == [FULL_GRID_DIGESTS[case]] * 2


# Prints the modules that importing the CLI with load_config, then make_providers, loaded.
STARTUP = """
import json, sys
before = set(sys.modules)
from actionsense import cli
cfg = cli.load_config(sys.argv[1])
loaded = set(sys.modules)
cli.make_providers(cfg, sys.argv[2])
print(json.dumps([sorted(loaded - before), sorted(set(sys.modules) - loaded)]))
"""
STUB_RUNS_NEVER_LOAD = ("http.client", "ssl", "email.parser", "concurrent.futures")


class TestEachCommandOpensWhatItRuns:
    @staticmethod
    def new_modules(config, tmp_path):
        """Modules new after the import and load_config, and after make_providers."""
        result = subprocess.run(
            [sys.executable, "-c", STARTUP, str(config), str(tmp_path / "cache")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)},
        )
        return json.loads(result.stdout)

    def test_stub_set_up_loads_no_http_stack_or_thread_pool(self, fixture_config, tmp_path):
        assert cli.load_config(fixture_config).workers == 1
        new = [m for modules in self.new_modules(fixture_config, tmp_path) for m in modules]
        assert "actionsense.stubs" in new
        assert [m for m in STUB_RUNS_NEVER_LOAD if m in new] == []

    def test_an_http_lm_loads_the_http_stack_when_it_is_built(self, fixture_config, tmp_path):
        cfg = json.loads(fixture_config.read_text())
        cfg["providers"]["lm"] = {"kind": "http", "url": "http://127.0.0.1:1/lm"}
        config = tmp_path / "http.json"
        config.write_text(json.dumps(cfg))
        imported, built = self.new_modules(config, tmp_path)
        assert "http.client" not in imported and "http.client" in built

    def test_generate_and_evaluate_never_read_the_text_tool_tables(
        self, fixture_config, tmp_path
    ):
        cfg = json.loads(fixture_config.read_text())
        for role in ("coref", "parse", "rc"):
            table = tmp_path / f"{role}.json"
            table.write_bytes(stubs.fixture_path(f"{role}.json").read_bytes())
            cfg["providers"][role]["path"] = str(table)
        config = tmp_path / "tables.json"
        config.write_text(json.dumps(cfg))
        out = build(config, tmp_path / "run")
        flags = ["--config", str(config), "--out", str(out)]
        outputs = ("generations_main.jsonl", "modality_report.json", "modality_report.txt")

        def generate_and_evaluate():
            grid = ["--modalities", "AOPair,TextDesc", "--variants", "1"]
            assert cli.main(["generate", *flags, *grid]) == 0
            assert cli.main(["evaluate", *flags]) == 0
            written = [(out / name).read_bytes() for name in outputs]
            for name in outputs:
                (out / name).unlink()
            return written

        intact = generate_and_evaluate()
        for role in ("coref", "parse", "rc"):
            (tmp_path / f"{role}.json").write_bytes(b"{nope")
        assert generate_and_evaluate() == intact


class TestStageOrdering:
    def test_evaluate_requires_generate_stage(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        code = cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)])
        assert code == 2
        assert "generate" in capsys.readouterr().err

    def test_ablate_requires_built_dataset(self, fixture_config, tmp_path):
        code = cli.main(
            ["ablate", "--config", str(fixture_config), "--out", str(tmp_path / "fresh")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, edit, flag",
        [
            ("generate", {"min_count": 2}, None),
            ("ablate", {"min_count": 2, "fps": 25}, None),
            ("evaluate", {"min_count": 2}, "--dataset"),
            ("evaluate", {"seed": 14}, "--generations"),
        ],
        ids=["min_count-generate", "two-fields-ablate", "min_count-evaluate", "seed-evaluate"],
    )
    def test_stage_made_under_other_settings_exits_2_naming_them(
        self, fixture_config, tmp_path, capsys, command, edit, flag
    ):
        out = build(fixture_config, tmp_path / "run")
        grid = ["--modalities", "AOPair", "--variants", "1"]
        assert cli.main(["generate", "--config", str(fixture_config), "--out", str(out), *grid]) == 0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**json.loads(fixture_config.read_text()), **edit}))
        argv = [command, "--config", str(edited), "--out", str(out)]
        capsys.readouterr()
        assert cli.main([*argv, *grid] if command == "generate" else argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in edit)
        if flag:
            # an input named on the command line is taken as it is
            named = {"--dataset": "dataset.jsonl", "--generations": "generations_main.jsonl"}
            assert cli.main([*argv, flag, str(out / named[flag])]) == 0


class TestEvaluate:
    def test_prompt_grid_covers_all_twenty_variants(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "Image+TextDesc+AOPair+OG", "--variants", "1,2,3,4"]
        ) == 0
        assert cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)]) == 0
        report = json.loads((out / "prompt_report.json").read_text())
        conditions = {(r["type"], r["condition"]) for r in report["rows"]}
        assert len(report["rows"]) == 20
        letters = {"precondition": "p", "effect": "e", "goal": "g", "before": "b", "after": "a"}
        expected = {
            (t, f"P{letters[t]}{v}") for t in letters for v in (1, 2, 3, 4)
        }
        assert conditions == expected

    def test_missing_cell_exits_2_naming_cell(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair,TextDesc", "--variants", "1"]
        ) == 0
        lines = (out / "generations_main.jsonl").read_text().splitlines()
        kept = [
            line for line in lines
            if not (json.loads(line)["inference_type"] == "goal"
                    and json.loads(line)["condition"] == "TextDesc")
        ]
        doctored = out / "doctored.jsonl"
        doctored.write_text("\n".join(kept) + "\n")
        code = cli.main(
            ["evaluate", "--config", str(fixture_config), "--out", str(out),
             "--generations", str(doctored)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "goal" in err and "TextDesc" in err

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (lambda line: "{not json", "not a generation record"),
            (
                lambda line: json.dumps(
                    {k: v for k, v in json.loads(line).items() if k != "condition"}
                ),
                "'condition'",
            ),
            (lambda line: json.dumps({**json.loads(line), "instance_id": "ghost"}), "'ghost'"),
            (lambda line: json.dumps({**json.loads(line), "condition": "Bogus"}), "'Bogus'"),
            (lambda line: json.dumps({**json.loads(line), "condition": "OG"}), "grounding"),
            (lambda line: json.dumps({**json.loads(line), "variant": 7}), "prompt variant 7"),
            (lambda line: json.dumps({**json.loads(line), "variant": [1]}), "prompt variant [1]"),
            (lambda line: json.dumps({**json.loads(line), "variant": "1"}), "prompt variant '1'"),
            # line 1 is the same instance's precondition line
            (
                lambda line: json.dumps({**json.loads(line), "inference_type": "precondition"}),
                "repeats line 1's ('blt01:2:cook_bacon', 'precondition', 'AOPair', 1)",
            ),
            (
                lambda line: json.dumps({**json.loads(line), "texts": "abc"}),
                "field 'texts' must be a list, not \"abc\"",
            ),
            (
                lambda line: json.dumps({**json.loads(line), "inference_type": "bogus"}),
                "inference type 'bogus'",
            ),
            (
                lambda line: json.dumps({**json.loads(line), "inference_type": ["goal"]}),
                "inference type ['goal']",
            ),
        ],
        ids=[
            "not-json", "no-condition", "unknown-instance", "condition-bogus", "condition-og",
            "variant-7", "variant-list", "variant-text", "repeated-cell", "texts-string",
            "type-bogus", "type-list",
        ],
    )
    def test_malformed_generations_exit_2(
        self, fixture_config, tmp_path, capsys, doctor, message
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        lines = (out / "generations_main.jsonl").read_text().splitlines()
        lines[1] = doctor(lines[1])
        doctored = out / "doctored.jsonl"
        doctored.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(
            ["evaluate", "--config", str(fixture_config), "--out", str(out),
             "--generations", str(doctored)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{doctored}:2:" in err and message in err and "Traceback" not in err

    def test_mask_spelled_in_another_order_is_its_canonical_cell(
        self, fixture_config, tmp_path, capsys
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "TextDesc+AOPair,AOPair", "--variants", "1"]
        ) == 0
        canonical = (out / "generations_main.jsonl").read_text()
        assert '"condition": "TextDesc+AOPair"' in canonical
        permuted = out / "permuted.jsonl"
        permuted.write_text(canonical.replace('"TextDesc+AOPair"', '"AOPair+TextDesc"'))
        reports = []
        for generations in (out / "generations_main.jsonl", permuted):
            code = cli.main(
                ["evaluate", "--config", str(fixture_config), "--out", str(out),
                 "--generations", str(generations)]
            )
            assert code == 0, capsys.readouterr().err
            reports.append([(out / f"modality_report.{x}").read_bytes() for x in ("json", "txt")])
        assert reports[0] == reports[1]

    def test_reads_each_reference_set_once(self, fixture_config, tmp_path, monkeypatch):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair,TextDesc", "--variants", "1,2"]
        ) == 0
        calls = Counter()
        inference_set = CommonsenseInstance.inference_set

        def counting(instance, inference_type):
            calls[(instance.instance_id, inference_type)] += 1
            return inference_set(instance, inference_type)

        monkeypatch.setattr(CommonsenseInstance, "inference_set", counting)
        assert cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)]) == 0
        instances = read_dataset(out / "dataset.jsonl")
        assert len(calls) == len(instances) * len(generation.InferenceType)
        assert set(calls.values()) == {1}

    def test_generation_records_keep_only_the_fields_evaluate_reads(
        self, fixture_config, tmp_path
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        ids = {i.instance_id for i in read_dataset(out / "dataset.jsonl")}
        cells = cli._read_generations(out / "generations_main.jsonl", ids)
        expected = {}
        for raw in (out / "generations_main.jsonl").read_text().splitlines():
            line = json.loads(raw)
            key = (line["inference_type"], line["condition"], line["variant"])
            expected.setdefault(key, []).append((line["instance_id"], line["texts"]))
        assert len(cells) == len(generation.InferenceType) and cells == expected

    def test_empty_generations_file_exits_2(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        capsys.readouterr()
        code = cli.main(
            ["evaluate", "--config", str(fixture_config), "--out", str(out),
             "--generations", str(empty)]
        )
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert str(empty) in err
        assert not list(out.glob("*report*"))

    def test_instance_without_usable_references_is_skipped(
        self, fixture_config, tmp_path, capsys
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair", "--variants", "1"]
        ) == 0
        lines = (out / "dataset.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["goals"] = ["!!!"]
        bad = out / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        capsys.readouterr()
        code = cli.main(
            ["evaluate", "--config", str(fixture_config), "--out", str(out), "--dataset", str(bad)]
        )
        assert code == 0, capsys.readouterr().err

    @staticmethod
    def generated_grid(config, out, masks, variants):
        """Generate the grid; its config, cells and instances."""
        assert cli.main(
            ["generate", "--config", str(config), "--out", str(out),
             "--modalities", ",".join(masks), "--variants", ",".join(map(str, variants))]
        ) == 0
        cfg = cli.load_config(config, {"out_dir": str(out)})
        instances = read_dataset(out / "dataset.jsonl")
        ids = {i.instance_id for i in instances}
        return cfg, cli._read_generations(out / "generations_main.jsonl", ids), instances

    @staticmethod
    def score_grid(cfg, cells, instances, masks, variants):
        providers = cli.make_providers(cfg, Path(cfg.out_dir) / "cache")
        with contextlib.closing(providers):
            return cli._evaluate_grid(cfg, cells, instances, providers, masks, variants)

    @classmethod
    def grid_scores(cls, config, out, masks, variants):
        """Generate the grid, evaluate it, and score its cells again apart from the report."""
        cfg, cells, instances = cls.generated_grid(config, out, masks, variants)
        assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        return cls.score_grid(cfg, cells, instances, masks, variants)

    def test_overlap_work_is_done_once_per_cell(self, fixture_config, tmp_path, monkeypatch):
        out = build(fixture_config, tmp_path / "run")
        masks, variants = ["AOPair", "TextDesc", "Image+TextDesc+AOPair+OG"], [1, 2]
        cfg, cells, instances = self.generated_grid(fixture_config, out, masks, variants)
        # each call's arguments, kept alive so that their ids stay distinct
        calls = {"bleu2": [], "meteor": [], "cider": [], "vector": []}
        bleu2, meteor, tfidf_vector = metrics._bleu2, metrics._meteor, metrics._tfidf_vector

        class CountedCider(metrics._Cider):
            def __init__(self, documents, nmax):
                calls["cider"].append(self)
                super().__init__(documents, nmax)

        def counted(name, fn):
            return lambda *args: calls[name].append(args[:2]) or fn(*args)

        monkeypatch.setattr(metrics, "_bleu2", counted("bleu2", bleu2))
        monkeypatch.setattr(metrics, "_meteor", counted("meteor", meteor))
        monkeypatch.setattr(metrics, "_tfidf_vector", counted("vector", tfidf_vector))
        monkeypatch.setattr(metrics, "_Cider", CountedCider)
        self.score_grid(cfg, cells, instances, masks, variants)

        documents, pairs, corpora, vectors = 0, 0, 0, 0
        for (itype, _, _), entries in cells.items():
            refs_of = {i.instance_id: tuple(sorted(i.inference_set(itype))) for i in instances}
            kept = [
                (refs_of[i], text)
                for i, texts in entries
                if any(map(metrics.tokenize, refs_of[i]))
                for text in texts
                if metrics.tokenize(text)
            ]
            documents, pairs = documents + len(kept), pairs + len(set(kept))
            if len(kept) >= 2:
                corpora += 1
                # per n: each distinct reference set's texts and each distinct document's text
                vectors += 4 * (sum(map(len, {refs for refs, _ in kept})) + len(set(kept)))
        assert pairs < documents
        # B and M once per (reference set, text) pair of a cell
        for name in ("bleu2", "meteor"):
            assert len({tuple(map(id, args)) for args in calls[name]}) == len(calls[name]) == pairs
        # one corpus per cell of two documents or more, a reference set's vectors once in it
        assert len(calls["cider"]) == corpora
        assert len(calls["vector"]) == vectors

    def test_full_report_is_the_rows_of_its_cells(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        masks, variants = ["AOPair", "TextDesc"], [1, 2]
        scores = self.grid_scores(fixture_config, out, masks, variants)
        expected = metrics.EvalReport(
            rows=tuple(
                metrics.ReportRow.from_cell(t, f"{label}|P{v}", scores[(t, label, v)])
                for t in cli.INFERENCE_TYPE_NAMES
                for label in masks
                for v in variants
            )
        )
        assert len(expected.rows) == 5 * 2 * 2
        assert (out / "report.json").read_text() == expected.to_json() + "\n"
        assert (out / "report.txt").read_text() == expected.to_text() + "\n"

    def test_modality_rows_are_per_mask_means_in_type_order(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        masks = ["AOPair", "TextDesc", "Image+TextDesc+AOPair+OG"]
        scores = self.grid_scores(fixture_config, out, masks, [1])
        rows = []
        for label in masks:
            cells = [scores[(t, label, 1)] for t in cli.INFERENCE_TYPE_NAMES]
            means = {c: sum(x[c] for x in cells) / len(cells) for c in metrics.METRIC_COLUMNS}
            rows.append(metrics.ReportRow.from_cell("all", label, means))
        expected = metrics.EvalReport(rows=tuple(rows))
        assert (out / "modality_report.json").read_text() == expected.to_json() + "\n"
        assert (out / "modality_report.txt").read_text() == expected.to_text() + "\n"

    def test_report_matches_rerun(self, fixture_config, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = build(fixture_config, tmp_path / name)
            assert cli.main(
                ["generate", "--config", str(fixture_config), "--out", str(out),
                 "--modalities", "AOPair,TextDesc", "--variants", "1"]
            ) == 0
            assert cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)]) == 0
            outputs.append((out / "modality_report.json").read_bytes())
        assert outputs[0] == outputs[1]


def vision_config(fixture_config, tmp_path):
    """The fixture config with the stub vision provider."""
    cfg = json.loads(fixture_config.read_text())
    cfg["providers"]["vision"] = {"kind": "stub"}
    config = tmp_path / "vision.json"
    config.write_text(json.dumps(cfg))
    return config


class TestConditioning:
    def test_evaluate_scores_against_sequences_generate_sent(
        self, fixture_config, tmp_path, monkeypatch
    ):
        config = vision_config(fixture_config, tmp_path)
        out = build(config, tmp_path / "run")
        cells, sent = {}, []  # composed input -> its (instance, type, mask, variant); score items
        compose, score_many = generation.compose_input_sequence, stubs.StubLMProvider.score_many

        def composing(instance, spec, *args, **kwargs):
            sequence = compose(instance, spec, *args, **kwargs)
            cells[id(sequence)] = (sequence, (instance.instance_id, spec.inference_type.value,
                                              generation.combo_label(spec.modality_mask), spec.variant))
            return sequence

        def recording(lm, items):
            sent.extend(
                (cells[id(sequence)][1], json.dumps(sequence.to_wire(), sort_keys=True))
                for sequence, _ in items
            )
            return score_many(lm, items)

        monkeypatch.setattr(generation, "compose_input_sequence", composing)
        monkeypatch.setattr(stubs.StubLMProvider, "score_many", recording)
        assert cli.main(
            ["generate", "--config", str(config), "--out", str(out),
             "--modalities", "Image+TextDesc+AOPair+OG,Image,AOPair", "--variants", "1,3"]
        ) == 0
        generated = dict(sent)
        assert len(generated) == len(sent)  # one score item per composed input
        sent.clear()
        assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        by_id = {i.instance_id: i for i in read_dataset(out / "dataset.jsonl")}
        scored = {key for key in generated if by_id[key[0]].inference_set(key[1])}
        assert {key for key, _ in sent} == scored
        assert any(key[2] == "Image+TextDesc+AOPair+OG" for key in scored)
        assert all(wire == generated[key] for key, wire in sent)

    def test_one_composition_per_line_and_one_mask_step_per_instance_and_mask(
        self, fixture_config, tmp_path, monkeypatch
    ):
        config = vision_config(fixture_config, tmp_path)
        out = build(config, tmp_path / "run")
        calls = Counter()
        for owner, attr in (
            (generation, "compose_input_sequence"),
            (generation, "mask_input"),
            (stubs.StubVisionProvider, "features"),
        ):
            def counted(*args, _attr=attr, _original=getattr(owner, attr), **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 0
        instances = read_dataset(out / "dataset.jsonl")
        lines = [json.loads(line) for line in (out / "generations_main.jsonl").open()]
        # 9 instances, 7 with an image; 10 masks, 7 with the image; P1-P4; 5 types
        assert (len(lines), sum(i.image is not None for i in instances)) == (1520, 7)
        assert calls == {"compose_input_sequence": 1520, "mask_input": 9 * 10, "features": 7 * 7}

        calls.clear()
        assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        by_id = {i.instance_id: i for i in instances}
        scored = [
            line for line in lines
            if by_id[line["instance_id"]].inference_set(line["inference_type"])
        ]
        pairs = {(line["instance_id"], line["condition"]) for line in scored}
        image_pairs = {(i, mask) for i, mask in pairs if mask.startswith("Image")}
        assert (len(scored), len(pairs), len(image_pairs)) == (1456, 76, 49)
        assert calls == {"compose_input_sequence": 1456, "mask_input": 76, "features": 49}


def counting(monkeypatch, owner, attr, calls):
    """Record each call of ``owner.attr`` in ``calls`` as (attr, args without self)."""
    original = getattr(owner, attr)

    def counted(*args):
        calls.append((attr, args[1:]))
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)


class TestProviderBatches:
    def test_generate_sends_each_cells_inputs_in_one_sample_and_one_score_chunk(
        self, fixture_config, tmp_path, monkeypatch
    ):
        out = build(fixture_config, tmp_path / "run")
        composed, calls = [], []
        compose = generation.compose_input_sequence

        def recording(*args, **kwargs):
            composed.append(compose(*args, **kwargs))  # not reached for a missing modality
            return composed[-1]

        monkeypatch.setattr(generation, "compose_input_sequence", recording)
        for attr in ("sample_many", "score_many", "sample", "logprobs"):
            counting(monkeypatch, stubs.StubLMProvider, attr, calls)
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out), "--variants", "1"]
        ) == 0
        sampled = [args[0] for attr, args in calls if attr == "sample_many"]
        scored = [args[0] for attr, args in calls if attr == "score_many"]
        # ten masks at P1, each a cell of fewer than REQUEST_CAP inputs, none with no input
        assert [attr for attr, _ in calls] == ["sample_many", "score_many"] * 10
        assert [s for chunk in sampled for s in chunk] == composed
        # every input here has a non-empty sample, so each is scored, in the same chunks
        assert [[s for s, _ in chunk] for chunk in scored] == sampled
        assert all(1 <= len(texts) <= 3 for chunk in scored for _, texts in chunk)

    def test_evaluate_sends_each_cells_pools_in_one_score_chunk(
        self, fixture_config, tmp_path, monkeypatch
    ):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair,TextDesc", "--variants", "1,2"]
        ) == 0
        calls = []
        for attr in ("score_many", "logprobs"):
            counting(monkeypatch, stubs.StubLMProvider, attr, calls)
        assert cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)]) == 0
        by_id = {i.instance_id: i for i in read_dataset(out / "dataset.jsonl")}
        generated = (out / "generations_main.jsonl").read_text().splitlines()
        lines = [json.loads(line) for line in generated]
        entries = [l for l in lines if by_id[l["instance_id"]].inference_set(l["inference_type"])]
        cells = {(l["inference_type"], l["condition"], l["variant"]) for l in entries}
        pool_size = json.loads(fixture_config.read_text())["pool_size"]
        assert {attr for attr, _ in calls} == {"score_many"} and len(calls) == len(cells)
        pools = [texts for _, (items,) in calls for _, texts in items]
        assert len(pools) == len(entries) and {len(texts) for texts in pools} == {pool_size}

    def test_a_cap_of_two_cuts_each_cells_lm_inputs_into_consecutive_chunks(
        self, fixture_config, tmp_path, monkeypatch
    ):
        flags = ["--modalities", "AOPair,Image+TextDesc", "--variants", "1,3"]
        calls, composed = [], []

        def run(out):
            config = ["--config", str(fixture_config), "--out", str(build(fixture_config, out))]
            assert cli.main(["generate", *config, *flags]) == 0
            generate_calls = len(calls)
            assert cli.main(["evaluate", *config]) == 0
            return out, generate_calls

        expected, _ = run(tmp_path / "whole")
        monkeypatch.setattr(providers, "REQUEST_CAP", 2)
        compose = generation.compose_input_sequence
        monkeypatch.setattr(
            generation, "compose_input_sequence",
            lambda *args, **kwargs: composed.append(compose(*args, **kwargs)) or composed[-1],
        )
        for attr in ("sample_many", "score_many"):
            counting(monkeypatch, stubs.StubLMProvider, attr, calls)
        out, generate_calls = run(tmp_path / "run")
        for name in ("generations_main.jsonl", "report.json"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

        def cut(counts):
            """The chunk sizes of consecutive cells of ``counts`` inputs under a cap of 2."""
            return [min(2, count - i) for count in counts for i in range(0, count, 2)]

        generated = (out / "generations_main.jsonl").read_text().splitlines()
        lines = [json.loads(line) for line in generated]
        cell_of = lambda line: (line["condition"], line["variant"])
        cells = [list(group) for _, group in itertools.groupby(lines, cell_of)]
        sampled = [args[0] for attr, args in calls[:generate_calls] if attr == "sample_many"]
        scored = [args[0] for attr, args in calls[:generate_calls] if attr == "score_many"]
        assert [s for chunk in sampled for s in chunk] == composed[: len(lines)]
        assert [len(chunk) for chunk in sampled] == cut([len(cell) for cell in cells])
        asked = [sequence for sequence, line in zip(composed, lines) if any(line["texts"])]
        assert [s for chunk in scored for s, _ in chunk] == asked
        assert [len(chunk) for chunk in scored] == cut(
            [sum(any(line["texts"]) for line in cell) for cell in cells]
        )
        # evaluate scores each (type, mask, variant) cell's pools, in chunks of the cap
        by_id = {i.instance_id: i for i in read_dataset(out / "dataset.jsonl")}
        pools = Counter(
            (l["inference_type"], l["condition"], l["variant"]) for l in lines
            if by_id[l["instance_id"]].inference_set(l["inference_type"])
        )
        order = itertools.product(cli.INFERENCE_TYPE_NAMES, ("AOPair", "Image+TextDesc"), (1, 3))
        pooled = [args[0] for _, args in calls[generate_calls:]]
        assert {attr for attr, _ in calls[generate_calls:]} == {"score_many"}
        assert [len(chunk) for chunk in pooled] == cut([pools[cell] for cell in order])
        assert max(map(len, pooled)) == 2

    def test_only_the_cell_whose_second_chunk_fails_is_recorded(
        self, fixture_config, tmp_path, monkeypatch, capsys
    ):
        cfg = {**json.loads(fixture_config.read_text()), "retry_base_delay": 0}
        config = tmp_path / "no_delay.json"
        config.write_text(json.dumps(cfg))
        monkeypatch.setattr(providers, "REQUEST_CAP", 2)
        sent, failing = [], []
        sample_many = stubs.StubLMProvider.sample_many

        def sampling(lm, sequences, *rest):
            sent.append([s.text() for s in sequences])
            if sent[-1] in failing:
                raise ProviderError("the LM is down")
            return sample_many(lm, sequences, *rest)

        monkeypatch.setattr(stubs.StubLMProvider, "sample_many", sampling)
        flags = ["--config", str(config), "--modalities", "AOPair,TextDesc", "--variants", "1"]
        assert cli.main(["generate", *flags, "--out", str(build(config, tmp_path / "dry"))]) == 0
        failing.append(sent[1])  # the second chunk of the first cell, AOPair__P1
        assert sent.count(sent[1]) == 1
        sent.clear()
        out = build(config, tmp_path / "run")
        capsys.readouterr()
        assert cli.main(["generate", *flags, "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert sent.count(failing[0]) == 1  # a stub is not retried: the cell failed at once
        manifest = json.loads((out / "manifest.json").read_text())
        [failure] = manifest["failures"]
        assert failure.startswith("main:AOPair__P1:") and failure.endswith(": the LM is down")
        assert [key.split(":")[1] for key in manifest["cells"]] == ["TextDesc__P1"]
        assert "generate" not in manifest["stages"]

    @pytest.mark.parametrize(
        "copies, groups, requests, repeats",
        [(None, None, (1, 1, 1), False), (10, 2, (1, 2, 1), True)],
        ids=["fixture", "scale-up"],
    )
    def test_build_sends_parse_and_rc_inputs_in_chunks_and_each_rc_item_once(
        self, fixture_config, tmp_path, monkeypatch, copies, groups, requests, repeats
    ):
        config = fixture_config
        if copies:
            corpus_gen = load_perfbench("corpus_gen")
            corpus_gen.generate_corpus(tmp_path / "corpus", SRC_ROOT, copies, groups, seed=1)
            config = corpus_gen.write_config(tmp_path / "scaled.json", tmp_path / "corpus", 1)
        sent = text_tool_requests(monkeypatch)
        out = build(config, tmp_path / "run")
        assert (len(sent["resolve"]), len(sent["parse_many"]), len(sent["answer_many"])) == requests
        assert set(sent) == {"resolve", "parse_many", "answer_many"}

        cfg = cli.load_config(config)
        corpus = Corpus.load(cfg.annotation_file, cfg.recipe_file)
        # each video's sentences are one coref document
        assert chunked(sent["resolve"]) == [[s.sentence for s in v.segments] for v in corpus.videos]
        sentences = resolved_sentences(corpus, cfg.providers["coref"]["path"])
        assert chunked(sent["parse_many"]) == [s for video in sentences for s in video]
        # corpus copies share transcripts, so the scale-up's triplets ask some items again
        asked = asked_items(out, corpus)
        assert chunked(sent["answer_many"]) == list(dict.fromkeys(asked))
        assert (len(set(asked)) < len(asked)) == repeats

    def test_a_smaller_cap_cuts_the_same_inputs_into_more_chunks(
        self, fixture_config, tmp_path, monkeypatch, corpus
    ):
        expected = build(fixture_config, tmp_path / "whole")
        monkeypatch.setattr(providers, "REQUEST_CAP", 9)
        sent = text_tool_requests(monkeypatch)
        out = build(fixture_config, tmp_path / "run")
        for name in ("dataset.jsonl", "stats.json", "triplets.jsonl"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()
        # 27 sentences and 35 distinct questions, cut without regard to videos
        assert [len(r) for r in sent["parse_many"]] == [9, 9, 9]
        assert [len(r) for r in sent["answer_many"]] == [9, 9, 9, 8]
        assert chunked(sent["answer_many"]) == asked_items(out, corpus)

    def test_coref_documents_go_in_chunks_of_the_cap(
        self, fixture_config, tmp_path, monkeypatch, corpus
    ):
        expected = build(fixture_config, tmp_path / "whole")
        monkeypatch.setattr(providers, "REQUEST_CAP", 2)
        sent = text_tool_requests(monkeypatch)
        out = build(fixture_config, tmp_path / "run")
        for name in ("dataset.jsonl", "stats.json", "triplets.jsonl"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()
        assert [len(r) for r in sent["resolve"]] == [2, 2, 1]
        assert chunked(sent["resolve"]) == [[s.sentence for s in v.segments] for v in corpus.videos]

    def test_a_video_without_segments_sends_no_coref_request(
        self, fixture_config, tmp_path, monkeypatch
    ):
        raw = json.loads(stubs.fixture_path("annotations.json").read_text())
        # no media either: clips and frames may name only segments the video has
        raw["videos"].append({**raw["videos"][0], "video_id": "empty01", "segments": [], "media": None})
        annotations = tmp_path / "with_empty.json"
        annotations.write_text(json.dumps(raw))
        cfg = {**json.loads(fixture_config.read_text()), "annotation_file": str(annotations)}
        config = tmp_path / "with_empty_config.json"
        config.write_text(json.dumps(cfg))
        sent = text_tool_requests(monkeypatch)
        build(config, tmp_path / "run")
        corpus = Corpus.load(annotations, stubs.fixture_path("recipes.json"))
        assert corpus.videos[-1].video_id == "empty01"
        documents = [[s.sentence for s in v.segments] for v in corpus.videos[:-1]]
        assert sent["resolve"] == [documents] and all(documents)

    def test_pack_of_videos_without_questions_sends_no_rc_request(
        self, fixture_config, tmp_path, monkeypatch
    ):
        raw = json.loads(stubs.fixture_path("annotations.json").read_text())
        for video in raw["videos"]:
            video["transcript"] = None
        annotations = tmp_path / "silent.json"
        annotations.write_text(json.dumps(raw))
        cfg = {**json.loads(fixture_config.read_text()), "annotation_file": str(annotations)}
        config = tmp_path / "silent_config.json"
        config.write_text(json.dumps(cfg))
        monkeypatch.setattr(providers, "REQUEST_CAP", 9)
        sent = text_tool_requests(monkeypatch)
        out = build(config, tmp_path / "run")
        assert "answer_many" not in sent
        dataset = read_dataset(out / "dataset.jsonl")
        assert dataset and all(assembly.FLAG_NO_TRANSCRIPT in i.flags for i in dataset)

    def test_build_over_http_text_tools_matches_the_stub_build(
        self, fixture_config, tmp_path
    ):
        expected = build(fixture_config, tmp_path / "stub")
        with text_tool_server() as (url, posts):
            cfg = json.loads(fixture_config.read_text())
            for task in ("coref", "parse", "rc"):
                cfg["providers"][task] = {"kind": "http", "url": f"{url}/{task}"}
            config = tmp_path / "http.json"
            config.write_text(json.dumps(cfg))
            out = build(config, tmp_path / "http")
            for name in ("dataset.jsonl", "triplets.jsonl"):
                assert (out / name).read_bytes() == (expected / name).read_bytes()
            assert posts == Counter({"coref": 1, "parse": 1, "rc": 1})
            # the response log answers every request of a second build into the run
            build(config, out)
            assert posts == Counter({"coref": 1, "parse": 1, "rc": 1})
            assert (out / "dataset.jsonl").read_bytes() == (expected / "dataset.jsonl").read_bytes()


def text_tool_requests(monkeypatch) -> dict:
    """Method name -> the inputs of each call, filled as the coref, parse and rc stubs are called."""
    sent = {}
    for owner, attr in (
        (stubs.StubCorefProvider, "resolve"),
        (stubs.StubParseProvider, "parse_many"),
        (stubs.StubParseProvider, "parse"),
        (stubs.StubRCProvider, "answer_many"),
        (stubs.StubRCProvider, "answer"),
    ):
        def recorded(self, inputs, *rest, attr=attr, original=getattr(owner, attr)):
            sent.setdefault(attr, []).append(list(inputs))
            return original(self, inputs, *rest)

        monkeypatch.setattr(owner, attr, recorded)
    return sent


def fallback_configs(fixture_config, tmp_path) -> tuple[Path, Path]:
    """The fixture config with no retry delay, and that config with an empty coref table.

    The parse table of both also holds the unresolved sentences the coref fallback keeps.
    """
    parse = json.loads(stubs.fixture_path("parse.json").read_text())
    coref = json.loads(stubs.fixture_path("coref.json").read_text())
    parse.update({original: parse[coref[original]] for original in coref})
    (tmp_path / "parse.json").write_text(json.dumps(parse))
    (tmp_path / "coref.json").write_text("{}")
    cfg = json.loads(fixture_config.read_text())
    cfg["providers"]["parse"] = {"kind": "stub", "path": str(tmp_path / "parse.json")}
    cfg["retry_base_delay"] = 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    cfg["providers"]["coref"] = {"kind": "stub", "path": str(tmp_path / "coref.json")}
    unresolved = tmp_path / "unresolved.json"
    unresolved.write_text(json.dumps(cfg))
    return config, unresolved


def count_manifest_saves(monkeypatch) -> Counter:
    """A counter whose ``save`` entry counts manifest saves from here on."""
    saves = Counter()
    save = cli.Manifest.save

    def counted(self):
        saves["save"] += 1
        save(self)

    monkeypatch.setattr(cli.Manifest, "save", counted)
    return saves


def resolved_sentences(corpus, coref_path) -> list[list[str]]:
    coref = stubs.StubCorefProvider(coref_path)
    return [[s.resolved for s in resolve_coreferences(v, coref)] for v in corpus.videos]


def asked_items(out: Path, corpus) -> list:
    """Every triplet's effect questions, in triplet order, repeats included."""
    triplet_list = read_triplets(out / "triplets.jsonl")
    return [item for t in triplet_list for item in effect_questions(t, corpus)]


def chunked(requests: list[list]) -> list:
    """The inputs of ``requests`` joined; fails unless every request but the last holds the cap."""
    sizes = [len(r) for r in requests]
    assert all(n == providers.REQUEST_CAP for n in sizes[:-1])
    assert 0 < sizes[-1] <= providers.REQUEST_CAP
    return [x for r in requests for x in r]


@contextlib.contextmanager
def text_tool_server(refuse_first=()):
    """A local coref, parse and rc endpoint answering from the fixture stub tables.

    The first request of each task in ``refuse_first`` gets HTTP 503.
    """
    from http.server import BaseHTTPRequestHandler, HTTPServer

    coref = stubs.StubCorefProvider(stubs.fixture_path("coref.json"))
    parse = json.loads(stubs.fixture_path("parse.json").read_text())
    rc = stubs.StubRCProvider(stubs.fixture_path("rc.json"))
    answer = {
        "coref": coref.resolve,
        "parse": lambda inputs: [parse[sentence] for sentence in inputs],
        "rc": lambda inputs: rc.answer_many([(i["context"], i["question"]) for i in inputs]),
    }
    posts = Counter()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            posts[payload["task"]] += 1
            if payload["task"] in refuse_first and posts[payload["task"]] == 1:
                self.send_error(503)
                return
            body = json.dumps({"outputs": answer[payload["task"]](payload["inputs"])}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", posts
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestAblate:
    def test_emits_ten_and_twenty_row_reports(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(["ablate", "--config", str(fixture_config), "--out", str(out)]) == 0
        modality = json.loads((out / "modality_report.json").read_text())
        prompt = json.loads((out / "prompt_report.json").read_text())
        assert len(modality["rows"]) == 10
        assert len(prompt["rows"]) == 20
        for row in modality["rows"] + prompt["rows"]:
            assert set(row) == {"type", "condition", "B", "M", "C", "A50", "unique", "novel"}

        # chained stage ran on the argmax row of mean(B, M, C, A50)
        stdout = capsys.readouterr().out
        best = max(
            modality["rows"], key=lambda r: (r["B"] + r["M"] + r["C"] + r["A50"]) / 4
        )
        assert f"best modality: {best['condition']}" in stdout

    def test_modalities_only_skips_prompt_stage(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["ablate", "--config", str(fixture_config), "--out", str(out), "--modalities-only"]
        ) == 0
        assert (out / "modality_report.json").exists()
        assert not (out / "prompt_report.json").exists()

    def test_reports_match_golden_files(self, fixture_config, tmp_path):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(["ablate", "--config", str(fixture_config), "--out", str(out)]) == 0
        for name in ("modality_report.json", "prompt_report.json"):
            golden = (GOLDEN_DIR / f"golden_{name}").read_text()
            assert (out / name).read_text() == golden


class TestReportCommand:
    def test_renders_table(self, fixture_config, tmp_path, capsys):
        out = build(fixture_config, tmp_path / "run")
        assert cli.main(
            ["generate", "--config", str(fixture_config), "--out", str(out),
             "--modalities", "AOPair,TextDesc", "--variants", "1"]
        ) == 0
        assert cli.main(["evaluate", "--config", str(fixture_config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out / "modality_report.json")]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == [
            "type", "condition", "B", "M", "C", "A50", "unique", "novel",
        ]
        assert cli.main(["report", str(out / "modality_report.json"), "--csv"]) == 0
        assert capsys.readouterr().out.startswith("type,condition,B,M,C,A50,unique,novel")

    def test_missing_report_exits_2(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "none.json")]) == 2

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in ("{nope", "[]", '{"rows": [{"type": "all"}]}'):
            path.write_text(text)
            assert cli.main(["report", str(path)]) == 2
            assert "Traceback" not in capsys.readouterr().err


class TestDirectoryArguments:
    @pytest.mark.parametrize("argument", ["config", "report", "generations"])
    def test_directory_argument_exits_2(self, fixture_config, tmp_path, capsys, argument):
        out = build(fixture_config, tmp_path / "run")
        argv = {
            "config": ["generate", "--config", str(tmp_path), "--out", str(out)],
            "report": ["report", str(tmp_path)],
            "generations": ["evaluate", "--config", str(fixture_config), "--out", str(out),
                            "--generations", str(tmp_path)],
        }[argument]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def garbage_after(argv) -> tuple[int, list[str]]:
    """``cli.main(argv)``'s exit code, and the actionsense types of the garbage it leaves."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        code = cli.main(argv)
        gc.collect()
        kinds = {type(o) for o in gc.garbage}
        return code, sorted(
            f"{kind.__module__}.{kind.__qualname__}"
            for kind in kinds
            if kind.__module__.startswith("actionsense")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.fixture()
def collector():
    """Automatic collection on for the test, and back as it was after it."""
    collecting = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if collecting else gc.disable)()


def no_delay_config(fixture_config, tmp_path) -> Path:
    cfg = {**json.loads(fixture_config.read_text()), "retry_base_delay": 0}
    config = tmp_path / "no_delay.json"
    config.write_text(json.dumps(cfg))
    return config


def provider_down(*args):
    raise ProviderError("endpoint down")


class TestNoCycleHoldsPipelineData:
    """Commands run with the cyclic collector paused, so no cycle may hold their data."""

    def test_build_generate_evaluate_and_stats(self, fixture_config, tmp_path):
        out = tmp_path / "run"
        flags = ["--config", str(fixture_config), "--out", str(out)]
        # the Image mask skips the text-only instances on their MissingModality
        grid = ["--modalities", "Image,AOPair", "--variants", "1"]
        for argv in (
            ["build-dataset", *flags],
            ["generate", *flags, *grid],
            ["evaluate", *flags],
            ["stats", str(out / "dataset.jsonl")],
        ):
            assert garbage_after(argv) == (0, []), argv[0]
        no_image = [i for i in read_dataset(out / "dataset.jsonl") if i.image is None]
        image_lines = (out / "gen_cells_main" / "Image__P1.jsonl").read_text()
        assert no_image and all(i.instance_id not in image_lines for i in no_image)

    def test_a_coref_outage_the_build_survives(self, fixture_config, tmp_path, monkeypatch):
        config, _ = fallback_configs(fixture_config, tmp_path)
        monkeypatch.setattr(stubs.StubCorefProvider, "resolve", provider_down)
        out = tmp_path / "run"
        assert garbage_after(["build-dataset", "--config", str(config), "--out", str(out)]) == (0, [])
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert failures and all("kept its sentences" in f for f in failures)

    @pytest.mark.parametrize(
        "command, method", [("generate", "sample_many"), ("evaluate", "score_many")]
    )
    def test_a_provider_failure(self, fixture_config, tmp_path, monkeypatch, command, method):
        config = no_delay_config(fixture_config, tmp_path)
        flags = ["--config", str(config), "--out", str(build(config, tmp_path / "run"))]
        generate = ["generate", *flags, "--modalities", "AOPair", "--variants", "1"]
        if command == "evaluate":
            assert cli.main(generate) == 0
        monkeypatch.setattr(stubs.StubLMProvider, method, provider_down)
        argv = generate if command == "generate" else ["evaluate", *flags]
        assert garbage_after(argv) == (3, [])


class TestCollectorState:
    def test_a_command_runs_with_collection_off(self, fixture_config, tmp_path, monkeypatch, collector):
        seen = []
        parse_many = stubs.StubParseProvider.parse_many

        def recorded(self, *args):
            seen.append(gc.isenabled())
            return parse_many(self, *args)

        monkeypatch.setattr(stubs.StubParseProvider, "parse_many", recorded)
        build(fixture_config, tmp_path / "run")
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("code", [0, 2, 3])
    def test_collection_is_back_on_after_each_exit_code(
        self, fixture_config, tmp_path, monkeypatch, collector, code
    ):
        config = no_delay_config(fixture_config, tmp_path)
        argv = ["build-dataset", "--config", str(config), "--out", str(tmp_path / "run")]
        if code == 2:
            argv = ["stats", str(tmp_path / "missing.jsonl")]
        elif code == 3:
            monkeypatch.setattr(stubs.StubParseProvider, "parse_many", provider_down)
        assert cli.main(argv) == code
        assert gc.isenabled()

    def test_an_unknown_command_leaves_collection_on(self, collector, capsys):
        with pytest.raises(SystemExit):
            cli.main(["no-such-command"])
        assert gc.isenabled()

    def test_a_caller_with_collection_off_keeps_it_off(self, fixture_config, tmp_path, collector):
        gc.disable()
        build(fixture_config, tmp_path / "run")
        assert not gc.isenabled()
