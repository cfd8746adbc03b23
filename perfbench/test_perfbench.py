"""Checks of the benchmark's own parts: corpus generator, fake LM, span maths.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from actionsense import cli
from actionsense.assembly import read_dataset
from actionsense.providers import HttpLMProvider, _post_json
from actionsense.triplets import read_triplets

import checks
import spans
from corpus_gen import generate_corpus, write_config
from fake_lm import FakeLM, answer

SRC = Path(cli.__file__).resolve().parent.parent
SAMPLES = json.loads((SRC / "actionsense" / "fixtures" / "lm.json").read_text())["samples"]


def build(tmp_path, copies, groups, rename=True, seed=5):
    predicted = generate_corpus(tmp_path / "corpus", SRC, copies, groups, seed, rename)
    config = write_config(tmp_path / "config.json", tmp_path / "corpus", seed)
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build-dataset", "--config", str(config), "--out", str(out)]) == 0
    return predicted, out


def test_one_copy_without_rename_is_the_fixture(tmp_path):
    predicted, out = build(tmp_path, copies=1, groups=1, rename=False)
    assert len(read_triplets(out / "triplets.jsonl")) == 11
    assert len(read_dataset(out / "dataset.jsonl")) == 9
    assert (predicted["triplets"], predicted["instances"]) == (11, 9)
    fixture = json.loads((SRC / "actionsense" / "fixtures" / "annotations.json").read_text())
    assert json.loads((tmp_path / "corpus" / "annotations.json").read_text()) == fixture


@pytest.mark.parametrize("copies,groups", [(1, 1), (4, 4), (6, 2)])
def test_generated_corpus_yields_predicted_counts(tmp_path, copies, groups):
    predicted, out = build(tmp_path, copies, groups)
    dataset = read_dataset(out / "dataset.jsonl")
    assert len(read_triplets(out / "triplets.jsonl")) == predicted["triplets"] == 11 * copies
    assert len(dataset) == predicted["instances"] == 9 * groups
    assert sum(i.image is not None for i in dataset) == predicted["image_instances"]
    assert checks.check_dataset(out, predicted) == []
    # merges stay inside a noun group and, with several copies per group, span copies
    copies_merged = set()
    for instance in dataset:
        assert len({re.match(r"n\d+", e.triplet.ingredient).group() for e in instance.provenance}) == 1
        copies_merged.add(len({e.video_id.rsplit("-", 1)[1] for e in instance.provenance}))
    assert max(copies_merged) == copies // groups


def test_sentences_are_distinct_per_copy(tmp_path):
    generate_corpus(tmp_path, SRC, copies=3, groups=1, seed=1)
    videos = json.loads((tmp_path / "annotations.json").read_text())["videos"]
    sentences = [seg["sentence"] for v in videos for seg in v["segments"]]
    assert len(sentences) == len(set(sentences)) == 3 * 27


def test_group_assignment_is_seeded_and_balanced(tmp_path):
    a = generate_corpus(tmp_path / "a", SRC, copies=4, groups=2, seed=9)
    b = generate_corpus(tmp_path / "b", SRC, copies=4, groups=2, seed=9)
    assert a == b
    assert (tmp_path / "a" / "annotations.json").read_bytes() == (
        tmp_path / "b" / "annotations.json"
    ).read_bytes()


def test_fake_lm_answers_and_counts():
    payload = {
        "op": "sample",
        "sequence": {"text_fields": {"ao": "s_ao cut potato e_ao", "start": "s_goal"}},
        "params": {"p": 0.9, "n": 3, "max_new": 16},
    }
    with FakeLM(SAMPLES, seed=4) as fake:
        first = _post_json(fake.url, payload)
        second = _post_json(fake.url, payload)
        assert fake.url.startswith("http://127.0.0.1:")
    assert first == second == answer(payload, SAMPLES, 4)
    assert len(first["texts"]) == 3 and set(first["texts"]) <= set(SAMPLES["goal"])
    assert (fake.requests, fake.connections) == (2, 2)


def test_fake_lm_serves_the_http_provider(tmp_path):
    from actionsense.providers import ResponseCache

    class Seq:
        def to_wire(self):
            return {"text_fields": {"start": "s_effect"}, "visual_refs": [], "fusion": "additive"}

    with FakeLM(SAMPLES, seed=4) as fake:
        lm = HttpLMProvider(fake.url, ResponseCache(tmp_path))
        assert len(lm.logprobs(Seq(), "turns golden brown")) == 3
        assert lm.sample(Seq(), 0.9, 16, 2) == lm.sample(Seq(), 0.9, 16, 2)
    assert fake.requests == 2  # the repeated sample is a cache hit


def test_fake_lm_scores_a_batch_in_one_request():
    sequence = {"text_fields": {"ao": "s_ao cut potato e_ao", "start": "s_effect"}}
    continuations = ["turns golden brown", "", "is soft"]

    def payload(params):
        return {"op": "logprobs", "sequence": sequence, "params": params}

    with FakeLM(SAMPLES, seed=4) as fake:
        batched = _post_json(fake.url, payload({"continuations": continuations}))
        assert fake.requests == 1
    singles = [answer(payload({"continuation": c}), SAMPLES, 4)["logprobs"] for c in continuations]
    assert batched == {"logprobs": singles}
    assert [len(row) for row in singles] == [3, 0, 2]


def test_every_public_stub_method_counts_as_one_request(monkeypatch):
    from actionsense import stubs

    def logprobs_many(self, sequence, continuations):
        return [self.logprobs(sequence, c) for c in continuations]

    monkeypatch.setattr(stubs.StubLMProvider, "logprobs_many", logprobs_many, raising=False)
    for owner, _ in spans.REQUESTS:
        for attr, value in list(vars(owner).items()):
            if not attr.startswith("_"):
                monkeypatch.setattr(owner, attr, value)  # restored when the test ends
    counts = Counter()
    spans.count_requests(counts)

    class Seq:
        def text(self):
            return "s_ao cut potato e_ao s_effect"

    lm = stubs.StubLMProvider(seed=4)
    assert lm.logprobs_many(Seq(), ["turns golden brown", "is soft"])[1] == lm.logprobs(
        Seq(), "is soft"
    )
    assert counts == Counter({"requests.lm": 2})


def test_self_time_excludes_child_spans(monkeypatch):
    tracer = spans.Tracer(Counter())
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner() or inner())
    tracer.run_command("build", outer)
    monkeypatch.undo()
    rows = tracer.self_times()
    # command 0..7, outer 1..6, inner 2..3 and 4..5
    assert rows["cli.build"] == [1, 7.0, 2.0]
    assert rows["outer"] == [1, 5.0, 3.0]
    assert rows["inner"] == [2, 2.0, 2.0]
    assert tracer.calls_in("inner", "build") == 2
