import gc
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from actionsense.providers import (
    HttpCorefProvider,
    HttpLMProvider,
    HttpParseProvider,
    HttpRCProvider,
    REQUEST_CAP,
    ProviderError,
    ResponseCache,
    content_key,
    with_retries,
)
from actionsense.stubs import (
    StubLMProvider,
    StubParseProvider,
    StubRCProvider,
    StubVisionProvider,
    _digest,
    fixture_path,
)
from actionsense.generation import FieldBlock, InferenceType, TokenSequence


def token_logprobs(continuation):
    return [-1.0 - i for i, _ in enumerate(continuation.split())]


@pytest.fixture()
def wire_server():
    """Tiny HTTP endpoint speaking the task/inputs and op/sequence envelopes."""
    requests = []
    state = {"fail_next": 0, "drop_row": False, "bad_parse": False, "rc_answer": None, "body": None}
    them = lambda document: [t.replace("them", "the tomatoes") for t in document]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            requests.append(payload)
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(500)
                self.end_headers()
                return
            if state["body"] is not None:  # the same answer to any request
                body = state["body"]
            elif payload.get("task") == "coref":
                body = {"outputs": [them(document) for document in payload["inputs"]]}
            elif payload.get("task") == "parse":
                tree = {"tokens": [{"text": "stir", "lemma": "stir", "pos": "VERB"}], "arcs": []}
                if state["bad_parse"]:
                    tree = {"tokens": tree["tokens"], "arcs": [[0, 5, "dobj"]]}
                body = {"outputs": [tree for _ in payload["inputs"]]}
            elif payload.get("task") == "rc":
                body = {"outputs": ["golden" if "golden" in i["context"] else None for i in payload["inputs"]]}
                if state["rc_answer"] is not None:  # the same answer to every item
                    body = {"outputs": [state["rc_answer"] for _ in payload["inputs"]]}
            elif payload.get("op") == "sample":
                body = {"texts": ["canned"] * payload["params"]["n"]}
            elif payload.get("op") == "logprobs":
                rows = [token_logprobs(c) for c in payload["params"]["continuations"]]
                body = {"logprobs": rows[:-1] if state["drop_row"] else rows}
            else:
                body = {"outputs": []}
            data = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", requests, state
    server.shutdown()


def sequence():
    return TokenSequence(
        blocks=(FieldBlock("prompt", ("list", "things")), FieldBlock("start", ("s_goal",))),
        inference_type=InferenceType.GOAL,
    )


class TestResponseCache:
    def test_round_trip_and_write_once(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        payload = {"task": "coref", "inputs": ["hello"]}
        assert cache.get(payload) is None
        cache.put(payload, {"outputs": ["first"]})
        cache.put(payload, {"outputs": ["second"]})  # first writer wins
        assert cache.get(payload) == {"outputs": ["first"]}

    def test_content_addressing_is_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_one_line_per_response_in_one_log(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        for word in ("a", "b", "a"):
            cache.put({"inputs": [word]}, {"outputs": [word.upper()]})
        cache.close()
        lines = (tmp_path / "cache" / "responses.log").read_text().splitlines()
        assert lines == [
            f'{content_key({"inputs": [w]})}\t{{"outputs": ["{w.upper()}"]}}' for w in ("a", "b")
        ]
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["responses.log"]

    def test_torn_last_line_is_a_miss_and_a_later_record_reads_back(self, tmp_path):
        first, torn, later = ({"inputs": [w]} for w in ("first", "torn", "later"))
        cache = ResponseCache(tmp_path / "cache")
        cache.put(first, {"outputs": ["one"]})
        cache.close()
        log = tmp_path / "cache" / "responses.log"
        with open(log, "a", encoding="utf-8") as fh:  # a write cut short
            fh.write(f'{content_key(torn)}\t{{"outputs": ["tw')
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get(torn) is None
        assert cache.get(first) == {"outputs": ["one"]}
        cache.put(later, {"outputs": ["three"]})
        assert cache.get(later) == {"outputs": ["three"]}
        cache.close()
        reopened = ResponseCache(tmp_path / "cache")
        assert reopened.get(later) == {"outputs": ["three"]}
        assert reopened.get(first) == {"outputs": ["one"]}
        assert reopened.get(torn) is None
        # the torn key can still be cached, and then it reads back
        reopened.put(torn, {"outputs": ["two"]})
        assert ResponseCache(tmp_path / "cache").get(torn) == {"outputs": ["two"]}

    def test_two_caches_on_one_directory_keep_the_first_writer(self, tmp_path):
        payload = {"inputs": ["shared"]}
        a, b = ResponseCache(tmp_path / "cache"), ResponseCache(tmp_path / "cache")
        assert a.get(payload) is None and b.get(payload) is None  # both logs indexed
        a.put(payload, {"outputs": ["from a"]})
        b.put(payload, {"outputs": ["from b"]})
        assert a.get(payload) == b.get(payload) == {"outputs": ["from a"]}
        assert ResponseCache(tmp_path / "cache").get(payload) == {"outputs": ["from a"]}
        assert len((tmp_path / "cache" / "responses.log").read_text().splitlines()) == 1

    def test_a_later_cache_reads_what_an_earlier_one_wrote(self, tmp_path):
        payload = {"op": "sample", "params": {"n": 2}}
        earlier = ResponseCache(tmp_path / "cache")
        earlier.put(payload, {"texts": ["eggs \u00e9", "tab\there"]})
        earlier.close()
        later = ResponseCache(tmp_path / "cache")
        assert later.get(payload) == {"texts": ["eggs \u00e9", "tab\there"]}
        later.close()
        assert later.get(payload) == {"texts": ["eggs \u00e9", "tab\there"]}  # reopens

    def test_record_whose_key_does_not_match_its_offset_is_a_miss(self, tmp_path):
        one, two = {"inputs": ["one"]}, {"inputs": ["two"]}
        cache = ResponseCache(tmp_path / "cache")
        cache.put(one, {"outputs": ["1"]})
        cache.put(two, {"outputs": ["2"]})
        log = tmp_path / "cache" / "responses.log"
        first, second = log.read_bytes().splitlines(keepends=True)
        assert len(first) == len(second)
        log.write_bytes(second + first)  # each record now sits at the other's offset
        assert cache.get(one) is None
        assert cache.get(two) is None
        assert ResponseCache(tmp_path / "cache").get(one) == {"outputs": ["1"]}

    def test_first_record_that_reads_back_wins_over_a_damaged_one(self, tmp_path):
        payload = {"inputs": ["damaged"]}
        log = tmp_path / "cache" / "responses.log"
        log.parent.mkdir()
        log.write_text(f"{content_key(payload)}\t{{not json\n")  # whole, but not JSON
        caches = [ResponseCache(tmp_path / "cache") for _ in range(3)]
        answers = []
        for turn in range(2):
            for number, cache in enumerate(caches):
                answers.append(cache.get(payload))
                cache.put(payload, {"outputs": [f"{turn}/{number}"]})
        assert answers == [None] + [{"outputs": ["0/0"]}] * 5
        assert len(log.read_text().splitlines()) == 2


class TestWireContract:
    def test_readme_states_the_request_cap(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        contracts = readme.split("## Provider wire contracts", 1)[1].split("\n## ", 1)[0]
        assert re.findall(r"at most (\d+) inputs", contracts) == [str(REQUEST_CAP)]

    def test_coref_request_shape_and_response(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpCorefProvider(url)
        documents = [["grill them", "turn them"], ["stir it"]]
        out = provider.resolve(documents)
        assert out == [["grill the tomatoes", "turn the tomatoes"], ["stir it"]]
        assert requests == [{"task": "coref", "inputs": documents}]


    def test_rc_answer_must_be_span(self, wire_server):
        url, _, _ = wire_server
        provider = HttpRCProvider(url)
        assert provider.answer_many([("turns golden brown", "What color is it?")]) == ["golden"]
        assert provider.answer_many([("nothing relevant", "What color is it?")]) == [None]

    def test_lm_sample_and_logprobs_envelopes(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpLMProvider(url)
        texts = provider.sample(sequence(), nucleus_p=0.9, max_new=8, n=3)
        assert texts == ["canned"] * 3
        assert requests[-1]["op"] == "sample"
        assert requests[-1]["params"] == {"p": 0.9, "n": 3, "max_new": 8}
        assert "text_fields" in requests[-1]["sequence"]
        lps = provider.logprobs(sequence(), "two tokens")
        assert lps == [-1.0, -2.0]
        assert requests[-1]["op"] == "logprobs"

    def test_lm_score_many_sends_one_logprobs_request_per_item(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpLMProvider(url)
        other = TokenSequence(blocks=(FieldBlock("start", ("s_goal",)),))
        items = [(sequence(), ["two tokens", "one"]), (other, ["three more tokens"])]
        scored = provider.score_many(items)
        assert requests == [
            {"op": "logprobs", "sequence": s.to_wire(), "params": {"continuations": c}}
            for s, c in items
        ]
        assert scored == [[provider.logprobs(s, c) for c in cs] for s, cs in items]
        assert [[len(row) for row in rows] for rows in scored] == [[2, 1], [3]]

    def test_lm_score_many_length_mismatch_is_a_provider_error(self, tmp_path, wire_server):
        url, requests, state = wire_server
        provider = HttpLMProvider(url, ResponseCache(tmp_path / "cache"))
        state["drop_row"] = True
        with pytest.raises(ProviderError, match="2 score lists, got 1"):
            provider.score_many([(sequence(), ["two tokens", "one"])])
        state["drop_row"] = False
        # the short answer was not cached: the retry asks the server again
        assert provider.score_many([(sequence(), ["two tokens", "one"])]) == [
            [[-1.0, -2.0], [-1.0]]
        ]
        assert len(requests) == 2

    def test_lm_sample_many_sends_one_sample_request_per_sequence(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpLMProvider(url)
        other = TokenSequence(blocks=(FieldBlock("start", ("s_goal",)),))
        assert provider.sample_many([sequence(), other], 0.9, 8, 2) == [["canned"] * 2] * 2
        params = {"p": 0.9, "n": 2, "max_new": 8}
        assert requests == [
            {"op": "sample", "sequence": s.to_wire(), "params": params} for s in (sequence(), other)
        ]

    def test_the_run_seed_goes_with_each_sample_request(self, wire_server):
        url, requests, _ = wire_server
        for seed in (13, 14):
            HttpLMProvider(url, seed=seed).sample_many([sequence()], 0.9, 8, 2)
        first, second = requests
        assert (first["params"]["seed"], second["params"]["seed"]) == (13, 14)
        assert first != second and {**first, "params": second["params"]} == second

    def test_a_response_log_of_per_input_lm_payloads_still_answers(self, tmp_path):
        # records as written before requests were batched: one payload per input
        cache = ResponseCache(tmp_path / "cache")
        url = "http://127.0.0.1:1/none"  # nothing listens: every answer must come from the log
        wire = sequence().to_wire()
        logged = [
            ({"op": "sample", "sequence": wire, "params": {"p": 0.9, "n": 2, "max_new": 8}},
             {"texts": ["logged", "twice"]}),
            ({"op": "logprobs", "sequence": wire, "params": {"continuations": ["a b", "c"]}},
             {"logprobs": [[-1.0, -2.0], [-3.0]]}),
        ]
        for payload, answer in logged:
            cache.put({"url": url, "payload": payload}, answer)
        provider = HttpLMProvider(url, cache, timeout=1)
        assert provider.sample_many([sequence()], 0.9, 8, 2) == [["logged", "twice"]]
        assert provider.score_many([(sequence(), ["a b", "c"])]) == [[[-1.0, -2.0], [-3.0]]]
        # a seeded sample is another payload: it misses the log once
        with pytest.raises(ProviderError, match="request to .* failed"):
            HttpLMProvider(url, cache, timeout=1, seed=13).sample_many([sequence()], 0.9, 8, 2)
        cache.close()

    def test_malformed_parse_is_a_provider_error_and_not_cached(self, tmp_path, wire_server):
        url, requests, state = wire_server
        provider = HttpParseProvider(url, ResponseCache(tmp_path / "cache"))
        state["bad_parse"] = True
        with pytest.raises(ProviderError, match="malformed parse for 'stir'"):
            provider.parse_many(["stir", "stir again"])
        state["bad_parse"] = False
        # the bad answer was not cached: the retry asks the server again
        trees = provider.parse_many(["stir", "stir again"])
        assert [t.tokens[0].lemma for t in trees] == ["stir", "stir"]
        assert len(requests) == 2

    def test_rc_non_span_answer_is_a_provider_error_and_not_cached(self, tmp_path, wire_server):
        url, requests, state = wire_server
        provider = HttpRCProvider(url, ResponseCache(tmp_path / "cache"))
        items = [("turns golden brown", q) for q in ("What color is it?", "What texture is it?")]
        state["rc_answer"] = "purple"
        with pytest.raises(ProviderError, match="'purple' is not a span"):
            provider.answer_many(items)
        state["rc_answer"] = None
        assert provider.answer_many(items) == ["golden", "golden"]
        assert len(requests) == 2

    def test_rc_answer_many_equals_single_calls_in_one_request(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpRCProvider(url)
        questions = ["What color is it?", "What texture is it?"]
        items = [("turns golden brown", q) for q in questions]
        assert provider.answer_many(items) == ["golden", "golden"]
        assert len(requests) == 1
        assert requests[0]["inputs"] == [
            {"context": "turns golden brown", "question": q} for q in questions
        ]
        singles = [provider.answer_many([item])[0] for item in items]
        assert singles == ["golden", "golden"]
        # one question sends the same payload as before batching, so its cache entry holds
        assert requests[-1] == {"task": "rc", "inputs": [requests[0]["inputs"][1]]}

    def test_rc_items_of_several_triplets_go_in_one_request(self, wire_server):
        url, requests, _ = wire_server
        provider = HttpRCProvider(url)
        questions = ["What color is it?", "What texture is it?"]
        triplets = [
            [(context, q) for q in questions] for context in ("turns golden brown", "stays pale")
        ]
        batched = provider.answer_many([item for items in triplets for item in items])
        assert len(requests) == 1
        assert requests[0]["inputs"] == [
            {"context": c, "question": q} for items in triplets for c, q in items
        ]
        per_triplet = [answer for items in triplets for answer in provider.answer_many(items)]
        assert batched == per_triplet == ["golden", "golden", None, None]

    def test_rc_answer_is_checked_against_its_own_items_context(self, tmp_path, wire_server):
        url, requests, state = wire_server
        cache = ResponseCache(tmp_path / "cache")
        provider = HttpRCProvider(url, cache)
        items = [("turns golden brown", "What color is it?"), ("stays pale", "What color is it?")]
        state["rc_answer"] = "golden"  # a span of the first context, not of the second
        with pytest.raises(ProviderError, match="'golden' is not a span of its context"):
            provider.answer_many(items)
        payload = {"task": "rc", "inputs": [{"context": c, "question": q} for c, q in items]}
        assert cache.get(provider.log_key(payload)) is None
        state["rc_answer"] = None
        # nothing was logged: the retry asks the server again
        assert provider.answer_many(items) == ["golden", None]
        assert len(requests) == 2

    # answers of the right count whose values are of the wrong type, once coerced, or for
    # a coref document of the wrong length
    @pytest.mark.parametrize(
        "provider, call, body, named",
        [
            (HttpCorefProvider, lambda p: p.resolve([["grill them"]]), {"outputs": [[None]]},
             "'[0][0]' must be a string, not null"),
            (HttpCorefProvider, lambda p: p.resolve([["grill them", "turn them"], ["stir it"]]),
             {"outputs": [["grill the tomatoes", "turn the tomatoes"], []]},
             "0 sentences for document 1, which has 1"),
            (HttpCorefProvider, lambda p: p.resolve([["grill them"], ["stir it"]]),
             {"outputs": [["grill the tomatoes"], "stir it"]},
             "'[1]' must be a list, not \"stir it\""),
            (HttpRCProvider, lambda p: p.answer_many([("bake 5 minutes", "How long?")]),
             {"outputs": [5]}, "'[0]' must be a string, not 5"),
            (HttpLMProvider, lambda p: p.sample(sequence(), 0.9, 16, 1), {"texts": [None]},
             "'[0]' must be a string, not null"),
            (HttpLMProvider, lambda p: p.score_many([(sequence(), ["two tokens"])]),
             {"logprobs": [["-1", True]]}, "'[0][0]' must be a finite number, not \"-1\""),
            (HttpLMProvider, lambda p: p.score_many([(sequence(), ["two tokens"])]),
             {"logprobs": [[-1.0, float("nan")]]}, "'[0][1]' must be a finite number, not NaN"),
            (HttpParseProvider, lambda p: p.parse_many(["stir it"]), {"outputs": [{
                "tokens": [{"text": w, "lemma": w, "pos": pos} for w, pos in
                           (("stir", "VERB"), ("it", "PRON"))],
                "arcs": [[0.9, 1.7, "dobj"]],
            }]}, "'arcs[0][0]' must be an integer, not 0.9"),
        ],
        ids=["coref-null", "coref-short-document", "coref-document-string", "rc-int",
             "sample-null", "logprobs-string-and-bool", "logprobs-nan", "parse-float-arcs"],
    )
    def test_answer_of_the_wrong_type_is_a_provider_error_and_not_logged(
        self, tmp_path, wire_server, provider, call, body, named
    ):
        url, requests, state = wire_server
        state["body"] = body
        with pytest.raises(ProviderError) as caught:
            call(provider(url, ResponseCache(tmp_path / "cache")))
        assert named in str(caught.value) and len(requests) == 1
        assert (tmp_path / "cache" / "responses.log").read_bytes() == b""

    def test_logged_record_is_checked_like_a_network_answer(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        provider = HttpCorefProvider("http://127.0.0.1:1/none", cache)
        payload = {"task": "coref", "inputs": [["grill them"]]}
        cache.put(provider.log_key(payload), {"outputs": [["one"], ["two"]]})
        with pytest.raises(ProviderError, match="2 outputs for 1 inputs"):
            provider.resolve([["grill them"]])

    def test_logged_record_without_the_result_key_is_a_miss(self, tmp_path, wire_server):
        url, requests, _ = wire_server
        cache = ResponseCache(tmp_path / "cache")
        provider = HttpCorefProvider(url, cache)
        payload = {"task": "coref", "inputs": [["grill them"]]}
        cache.put(provider.log_key(payload), {"texts": ["grill"]})
        assert provider.resolve([["grill them"]]) == [["grill the tomatoes"]]
        assert len(requests) == 1

    def test_responses_cached_by_content(self, tmp_path, wire_server):
        url, requests, _ = wire_server
        cache = ResponseCache(tmp_path / "cache")
        provider = HttpCorefProvider(url, cache)
        provider.resolve([["grill them"]])
        provider.resolve([["grill them"]])
        assert len(requests) == 1

    def test_server_error_raises_provider_error(self, wire_server):
        url, _, state = wire_server
        state["fail_next"] = 1
        with pytest.raises(ProviderError):
            HttpCorefProvider(url).resolve([["x"]])

    def test_read_timeout_mid_body_raises_provider_error(self):
        release = threading.Event()

        class Stall(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"logprobs": ')
                self.wfile.flush()
                release.wait(5)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Stall)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            provider = HttpLMProvider(f"http://127.0.0.1:{server.server_port}/lm", timeout=0.5)
            with pytest.raises(ProviderError):
                provider.logprobs(sequence(), "two tokens")
        finally:
            release.set()
            server.shutdown()
            thread.join(5)
        assert not thread.is_alive()

    def test_unreachable_endpoint(self):
        with pytest.raises(ProviderError):
            HttpCorefProvider("http://127.0.0.1:1/none").resolve([["x"]])


class TestRetries:
    def test_retries_then_succeeds(self, wire_server):
        url, requests, state = wire_server
        state["fail_next"] = 2
        provider = HttpCorefProvider(url)
        sleeps = []
        out = with_retries(
            lambda: provider.resolve([["grill them"]]),
            attempts=3,
            base_delay=0.01,
            sleep=sleeps.append,
        )
        assert out == [["grill the tomatoes"]]
        assert len(requests) == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_exhausted_retries_raise(self, wire_server):
        url, _, state = wire_server
        state["fail_next"] = 5
        provider = HttpCorefProvider(url)
        with pytest.raises(ProviderError):
            with_retries(lambda: provider.resolve([["x"]]), attempts=3, sleep=lambda _: None)

    def test_the_last_error_propagates_and_no_cycle_holds_it(self):
        calls, sleeps = [], []

        def down():
            calls.append(1)
            raise ProviderError(f"endpoint down ({len(calls)})")

        def exhaust() -> str:
            try:
                with_retries(down, attempts=3, base_delay=0.01, sleep=sleeps.append)
            except ProviderError as exc:
                return str(exc)

        collecting, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            message = exhaust()
            gc.collect()
            kept = [o for o in gc.garbage if isinstance(o, ProviderError)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if collecting:
                gc.enable()
        assert message == "endpoint down (3)"
        assert len(calls) == 3 and sleeps == [0.01, 0.02]
        # with collection paused, an error in a cycle would keep fn and its data alive
        assert kept == []

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_no_attempts_is_a_value_error(self, attempts):
        calls = []
        with pytest.raises(ValueError, match="attempts"):
            with_retries(lambda: calls.append(1), attempts=attempts, sleep=lambda _: None)
        assert calls == []


class TestFileStubs:
    def test_rc_stub_returns_first_span_present(self):
        stub = StubRCProvider(fixture_path("rc.json"))
        context = "the potatoes look golden and crisp now"
        assert stub.answer(context, "What color is potato?") == "golden"
        assert stub.answer(context, "What texture is potato?") == "crisp"
        assert stub.answer(context, "What shape is potato?") is None

    def test_lm_stub_sampling_is_seed_stable(self):
        a = StubLMProvider(fixture_path("lm.json"), seed=13)
        b = StubLMProvider(fixture_path("lm.json"), seed=13)
        other = StubLMProvider(fixture_path("lm.json"), seed=14)
        seq = sequence()
        assert a.sample(seq, 0.9, 8, 3) == b.sample(seq, 0.9, 8, 3)
        assert a.logprobs(seq, "soft curds") == b.logprobs(seq, "soft curds")
        assert a.sample(seq, 0.9, 8, 5) != other.sample(seq, 0.9, 8, 5) or a.logprobs(
            seq, "soft curds"
        ) != other.logprobs(seq, "soft curds")

    @pytest.mark.parametrize("vocab_size", [None, 100])
    def test_lm_stub_batches_equal_single_calls(self, vocab_size):
        stub = StubLMProvider(fixture_path("lm.json"), seed=13, vocab_size=vocab_size)
        other = TokenSequence(blocks=(FieldBlock("start", ("s_effect",)),), inference_type=None)
        items = [(sequence(), ["soft curds", "", "golden", "soft curds"]), (other, ["golden"])]
        assert stub.score_many(items) == [
            [stub.logprobs(s, c) for c in continuations] for s, continuations in items
        ]
        assert stub.sample_many([sequence(), other], 0.9, 8, 3) == [
            stub.sample(s, 0.9, 8, 3) for s in (sequence(), other)
        ]

    def test_lm_stub_score_many_equals_the_digest_formula(self):
        stub = StubLMProvider(fixture_path("lm.json"), seed=13)
        continuations = ["soft curds", "golden brown crust", "crème brûlée", ""]
        context = sequence().text()
        assert stub.score_many([(sequence(), continuations)]) == [[
            [
                -(0.5 + (_digest("13", context, str(i), tok) % 2000) / 1000.0)
                for i, tok in enumerate(c.split())
            ]
            for c in continuations
        ]]

    def test_parse_and_rc_stubs_batch_like_single_calls(self, resolved):
        parse = StubParseProvider(fixture_path("parse.json"))
        sentences = [text for (video_id, _), text in resolved.items() if video_id == "blt01"]
        assert parse.parse_many(sentences) == [parse.parse(s) for s in sentences]
        rc = StubRCProvider(fixture_path("rc.json"))
        context = "the potatoes look golden and crisp now"
        questions = ["What color is potato?", "What texture is potato?", "What shape is potato?"]
        items = [(context, q) for q in questions] + [("pale and soft", questions[0])]
        assert rc.answer_many(items) == ["golden", "crisp", None, None]
        assert rc.answer_many(items) == [rc.answer(c, q) for c, q in items]

    def test_uniform_mode(self):
        import math

        stub = StubLMProvider(vocab_size=100)
        lps = stub.logprobs(sequence(), "one two three")
        assert lps == [-math.log(100)] * 3

    def test_vision_stub_caps_and_tags(self):
        from actionsense.corpus import FrameRef, ObjectAnnotation

        stub = StubVisionProvider(dim=4)
        frame = FrameRef("v", 1, 10, 1.0)
        feats = stub.features(frame, [ObjectAnnotation("egg"), ObjectAnnotation("fork")])
        assert len(feats.global_vec) == 4
        assert [t for t, _ in feats.objects] == ["[Object1]", "[Object2]"]
        again = stub.features(frame, [ObjectAnnotation("egg"), ObjectAnnotation("fork")])
        assert feats == again
