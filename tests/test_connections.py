"""Kept-alive provider connections, each against a 127.0.0.1 ``http.server``."""

import contextlib
import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from actionsense import cli
from actionsense.providers import HttpLMProvider, HttpSession, ProviderError, _post_json
from actionsense.generation import FieldBlock, InferenceType, TokenSequence

TEXTS = ["the egg is cooked", "the pan is hot", "the toast is golden", "the soup is thick"]


class LMHandler(BaseHTTPRequestHandler):
    """Deterministic answers to the LM envelope, headers and body in two writes."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append(payload["op"])
        stall = self.server.stall_first and len(self.server.requests) == 1
        if payload["op"] == "sample":
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).digest()
            n = payload["params"]["n"]
            body = {"texts": [TEXTS[(digest[0] + k) % len(TEXTS)] for k in range(n)]}
        else:
            continuations = payload["params"]["continuations"]
            body = {"logprobs": [[-1.0 - len(w) / 10 for w in c.split()] for c in continuations]}
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if stall:  # half the body, then nothing until the test ends
            self.wfile.write(data[: len(data) // 2])
            self.server.release.wait(10)
            self.close_connection = True
            return
        self.wfile.write(data)
        # without a Connection: close header, as a server that drops idle connections would
        self.close_connection = self.server.drop_after_response

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def lm_server(server_class=ThreadingHTTPServer, drop_after_response=False, stall_first=False):
    class Server(server_class):
        def get_request(self):
            self.connections += 1
            return super().get_request()

    server = Server(("127.0.0.1", 0), LMHandler)
    server.requests, server.connections = [], 0
    server.drop_after_response, server.stall_first = drop_after_response, stall_first
    server.release = threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/lm"
    try:
        yield server
    finally:
        server.release.set()
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(10)
        thread.join(10)
        server.server_close()
    assert not stopper.is_alive() and not thread.is_alive(), "server did not shut down"


def http_config(fixture_config, tmp_path, url, name="http", **values):
    cfg = {**json.loads(fixture_config.read_text()), **values}
    cfg["providers"]["lm"] = {"kind": "http", "url": url}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def build_and_generate(config, out):
    assert cli.main(["build-dataset", "--config", str(config), "--out", str(out)]) == 0
    code = cli.main(
        ["generate", "--config", str(config), "--out", str(out),
         "--modalities", "AOPair,TextDesc", "--variants", "1"]
    )
    assert code == 0
    return out


def sequence():
    return TokenSequence(
        blocks=(FieldBlock("prompt", ("list", "things")), FieldBlock("start", ("s_goal",))),
        inference_type=InferenceType.GOAL,
    )


class TestConnectionsPerCommand:
    def test_generate_then_evaluate_use_one_connection_each(self, fixture_config, tmp_path):
        with lm_server() as server:
            config = http_config(fixture_config, tmp_path, server.url)
            out = build_and_generate(config, tmp_path / "run")
            assert server.connections == 1
            generate_requests = len(server.requests)
            assert generate_requests > 10
            assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
            assert len(server.requests) > generate_requests
            assert server.connections == 2

    def test_a_run_pointed_at_another_endpoint_asks_it(self, fixture_config, tmp_path):
        with lm_server() as first, lm_server() as second:
            out = tmp_path / "run"
            build_and_generate(http_config(fixture_config, tmp_path, first.url, "a"), out)
            made_by_first = (out / "generations_main.jsonl").read_bytes()
            build_and_generate(http_config(fixture_config, tmp_path, second.url, "b"), out)
            # the response log holds the first endpoint's answers, keyed by its URL
            assert len(second.requests) == len(first.requests) > 0
            assert (out / "generations_main.jsonl").read_bytes() == made_by_first

    def test_single_threaded_server_stops_right_after_the_command(
        self, fixture_config, tmp_path, monkeypatch
    ):
        # the server serves one connection until the client closes it, so
        # shutdown() returns only if the command closed its connection
        made = []  # held here, providers cannot close their sockets by being collected
        make_providers = cli.make_providers

        def holding(*args):
            made.append(make_providers(*args))
            return made[-1]

        monkeypatch.setattr(cli, "make_providers", holding)
        with lm_server(HTTPServer) as server:
            build_and_generate(http_config(fixture_config, tmp_path, server.url), tmp_path / "run")
            assert server.connections == 1
            started = time.perf_counter()
        assert time.perf_counter() - started < 2.0

    def test_dropped_connection_is_reopened_without_a_retry(
        self, fixture_config, tmp_path, monkeypatch
    ):
        sleeps = []
        original = cli.with_retries

        def recording_retries(fn, attempts=3, base_delay=0.1):
            return original(fn, attempts, base_delay, sleep=sleeps.append)

        monkeypatch.setattr(cli, "with_retries", recording_retries)
        with lm_server(drop_after_response=True) as server:
            out = build_and_generate(
                http_config(fixture_config, tmp_path, server.url), tmp_path / "run"
            )
        assert sleeps == []
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        # every request went out once, each on a connection of its own
        assert len(server.requests) == server.connections > 10


class TestSessionConnections:
    def test_timed_out_connection_is_not_reused(self):
        session = HttpSession()
        with lm_server(stall_first=True) as server:
            provider = HttpLMProvider(server.url, timeout=0.5, session=session)
            with pytest.raises(ProviderError):
                provider.logprobs(sequence(), "two tokens")
            server.release.set()
            assert provider.logprobs(sequence(), "two tokens") == [-1.3, -1.6]
            assert provider.logprobs(sequence(), "one") == [-1.3]
            session.close()
        assert server.connections == 2

    def test_without_a_session_each_request_has_its_own_connection(self):
        payload = {"op": "logprobs", "sequence": {}, "params": {"continuations": ["a b"]}}
        with lm_server(HTTPServer) as server:
            assert _post_json(server.url, payload) == _post_json(server.url, payload)
        assert server.connections == 2

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
    def test_reused_connection_does_not_wait_for_a_delayed_ack(self):
        # http.server writes headers and body in two writes without TCP_NODELAY;
        # a delayed acknowledgement of the headers would hold each body ~40 ms
        payload = {"op": "logprobs", "sequence": {}, "params": {"continuations": ["a b"]}}
        session = HttpSession()
        with lm_server(HTTPServer) as server:
            _post_json(server.url, payload, session=session)
            started = time.perf_counter()
            for _ in range(20):
                _post_json(server.url, payload, session=session)
            elapsed = time.perf_counter() - started
            session.close()
        assert server.connections == 1
        assert elapsed < 0.4
