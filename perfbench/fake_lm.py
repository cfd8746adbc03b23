"""In-process fake of the language-model HTTP wire contract.

One ``http.server`` thread bound to 127.0.0.1 answers ``sample`` and
``logprobs`` requests deterministically from a hash of the request, and counts
the requests it served and the connections it accepted. It speaks HTTP/1.1,
so a client that keeps connections open can reuse them.

A ``logprobs`` request scores ``params.continuation`` and gets back
``{"logprobs": [float, ...]}``, one value per token. The batched form scores
``params.continuations`` and gets back ``{"logprobs": [[float, ...], ...]}``,
one list per continuation in request order, each equal to the single form's
answer; it counts as one request.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


def _digest(*parts: str) -> int:
    joined = "\x1f".join(parts)
    return int.from_bytes(hashlib.sha256(joined.encode("utf-8")).digest()[:8], "big")


def _logprobs(seed: int, context: str, continuation: str) -> list[float]:
    return [
        -(0.5 + (_digest(str(seed), context, str(i), tok) % 2000) / 1000.0)
        for i, tok in enumerate(continuation.split())
    ]


def answer(payload: dict, samples: dict[str, list[str]], seed: int) -> dict:
    """The fake's response body for one request payload."""
    fields = payload["sequence"]["text_fields"]
    context = " ".join(fields[name] for name in sorted(fields))
    params = payload["params"]
    if payload["op"] == "sample":
        itype = fields.get("start", "s_default")[len("s_"):]
        texts = samples.get(itype) or samples["default"]
        start = _digest(str(seed), context) % len(texts)
        return {"texts": [texts[(start + k) % len(texts)] for k in range(params["n"])]}
    if payload["op"] == "logprobs":
        if "continuations" in params:
            return {"logprobs": [_logprobs(seed, context, c) for c in params["continuations"]]}
        return {"logprobs": _logprobs(seed, context, params["continuation"])}
    raise ValueError(f"unknown op {payload['op']!r}")


class _Server(HTTPServer):
    def __init__(self, samples, seed):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.samples = samples
        self.seed = seed
        self.requests = 0
        self.connections = 0

    def get_request(self):
        conn = super().get_request()
        self.connections += 1
        return conn


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        self.server.requests += 1
        try:
            body = json.dumps(answer(payload, self.server.samples, self.server.seed))
            status = 200
        except (KeyError, TypeError, ValueError) as exc:
            body = json.dumps({"error": str(exc)})
            status = 400
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class FakeLM:
    """Context manager running the fake on an ephemeral 127.0.0.1 port."""

    def __init__(self, samples: dict[str, list[str]], seed: int):
        self._server = _Server(samples, seed)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/lm"

    @property
    def requests(self) -> int:
        return self._server.requests

    @property
    def connections(self) -> int:
        return self._server.connections

    def __enter__(self) -> "FakeLM":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()
