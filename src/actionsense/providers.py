"""Provider plumbing: errors, content-addressed response cache, HTTP adapters.

Text-tool providers speak a single JSON-over-HTTP envelope:

    POST {"task": "coref" | "parse" | "rc", "inputs": [...]}
    ->   {"outputs": [...]}

with one output per input, in order. A request carries a natural unit of
work: coref and parse get every sentence of one video, rc gets the five
effect questions of one triplet as ``{"context": ..., "question": ...}``
objects sharing one context.

The language-model provider speaks:

    POST {"op": "sample" | "logprobs",
          "sequence": {"text_fields": {...}, "visual_refs": [...]},
          "params": {...}}
    ->   {"texts": [...]} or {"logprobs": [...]}

A ``logprobs`` request scores ``params.continuations``, a list answered by
one list of per-token log-probabilities per continuation, in request order:
the distinct non-empty samples of one composed input, or the candidates of
one A@50 pool, in one request.

Live responses are cached to disk keyed by the SHA-256 of the request payload
so that reruns are deterministic and work offline. Cache writes are atomic and
write-once, which makes them safe under concurrent writers. Every provider
checks a response (output count, parse tree, answer span, score lists) before
it is cached, so a malformed one is never stored and a retry asks again.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
import urllib.request
from pathlib import Path

from .atomic import write_atomic

CREDENTIALS_ENV_VAR = "ACTIONSENSE_PROVIDER_TOKEN"


class ProviderError(Exception):
    """A provider call failed or returned a malformed response."""


def canonical_payload(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def content_key(payload) -> str:
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


class ResponseCache:
    """Write-once response store addressed by request-content hash."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, payload):
        path = self._path(content_key(payload))
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def put(self, payload, response) -> None:
        path = self._path(content_key(payload))
        if path.exists():  # first writer wins
            return
        write_atomic(path, (json.dumps(response, ensure_ascii=False),))


def with_retries(fn, attempts: int = 3, base_delay: float = 0.1, sleep=time.sleep):
    """Call fn(), retrying ProviderError with exponential backoff."""
    last = None
    for attempt in range(attempts):
        try:
            return fn()
        except ProviderError as exc:
            last = exc
            if attempt + 1 < attempts:
                sleep(base_delay * (2**attempt))
    raise last


def _post_json(url: str, payload, timeout: float = 30.0):
    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(CREDENTIALS_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            if resp.status != 200:
                raise ProviderError(f"{url} returned HTTP {resp.status}")
            return json.loads(resp.read().decode("utf-8"))
    except (OSError, http.client.HTTPException) as exc:
        # URLError and read timeouts are OSErrors; a cut-off body is an HTTPException.
        raise ProviderError(f"request to {url} failed: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProviderError(f"{url} returned invalid JSON: {exc}") from exc


class _HttpTaskProvider:
    """Shared plumbing for the task/inputs -> outputs envelope."""

    task = ""

    def __init__(self, url: str, cache: ResponseCache | None = None, timeout: float = 30.0):
        self.url = url
        self.cache = cache
        self.timeout = timeout

    def _call(self, inputs: list, check):
        """``check(outputs)`` for the request; only outputs that pass are cached."""
        payload = {"task": self.task, "inputs": inputs}
        if self.cache is not None:
            hit = self.cache.get(payload)
            if hit is not None:
                return check(hit["outputs"])
        response = _post_json(self.url, payload, timeout=self.timeout)
        if not isinstance(response, dict) or "outputs" not in response:
            raise ProviderError(f"{self.url} response missing 'outputs'")
        outputs = response["outputs"]
        if not isinstance(outputs, list) or len(outputs) != len(inputs):
            raise ProviderError(
                f"{self.url} returned {_count(outputs)} outputs for {len(inputs)} inputs"
            )
        result = check(outputs)
        if self.cache is not None:
            self.cache.put(payload, {"outputs": outputs})
        return result


class HttpCorefProvider(_HttpTaskProvider):
    task = "coref"

    def resolve(self, texts) -> list[str]:
        return self._call(list(texts), lambda outputs: [str(t) for t in outputs])


class HttpParseProvider(_HttpTaskProvider):
    task = "parse"

    def parse_many(self, sentences) -> list:
        from .extraction import ParseTree

        sentences = list(sentences)

        def check(outputs):
            trees = []
            for sentence, raw in zip(sentences, outputs):
                try:
                    trees.append(ParseTree.from_dict(raw))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ProviderError(f"malformed parse for {sentence!r}: {exc}") from exc
            return trees

        return self._call(sentences, check)


class HttpRCProvider(_HttpTaskProvider):
    task = "rc"

    def answer_many(self, context: str, questions) -> list[str | None]:
        def check(outputs):
            answers = [None if out is None else str(out) for out in outputs]
            for answer in answers:
                if answer is not None and answer not in context:
                    raise ProviderError(f"rc answer {answer!r} is not a span of the context")
            return answers

        return self._call([{"context": context, "question": q} for q in questions], check)

    def answer(self, context: str, question: str) -> str | None:
        return self.answer_many(context, [question])[0]


def _count(value) -> str:
    return str(len(value)) if isinstance(value, list) else f"a {type(value).__name__}"


def _floats(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"log-probabilities are not a list of numbers: {exc}") from exc


class HttpLMProvider:
    """Language-model provider over the op/sequence/params envelope."""

    def __init__(self, url: str, cache: ResponseCache | None = None, timeout: float = 60.0):
        self.url = url
        self.cache = cache
        self.timeout = timeout

    def _call(self, payload, result_key, check):
        """The checked ``result_key`` value of the response; only checked values are cached."""
        if self.cache is not None:
            hit = self.cache.get(payload)
            if hit is not None:
                return check(hit[result_key])
        response = _post_json(self.url, payload, timeout=self.timeout)
        if not isinstance(response, dict) or result_key not in response:
            raise ProviderError(f"{self.url} response missing {result_key!r}")
        result = check(response[result_key])
        if self.cache is not None:
            self.cache.put(payload, {result_key: response[result_key]})
        return result

    def sample(self, sequence, nucleus_p: float, max_new: int, n: int) -> list[str]:
        payload = {
            "op": "sample",
            "sequence": sequence.to_wire(),
            "params": {"p": nucleus_p, "n": n, "max_new": max_new},
        }

        def check(texts):
            if not isinstance(texts, list) or len(texts) != n:
                raise ProviderError(f"asked for {n} samples, got {_count(texts)}")
            return [str(t) for t in texts]

        return self._call(payload, "texts", check)

    def logprobs_many(self, sequence, continuations) -> list[list[float]]:
        """Per-token log-probabilities of each continuation, in one request."""
        continuations = list(continuations)
        payload = {
            "op": "logprobs",
            "sequence": sequence.to_wire(),
            "params": {"continuations": continuations},
        }

        def check(rows):
            if not isinstance(rows, list) or len(rows) != len(continuations):
                raise ProviderError(
                    f"asked for {len(continuations)} score lists, got {_count(rows)}"
                )
            return [_floats(row) for row in rows]

        return self._call(payload, "logprobs", check)

    def logprobs(self, sequence, continuation: str) -> list[float]:
        return self.logprobs_many(sequence, [continuation])[0]
