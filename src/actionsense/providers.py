"""Provider plumbing: errors, the response log, kept-alive HTTP connections, HTTP adapters.

Text-tool providers speak a single JSON-over-HTTP envelope:

    POST {"task": "coref" | "parse" | "rc", "inputs": [...]}
    ->   {"outputs": [...]}

with one output per input, in order. A build cuts each task's inputs into
``chunks`` of at most ``REQUEST_CAP``. A coref input is one video's
document, the list of its sentences, answered by the list of their
resolutions, one per sentence; the build sends the documents of the videos
that have segments, in corpus order. Parse gets every resolved sentence in
corpus order, rc each distinct effect question once, in the order triplets
first ask it, as a ``{"context": ..., "question": ...}`` object; each answer
is checked against its own object's context. One malformed output fails its
whole request.

The language-model provider speaks, one request per input:

    POST {"op": "sample" | "logprobs",
          "sequence": {"text_fields": {...}, "visual_refs": [...]},
          "params": {...}}
    ->   {"texts": [...]} or {"logprobs": [...]}

Generate and evaluate hand it ``chunks`` of a cell's inputs. ``sample_many``
sends one ``sample`` per sequence, with the run's ``seed``, if given, in params;
``score_many`` sends one ``logprobs`` per (sequence, continuations) item,
answered by one list of per-token log-probabilities per continuation, in
order: the distinct non-empty samples of one composed input, or one A@50 pool.

Live responses are cached so that reruns are deterministic and work offline,
in one append-only log per run directory, ``cache/responses.log``: one
``<64-hex key>\\t<json>\\n`` line per response, keyed by the SHA-256 of the
endpoint URL and the request payload and appended with a single write, so a
run pointed at another endpoint asks it rather than reading the first one's
answers. The first record of a key that reads back wins, across threads and
across caches opened on one directory. A torn line (a write cut short), a
record whose key does not match at its offset and a whole line that is not
JSON do not read back; a key none of whose records reads back is a miss, and
its next response is appended. Memory holds each key's byte offset, and
those of any later records of it.
Caches written in the earlier one-file-per-response layout, records keyed
by the payload alone, coref records of one video's sentences, from before a
request carried documents, and LM samples from before a sample carried the
run's seed are not read; they miss once.

Every provider sends through one request path, ``_HttpProvider._call``: log
lookup, then POST, check and log append as one attempt, which the provider's
``retry`` repeats; nothing else retries. It checks a response (output count,
parse tree, answer span, score lists) before it is logged, and a logged record
the same way, so a malformed answer is never stored or returned and a retry
asks again. A logged record without the answer's result key is a miss.

A command sends its requests through one ``HttpSession``, which keeps
connections alive: one per endpoint per thread sending at once. A thread
takes an idle connection to the endpoint, or opens one, and gives it back
once it has read the response, so no two threads share a connection. A
reused connection that the server has dropped is reopened once, without a
retry. After sending each request the client sets ``TCP_QUICKACK`` on the
socket, because a server that writes headers and body in two writes
without ``TCP_NODELAY`` (``http.server`` does) holds the body until the
client acknowledges the headers, and a delayed acknowledgement costs about
40 ms per request on a reused connection. On platforms without
``TCP_QUICKACK`` that wait may remain. Without a session, each request
opens and closes its own connection.

The HTTP stack (``http.client``, which brings ``socket``, ``ssl`` and
``email``) is imported when an HTTP provider is built, so that a run with
stub providers only never loads it and a run with an HTTP provider pays for
it in set-up rather than in its first request.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from . import shapes

CREDENTIALS_ENV_VAR = "ACTIONSENSE_PROVIDER_TOKEN"

_KEY = re.compile(rb"[0-9a-f]{64}")


class ProviderError(Exception):
    """A provider call failed or returned a malformed response."""


# the most inputs one coref, parse or rc request holds
REQUEST_CAP = 256


def chunks(inputs: list) -> list[list]:
    """``inputs`` cut into consecutive lists of ``REQUEST_CAP``; only the last may be shorter."""
    return [inputs[i : i + REQUEST_CAP] for i in range(0, len(inputs), REQUEST_CAP)]


def canonical_payload(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def content_key(payload) -> str:
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


def _record(key: bytes, line: bytes):
    """The response in a whole log line of ``key``, or None if the line does not read back."""
    if not (line.startswith(key + b"\t") and line.endswith(b"\n")):
        return None
    try:
        return json.loads(line[len(key) + 1 :])
    except ValueError:  # invalid JSON or UTF-8
        return None


class ResponseCache:
    """Append-only response log addressed by request-content hash.

    The log is opened, and indexed, on first use; ``close`` releases it and a
    later use opens it again.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[bytes, int] = {}  # key -> byte offset of its first record
        self._later: dict[bytes, list[int]] = {}  # key -> offsets of its later records
        self._scanned = 0  # the log is indexed up to this byte
        self._reader = None
        self._writer = None

    def _open(self) -> None:
        path = self.root / "responses.log"
        self._writer = open(path, "ab", buffering=0)  # one write() per record
        self._reader = open(path, "rb")
        self._index.clear()
        self._later.clear()
        self._scanned = 0
        self._catch_up()

    def _catch_up(self) -> None:
        """Index the complete lines written since the last scan."""
        self._reader.seek(self._scanned)
        for line in self._reader:
            if not line.endswith(b"\n"):
                break  # torn: the next record appended completes this line
            # after a torn write the line holds its remains, then a whole record
            tab = line.rfind(b"\t")
            if tab >= 64 and _KEY.fullmatch(line, tab - 64, tab):
                key, offset = line[tab - 64 : tab], self._scanned + tab - 64
                if key in self._index:
                    self._later.setdefault(key, []).append(offset)
                else:
                    self._index[key] = offset
            self._scanned += len(line)

    def _first_readable(self, key: bytes):
        """The first record of ``key`` that reads back, which the index then points at.

        With none, the key leaves the index, so that ``put`` appends a record.
        """
        if key not in self._index:
            return None
        for offset in (self._index[key], *self._later.pop(key, ())):
            self._reader.seek(offset)
            response = _record(key, self._reader.readline())
            if response is not None:
                self._index[key] = offset
                return response
        del self._index[key]
        return None

    def get(self, payload):
        key = content_key(payload).encode("ascii")
        with self._lock:
            if self._reader is None:
                self._open()
            offset = self._index.get(key)
            if offset is None:
                return None
            self._reader.seek(offset)
            line = self._reader.readline()
        response = _record(key, line)
        if response is None:  # a damaged record: a later one of the key may read back
            with self._lock:
                self._catch_up()
                response = self._first_readable(key)
        return response

    def put(self, payload, response) -> None:
        key = content_key(payload)
        record = f"{key}\t{json.dumps(response, ensure_ascii=False)}\n".encode("utf-8")
        key = key.encode("ascii")
        with self._lock:
            if self._reader is None:
                self._open()
            self._catch_up()
            if self._first_readable(key) is not None:
                return  # the first record that reads back wins
            rest = memoryview(record)
            while rest:
                rest = rest[self._writer.write(rest) :]
            self._catch_up()

    def close(self) -> None:
        with self._lock:
            for fh in (self._reader, self._writer):
                if fh is not None:
                    fh.close()
            self._reader = self._writer = None


def with_retries(fn, attempts: int = 3, base_delay: float = 0.1, sleep=time.sleep):
    """Call fn() up to ``attempts`` times, retrying ProviderError with exponential backoff."""
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, not {attempts}")
    for attempt in range(attempts):
        try:
            return fn()
        except ProviderError:
            if attempt + 1 == attempts:
                raise  # kept in a local, the error would sit in a cycle with this frame and fn
            sleep(base_delay * (2**attempt))


def _exchange(conn: http.client.HTTPConnection, target: str, body: bytes, headers, timeout):
    """Send one POST on ``conn``, opening it if closed, and read the whole response."""
    import socket

    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    conn.request("POST", target, body, headers)
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is not None:
        conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
    response = conn.getresponse()
    return response.status, response.read()


class HttpSession:
    """Kept-alive HTTP connections for one command, given out one thread at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, str], list[http.client.HTTPConnection]] = {}

    def post(self, url: str, body: bytes, headers, timeout: float) -> tuple[int, bytes]:
        """Status and body of one POST to ``url`` on an idle or new connection."""
        import http.client

        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ProviderError(f"unsupported URL scheme in {url!r}")
        endpoint = (parts.scheme, parts.netloc)
        with self._lock:
            idle = self._idle.get(endpoint)
            conn = idle.pop() if idle else None
        if conn is None:
            https = parts.scheme == "https"
            factory = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = factory(parts.netloc, timeout=timeout)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        reused = conn.sock is not None
        try:
            try:
                result = _exchange(conn, target, body, headers, timeout)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()  # the server dropped the idle connection: open a new one
                result = _exchange(conn, target, body, headers, timeout)
        except BaseException:
            conn.close()  # never reuse a connection left mid-exchange
            raise
        with self._lock:
            self._idle.setdefault(endpoint, []).append(conn)
        return result

    def close(self) -> None:
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()


def _post_json(url: str, payload, timeout: float = 30.0, session: HttpSession | None = None):
    """The decoded JSON answer to one POST, through ``session`` or a connection of its own."""
    import http.client

    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(CREDENTIALS_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    sender = session or HttpSession()
    try:
        status, data = sender.post(url, body, headers, timeout)
    except (OSError, http.client.HTTPException) as exc:
        # refused connections and read timeouts are OSErrors; a cut-off body is an HTTPException
        raise ProviderError(f"request to {url} failed: {exc}") from exc
    finally:
        if session is None:
            sender.close()
    if status != 200:
        raise ProviderError(f"{url} returned HTTP {status}")
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ProviderError(f"{url} returned invalid JSON: {exc}") from exc


class _HttpProvider:
    """One HTTP endpoint; ``_call`` is the one request path, for network and logged answers."""

    timeout = 30.0  # seconds, unless the constructor is given another

    def __init__(
        self,
        url: str,
        cache: ResponseCache | None = None,
        timeout: float | None = None,
        session: HttpSession | None = None,
        retry=lambda send: send(),
    ):
        import http.client  # noqa: F401  (set-up loads the HTTP stack, not the first request)

        self.url = url
        self.cache = cache
        self.timeout = self.timeout if timeout is None else timeout
        self.session = session
        self.retry = retry  # retry(send) makes a request; by default in one attempt

    def log_key(self, payload) -> dict:
        """What the response log keys ``payload``'s answer by: this endpoint and the payload."""
        return {"url": self.url, "payload": payload}

    def _call(self, payload, result_key, check):
        """The checked ``result_key`` value, logged or sent; only values that pass are logged."""
        key = self.log_key(payload)
        if self.cache is not None:
            hit = self.cache.get(key)
            if isinstance(hit, dict) and result_key in hit:
                return check(hit[result_key])

        def send():
            response = _post_json(self.url, payload, self.timeout, self.session)
            if not isinstance(response, dict) or result_key not in response:
                raise ProviderError(f"{self.url} response missing {result_key!r}")
            result = check(response[result_key])
            if self.cache is not None:
                self.cache.put(key, {result_key: response[result_key]})
            return result

        return self.retry(send)

    def _shaped(self, value, shape):
        """``value``, if it has ``shape``; else a ProviderError names where it has not."""
        try:
            return shapes.check(value, shape)
        except ValueError as exc:
            raise ProviderError(f"{self.url} returned a malformed answer: {exc}") from None

    def _task(self, inputs: list, check):
        """``check(outputs)`` of a task/inputs -> outputs request, given one output per input."""

        def counted(outputs):
            if not isinstance(outputs, list) or len(outputs) != len(inputs):
                raise ProviderError(
                    f"{self.url} returned {_count(outputs)} outputs for {len(inputs)} inputs"
                )
            return check(outputs)

        return self._call({"task": self.task, "inputs": inputs}, "outputs", counted)


# the shapes of answers: LM samples, coref documents, rc answers, LM score lists
_STRINGS = shapes.list_of(shapes.STRING)
_DOCUMENTS = shapes.list_of(_STRINGS)
_ANSWERS = shapes.list_of(shapes.nullable(shapes.STRING))
_SCORES = shapes.list_of([shapes.NUMBER])


class HttpCorefProvider(_HttpProvider):
    task = "coref"

    def resolve(self, documents) -> list[list[str]]:
        documents = [list(document) for document in documents]

        def check(outputs):
            resolved = self._shaped(outputs, _DOCUMENTS)
            for i, (document, sentences) in enumerate(zip(documents, resolved)):
                if len(sentences) != len(document):
                    raise ProviderError(
                        f"{self.url} returned {len(sentences)} sentences for document {i},"
                        f" which has {len(document)}"
                    )
            return resolved

        return self._task(documents, check)


class HttpParseProvider(_HttpProvider):
    task = "parse"

    def parse_many(self, sentences) -> list:
        from .extraction import TREE, ParseTree

        sentences = list(sentences)

        def check(outputs):
            trees = []
            for sentence, raw in zip(sentences, outputs):
                try:
                    trees.append(ParseTree.from_dict(shapes.check(raw, TREE)))
                except ValueError as exc:
                    raise ProviderError(f"malformed parse for {sentence!r}: {exc}") from exc
            return trees

        return self._task(sentences, check)


class HttpRCProvider(_HttpProvider):
    task = "rc"

    def answer_many(self, items) -> list[str | None]:
        items = list(items)

        def check(outputs):
            answers = self._shaped(outputs, _ANSWERS)
            for (context, _), answer in zip(items, answers):
                if answer is not None and answer not in context:
                    raise ProviderError(f"rc answer {answer!r} is not a span of its context")
            return answers

        return self._task([{"context": c, "question": q} for c, q in items], check)


def _count(value) -> str:
    return str(len(value)) if isinstance(value, list) else f"a {type(value).__name__}"


class HttpLMProvider(_HttpProvider):
    """Language-model provider over the op/sequence/params envelope, one request per input."""

    timeout = 60.0

    def __init__(self, url: str, cache: ResponseCache | None = None, *, seed=None, **options):
        super().__init__(url, cache, **options)
        self.seed = seed  # sent with each sample request, if set

    def sample_many(self, sequences, nucleus_p: float, max_new: int, n: int) -> list[list[str]]:
        return [self.sample(sequence, nucleus_p, max_new, n) for sequence in sequences]

    def sample(self, sequence, nucleus_p: float, max_new: int, n: int) -> list[str]:
        params = {"p": nucleus_p, "n": n, "max_new": max_new}
        if self.seed is not None:
            params["seed"] = self.seed
        payload = {"op": "sample", "sequence": sequence.to_wire(), "params": params}

        def check(texts):
            if not isinstance(texts, list) or len(texts) != n:
                raise ProviderError(f"asked for {n} samples, got {_count(texts)}")
            return self._shaped(texts, _STRINGS)

        return self._call(payload, "texts", check)

    def score_many(self, items) -> list[list[list[float]]]:
        return [self._score(sequence, list(continuations)) for sequence, continuations in items]

    def _score(self, sequence, continuations: list) -> list[list[float]]:
        """Per-token log-probabilities of each continuation, in one request."""
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
            return [list(map(float, row)) for row in self._shaped(rows, _SCORES)]

        return self._call(payload, "logprobs", check)

    def logprobs(self, sequence, continuation: str) -> list[float]:
        return self._score(sequence, [continuation])[0]
