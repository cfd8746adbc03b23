"""File-backed stub providers for offline runs and tests.

Each stub reads a canned-response JSON file and behaves deterministically, so
pipeline runs against stubs are byte-reproducible given the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from . import shapes
from .extraction import TREE, ParseTree
from .generation import VisualFeatures
from .providers import ProviderError

# the shape of each stub's table; a stub trusts the table it loaded
_COREF = shapes.dict_of(shapes.STRING)  # sentence -> resolved sentence
_PARSE = shapes.dict_of(TREE)  # sentence -> parse
_RC = shapes.dict_of([shapes.STRING])  # question -> candidate answers
_LM = shapes.obj({"samples": shapes.dict_of([shapes.STRING])})  # inference type -> samples


def _load(path, shape) -> dict:
    with open(path, encoding="utf-8") as fh:
        return shapes.check(json.load(fh), shape)


def _digest(*parts: str) -> int:
    joined = "\x1f".join(parts)
    return int.from_bytes(hashlib.sha256(joined.encode("utf-8")).digest()[:8], "big")


class StubCorefProvider:
    """Substitution table: sentences not in the table pass through unchanged."""

    def __init__(self, path):
        self.table = _load(path, _COREF)

    def resolve(self, documents) -> list[list[str]]:
        return [[self.table.get(t, t) for t in document] for document in documents]


class StubParseProvider:
    """Canned dependency parses keyed by exact sentence text.

    A table entry is checked against ``TREE`` at load, but made into a tree,
    and so checked to be one, only when its sentence is parsed.
    """

    def __init__(self, path):
        self.path = str(path)
        self.table = _load(path, _PARSE)

    def parse_many(self, sentences) -> list[ParseTree]:
        trees = []
        for sentence in sentences:
            raw = self.table.get(sentence)
            if raw is None:
                raise ProviderError(f"no canned parse for {sentence!r} in {self.path}")
            try:
                trees.append(ParseTree.from_dict(raw))
            except ValueError as exc:
                raise ProviderError(
                    f"malformed canned parse for {sentence!r} in {self.path}: {exc}"
                ) from None
        return trees

    def parse(self, sentence: str) -> ParseTree:
        return self.parse_many([sentence])[0]


class StubRCProvider:
    """Canned answer lists per question; first answer found in the item's context wins.

    Returning only spans present in the context keeps the reading
    comprehension contract (answers are substrings) intact by construction.
    """

    def __init__(self, path):
        self.table = _load(path, _RC)

    def answer_many(self, items) -> list[str | None]:
        return [
            next((c for c in self.table.get(q, []) if c in context), None) for context, q in items
        ]

    def answer(self, context: str, question: str) -> str | None:
        return self.answer_many([(context, question)])[0]


class StubLMProvider:
    """Deterministic language model stand-in.

    Sampling returns canned continuations for the sequence's inference type,
    rotated by a content hash so different inputs see different samples;
    nucleus_p == 0 degenerates to repeating the modal (first) continuation.
    Token log-probabilities are content-hashed into [-2.5, -0.5] unless a
    uniform vocabulary size is configured.
    """

    def __init__(self, samples_path=None, seed: int = 13, vocab_size: int | None = None):
        self.samples = _load(samples_path, _LM)["samples"] if samples_path else {}
        self.seed = seed
        self.vocab_size = vocab_size

    def _canned(self, sequence) -> list[str]:
        key = sequence.inference_type.value if sequence.inference_type else "default"
        texts = self.samples.get(key) or self.samples.get("default")
        if not texts:
            raise ProviderError(f"no canned continuations for {key!r}")
        return texts

    def _sample(self, sequence, nucleus_p: float, n: int) -> list[str]:
        texts = self._canned(sequence)
        if nucleus_p <= 0:
            return [texts[0]] * n
        start = _digest(str(self.seed), sequence.text()) % len(texts)
        return [texts[(start + k) % len(texts)] for k in range(n)]

    def sample_many(self, sequences, nucleus_p: float, max_new: int, n: int) -> list[list[str]]:
        return [self._sample(sequence, nucleus_p, n) for sequence in sequences]

    def sample(self, sequence, nucleus_p: float, max_new: int, n: int) -> list[str]:
        return self._sample(sequence, nucleus_p, n)

    def _context_hash(self, sequence):
        """Hash state after the seed, the context and their separators; each token extends it."""
        return hashlib.sha256(f"{self.seed}\x1f{sequence.text()}\x1f".encode("utf-8"))

    def _logprobs(self, context_hash, continuation: str) -> list[float]:
        """Token i's score is that of ``_digest(seed, context, str(i), token)``."""
        tokens = continuation.split()
        if self.vocab_size is not None:
            return [-math.log(self.vocab_size)] * len(tokens)
        scores = []
        for i, tok in enumerate(tokens):
            token_hash = context_hash.copy()
            token_hash.update(f"{i}\x1f{tok}".encode("utf-8"))
            digest = int.from_bytes(token_hash.digest()[:8], "big")
            scores.append(-(0.5 + (digest % 2000) / 1000.0))
        return scores

    def score_many(self, items) -> list[list[list[float]]]:
        rows = []
        for sequence, continuations in items:
            context_hash = self._context_hash(sequence)
            rows.append([self._logprobs(context_hash, c) for c in continuations])
        return rows

    def logprobs(self, sequence, continuation: str) -> list[float]:
        return self._logprobs(self._context_hash(sequence), continuation)


class StubVisionProvider:
    """Pseudo-embeddings hashed from the frame identity and object labels."""

    def __init__(self, dim: int = 8):
        self.dim = dim

    def _vec(self, *parts: str) -> tuple[float, ...]:
        return tuple(
            (_digest(*parts, str(i)) % 1000) / 1000.0 for i in range(self.dim)
        )

    def features(self, image, boxes) -> VisualFeatures:
        frame_key = f"{image.video_id}:{image.segment_index}:{image.frame_index}"
        objects = tuple(
            (f"[Object{i}]", self._vec(frame_key, box.label))
            for i, box in enumerate(boxes, start=1)
        )
        return VisualFeatures(global_vec=self._vec(frame_key), objects=objects)


def fixture_path(name: str) -> Path:
    """Path to a bundled fixture data file."""
    return Path(__file__).parent / "fixtures" / name
