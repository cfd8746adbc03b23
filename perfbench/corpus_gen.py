"""Seeded scale-up of the bundled five-video fixture corpus.

The generator copies the fixture videos ``copies`` times and assigns each copy
to one of ``groups`` noun groups. Every noun of a copy gets its group's prefix
(``potato`` becomes ``n3potato``), so instances merge across copies of one
group and never across groups: a corpus of G groups yields 9 * G instances
from 11 * copies triplets. Each copy also appends its own key token to every
sentence, so sentence texts (and the before/after events mined from them)
stay distinct per copy. Matching coref, parse and reading-comprehension stub
tables are written beside the annotations, so the corpus runs through the
pipeline with the stub providers.

With ``rename=False`` (one copy only) the output is the fixture corpus itself.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

FIXTURE_VIDEOS = 5
FIXTURE_TRIPLETS = 11
FIXTURE_INSTANCES = 9
# Instances per copy whose video has no media, so image masks skip them.
FIXTURE_TEXT_ONLY_INSTANCES = 2

NOUN_POS = ("NOUN", "PROPN")


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False)


def assign_groups(copies: int, groups: int, seed: int) -> list[int]:
    """Seeded copy -> group assignment; every group gets copies // groups or one more."""
    if not 1 <= groups <= copies:
        raise ValueError(f"need 1 <= groups <= copies, got groups={groups} copies={copies}")
    assignment = [c % groups for c in range(copies)]
    random.Random(f"groups:{seed}").shuffle(assignment)
    return assignment


class _Renamer:
    """Rewrites one copy's text: prefixed nouns plus the copy's sentence key."""

    def __init__(self, nouns: frozenset[str], prefix: str, key: str):
        self.nouns = nouns
        self.prefix = prefix
        self.key = key

    def word(self, token: str) -> str:
        core = token.rstrip(string.punctuation)
        if self.prefix and core.lower() in self.nouns:
            return self.prefix + token
        return token

    def text(self, text: str) -> str:
        return " ".join(self.word(t) for t in text.split())

    def sentence(self, text: str) -> str:
        renamed = self.text(text)
        return f"{renamed} {self.key}" if self.key else renamed

    def tree(self, raw: dict) -> dict:
        tokens = []
        for tok in raw["tokens"]:
            renamed = self.word(tok["text"]) != tok["text"]
            tokens.append(
                {
                    "text": self.word(tok["text"]),
                    "lemma": self.prefix + tok["lemma"] if renamed else tok["lemma"],
                    "pos": tok["pos"],
                }
            )
        arcs = [list(a) for a in raw["arcs"]]
        if self.key:
            dependents = {d for _, d, _ in arcs}
            root = next(i for i in range(len(tokens)) if i not in dependents)
            arcs.append([root, len(tokens), "dep"])
            tokens.append({"text": self.key, "lemma": self.key, "pos": "X"})
        return {"tokens": tokens, "arcs": arcs}


def _noun_words(parse: dict, annotations: dict) -> frozenset[str]:
    words = set()
    for tree in parse.values():
        for tok in tree["tokens"]:
            if tok["pos"] in NOUN_POS:
                words.update((tok["text"].lower(), tok["lemma"].lower()))
    for video in annotations["videos"]:
        for seg in video["segments"]:
            for obj in seg.get("objects", []):
                words.update(obj["label"].lower().split())
    return frozenset(words)


def _copy_video(raw: dict, video_id: str, ren: _Renamer) -> dict:
    video = json.loads(json.dumps(raw))
    video["video_id"] = video_id
    for seg in video["segments"]:
        seg["sentence"] = ren.sentence(seg["sentence"])
        for obj in seg.get("objects", []):
            obj["label"] = ren.text(obj["label"])
    for line in video.get("transcript") or []:
        line["text"] = ren.text(line["text"])
    media = video.get("media")
    if media:
        old = raw["video_id"]
        for kind in ("clips", "frames"):
            media[kind] = {k: v.replace(old, video_id) for k, v in media[kind].items()}
    return video


def generate_corpus(
    out_dir,
    src_root,
    copies: int,
    groups: int,
    seed: int,
    rename: bool = True,
) -> dict:
    """Write annotations, recipes and stub tables for a scaled corpus.

    Returns the predicted counts: videos, triplets, instances, and instances
    with an image (the ones image masks do not skip).
    """
    if not rename and copies != 1:
        raise ValueError("copies without renaming would repeat video ids")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fixtures = Path(src_root) / "actionsense" / "fixtures"
    annotations = _load(fixtures / "annotations.json")
    coref = _load(fixtures / "coref.json")
    parse = _load(fixtures / "parse.json")
    rc = _load(fixtures / "rc.json")
    nouns = _noun_words(parse, annotations)

    group_of = assign_groups(copies, groups, seed)
    videos, coref_out, parse_out, rc_out = [], {}, {}, {}
    for copy, group in enumerate(group_of):
        ren = _Renamer(nouns, f"n{group}" if rename else "", f"k{copy}" if rename else "")
        for raw in annotations["videos"]:
            video_id = f"{raw['video_id']}-{copy}" if rename else raw["video_id"]
            videos.append(_copy_video(raw, video_id, ren))
        for original, resolved in coref.items():
            coref_out[ren.sentence(original)] = ren.sentence(resolved)
        for sentence, tree in parse.items():
            parse_out[ren.sentence(sentence)] = ren.tree(tree)
        for question, answers in rc.items():
            rc_out[ren.text(question)] = answers

    _dump({"videos": videos}, out / "annotations.json")
    _dump(_load(fixtures / "recipes.json"), out / "recipes.json")
    _dump(coref_out, out / "coref.json")
    _dump(parse_out, out / "parse.json")
    _dump(rc_out, out / "rc.json")

    return {
        "videos": FIXTURE_VIDEOS * copies,
        "triplets": FIXTURE_TRIPLETS * copies,
        "instances": FIXTURE_INSTANCES * groups,
        "image_instances": (FIXTURE_INSTANCES - FIXTURE_TEXT_ONLY_INSTANCES) * groups,
    }


def write_config(path, corpus_dir, seed: int, lm: dict | None = None) -> Path:
    """Run config over a generated corpus with the fixture config's values."""
    corpus_dir = Path(corpus_dir).resolve()
    cfg = {
        "annotation_file": str(corpus_dir / "annotations.json"),
        "recipe_file": str(corpus_dir / "recipes.json"),
        "min_count": 1,
        "seed": seed,
        "n_samples": 3,
        "pool_size": 10,
        "workers": 1,
        "providers": {
            "coref": {"kind": "stub", "path": str(corpus_dir / "coref.json")},
            "parse": {"kind": "stub", "path": str(corpus_dir / "parse.json")},
            "rc": {"kind": "stub", "path": str(corpus_dir / "rc.json")},
            "lm": lm or {"kind": "stub", "path": "fixtures:lm.json"},
        },
    }
    path = Path(path)
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path
