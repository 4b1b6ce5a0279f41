"""Shared test utilities: synthetic corpora and reference statements."""

import json
import random

from mixner.corpus import Dataset, Sentence
from mixner.eval import ClassScore, ConfusionMatrix, EvalReport
from mixner.features import BOS, EOS

CLASSES = ("LOC", "ORG", "PER")


def make_separable_corpus(n_sentences: int, seed: int) -> Dataset:
    """A corpus where the surface form alone determines the tag.

    Begin, inside, and context tokens are drawn from three disjoint
    lexicons per class, so a first-order tagger with word features can
    reach perfect accuracy.
    """
    rng = random.Random(seed)
    begin = {c: [f"{c.lower()}b{i}" for i in range(20)] for c in CLASSES}
    inside = {c: [f"{c.lower()}i{i}" for i in range(20)] for c in CLASSES}
    context = [f"ctx{i}" for i in range(40)]
    sentences = []
    for _ in range(n_sentences):
        target = rng.randint(5, 10)
        toks = []
        while len(toks) < target:
            if rng.random() < 0.35:
                c = rng.choice(CLASSES)
                toks.append((rng.choice(begin[c]), f"B-{c}"))
                for _ in range(rng.randint(0, 2)):
                    toks.append((rng.choice(inside[c]), f"I-{c}"))
            else:
                toks.append((rng.choice(context), "O"))
        sentences.append(Sentence(*zip(*toks)))
    return Dataset(tuple(sentences))


def template_reference(surfaces) -> list[tuple[str, str, str, str]]:
    """The feature template stated per position, as the reference for the
    encoder: bias, w0, w-1 and w+1, in that order."""
    out = []
    for i, w in enumerate(surfaces):
        prev = surfaces[i - 1] if i > 0 else BOS
        nxt = surfaces[i + 1] if i + 1 < len(surfaces) else EOS
        out.append(("b", f"w0={w}", f"w-1={prev}", f"w+1={nxt}"))
    return out


def stray_inside(tags: list[str]) -> list[int]:
    """Positions of I-X tags that do not continue an X span."""
    return [i for i, tag in enumerate(tags) if tag.startswith("I-") and (
        i == 0 or tags[i - 1] not in ("B-" + tag[2:], tag))]


def report_from_json(text: str) -> EvalReport:
    """Rebuild an EvalReport from render_report(..., "json") output."""
    obj = json.loads(text)
    per_class = {c: ClassScore(d["p"], d["r"], d["f1"], d["support"])
                 for c, d in obj["per_class"].items()}
    confusion = ConfusionMatrix(tuple(obj["confusion"]["labels"]),
                                tuple(tuple(row) for row in obj["confusion"]["counts"]))
    return EvalReport(per_class, obj["weighted_f1"], obj["micro_f1"],
                      obj["macro_f1"], confusion)
