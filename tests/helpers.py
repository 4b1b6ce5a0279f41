"""Shared test utilities: synthetic corpora and content comparison."""

import random

from mixner.corpus import Dataset, Sentence, Token

CLASSES = ("LOC", "ORG", "PER")


def make_separable_corpus(n_sentences: int, seed: int, label: str = "") -> Dataset:
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
                toks.append(Token(rng.choice(begin[c]), f"B-{c}"))
                for _ in range(rng.randint(0, 2)):
                    toks.append(Token(rng.choice(inside[c]), f"I-{c}"))
            else:
                toks.append(Token(rng.choice(context), "O"))
        sentences.append(Sentence(tuple(toks)))
    return Dataset(tuple(sentences), source_label=label)


def stray_inside(tags: list[str]) -> list[int]:
    """Positions of I-X tags that do not continue an X span."""
    return [i for i, tag in enumerate(tags) if tag.startswith("I-") and (
        i == 0 or tags[i - 1] not in ("B-" + tag[2:], tag))]


def content(ds: Dataset) -> list:
    """The identity-relevant part of a dataset: ids, surfaces, and tags."""
    return [(s.id, [(t.surface, t.tag) for t in s.tokens]) for s in ds.sentences]
