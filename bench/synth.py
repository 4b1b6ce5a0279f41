"""Seeded synthetic corpora for the benchmark.

Two generators, both pure functions of their seed (same seed, same bytes):

- ``zipf_corpus``: code-mixed sentences over two synthetic lexicons with
  Zipf-distributed word frequencies and six entity classes (13 IOB2 tags).
  Lengths vary, entity words of neighbouring classes overlap and a few
  trigger words precede entities, so the tagger has to use context.  A
  held-out split drawn from the same distribution contains words the
  training split never saw, because the Zipf tail is long.
- ``separable_corpus``: the three-class corpus (7 tags) where the surface
  form alone determines the tag.  It is a copy of the test-suite generator,
  kept here so the benchmark does not depend on the test suite.

Sentences are lists of (surface, tag) pairs; ``to_conll`` writes them in the
canonical two-column format.
"""

import itertools
import random
from bisect import bisect

CLASSES = ("CORP", "CW", "LOC", "ORG", "PER", "PROD")
LANGS = ("en", "hi")

_CONTEXT_VOCAB = 4000
_ENTITY_POOL_STRIDE = 200
_ENTITY_VOCAB = 250        # > stride: neighbouring classes share 50 words
_ZIPF_S = 1.1
_ENTITY_RATE = 0.2
_TRIGGER_RATE = 0.8
_SWITCH_RATE = 0.3
_SYLLABLES = {
    "en": ("ba", "ter", "son", "lo", "mi", "ck", "ra", "de", "wen", "ly",
           "st", "or", "an", "ex", "ph", "ul"),
    "hi": ("ka", "ji", "ra", "ma", "ni", "sh", "ta", "va", "dh", "pu",
           "bh", "aa", "ya", "ch", "le", "gu"),
}


def _word(lang: str, kind: str, rank: int) -> str:
    """A pronounceable surface form that is a pure function of its inputs."""
    syl = _SYLLABLES[lang]
    parts = []
    n = rank + 1
    while n:
        n, d = divmod(n, len(syl))
        parts.append(syl[d])
    return kind + "".join(parts)


def _zipf_cum(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** _ZIPF_S for r in range(n)))


class _Lexicon:
    """Words of one kind and language with precomputed cumulative weights,
    so a draw is one bisection instead of a pass over all weights."""

    def __init__(self, lang: str, ranks: range):
        self.words = [_word(lang, "", r) for r in ranks]
        self.cum = _zipf_cum(len(self.words))
        self.total = self.cum[-1]

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect(self.cum, rng.random() * self.total)]


class ZipfGenerator:
    """Code-mixed corpus generator; build once, draw many corpora."""

    def __init__(self):
        self.context = {lang: _Lexicon(lang, range(_CONTEXT_VOCAB)) for lang in LANGS}
        first = {c: _CONTEXT_VOCAB + i * _ENTITY_POOL_STRIDE for i, c in enumerate(CLASSES)}
        self.entity = {(lang, c): _Lexicon(lang, range(first[c], first[c] + _ENTITY_VOCAB))
                       for lang in LANGS for c in CLASSES}
        self.triggers = {c: [_word("en", "trg", 10 * i + j) for j in range(3)]
                         for i, c in enumerate(CLASSES)}

    def sentence(self, rng: random.Random) -> list[tuple[str, str]]:
        target = min(3 + int(rng.expovariate(1 / 9.0)), 48)
        lang = rng.choice(LANGS)
        toks: list[tuple[str, str]] = []
        while len(toks) < target:
            if rng.random() < _SWITCH_RATE:
                lang = LANGS[1 - LANGS.index(lang)]
            if rng.random() < _ENTITY_RATE:
                c = rng.choice(CLASSES)
                if rng.random() < _TRIGGER_RATE:
                    toks.append((rng.choice(self.triggers[c]), "O"))
                lex = self.entity[(lang, c)]
                toks.append((lex.draw(rng), f"B-{c}"))
                for _ in range(rng.choice((0, 0, 1, 1, 2))):
                    toks.append((lex.draw(rng), f"I-{c}"))
            else:
                toks.append((self.context[lang].draw(rng), "O"))
        return toks

    def corpus(self, tokens: int, seed: int) -> list[list[tuple[str, str]]]:
        """Sentences drawn until they hold at least ``tokens`` tokens, so the
        amount of work barely depends on the seed."""
        rng = random.Random(seed)
        sentences, total = [], 0
        while total < tokens:
            sentences.append(self.sentence(rng))
            total += len(sentences[-1])
        return sentences


def zipf_corpus(tokens: int, seed: int) -> list[list[tuple[str, str]]]:
    return ZipfGenerator().corpus(tokens, seed)


def separable_corpus(n_sentences: int, seed: int) -> list[list[tuple[str, str]]]:
    """A corpus where the surface form alone determines the tag.

    Begin, inside, and context tokens are drawn from three disjoint
    lexicons per class, so a first-order tagger with word features can
    reach perfect accuracy.
    """
    classes = ("LOC", "ORG", "PER")
    rng = random.Random(seed)
    begin = {c: [f"{c.lower()}b{i}" for i in range(20)] for c in classes}
    inside = {c: [f"{c.lower()}i{i}" for i in range(20)] for c in classes}
    context = [f"ctx{i}" for i in range(40)]
    sentences = []
    for _ in range(n_sentences):
        target = rng.randint(5, 10)
        toks = []
        while len(toks) < target:
            if rng.random() < 0.35:
                c = rng.choice(classes)
                toks.append((rng.choice(begin[c]), f"B-{c}"))
                for _ in range(rng.randint(0, 2)):
                    toks.append((rng.choice(inside[c]), f"I-{c}"))
            else:
                toks.append((rng.choice(context), "O"))
        sentences.append(toks)
    return sentences


def to_conll(sentences, with_tags: bool = True) -> str:
    """Two-column CoNLL text (one-column when with_tags is false)."""
    if with_tags:
        blocks = ("\n".join(f"{w}\t{t}" for w, t in s) for s in sentences)
    else:
        blocks = ("\n".join(w for w, _ in s) for s in sentences)
    return "\n\n".join(blocks) + "\n"


def corpus_stats(train, held_out=None) -> dict:
    """Sentences, tokens and distinct attributes of ``train`` under the
    default template (bias, w0, w-1, w+1); with ``held_out``, also the share
    of held-out positions whose word never occurs in ``train``."""
    attrs = {"b"}
    for s in train:
        words = [w for w, _ in s]
        prev = ["<BOS>", *words[:-1]]
        nxt = [*words[1:], "<EOS>"]
        attrs.update(f"w0={w}" for w in words)
        attrs.update(f"w-1={w}" for w in prev)
        attrs.update(f"w+1={w}" for w in nxt)
    stats = {"sentences": len(train), "tokens": sum(map(len, train)),
             "attributes": len(attrs),
             "tags": len({t for s in train for _, t in s})}
    if held_out is not None:
        seen = {w for s in train for w, _ in s}
        positions = [w for s in held_out for w, _ in s]
        stats["held_out_w0_oov_share"] = (
            sum(1 for w in positions if w not in seen) / len(positions))
    return stats
