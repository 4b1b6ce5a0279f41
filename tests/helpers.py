"""Shared test utilities: synthetic corpora and reference statements."""

import itertools
import json
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mixner.corpus import Dataset, Sentence, _spans, _tag_classes, _tag_ids
from mixner.crf import _ADAGRAD_EPS, MIN_DELTA, CrfModel, TrainConfig
from mixner.eval import ClassScore, ConfusionMatrix, EvalReport
from mixner.features import BOS, EOS, EncodedSentence, FeatureIndex, encode_dataset
from mixner.oracle import TinyInstance, _check_size, enumerate_best

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


@dataclass(frozen=True)
class EntitySpan:
    """One entity occurrence: class label plus inclusive token positions."""

    label: str
    start: int
    end: int


def extract_entities(tags: Sequence[str]) -> list[EntitySpan]:
    """The span rule stated per sentence, as the reference for corpus._spans.

    B-X opens a span, and so does a stray I-X (one that does not continue an
    X span); I-X continues the open X span.  Raises ValueError on tags that
    are not O, B-X or I-X.
    """
    spans: list[EntitySpan] = []
    open_label: str | None = None
    open_start = 0
    for i, tag in enumerate(tags):
        if tag != "O" and tag[:2] not in ("B-", "I-"):
            raise ValueError(f"invalid tag {tag!r} at position {i}")
        if tag[:2] == "I-" and tag[2:] == open_label:
            continue
        if open_label is not None:
            spans.append(EntitySpan(open_label, open_start, i - 1))
        open_label, open_start = (None if tag == "O" else tag[2:]), i
    if open_label is not None:
        spans.append(EntitySpan(open_label, open_start, len(tags) - 1))
    return spans


def spans_to_tags(spans: Sequence[EntitySpan], length: int) -> list[str]:
    """Inverse of extract_entities for non-overlapping, in-bounds spans."""
    tags = ["O"] * length
    last_end = -1
    for sp in sorted(spans, key=lambda s: s.start):
        if sp.start <= last_end or not 0 <= sp.start <= sp.end < length:
            raise ValueError(f"span {sp} overlaps or is out of bounds")
        tags[sp.start] = "B-" + sp.label
        for i in range(sp.start + 1, sp.end + 1):
            tags[i] = "I-" + sp.label
        last_end = sp.end
    return tags


def mix_reference(primary: Dataset, auxiliaries: Sequence[Dataset] = (),
                  seed: int = 0, shuffle: bool = False) -> Dataset:
    """mix_datasets stated per sentence, as the reference for its column
    gather: the list of sentences, shuffled in place by random.Random(seed)."""
    sentences = [s for ds in (primary, *auxiliaries) for s in ds.sentences]
    if shuffle:
        random.Random(seed).shuffle(sentences)
    return Dataset(sentences)


def array_spans(ds: Dataset) -> list[list[EntitySpan]]:
    """The spans corpus._spans reads off a whole dataset's flat tag ids, per
    sentence and with positions within it, to compare with the reference."""
    names, offsets, (ids,) = _tag_ids(ds)
    classes, cls, is_b = _tag_classes(names)
    out, bounds = [[] for _ in ds.sentences], offsets.tolist()
    for start, end, c in zip(*(a.tolist() for a in _spans(ids, offsets, cls, is_b))):
        si = bisect_right(bounds, start) - 1
        out[si].append(EntitySpan(classes[c], start - bounds[si], end - bounds[si]))
    return out


def span_counts_reference(gold: Dataset, pred: Dataset) -> tuple[Counter, Counter, Counter]:
    """True positives, false positives and false negatives per class, from
    sets of (sentence, start, end, class) keys of the reference spans."""
    def keys(ds):
        return {(si, sp.start, sp.end, sp.label)
                for si, s in enumerate(ds.sentences) for sp in extract_entities(s.tags)}

    g, p = keys(gold), keys(pred)
    return (Counter(k[3] for k in p & g), Counter(k[3] for k in p - g),
            Counter(k[3] for k in g - p))


def weighted_f1_reference(gold: Dataset, pred: Dataset) -> float:
    """Support-weighted entity F1 of the span_counts_reference counts, the
    classes taken in sorted order; 0/0 counts as 0."""
    tp, fp, fn = span_counts_reference(gold, pred)
    weighted, support = 0.0, 0
    for c in sorted(tp.keys() | fp.keys() | fn.keys()):
        prec = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        rec = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        weighted += (2 * prec * rec / (prec + rec) if prec + rec else 0.0) * (tp[c] + fn[c])
        support += tp[c] + fn[c]
    return weighted / support if support else 0.0


def confusion_reference(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    """The token confusion matrix counted pair by pair: rows are gold
    classes, columns predicted ones, O first and then the sorted classes."""
    def collapse(tag: str) -> str:
        return "O" if tag == "O" else tag[2:]

    pairs = Counter()  # (gold class, predicted class) -> tokens
    for g, p in zip(gold.sentences, pred.sentences):
        pairs.update(zip(map(collapse, g.tags), map(collapse, p.tags)))
    labels = ["O"] + sorted({c for pair in pairs for c in pair} - {"O"})
    return ConfusionMatrix(tuple(labels), tuple(tuple(pairs[gl, pl] for pl in labels)
                                                for gl in labels))


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


def _feature_ids(k: int, num_attributes: int, enc: EncodedSentence, tags) -> list[int]:
    """The weight-vector positions of every term of a sequence's score, in
    the layout [emissions | transitions | start | end]."""
    trans = num_attributes * k
    ids = [trans + k * k + tags[0]]
    for t, tag in enumerate(tags):
        ids.extend(a * k + tag for a in enc.attr_ids[t])
        if t > 0:
            ids.append(trans + tags[t - 1] * k + tag)
    ids.append(trans + k * k + k + tags[-1])
    return ids


def naive_nll_and_gradient(model: CrfModel, batch, l2: float = 0.0) -> tuple[float, np.ndarray]:
    """crf.nll_and_gradient by enumeration: for each sentence of the batch,
    log Z and the expected count of every weight are summed over all K^T tag
    sequences, one term at a time, and the gold counts are subtracted."""
    k, num_attributes = model.num_tags, model.index.num_attributes
    w = model.weights.tolist()
    loss = 0.5 * l2 * sum(x * x for x in w)
    grad = [l2 * x for x in w]
    for enc in batch:
        _check_size(TinyInstance(model, enc))
        terms = [_feature_ids(k, num_attributes, enc, y)
                 for y in itertools.product(range(k), repeat=enc.length)]
        scores = [sum(w[i] for i in ids) for ids in terms]
        m = max(scores)
        log_z = m + math.log(sum(math.exp(s - m) for s in scores))
        gold = _feature_ids(k, num_attributes, enc, enc.tag_ids)
        loss += log_z - sum(w[i] for i in gold)
        for ids, s in zip(terms, scores):
            p = math.exp(s - log_z)
            for i in ids:
                grad[i] += p
        for i in gold:
            grad[i] -= 1.0
    return loss, np.array(grad)


def model_text_reference(model: CrfModel) -> str:
    """The model file save_model writes, stated row by row, as the reference
    for its spelling: each weight as Python's repr, the shortest decimal that
    reads back to the same float; single spaces between columns; "\\n" line
    ends and a final newline.  [start] and [end] hold one weight per line."""
    lines = ["MIXNER-CRF v1", "[tags]", *model.tagset.tags,
             "[attributes]", *model.index.attributes()]
    for name in ("start", "end", "transitions", "emissions"):
        lines.append(f"[{name}]")
        lines.extend(" ".join(map(repr, np.atleast_1d(row).tolist()))
                     for row in getattr(model, name))
    return "\n".join(lines) + "\n"


@dataclass
class NaiveRun:
    """What naive_train returns: the best epoch's weights, each epoch's
    training loss and dev F1, the best epoch (1-based), and the weights after
    every epoch, so that a caller can inspect near-tied dev paths."""

    weights: np.ndarray
    train_nll: list[float]
    dev_f1: list[float]
    best_epoch: int
    epoch_weights: list[np.ndarray]


def naive_train(train_set: Dataset, dev: Dataset, cfg: TrainConfig,
                index: FeatureIndex) -> NaiveRun:
    """README's statement of `train`, one sentence and one weight at a time.

    Every epoch shuffles the sentence order with one random.Random(cfg.seed)
    and cuts it into batches of cfg.batch_size.  Each batch's loss and
    gradient come from naive_nll_and_gradient; the gradient, scaled by
    1 / batch size, takes one AdaGrad step per weight.  Dev tags come from
    enumerate_best, and dev F1 is weighted_f1_reference; training stops once
    dev F1 has failed to beat the last reference by more than MIN_DELTA for
    more than cfg.patience epochs, and the first best epoch's weights are
    kept.
    """
    sentences = list(encode_dataset(train_set, index))
    dev_encoded = list(encode_dataset(dev, index))
    w = [0.0] * CrfModel.zeros(index).weights.size
    accum = [0.0] * len(w)
    rng, order = random.Random(cfg.seed), list(range(len(sentences)))
    run = NaiveRun(np.array(w), [], [], 0, [])
    best_f1, stop_ref, bad_epochs = -1.0, -1.0, 0
    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [sentences[i] for i in order[lo:lo + cfg.batch_size]]
            loss, grad = naive_nll_and_gradient(CrfModel(np.array(w), index), batch, cfg.l2)
            epoch_loss += loss
            for i, g in enumerate(grad.tolist()):
                g *= 1.0 / len(batch)
                accum[i] += g * g
                w[i] -= cfg.learning_rate * g / (math.sqrt(accum[i]) + _ADAGRAD_EPS)
        model = CrfModel(np.array(w), index)
        pred = Dataset(Sentence(s.surfaces, [index.tagset.tags[t] for t in
                                             enumerate_best(TinyInstance(model, enc))[0]])
                       for s, enc in zip(dev.sentences, dev_encoded))
        f1 = weighted_f1_reference(dev, pred)
        run.train_nll.append(epoch_loss)
        run.dev_f1.append(f1)
        run.epoch_weights.append(model.weights)
        if f1 > best_f1:
            best_f1, run.best_epoch, run.weights = f1, epoch, model.weights
        if f1 > stop_ref + MIN_DELTA:
            stop_ref, bad_epochs = f1, 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    return run
