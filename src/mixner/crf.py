"""Linear-chain CRF: scoring, inference, training, and persistence.

The score of a tag sequence y for a sentence with attributes attrs(i) is

    start[y_1] + sum_i sum_{a in attrs(i)} W_e[a, y_i]
               + sum_{i>=2} W_t[y_{i-1}, y_i] + end[y_T]

All inference runs in log space with max-subtraction log-sum-exp, which
cannot overflow while path scores are finite.  Marginals exponentiate
alpha + beta - log Z, which is <= 0 only up to a rounding error that grows
with the scores, so runaway weights (say 1e300) overflow there and train
stops on the non-finite loss.  Training is maximum likelihood with an L2
penalty, optimized by mini-batch AdaGrad, deterministic given the seed.
"""

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, Sentence, TagSet
from .eval import _class_scores, _span_counts
from .features import EncodedCorpus, EncodedSentence, FeatureIndex, encode_dataset

MODEL_HEADER = "MIXNER-CRF v1"
_SECTIONS = ("tags", "attributes", "start", "end", "transitions", "emissions")
_ADAGRAD_EPS = 1e-8
MIN_DELTA = 1e-4  # smallest dev F1 gain that resets the patience count
DECODE_CHUNK = 256  # sentences per packed Viterbi call in _decode_paths


def _views(weights: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """emissions, transitions, start and end: views of a vector laid out
    [emissions | transitions | start | end] for k tags."""
    split = weights.size - (k + 2) * k
    rest = weights[split:].reshape(k + 2, k)
    return weights[:split].reshape(-1, k), rest[:k], rest[k], rest[k + 1]


class CrfModel:
    """One contiguous weight vector plus the attribute index it is tied to.

    The vector is laid out [emissions | transitions | start | end], as in
    CRFsuite, and the four blocks are writable views into it: emissions has
    one row per attribute and one column per tag; transitions is indexed
    [previous, current].  The tag set is the index's.
    """

    def __init__(self, weights: np.ndarray, index: FeatureIndex):
        k = len(index.tagset)
        # Contiguous, so that the blocks below are views and never copies.
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.weights.shape != ((index.num_attributes + k + 2) * k,):
            raise ValueError("weights do not match the index/tag set")
        self.index = index
        self.emissions, self.transitions, self.start, self.end = _views(self.weights, k)

    @classmethod
    def zeros(cls, index: FeatureIndex) -> "CrfModel":
        k = len(index.tagset)
        return cls(np.zeros((index.num_attributes + k + 2) * k), index)

    @property
    def tagset(self) -> TagSet:
        return self.index.tagset

    @property
    def num_tags(self) -> int:
        return len(self.tagset)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def _scatter(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """A (size, K) float64 array whose row i sums the rows[j] with index[j] == i.
    np.bincount adds its weights in order of occurrence, as np.add.at does, so
    each sum is bit for bit the listed-order sum.  With no rows at all
    bincount returns integers, hence the cast."""
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    sums = np.bincount(flat, rows.ravel(), size * k).reshape(size, k)
    return sums.astype(np.float64, copy=False)


def _check_range(ids: np.ndarray, limit: int, what: str, where) -> None:
    """Reject ids outside [0, limit) instead of letting -1 index the last;
    where(j) names the place of entry j."""
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        j = int(np.flatnonzero((ids < 0) | (ids >= limit))[0])
        raise ValueError(f"{where(j)}: {what} id {ids[j]} is out of range "
                         f"for {limit} {what}s")


class _Packed:
    """A batch scored under a model, laid out time-major and packed by length:
    sentences are ranked longest first (ties in input order), and step t holds
    the sentences longer than t in rows offsets[t] + rank, a prefix of step
    t - 1.  em[row] sums W_e over the row's attributes in listed order, so it
    is bit for bit the same whatever batch the sentence is in: the corpus keeps
    each token's attributes in listed order, and _scatter adds in that order."""

    def __init__(self, model: CrfModel, batch: EncodedCorpus):
        if not len(batch):
            raise ValueError("empty batch")

        def where(token):
            return "sentence {}, position {}".format(*batch.locate(token))

        _check_range(batch.tags, model.num_tags, "tag", where)
        _check_range(batch.attrs, model.index.num_attributes, "attribute",
                     lambda j: where(np.searchsorted(batch.attr_offsets, j, "right") - 1))
        self.b = b = len(batch)
        self.lengths = lengths = batch.lengths
        self.rank = np.argsort(np.argsort(-lengths, kind="stable"))
        sizes = b - np.cumsum(np.bincount(lengths))[:-1]
        offsets = np.cumsum(sizes) - sizes
        # (row offset, sentences active, previous step's row offset), steps >= 1
        self.steps = list(zip(offsets[1:].tolist(), sizes[1:].tolist(), offsets.tolist()))
        self.n = n = len(batch.tags)
        step = np.repeat(np.arange(len(sizes)), sizes)
        self.rank_of_row = np.arange(n) - offsets[step]
        self.prev = np.arange(b, n) - sizes[step[b:] - 1]  # predecessors of rows b..n-1
        self.last = offsets[np.sort(lengths)[::-1] - 1] + np.arange(b)
        # Packed row of every token, sentence by sentence in input order.
        pos = np.arange(n) - np.repeat(batch.offsets[:-1], lengths)
        self.rows = offsets[pos] + np.repeat(self.rank, lengths)
        self.tags = np.empty(n, np.intp)
        self.tags[self.rows] = batch.tags
        self.attrs = batch.attrs
        self.attr_rows = np.repeat(self.rows, np.diff(batch.attr_offsets))
        self.em = _scatter(self.attr_rows, model.emissions[self.attrs], n)


def _forward(model: CrfModel, p: _Packed, reduce) -> np.ndarray:
    """alpha[row] = reduce over the previous tag of (alpha[prev] + W_t), plus
    em[row]: the forward pass with _logsumexp, Viterbi's delta with a max."""
    alpha = np.empty_like(p.em)
    alpha[:p.b] = model.start + p.em[:p.b]
    for lo, size, plo in p.steps:
        alpha[lo:lo + size] = (reduce(alpha[plo:plo + size, :, None] + model.transitions, 1)
                               + p.em[lo:lo + size])
    return alpha


def _forward_backward(model: CrfModel, p: _Packed):
    """Node marginals per row, edge marginals from each row's predecessor
    into rows b..n-1, and log Z per rank."""
    em, trans = p.em, model.transitions
    alpha, beta = _forward(model, p, _logsumexp), np.empty_like(em)
    beta[p.last] = model.end
    for lo, size, plo in reversed(p.steps):
        nxt = em[lo:lo + size] + beta[lo:lo + size]
        beta[plo:plo + size] = _logsumexp(trans + nxt[:, None], 2)
    log_z = _logsumexp(alpha[p.last] + model.end, 1)
    node = np.exp(alpha + beta - log_z[p.rank_of_row, None])
    edge = alpha[p.prev, :, None] + trans  # built in place: (n - b, K, K) is the largest array
    edge += (em + beta)[p.b:, None] - log_z[p.rank_of_row[p.b:], None, None]
    np.exp(edge, out=edge)
    return node, edge, log_z


def _one(enc: EncodedSentence) -> EncodedCorpus:
    return EncodedCorpus.from_sentences([enc])


def sequence_score(model: CrfModel, enc: EncodedSentence,
                   tags: tuple[int, ...] | list[int]) -> float:
    """Unnormalized log score of one tag sequence.  It runs viterbi's recursion
    with the given tags in place of the maximum, so the decoder's returned
    score is bitwise equal to rescoring its path."""
    if len(tags) != enc.length:
        raise ValueError("tag sequence length does not match the sentence")
    _check_range(np.asarray(tags, np.intp), model.num_tags, "tag", "position {}".format)
    previous = iter(tags)
    alpha = _forward(model, _Packed(model, _one(enc)), lambda cand, _: cand[:, next(previous)])
    return float(alpha[-1, tags[-1]] + model.end[tags[-1]])


def log_partition(model: CrfModel, enc: EncodedSentence) -> float:
    """log Z by the forward recursion."""
    return float(_forward_backward(model, _Packed(model, _one(enc)))[2][0])


def marginals(model: CrfModel, enc: EncodedSentence) -> tuple[np.ndarray, np.ndarray]:
    """Posterior tag distributions (node, edge): node[t, k] = P(y_t = k) with
    shape (T, K), and edge[t, j, k] = P(y_t = j, y_{t+1} = k), shape (T-1, K, K)."""
    return _forward_backward(model, _Packed(model, _one(enc)))[:2]


def nll_and_gradient(model: CrfModel, batch: EncodedCorpus,
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Regularized negative log likelihood of a batch and its exact gradient.

    loss = sum_s (log Z_s - score(y_gold_s)) + (l2 / 2) * ||w||^2 over the
    whole weight vector; the gradient, a vector in the same layout, is
    expected minus empirical feature counts plus l2 * w, summed over the
    packed batch.
    """
    p = _Packed(model, batch)
    node, edge, log_z = _forward_backward(model, p)
    k, tags, prev = model.num_tags, p.tags, p.tags[p.prev]
    gold = (model.start[tags[:p.b]].sum() + p.em[np.arange(p.n), tags].sum()
            + model.transitions[prev, tags[p.b:]].sum() + model.end[tags[p.last]].sum())
    loss = float(log_z.sum() - gold)
    node[np.arange(p.n), tags] -= 1.0  # now expected minus empirical counts per row
    pairs = np.bincount(prev * k + tags[p.b:], minlength=k * k).reshape(k, k)
    grad = np.zeros_like(model.weights)
    emissions, transitions, start, end = _views(grad, k)
    emissions[...] = _scatter(p.attrs, node[p.attr_rows], len(emissions))
    transitions[...] = edge.sum(axis=0) - pairs
    start[...] = node[:p.b].sum(axis=0)
    end[...] = node[p.last].sum(axis=0)
    if l2:
        loss += 0.5 * l2 * float(model.weights @ model.weights)
        grad += l2 * model.weights
    return loss, grad


def _best_paths(model: CrfModel, batch: EncodedCorpus) -> tuple[np.ndarray, np.ndarray]:
    """Each token's tag on its sentence's best path, aligned with batch.tags,
    and each sentence's best score; ties go to the lower tag id (argmax)."""
    back = []  # per step: best previous tag for each active sentence and tag

    def best(cand, axis):  # the max is read at the argmax, one pass over cand
        idx = cand.argmax(axis)
        back.append(idx)
        return np.take_along_axis(cand, np.expand_dims(idx, axis), axis).squeeze(axis)

    p = _Packed(model, batch)
    final = _forward(model, p, best)[p.last] + model.end
    cur = np.argmax(final, axis=1)
    scores = final[np.arange(p.b), cur][p.rank]
    tags = np.empty(p.n, np.intp)
    for (lo, size, _), ptr in zip(reversed(p.steps), reversed(back)):
        tags[lo:lo + size] = cur[:size]
        cur[:size] = ptr[np.arange(size), cur[:size]]
    tags[:p.b] = cur
    return tags[p.rows], scores


def viterbi(model: CrfModel, enc: EncodedSentence) -> tuple[list[int], float]:
    """Best tag sequence and its score, from _best_paths on the one-sentence
    corpus; ties go to the lower tag id."""
    tags, scores = _best_paths(model, _one(enc))
    return tags.tolist(), scores.item()


def _decode_paths(model: CrfModel, encoded: EncodedCorpus) -> np.ndarray:
    """The best tag id of every token, aligned with encoded.tags; decoding
    DECODE_CHUNK sentences per packed call keeps working memory flat."""
    return np.concatenate([np.empty(0, np.intp)] + [
        _best_paths(model, encoded[lo:lo + DECODE_CHUNK])[0]
        for lo in range(0, len(encoded), DECODE_CHUNK)])


def decode(model: CrfModel, dataset: Dataset) -> Dataset:
    """Viterbi-tag every sentence: the dataset is encoded under model.index
    and _decode_paths is cut at the corpus's sentence offsets."""
    encoded = encode_dataset(dataset, model.index)
    tags = list(map(model.tagset.tags.__getitem__, _decode_paths(model, encoded).tolist()))
    bounds = encoded.offsets.tolist()
    return Dataset(tuple(Sentence(s.surfaces, tuple(tags[lo:hi]), s.id)
                         for s, lo, hi in zip(dataset.sentences, bounds, bounds[1:])))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    patience: int = 4
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_nll: float
    dev_f1: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int


def train(train_set: Dataset, dev: Dataset, cfg: TrainConfig,
          index: FeatureIndex) -> tuple[CrfModel, TrainHistory]:
    """Fit a CRF by mini-batch AdaGrad with early stopping on dev entity F1.

    Both datasets are encoded under index, the training set first.  Weights
    start at zero.  After every epoch the dev set is decoded to flat
    tag ids and scored against its gold ids, with no tag strings built; when
    weighted F1 fails to improve by more than MIN_DELTA for more than
    `patience` consecutive epochs, training stops.  The returned model
    carries the weights of the best epoch (first occurrence on ties), and the
    whole procedure is reproducible bit for bit from the seed.  A batch loss
    that is not finite stops training with a ValueError naming the epoch and
    batch, and numpy's floating-point warnings are muted as it reports them.
    """
    if not train_set.sentences or not dev.sentences:
        raise ValueError("empty training or dev set")
    encoded_train = encode_dataset(train_set, index)
    try:
        dev_encoded = encode_dataset(dev, index)
    except ValueError as exc:  # a dev tag outside the training tag set
        raise ValueError(f"dev {exc}") from None

    model = CrfModel.zeros(index)
    accum = np.zeros_like(model.weights)
    rng = random.Random(cfg.seed)
    order = list(range(len(encoded_train)))

    records: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = 0
    best_weights = model.weights.copy()
    stop_ref = -1.0
    bad_epochs = 0

    for epoch in range(1, cfg.epochs + 1):
        started = time.monotonic()
        rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = encoded_train[order[lo:lo + cfg.batch_size]]
            with np.errstate(all="ignore"):
                loss, grad = nll_and_gradient(model, batch, cfg.l2)
                if not math.isfinite(loss):
                    raise ValueError(f"epoch {epoch}, batch {lo // cfg.batch_size + 1}: "
                                     f"training loss is {loss}; try a smaller learning rate")
                epoch_loss += loss
                grad *= 1.0 / len(batch)
                accum += grad * grad
                model.weights -= cfg.learning_rate * grad / (np.sqrt(accum) + _ADAGRAD_EPS)
        f1 = _class_scores(*_span_counts(dev_encoded.tags, _decode_paths(model, dev_encoded),
                                         dev_encoded.offsets, index.tagset.tags))[1]
        records.append(EpochRecord(epoch, epoch_loss, f1, time.monotonic() - started))
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_weights = model.weights.copy()
        if f1 > stop_ref + MIN_DELTA:
            stop_ref = f1
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break

    model.weights[...] = best_weights
    return model, TrainHistory(records, best_epoch)


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned UTF-8 text; floats keep full precision."""
    if not np.isfinite(model.weights).all():
        raise ValueError("refusing to save a model with non-finite weights")
    lines = [MODEL_HEADER, "[tags]", *model.tagset.tags,
             "[attributes]", *model.index.attributes()]
    for name in _SECTIONS[2:]:  # start and end hold one weight per line
        lines.append(f"[{name}]")
        lines.extend(" ".join(map(repr, np.atleast_1d(row).tolist()))
                     for row in getattr(model, name))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The characters str.splitlines ends a line at: a "[" after one starts a line.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _blocks(text: str) -> list[list[str]]:
    """text.splitlines(), cut before every line after the first that starts
    with "[".  The cuts are found with str.find, not by a loop over lines."""
    cuts, at = [0], text.find("[", 1)
    while at >= 0:
        if text[at - 1] in _LINE_BREAKS:
            cuts.append(at)
        at = text.find("[", at + 1)
    return [text[a:b].splitlines() for a, b in zip(cuts, cuts[1:] + [len(text)])]


def _read_block(rows: list[str], block: np.ndarray, section: str) -> None:
    """Fill a weight block from its section, one block row per line."""
    width = block.shape[1] if block.ndim == 2 else 1
    if len(rows) != len(block):
        raise ValueError(f"truncated model file: bad row count in [{section}]")
    if not rows:
        return
    try:  # a blank first row is left to the check below: loadtxt warns on no data
        arr = (np.loadtxt(rows, comments=None, ndmin=2, dtype=np.float64)
               if rows[0].strip() else None)
    except ValueError:
        arr = None
    # loadtxt skips blank rows and rejects ragged ones, so this shape means
    # every row has `width` fields; anything else gets the row-by-row check.
    if arr is None or arr.shape != (len(rows), width):
        if any(len(row.split()) != width for row in rows):
            raise ValueError(f"truncated model file: bad row width in [{section}]")
        raise ValueError(f"malformed number in [{section}]")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite weight in [{section}]")
    block[...] = arr.reshape(block.shape)


def load_model(path: str | Path) -> CrfModel:
    """Inverse of save_model; weights round trip bit for bit.  A leading
    byte-order mark is dropped, as it is from corpus files."""
    head, *blocks = _blocks(Path(path).read_text(encoding="utf-8-sig"))
    if not head or head[0] != MODEL_HEADER:
        raise ValueError(f"unsupported version: expected {MODEL_HEADER!r} header")
    if len(head) > 1:  # lines between the header and the first "[" line
        blocks.insert(0, head[1:])
    # A section runs from its header to the next line that starts with "[".
    sections = {}
    for i, name in enumerate(_SECTIONS):
        if i >= len(blocks) or blocks[i][0] != f"[{name}]":
            raise ValueError(f"truncated or malformed model file: expected [{name}]")
        sections[name] = blocks[i][1:]
    if len(blocks) > len(_SECTIONS):
        raise ValueError(f"malformed model file: unexpected {blocks[len(_SECTIONS)][0]!r} "
                         "after the [emissions] rows")
    index = FeatureIndex(sections["attributes"], TagSet(tuple(sections["tags"])))
    model = CrfModel.zeros(index)
    for name in _SECTIONS[2:]:
        _read_block(sections[name], getattr(model, name), name)
    return model
