"""Linear-chain CRF: scoring, inference, training, and persistence.

The score of a tag sequence y for a sentence with attributes attrs(i) is

    start[y_1] + sum_i sum_{a in attrs(i)} W_e[a, y_i]
               + sum_{i>=2} W_t[y_{i-1}, y_i] + end[y_T]

All inference runs in log space with max-subtraction log-sum-exp, so finite
weights can never overflow.  Training is maximum likelihood with an L2
penalty, optimized by mini-batch AdaGrad; everything is deterministic given
the seed.
"""

import random
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Dataset, Sentence, TagSet, Token
from .eval import score_entities
from .features import EncodedSentence, FeatureIndex, TemplateConfig, encode_dataset

MODEL_HEADER = "MIXNER-CRF v1"
_SECTIONS = ("tags", "attributes", "start", "end", "transitions", "emissions")
_ADAGRAD_EPS = 1e-8
DECODE_CHUNK = 256  # sentences per packed Viterbi call in decode


@dataclass(eq=False)
class CrfModel:
    """Weight blocks plus the tag set and attribute index they are tied to.

    emissions has one row per attribute and one column per tag; transitions
    is indexed [previous, current].
    """

    emissions: np.ndarray
    transitions: np.ndarray
    start: np.ndarray
    end: np.ndarray
    tagset: TagSet
    index: FeatureIndex

    def __post_init__(self):
        a, k = self.emissions.shape
        if (self.transitions.shape != (k, k) or self.start.shape != (k,)
                or self.end.shape != (k,)):
            raise ValueError("inconsistent weight shapes")
        if a != self.index.num_attributes or k != len(self.tagset):
            raise ValueError("weights do not match the index/tag set")

    @classmethod
    def zeros(cls, index: FeatureIndex, tagset: TagSet) -> "CrfModel":
        k = len(tagset)
        return cls(np.zeros((index.num_attributes, k)), np.zeros((k, k)),
                   np.zeros(k), np.zeros(k), tagset, index)

    @property
    def num_tags(self) -> int:
        return len(self.tagset)

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.emissions, self.transitions, self.start, self.end)


@dataclass(eq=False)
class Gradient:
    """Per-block gradients, same shapes as the model weights."""

    emissions: np.ndarray
    transitions: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.emissions, self.transitions, self.start, self.end)

    @classmethod
    def zeros_like(cls, model: CrfModel) -> "Gradient":
        return cls(*(np.zeros_like(b) for b in model.blocks()))

    def ravel(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self.blocks()])


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


class _Packed:
    """A batch scored under a model, laid out time-major and packed by length:
    sentences are ranked longest first (ties in input order), and step t holds
    the sentences longer than t in rows offsets[t] + rank, a prefix of step
    t - 1.  em[row] sums W_e over the row's attributes in listed order, so it
    is bit for bit the same whatever batch the sentence is in."""

    def __init__(self, model: CrfModel, batch: list[EncodedSentence]):
        if not batch:
            raise ValueError("empty batch")
        self.b = b = len(batch)
        self.lengths = lengths = np.fromiter((e.length for e in batch), np.intp, b)
        self.rank = np.argsort(np.argsort(-lengths, kind="stable"))
        sizes = b - np.cumsum(np.bincount(lengths))[:-1]
        offsets = np.cumsum(sizes) - sizes
        # (row offset, sentences active, previous step's row offset), steps >= 1
        self.steps = list(zip(offsets[1:].tolist(), sizes[1:].tolist(), offsets.tolist()))
        self.n = n = int(lengths.sum())
        step = np.repeat(np.arange(len(sizes)), sizes)
        self.rank_of_row = np.arange(n) - offsets[step]
        self.prev = np.arange(b, n) - sizes[step[b:] - 1]  # predecessors of rows b..n-1
        self.last = offsets[np.sort(lengths)[::-1] - 1] + np.arange(b)
        # Packed row of every token, sentence by sentence in input order.
        pos = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.rows = offsets[pos] + np.repeat(self.rank, lengths)
        self.tags = np.empty(n, np.intp)
        self.tags[self.rows] = np.fromiter(chain.from_iterable(e.tag_ids for e in batch), np.intp)
        ids = list(chain.from_iterable(e.attr_ids for e in batch))  # one tuple per token
        self.attrs = np.fromiter(chain.from_iterable(ids), np.intp)
        self.attr_rows = np.repeat(self.rows, np.fromiter(map(len, ids), np.intp, n))
        self.em = np.zeros((n, model.num_tags))
        np.add.at(self.em, self.attr_rows, model.emissions[self.attrs])


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


def sequence_score(model: CrfModel, enc: EncodedSentence,
                   tags: tuple[int, ...] | list[int]) -> float:
    """Unnormalized log score of one tag sequence.  It runs viterbi's recursion
    with the given tags in place of the maximum, so the decoder's returned
    score is bitwise equal to rescoring its path."""
    if len(tags) != enc.length:
        raise ValueError("tag sequence length does not match the sentence")
    previous = iter(tags)
    alpha = _forward(model, _Packed(model, [enc]), lambda cand, _: cand[:, next(previous)])
    return float(alpha[-1, tags[-1]] + model.end[tags[-1]])


def log_partition(model: CrfModel, enc: EncodedSentence) -> float:
    """log Z by the forward recursion."""
    return float(_forward_backward(model, _Packed(model, [enc]))[2][0])


def marginals(model: CrfModel, enc: EncodedSentence) -> tuple[np.ndarray, np.ndarray]:
    """Posterior tag distributions (node, edge): node[t, k] = P(y_t = k) with
    shape (T, K), and edge[t, j, k] = P(y_t = j, y_{t+1} = k), shape (T-1, K, K)."""
    return _forward_backward(model, _Packed(model, [enc]))[:2]


def nll_and_gradient(model: CrfModel, batch: list[EncodedSentence],
                     l2: float = 0.0) -> tuple[float, Gradient]:
    """Regularized negative log likelihood of a batch and its exact gradient.

    loss = sum_s (log Z_s - score(y_gold_s)) + (l2 / 2) * ||w||^2 over every
    weight block; the gradient is expected minus empirical feature counts
    plus l2 * w, summed over the packed batch.
    """
    p = _Packed(model, batch)
    node, edge, log_z = _forward_backward(model, p)
    k, tags, prev = model.num_tags, p.tags, p.tags[p.prev]
    gold = (model.start[tags[:p.b]].sum() + p.em[np.arange(p.n), tags].sum()
            + model.transitions[prev, tags[p.b:]].sum() + model.end[tags[p.last]].sum())
    loss = float(log_z.sum() - gold)
    node[np.arange(p.n), tags] -= 1.0  # now expected minus empirical counts per row
    pairs = np.bincount(prev * k + tags[p.b:], minlength=k * k).reshape(k, k)
    grad = Gradient(np.zeros_like(model.emissions), edge.sum(axis=0) - pairs,
                    node[:p.b].sum(axis=0), node[p.last].sum(axis=0))
    np.add.at(grad.emissions, p.attrs, node[p.attr_rows])
    if l2:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in model.blocks())
        for g, w in zip(grad.blocks(), model.blocks()):
            g += l2 * w
    return loss, grad


def viterbi_batch(model: CrfModel,
                  batch: list[EncodedSentence]) -> list[tuple[list[int], float]]:
    """Best tag sequence and its score for every sentence, in input order; ties
    go to the lower tag id at each backtracking step (argmax takes the first)."""
    back = []  # per step: best previous tag for each active sentence and tag

    def best(cand, axis):
        back.append(cand.argmax(axis))
        return cand.max(axis)

    p = _Packed(model, batch)
    final = _forward(model, p, best)[p.last] + model.end
    cur = np.argmax(final, axis=1)
    scores = final[np.arange(p.b), cur].tolist()
    tags = np.empty(p.n, np.intp)
    for (lo, size, _), ptr in zip(reversed(p.steps), reversed(back)):
        tags[lo:lo + size] = cur[:size]
        cur[:size] = ptr[np.arange(size), cur[:size]]
    tags[:p.b] = cur
    paths = np.split(tags[p.rows], np.cumsum(p.lengths)[:-1])
    return [(path.tolist(), scores[r]) for path, r in zip(paths, p.rank)]


def viterbi(model: CrfModel, enc: EncodedSentence) -> tuple[list[int], float]:
    """Best tag sequence and its score; ties go to the lower tag id."""
    return viterbi_batch(model, [enc])[0]


def decode(model: CrfModel, dataset: Dataset, encoded: list[EncodedSentence]) -> Dataset:
    """Viterbi-tag every sentence, DECODE_CHUNK sentences per packed call so
    working memory does not grow with the dataset."""
    if len(encoded) != len(dataset):
        raise ValueError("encoded sentences do not match the dataset")
    paths = [path for lo in range(0, len(encoded), DECODE_CHUNK)
             for path, _ in viterbi_batch(model, encoded[lo:lo + DECODE_CHUNK])]
    return Dataset(tuple(
        Sentence(tuple(Token(tok.surface, model.tagset.tags[k], tok.lang)
                       for tok, k in zip(s.tokens, path)), id=s.id, source=s.source)
        for s, path in zip(dataset.sentences, paths)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    patience: int = 4
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 42
    min_delta: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.patience < 0 or self.learning_rate <= 0:
            raise ValueError("patience must be >= 0 and learning_rate > 0")


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


def train(encoded_train: list[EncodedSentence], dev: Dataset, cfg: TrainConfig,
          template: TemplateConfig, index: FeatureIndex,
          tagset: TagSet) -> tuple[CrfModel, TrainHistory]:
    """Fit a CRF by mini-batch AdaGrad with early stopping on dev entity F1.

    Weights start at zero.  After every epoch the dev set is decoded and
    scored; when weighted F1 fails to improve by more than min_delta for more
    than `patience` consecutive epochs, training stops.  The returned model
    carries the weights of the best epoch (first occurrence on ties), and the
    whole procedure is reproducible bit for bit from the seed.
    """
    if not encoded_train:
        raise ValueError("empty training set")
    for si, s in enumerate(dev.sentences):
        for tok in s.tokens:
            if tok.tag not in index.tag_to_id:
                raise ValueError(f"dev sentence {si}: tag {tok.tag!r} "
                                 "is not in the training tag set")

    model = CrfModel.zeros(index, tagset)
    accum = Gradient.zeros_like(model)
    rng = random.Random(cfg.seed)
    order = list(range(len(encoded_train)))
    dev_encoded = encode_dataset(dev, index, template)

    records: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = 0
    best_weights = tuple(b.copy() for b in model.blocks())
    stop_ref = -1.0
    bad_epochs = 0

    for epoch in range(1, cfg.epochs + 1):
        started = time.monotonic()
        rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [encoded_train[i] for i in order[lo:lo + cfg.batch_size]]
            loss, grad = nll_and_gradient(model, batch, cfg.l2)
            epoch_loss += loss
            scale = 1.0 / len(batch)
            for w, g, acc in zip(model.blocks(), grad.blocks(), accum.blocks()):
                g *= scale
                acc += g * g
                w -= cfg.learning_rate * g / (np.sqrt(acc) + _ADAGRAD_EPS)
        f1 = score_entities(dev, decode(model, dev, dev_encoded)).weighted_f1
        records.append(EpochRecord(epoch, epoch_loss, f1, time.monotonic() - started))
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_weights = tuple(b.copy() for b in model.blocks())
        if f1 > stop_ref + cfg.min_delta:
            stop_ref = f1
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break

    for w, best in zip(model.blocks(), best_weights):
        w[...] = best
    return model, TrainHistory(records, best_epoch)


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned UTF-8 text; floats keep full precision."""
    if not all(np.isfinite(b).all() for b in model.blocks()):
        raise ValueError("refusing to save a model with non-finite weights")
    lines = [MODEL_HEADER, "[tags]", *model.tagset.tags,
             "[attributes]", *model.index.attributes()]
    for name in _SECTIONS[2:]:  # start and end hold one weight per line
        lines.append(f"[{name}]")
        lines.extend(" ".join(map(repr, np.atleast_1d(row).tolist()))
                     for row in getattr(model, name))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _take_section(lines: list[str], pos: int, name: str) -> tuple[list[str], int]:
    if pos >= len(lines) or lines[pos] != f"[{name}]":
        raise ValueError(f"truncated or malformed model file: expected [{name}]")
    pos += 1
    items = []
    while pos < len(lines) and not lines[pos].startswith("["):
        items.append(lines[pos])
        pos += 1
    return items, pos


def _parse_floats(rows: list[str], count: int, width: int, section: str) -> np.ndarray:
    if len(rows) != count:
        raise ValueError(f"truncated model file: bad row count in [{section}]")
    try:
        mat = [[float(x) for x in row.split()] for row in rows]
    except ValueError:
        raise ValueError(f"malformed number in [{section}]") from None
    if any(len(r) != width for r in mat):
        raise ValueError(f"truncated model file: bad row width in [{section}]")
    arr = np.array(mat, dtype=np.float64).reshape(count, width)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite weight in [{section}]")
    return arr


def load_model(path: str | Path) -> CrfModel:
    """Inverse of save_model; weights round trip bit for bit."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"unsupported version: expected {MODEL_HEADER!r} header")
    pos = 1
    sections = {}
    for name in _SECTIONS:
        sections[name], pos = _take_section(lines, pos, name)
    tagset = TagSet(tuple(sections["tags"]))
    k = len(tagset)
    attributes = sections["attributes"]
    index = FeatureIndex(attribute_to_id={a: i for i, a in enumerate(attributes)},
                         tag_to_id={t: i for i, t in enumerate(tagset.tags)},
                         frozen=True)
    if len(index.attribute_to_id) != len(attributes):
        raise ValueError("duplicate attribute in [attributes]")
    shapes = {"start": (k, 1), "end": (k, 1), "transitions": (k, k),
              "emissions": (len(attributes), k)}
    w = {name: _parse_floats(sections[name], *shape, name) for name, shape in shapes.items()}
    return CrfModel(w["emissions"], w["transitions"], w["start"][:, 0], w["end"][:, 0],
                    tagset, index)
