"""Linear-chain CRF: scoring, inference, training, and persistence.

    score(y) = start[y_1] + sum_i sum_{a in attrs(i)} W_e[a, y_i]
               + sum_{i>=2} W_t[y_{i-1}, y_i] + end[y_T]

Layouts: CrfModel (the weights), _Packed (a weighed, checked batch, every
batch gathered the one way), _chunks (decoding).
Forward-backward: _forward_backward picks _scaled, with its own row-major
loops, when the transitions' spread is at most _MATMUL_SPREAD, proved exact
in the comment above it, and _log_space otherwise.  Viterbi: _best_paths,
only through _decode_paths.  _forward is the tag-major forward recursion of
_log_space, _best_paths and sequence_score.  Training: nll_and_gradient and
train.  Persistence: save_model, load_model.
"""

import math
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, TagSet, _offsets
from .eval import _class_scores, _span_counts
from .features import EncodedCorpus, EncodedSentence, FeatureIndex, _ranges, encode_dataset
from .shortest import format_rows

MODEL_HEADER = "MIXNER-CRF v1"
_SECTIONS = ("tags", "attributes", "start", "end", "transitions", "emissions")
_ADAGRAD_EPS = 1e-8
MIN_DELTA = 1e-4  # smallest dev F1 gain that resets the patience count
DECODE_CHUNK = 256  # a _decode_paths chunk's limit in sentences, times the mean length in tokens


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
    [previous, current].  The tag set is the index's.  nll_and_gradient's
    gradient has the same layout, so an AdaGrad step is arithmetic on whole
    vectors.
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


def _scatter(index: np.ndarray, columns: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """A (len(columns), size) float64 array whose [c, i] sums columns[c][rows[j]]
    over the j with index[j] == i.  np.bincount adds its weights in order of
    occurrence, as np.add.at does, so each sum is bit for bit the listed-order
    sum; one column at a time, no (len(index), len(columns)) array is
    gathered.  (np.add.reduceat sums in another order and is not bit-equal.)
    With no rows at all bincount returns integers, hence the cast."""
    sums = np.stack([np.bincount(index, column[rows], size) for column in columns])
    return sums.astype(np.float64, copy=False)


def _rows(x: np.ndarray) -> np.ndarray:
    """A row-major copy of x.T, packed rows outer and tags contiguous: the
    rows of a step of _scaled are one (size, K) block for its matmuls."""
    return np.ascontiguousarray(x.T)


def _check_range(ids: np.ndarray, limit: int, what: str, where) -> None:
    """Reject ids outside [0, limit) instead of letting -1 index the last;
    where(j) names the place of entry j."""
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        j = int(np.flatnonzero((ids < 0) | (ids >= limit))[0])
        raise ValueError(f"{where(j)}: {what} id {ids[j]} is out of range "
                         f"for {limit} {what}s")


class _Packed:
    """A batch weighed under model, the sentences sel (an index array or a
    slice, all by default) of a corpus, whose tokens sit at corpus indices
    tokens: time-major and packed by length, sentences ranked longest first
    (ties in batch order), step t holding the sentences longer than t in rows
    offsets[t] + rank, a prefix of step t - 1: PyTorch's pack_padded_sequence
    with no padding.  Every batch, whole corpus or not, gathers its tokens and
    attributes from the corpus through _ranges, so no new corpus is built.
    em is like alpha and beta a (K, rows) array, tags outer and packed rows
    contiguous, so every step loops over the batch's sentences, not over K
    tags.  em[:, row] sums W_e over the row's attributes in listed order, then
    adds start at a first row and end at a last row, so it is bit for bit the
    same whatever batch the sentence is in: the corpus keeps that order, and
    _scatter adds in it.  A sum that overflows does so without a numpy
    warning: one that no path takes is harmless, and _best_paths and
    sequence_score reject a path score that is not finite.  The tag and
    attribute ids of the packed sentences are checked against model as they
    are gathered: one outside it raises ValueError naming its sentence and
    position in corpus, so an id of -1 never reads as the last."""

    def __init__(self, model: CrfModel, corpus: EncodedCorpus, sel=slice(None)):
        lengths = corpus.lengths[sel]
        self.b = b = len(lengths)
        if not b:
            raise ValueError("empty batch")
        self.rank = np.argsort(np.argsort(-lengths, kind="stable"))
        sizes = b - np.cumsum(np.bincount(lengths))[:-1]
        offsets = np.cumsum(sizes) - sizes
        # (row offset, sentences active, previous step's row offset), steps >= 1
        self.steps = list(zip(offsets[1:].tolist(), sizes[1:].tolist(), offsets.tolist()))
        self.n = n = int(sizes.sum())
        step = np.repeat(np.arange(len(sizes)), sizes)
        self.rank_of_row = np.arange(n) - offsets[step]
        self.prev = np.arange(b, n) - sizes[step[b:] - 1]  # predecessors of rows b..n-1
        self.last = offsets[np.sort(lengths)[::-1] - 1] + np.arange(b)
        # Packed row of every token, sentence by sentence in batch order.
        pos = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.rows = offsets[pos] + np.repeat(self.rank, lengths)
        self.tokens = tokens = _ranges(corpus.offsets[:-1][sel], lengths)[0]
        # Packed token i's (sentence, position) in corpus, read on error paths.  It holds
        # no reference to self, so a dropped chunk is freed at once.
        self.locate = locate = lambda i: corpus.locate(tokens[i])

        def where(i: int) -> str:
            return "sentence {}, position {}".format(*locate(i))

        self.tags = np.empty(n, np.intp)
        self.tags[self.rows] = tags = corpus.tags[tokens]
        _check_range(tags, model.num_tags, "tag", where)
        starts = corpus.attr_offsets[:-1][tokens]
        counts = corpus.attr_offsets[1:][tokens] - starts
        self.attrs = corpus.attrs[_ranges(starts, counts)[0]]
        _check_range(self.attrs, model.index.num_attributes, "attribute",
                     lambda j: where(np.cumsum(counts).searchsorted(j, "right")))
        self.attr_rows = np.repeat(self.rows, counts)
        with np.errstate(over="ignore"):
            self.em = em = _scatter(self.attr_rows, model.emissions.T, self.attrs, n)
            em[:, :b] += model.start[:, None]
            em[:, self.last] += model.end[:, None]


def _forward(p: _Packed, step) -> np.ndarray:
    """The tag-major forward recursion, as a (K, rows) array: the first rows
    are p.em's, and the rows of step t, a slice rows, are step(x, t, rows)
    for x the rows of step t - 1 that precede them.  The steps are
    _log_space's log-sum-exp, Viterbi's max over the previous tag and
    sequence_score's row of the given tag."""
    out = np.empty_like(p.em)
    out[:, :p.b] = p.em[:, :p.b]
    for t, (lo, size, plo) in enumerate(p.steps, 1):
        out[:, lo:lo + size] = step(out[:, plo:plo + size], t, slice(lo, lo + size))
    return out


# _scaled, the forward-backward in probability space, is exact for
# transitions T whose spread S = ptp(T) is at most _MATMUL_SPREAD and K < 2**31
# tags (K x K floats must fit in memory), with no bound on the emissions;
# otherwise _forward_backward takes _log_space.  Every row, first, interior
# and last alike, has q = exp(x), x = em less the row's maximum.  Proof:
# - Range.  E = exp(T - min T) lies in [1, e**S], e**S <= 2**454, so for u >= 0
#   with maximum M every entry of u @ E (and of w @ E^T) lies in [M, K e**S M].
#   As q <= 1, with q = 1 at each row's best tag, a row's maximum, 1 at the
#   first rows (the last, backward) and after a division, never falls and
#   rises at most K e**S < 2**485 per step.  r = floor(_GROWTH / (S + ln K))
#   >= 2 steps after a division by the maximum it is below 2**1023, half the
#   largest float, which leaves room for rounding.  A row's sum lies in
#   [M, K M]: if the row is not divided, below K (K e**S)**(r - 1) <= 2**1023,
#   so log Z's logs are finite.
# - Underflow.  An entry (u @ E)[k] q[k] with q[k] >= 2**-1022, the least
#   normal float, is at least M q[k] >= 2**-1022, as M >= 1: it keeps full
#   relative precision.  A rival whose q falls below 2**-1022 lies more than
#   1022 ln 2 below its row's best, and the transitions into and out of it
#   repay at most 2 S.  So every path through it is worth less than
#   2**-1022 e**(2 S) <= 2**-114 of the same path through the best tag, and
#   those of one row less than K 2**-114 of Z.  Its own rounding error, q's
#   and the product's, below 2**-1073 K e**S M, enters the next step or log
#   Z's sum times at most e**S against entries >= M: below K 2**-165.  An
#   entry that a division by the maximum leaves below 2**-1022 is off by at
#   most 2**-1074 M, less still.
# - Normalisers.  Divided by their row maxima, u <= 1 with a 1 at its best
#   tag, and v >= 1 / (K e**S) > 2**-485, so sum(u v) > 2**-485 > 0.  A
#   product u v lost to underflow moves a node marginal by less than 2**-1074
#   K e**S < 2**-589.  An edge row's scale wmax / (vmax sum(u v)) is at most
#   1, as sum(u v) >= v at u's best tag >= wmax / vmax.
_MATMUL_SPREAD = 454 * math.log(2)
_GROWTH = 1023 * math.log(2)  # the log of the largest rise allowed between divisions


def _log_space(model: CrfModel, p: _Packed):
    """_forward_backward in log space, for transitions beyond the bound of
    _scaled (non-finite or spread wider than _MATMUL_SPREAD): log-sum-exp
    steps over a K x K x rows array.  Each edge marginal is exp(alpha at the
    row's predecessor + trans + em + beta at the row - log Z), built in place
    as a (rows, K, K) array and summed over the rows.  Runaway weights (say
    1e300) spread the transitions far beyond the bound, so they come here,
    overflow in the marginals and stop train on its non-finite loss."""
    trans, em = model.transitions, p.em
    alpha = _forward(p, lambda a, t, rows: _logsumexp(
        a[:, None] + trans[:, :, None], 0) + em[:, rows])
    log_z = _logsumexp(alpha[:, p.last], 0)
    beta = np.zeros_like(em)  # 0 at the last rows
    for lo, size, plo in reversed(p.steps):
        beta[:, plo:plo + size] = _logsumexp(
            trans[:, :, None] + (em[:, lo:lo + size] + beta[:, lo:lo + size]), 1)
    node = np.exp(alpha + beta - log_z[p.rank_of_row])
    edge = alpha[:, p.prev].T[:, :, None] + trans
    edge += (em + beta)[:, p.b:].T[:, None] - log_z[p.rank_of_row[p.b:], None, None]
    return node, np.exp(edge, out=edge).sum(axis=0), log_z


def _scaled(model: CrfModel, p: _Packed):
    """_forward_backward in probability space, the scaled recursion of
    Rabiner (1989), also in Sutton & McCallum, An Introduction to CRFs
    (2012), section 4, every row alike, with no exp or log per step.  With
    q = exp(em less its row maxima top) and E = exp(T - min T), the forward
    step is u = (u_prev @ E) * q and the backward step v = w_next @ E^T,
    w = v * q, on row-major (rows, K) arrays so that a step's rows are one
    contiguous block; both loops divide step t's rows by their maxima when
    t % r == 0.  Node and edge marginals sum to 1 per row, so they are
    normalised per row, on (K, rows) copies; summed over the batch, the edge
    marginals are one (K x rows) @ (rows x K) product, with no per-row edge
    array.  log Z is the log of a last row's sum of u plus its sentence's
    offsets, summed by np.bincount: each row's top and log divisor, and
    min T per step."""
    trans, b = model.transitions, p.b
    top = p.em.max(axis=0)
    low = trans.min()
    e = np.exp(trans - low)
    growth = float(trans.max() - low) + math.log(len(trans))  # log of a row's largest rise
    r = int(_GROWTH // growth) if growth else p.n  # one tag: rows never grow
    scale = np.ones(p.n)
    q = _rows(np.exp(p.em - top))
    u = np.empty_like(q)
    u[:b] = q[:b]
    for t, (lo, size, plo) in enumerate(p.steps, 1):
        ut = u[lo:lo + size]
        np.dot(u[plo:plo + size], e, out=ut)
        ut *= q[lo:lo + size]
        if t % r == 0:
            scale[lo:lo + size] = s = ut.max(axis=1)
            ut /= s[:, None]
    offsets = top + np.log(scale)
    offsets[b:] += low
    log_z = np.log(u[p.last].sum(axis=1)) + np.bincount(p.rank_of_row, offsets, b)

    et = np.ascontiguousarray(e.T)
    v, w = np.empty_like(u), q  # w = v * q overwrites q row by row, not at the first rows
    v[p.last] = 1.0
    for t, (lo, size, plo) in zip(range(len(p.steps), 0, -1), reversed(p.steps)):
        wt = w[lo:lo + size]  # at last rows v = 1 and max q = 1: exact
        wt *= v[lo:lo + size]
        if t % r == 0:
            wt /= wt.max(axis=1, keepdims=True)
        np.dot(wt, et, out=v[plo:plo + size])

    node = u = _rows(u)
    u /= u.max(axis=0)
    edge = u[:, p.prev]  # u / max u at each row's predecessor
    v = _rows(v)
    vmax = v.max(axis=0)
    v /= vmax
    node *= v
    norm = node.sum(axis=0)
    node /= norm
    w = _rows(w[b:])
    wmax = w.max(axis=0)
    w /= wmax
    edge *= wmax / (vmax[p.prev] * norm[p.prev])
    return node, (edge @ w.T) * e, log_z


def _takes_scaled(model: CrfModel) -> bool:
    """Whether _forward_backward takes _scaled for model: its transitions
    spread by at most _MATMUL_SPREAD, which nan and inf never do."""
    trans = model.transitions
    return bool(trans.max() - trans.min() <= _MATMUL_SPREAD)


def _forward_backward(model: CrfModel, p: _Packed):
    """Node marginals per row as a (K, rows) array; the edge marginals of the
    rows after each sentence's first, summed over the batch into a (K, K)
    array whose [j, k] is the expected count of transition j -> k; and log Z
    per rank.  _scaled where _takes_scaled, whatever the emissions, and
    _log_space otherwise."""
    return (_scaled if _takes_scaled(model) else _log_space)(model, p)


def _one(enc: EncodedSentence) -> EncodedCorpus:
    return EncodedCorpus.from_sentences([enc])


def sequence_score(model: CrfModel, enc: EncodedSentence,
                   tags: tuple[int, ...] | list[int]) -> float:
    """Unnormalized log score of one tag sequence.  It runs Viterbi's forward
    recursion with the given previous tag in place of the maximum, adding the
    same terms in the same order, so no sequence outscores Viterbi's, exactly.
    Sums off the path may overflow, so numpy's warnings are muted; a path
    score that is not finite, a sum that overflowed, raises ValueError."""
    if len(tags) != enc.length:
        raise ValueError("tag sequence length does not match the sentence")
    _check_range(np.asarray(tags, np.intp), model.num_tags, "tag", "position {}".format)
    p = _Packed(model, _one(enc))
    with np.errstate(all="ignore"):
        alpha = _forward(p, lambda a, t, rows: (  # the given previous tag's row
            a[tags[t - 1]] + model.transitions[tags[t - 1], :, None] + p.em[:, rows]))
    score = float(alpha[tags[-1], -1])
    if not math.isfinite(score):
        raise ValueError(f"path score is {score}; the model's weights overflow it")
    return score


def log_partition(model: CrfModel, enc: EncodedSentence) -> float:
    """log Z, from the forward-backward that nll_and_gradient runs."""
    return float(_forward_backward(model, _Packed(model, _one(enc)))[2][0])


def marginals(model: CrfModel, enc: EncodedSentence) -> tuple[np.ndarray, np.ndarray]:
    """Posterior marginals (node, edge): node[t, k] = P(y_t = k) with shape
    (T, K), and edge[j, k] = sum_t P(y_t = j, y_{t+1} = k) with shape (K, K),
    the expected count of transition j -> k (zeros for one token).  Both come
    from the forward-backward that nll_and_gradient runs, and are the
    statistics it reads."""
    node, edge, _ = _forward_backward(model, _Packed(model, _one(enc)))
    return node.T, edge


def nll_and_gradient(model: CrfModel, batch: EncodedCorpus,
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Regularized negative log likelihood of a batch and its exact gradient.

    loss = sum_s (log Z_s - score(y_gold_s)) + (l2 / 2) * ||w||^2 over the
    whole weight vector; the gradient, a vector in the same layout, is
    expected minus empirical feature counts plus l2 * w, summed over the
    packed batch.
    """
    p = _Packed(model, batch)
    node, edges, log_z = _forward_backward(model, p)
    k, tags, prev = model.num_tags, p.tags, p.tags[p.prev]
    gold = p.em[tags, np.arange(p.n)].sum() + model.transitions[prev, tags[p.b:]].sum()
    loss = float(log_z.sum() - gold)
    node[tags, np.arange(p.n)] -= 1.0  # now expected minus empirical counts per row
    pairs = np.bincount(prev * k + tags[p.b:], minlength=k * k).reshape(k, k)
    grad = np.zeros_like(model.weights)
    emissions, transitions, start, end = _views(grad, k)
    emissions[...] = _scatter(p.attrs, node, p.attr_rows, len(emissions)).T
    transitions[...] = edges - pairs
    start[...] = node[:, :p.b].sum(axis=1)
    end[...] = node[:, p.last].sum(axis=1)
    if l2:  # ||w||^2 by einsum, not a BLAS dot, whose last bits vary with its threads
        loss += 0.5 * l2 * float(np.einsum("i,i", model.weights, model.weights))
        grad += l2 * model.weights
    return loss, grad


def _best_paths(model: CrfModel, p: _Packed) -> np.ndarray:
    """Each token's tag on its sentence's best path, in batch order; ties go
    to the lower tag id (argmax).  The forward step keeps only the max over
    the previous tag and stores no back pointers.  The backtrace recovers
    each pointer for the one tag the path follows, as the first argmax of
    alpha at the predecessor row plus the transitions into that tag: the
    sums the max was taken over, under the same first-maximum rule.  A
    sentence's rows meet no other sentence's, so its path does not depend
    on the rest of the batch.  A best score that is not finite, a sum that
    overflowed (nan from inf - inf included), raises ValueError naming the
    sentence in the corpus p was packed from."""
    trans = model.transitions
    alpha = _forward(p, lambda a, t, rows: (
        a[:, None] + trans[:, :, None]).max(axis=0) + p.em[:, rows])
    last = alpha[:, p.last]
    best = last.max(axis=0)
    if not np.isfinite(best).all():  # row r, r < b, is the first of the sentence ranked r
        r = int(np.flatnonzero(~np.isfinite(best))[0])
        sentence = p.locate(int(np.flatnonzero(p.rows == r)[0]))[0]
        raise ValueError(f"sentence {sentence}: best path score is {best[r]}; "
                         "the model's weights overflow it")
    cur = last.argmax(axis=0)
    tags = np.empty(p.n, np.intp)
    for lo, size, plo in reversed(p.steps):
        tags[lo:lo + size] = cur[:size]
        cur[:size] = (alpha[:, plo:plo + size] + trans[:, cur[:size]]).argmax(axis=0)
    tags[:p.b] = cur
    return tags[p.rows]


def viterbi(model: CrfModel, enc: EncodedSentence) -> tuple[list[int], float]:
    """Best tag sequence and its score; ties go to the lower tag id.  The
    path is _decode_paths's on the one-sentence corpus, the way tag and
    train decode, and the score is sequence_score's of that path."""
    path = _decode_paths(model, _one(enc)).tolist()
    return path, sequence_score(model, enc, path)


def _chunks(model: CrfModel, encoded: EncodedCorpus) -> Iterator[_Packed]:
    """The chunks _decode_paths decodes: sentences longest first (ties in input
    order), DECODE_CHUNK at most per chunk and, unless one is longer,
    DECODE_CHUNK times the mean length, rounded up, in tokens.  A chunk takes as
    many Viterbi steps as its first sentence is long, and none holds much more
    than the tokens of DECODE_CHUNK sentences of mean length, so working memory
    stays flat however the lengths are spread."""
    order = np.argsort(-encoded.lengths, kind="stable")
    ends = _offsets(encoded.lengths[order])  # tokens before each sentence of order
    cap, lo = DECODE_CHUNK * -(-ends[-1] // max(len(order), 1)), 0
    while lo < len(order):
        hi = max(lo + 1, min(lo + DECODE_CHUNK, ends.searchsorted(ends[lo] + cap, "right") - 1))
        yield _Packed(model, encoded, order[lo:hi])
        lo = hi


def _decode_paths(model: CrfModel, encoded: EncodedCorpus) -> np.ndarray:
    """Every token's best tag id, aligned with encoded.tags: _best_paths, called from
    here alone, on the chunks of _chunks(model, encoded).  numpy's floating-point
    warnings are muted: an overflow shows as a best score that is not finite,
    which _best_paths rejects."""
    paths = np.empty(len(encoded.tags), np.intp)
    with np.errstate(all="ignore"):
        for p in _chunks(model, encoded):
            paths[p.tokens] = _best_paths(model, p)
            del p  # free a chunk before _chunks builds the next
    return paths


def decode(model: CrfModel, dataset: Dataset) -> Dataset:
    """Viterbi-tag every sentence: the dataset is encoded under model.index,
    and _decode_paths gives the tags column of the result."""
    paths = _decode_paths(model, encode_dataset(dataset, model.index)).tolist()
    return Dataset._from_columns(dataset.surfaces, map(model.tagset.tags.__getitem__, paths),
                                 dataset.offsets, dataset.ids)


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
    patience_ran_out: bool = False  # True when dev F1 stalled past `patience`, else every epoch ran


def train(train_set: Dataset, dev: Dataset, cfg: TrainConfig,
          index: FeatureIndex) -> tuple[CrfModel, TrainHistory]:
    """Fit a CRF by mini-batch AdaGrad with early stopping on dev entity F1.

    Both datasets are encoded under index, the training set first.  Weights
    start at zero.  After every epoch the dev set is decoded by _decode_paths,
    as tag decodes, to flat tag ids and scored against its gold ids by the
    span rule eval uses, with no tag strings built, so its F1 is the one eval
    reports for the decoded dev set.  When weighted F1 fails to improve by
    more than MIN_DELTA for more than `patience` consecutive epochs, training
    stops, and the history's patience_ran_out says so.  The returned model carries the weights of the best epoch (first
    occurrence on ties), and the whole procedure is reproducible bit for bit
    from the seed.  A batch loss that is not finite stops training with a
    ValueError naming the epoch and batch, and numpy's floating-point
    warnings are muted as it reports them.
    """
    if not len(train_set) or not len(dev):
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
        f1 = _class_scores(*_span_counts(dev_encoded.tags, _decode_paths(
            model, dev_encoded), dev_encoded.offsets, index.tagset.tags))[1]
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
    return model, TrainHistory(records, best_epoch, bad_epochs > cfg.patience)


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned UTF-8 text, each weight as its float's
    repr, which reads back bit for bit.  shortest.format_rows writes each
    block's rows: repr's shortest round-trip digits come from Schubfach in
    exact uint64 arithmetic, for a slice of weights at once, and the bytes
    are pinned against tests/helpers.model_text_reference, which calls repr
    row by row.  Nothing is opened before every row is formatted."""
    if not np.isfinite(model.weights).all():
        raise ValueError("refusing to save a model with non-finite weights")
    attributes = model.index.attributes()
    joined = "".join(attributes)  # load_model reads back none with a line break or a leading "["
    if "\n[" in "\n".join(["", *attributes]) or any(c in joined for c in _LINE_BREAKS):
        bad = next(a for a in attributes if a[:1] == "[" or any(c in a for c in _LINE_BREAKS))
        raise ValueError(f"refusing to save attribute {bad!r}: it would not load back")
    lines = ["\n".join([MODEL_HEADER, "[tags]", *model.tagset.tags,
                        "[attributes]", *attributes]).encode("utf-8")]
    for name in _SECTIONS[2:]:
        block = getattr(model, name)
        lines.append(f"[{name}]".encode("ascii"))
        if block.size:  # start and end, 1-D, are written one weight a line
            lines.append(format_rows(block.reshape(len(block), -1)))
    Path(path).write_bytes(b"\n".join([*lines, b""]))


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
    """Fill a weight block from its section, one block row per line.  Rows are
    read with np.loadtxt, which reads the same bits as Python's float."""
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
