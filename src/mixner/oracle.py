"""Brute-force reference implementations used to verify the fast paths.

Everything here is deliberately naive: scores are recomputed term by term in
plain Python, the partition sum enumerates all K^T sequences, and gradients
come from central finite differences.  naive_train restates README's training
procedure with enumerated expected counts, a plain-Python AdaGrad and set-based
span F1.  Slow, obvious, and independent of the dynamic programs in crf.py.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, TagSet
from .crf import _ADAGRAD_EPS, MIN_DELTA, CrfModel, TrainConfig, nll_and_gradient
from .features import EncodedCorpus, EncodedSentence, FeatureIndex, encode_dataset

MAX_SEQUENCES = 4096
# The verification gates: agreement with enumeration (logZ, Viterbi score,
# marginals), agreement with finite differences, and the difference step.
TOL = 1e-9
GRAD_TOL = 1e-4
FD_STEP = 1e-5

# Valid tag inventories for 1..4 tags ("O" first, rest sorted, I- closed).
_TINY_TAGS = ("O", "B-X", "B-Y", "I-X")


@dataclass
class TinyInstance:
    """A model and a single encoded sentence, small enough to enumerate."""

    model: CrfModel
    sentence: EncodedSentence


def _check_size(inst: TinyInstance) -> tuple[int, int]:
    t_len = inst.sentence.length
    k = inst.model.num_tags
    if k ** t_len > MAX_SEQUENCES:
        raise ValueError(f"instance too large to enumerate: "
                         f"{k}^{t_len} > {MAX_SEQUENCES} sequences")
    return t_len, k


def naive_sequence_score(model: CrfModel, enc: EncodedSentence, tags) -> float:
    """Term-by-term recomputation of the sequence score, no vectorization."""
    score = float(model.start[tags[0]])
    for t, k in enumerate(tags):
        for a in enc.attr_ids[t]:
            score += float(model.emissions[a, k])
        if t > 0:
            score += float(model.transitions[tags[t - 1], k])
    score += float(model.end[tags[-1]])
    return score


def enumerate_logZ(inst: TinyInstance) -> float:
    """log of the exact sum of exp(score) over every tag sequence."""
    t_len, k = _check_size(inst)
    scores = [naive_sequence_score(inst.model, inst.sentence, y)
              for y in itertools.product(range(k), repeat=t_len)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def enumerate_best(inst: TinyInstance) -> tuple[list[int], float]:
    """Exact argmax sequence, breaking ties exactly like crf.viterbi.

    Backtracking from the end with first-maximum argmax returns the optimal
    sequence whose reversed tag tuple is smallest, so that is the key here.
    """
    t_len, k = _check_size(inst)
    best = None
    best_score = -math.inf
    for y in itertools.product(range(k), repeat=t_len):
        s = naive_sequence_score(inst.model, inst.sentence, y)
        if s > best_score or (s == best_score and y[::-1] < best[::-1]):
            best, best_score = y, s
    return list(best), best_score


def enumerate_marginals(inst: TinyInstance) -> tuple[np.ndarray, np.ndarray]:
    """Node and edge posteriors by summing probability over all sequences."""
    t_len, k = _check_size(inst)
    log_z = enumerate_logZ(inst)
    node = np.zeros((t_len, k))
    edge = np.zeros((t_len - 1, k, k))
    for y in itertools.product(range(k), repeat=t_len):
        p = math.exp(naive_sequence_score(inst.model, inst.sentence, y) - log_z)
        for t, tag in enumerate(y):
            node[t, tag] += p
            if t > 0:
                edge[t - 1, y[t - 1], tag] += p
    return node, edge


def fd_gradient(model: CrfModel, batch: EncodedCorpus, l2: float = 0.0,
                h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the regularized NLL, one coordinate of
    the weight vector at a time: (f(w + h) - f(w - h)) / (2h)."""
    w = model.weights
    out = np.empty_like(w)
    for j in range(w.size):
        orig = w[j]
        w[j] = orig + h
        f_plus = nll_and_gradient(model, batch, l2)[0]
        w[j] = orig - h
        f_minus = nll_and_gradient(model, batch, l2)[0]
        w[j] = orig
        out[j] = (f_plus - f_minus) / (2.0 * h)
    return out


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


def _spans(tags) -> set[tuple[int, int, str]]:
    """(first, last, class) of every entity: B-X opens one, and so does an
    I-X whose predecessor is not of class X; an I-X after an X tag extends it."""
    spans = []
    for i, tag in enumerate(tags):
        if tag == "O":
            continue
        if tag[:2] == "I-" and i > 0 and tags[i - 1] != "O" and tags[i - 1][2:] == tag[2:]:
            spans[-1] = (spans[-1][0], i, tag[2:])
        else:
            spans.append((i, i, tag[2:]))
    return set(spans)


def _weighted_f1(gold: list, pred: list) -> float:
    """Support-weighted span F1 over classes in sorted order, from sets of
    (sentence, first, last, class) keys; 0/0 counts as 0."""
    g = {(si, *sp) for si, tags in enumerate(gold) for sp in _spans(tags)}
    p = {(si, *sp) for si, tags in enumerate(pred) for sp in _spans(tags)}
    weighted, support = 0.0, 0
    for c in sorted({key[3] for key in g | p}):
        tp = sum(1 for key in p & g if key[3] == c)
        fp = sum(1 for key in p - g if key[3] == c)
        fn = sum(1 for key in g - p if key[3] == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        weighted += (2 * prec * rec / (prec + rec) if prec + rec else 0.0) * (tp + fn)
        support += tp + fn
    return weighted / support if support else 0.0


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
    enumerate_best; training stops once dev F1 has failed to beat the last
    reference by more than MIN_DELTA for more than cfg.patience epochs, and
    the first best epoch's weights are kept.
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
        pred = [[index.tagset.tags[t] for t in enumerate_best(TinyInstance(model, enc))[0]]
                for enc in dev_encoded]
        f1 = _weighted_f1([s.tags for s in dev.sentences], pred)
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


def random_instance(rng: random.Random, max_tags: int = 4) -> TinyInstance:
    """A seeded tiny instance: 1 to max_tags tags, a sentence of 1 to 6
    positions over 1 to 5 attributes (up to 3 per position), and weights
    uniform in [-2, 2]."""
    k = rng.randint(1, max_tags)
    t_len = rng.randint(1, 6)
    vocab = rng.randint(1, 5)
    index = FeatureIndex([f"a{j}" for j in range(vocab)], TagSet(_TINY_TAGS[:k]))
    # Drawn in weight-vector order: emissions, transitions, start, end.
    model = CrfModel(np.array([rng.uniform(-2.0, 2.0)
                               for _ in range((vocab + k + 2) * k)]), index)
    attr_ids = tuple(tuple(rng.sample(range(vocab), rng.randint(0, min(3, vocab))))
                     for _ in range(t_len))
    gold = tuple(rng.randrange(k) for _ in range(t_len))
    return TinyInstance(model, EncodedSentence(attr_ids, gold))


def serialize_instance(inst: TinyInstance) -> str:
    """JSON dump of a failing instance so it can be reproduced exactly."""
    return json.dumps({
        "tags": list(inst.model.tagset.tags),
        "attributes": inst.model.index.attributes(),
        "attr_ids": [list(ids) for ids in inst.sentence.attr_ids],
        "gold": list(inst.sentence.tag_ids),
        "emissions": inst.model.emissions.tolist(),
        "transitions": inst.model.transitions.tolist(),
        "start": inst.model.start.tolist(),
        "end": inst.model.end.tolist(),
    })


def gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Error between gradients: ||a - n|| / max(||a||, ||n||, 1).

    Relative for gradients of norm >= 1, absolute below.  The floor keeps
    near-zero gradients (single-tag instances have a constant loss) from
    turning float cancellation noise into a large ratio.
    """
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1.0)
    return float(np.linalg.norm(analytic - numeric)) / denom


@dataclass
class CheckResult:
    name: str
    passed: int
    failed: int
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_verification(trials: int, seed: int) -> list[CheckResult]:
    """Compare the fast implementations against the oracles on random tiny
    instances; returns one result per check (logZ, viterbi, marginals,
    gradient), keeping the first failing instance for reproduction."""
    from . import crf

    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    results = {name: CheckResult(name, 0, 0) for name in
               ("logZ", "viterbi", "marginals", "gradient")}

    def record(name: str, ok: bool, inst: TinyInstance, message: str):
        r = results[name]
        if ok:
            r.passed += 1
        else:
            r.failed += 1
            if r.detail is None:
                r.detail = f"{message}\ninstance: {serialize_instance(inst)}"

    rng = random.Random(seed)
    l2_cycle = (0.0, 1e-4, 1e-2)
    for trial in range(trials):
        inst = random_instance(rng)
        model, enc = inst.model, inst.sentence

        diff = abs(crf.log_partition(model, enc) - enumerate_logZ(inst))
        record("logZ", diff <= TOL, inst, f"trial {trial}: logZ differs by {diff:.3e}")

        path, score = crf.viterbi(model, enc)
        ref_path, ref_score = enumerate_best(inst)
        # Another path passes only if it rescores to within TOL of the best:
        # then two optima tie to within rounding, and summation order picks one.
        same = (path == ref_path
                or abs(naive_sequence_score(model, enc, path) - ref_score) <= TOL)
        ok = abs(score - ref_score) <= TOL and same
        record("viterbi", ok, inst,
               f"trial {trial}: viterbi {path} ({score!r}) vs {ref_path} ({ref_score!r})")

        node, edge = crf.marginals(model, enc)
        ref_node, ref_edge = enumerate_marginals(inst)
        diff = max(float(np.max(np.abs(node - ref_node))),
                   float(np.max(np.abs(edge - ref_edge))) if edge.size else 0.0)
        record("marginals", diff <= TOL, inst,
               f"trial {trial}: marginal differs by {diff:.3e}")

        l2 = l2_cycle[trial % len(l2_cycle)]
        batch = EncodedCorpus.from_sentences([enc])
        analytic = nll_and_gradient(model, batch, l2)[1]
        err = gradient_error(analytic, fd_gradient(model, batch, l2))
        record("gradient", err <= GRAD_TOL, inst,
               f"trial {trial}: gradient relative error {err:.3e} (l2={l2})")

    return list(results.values())
