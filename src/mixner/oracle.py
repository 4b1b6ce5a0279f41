"""Brute-force reference implementations used to verify the fast paths.

Everything here is deliberately naive: scores are recomputed term by term in
plain Python, the partition sum enumerates all K^T sequences, and gradients
come from central finite differences.  Slow, obvious, and independent of the
dynamic programs in crf.py.
"""

import itertools
import json
import math
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import crf
from .corpus import TagSet
from .crf import CrfModel, nll_and_gradient
from .features import EncodedCorpus, EncodedSentence, FeatureIndex

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
    """Node posteriors (T, K) and edge posteriors summed over positions
    (K, K), the expected count of each transition, as crf.marginals returns
    them: each sequence's probability is added to every node and every
    transition on it."""
    t_len, k = _check_size(inst)
    log_z = enumerate_logZ(inst)
    node = np.zeros((t_len, k))
    edge = np.zeros((k, k))
    for y in itertools.product(range(k), repeat=t_len):
        p = math.exp(naive_sequence_score(inst.model, inst.sentence, y) - log_z)
        for t, tag in enumerate(y):
            node[t, tag] += p
            if t > 0:
                edge[y[t - 1], tag] += p
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


def _trial_instances(trials: int, seed: int) -> Iterator[TinyInstance]:
    """run_verification's instances, one per trial.  Drawn in [-2, 2], the
    transitions spread by at most 4, far inside crf._MATMUL_SPREAD, and
    crf._scaled never divides its rows by their maxima on sentences of at
    most 6 tokens.  So two fourths of the trials are scaled.  Trials 3 mod 4
    are scaled by 200, 400 or 800 in turn: most spread past the bound, so
    the checks reach crf._log_space.  Trials 1 mod 4 whose transitions
    spread by at least 1, so that no weight grows past about 570, are scaled
    to spread 0.9 of the bound: they stay on crf._scaled, and its divisions
    run.  A scale is a function of the trial
    number and the drawn instance, so the random stream, and every other
    trial, is the same as with no scaling."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    scales = (200.0, 400.0, 800.0)
    for trial in range(trials):
        inst = random_instance(rng)
        spread = float(np.ptp(inst.model.transitions))
        if trial % 4 == 3:
            inst.model.weights *= scales[trial // 4 % len(scales)]
        elif trial % 4 == 1 and spread >= 1:
            inst.model.weights *= 0.9 * crf._MATMUL_SPREAD / spread
        yield inst


def run_verification(trials: int, seed: int) -> tuple[list[CheckResult], Counter]:
    """Compare the fast implementations against the oracles on random tiny
    instances, those of _trial_instances.  Returns one result per check
    (logZ, viterbi, marginals, gradient), keeping the first failing instance
    for reproduction, and how many trials' models take forward-backward's
    crf._scaled and how many crf._log_space, by crf._takes_scaled, the test
    that crf._forward_backward makes."""
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

    paths = Counter()
    l2_cycle = (0.0, 1e-4, 1e-2)
    for trial, inst in enumerate(_trial_instances(trials, seed)):
        model, enc = inst.model, inst.sentence
        paths["_scaled" if crf._takes_scaled(model) else "_log_space"] += 1
        try:  # every trial's log Z is finite, so an overflow is a failed check
            diff = abs(crf.log_partition(model, enc) - enumerate_logZ(inst))
        except ValueError:
            diff = math.inf
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

        ref_node, ref_edge = enumerate_marginals(inst)
        try:
            node, edge = crf.marginals(model, enc)
            diff = max(float(np.max(np.abs(node - ref_node))),
                       float(np.max(np.abs(edge - ref_edge))))
        except ValueError:
            diff = math.inf
        record("marginals", diff <= TOL, inst,
               f"trial {trial}: marginal differs by {diff:.3e}")

        l2 = l2_cycle[trial % len(l2_cycle)]
        batch = EncodedCorpus.from_sentences([enc])
        analytic = nll_and_gradient(model, batch, l2)[1]
        err = gradient_error(analytic, fd_gradient(model, batch, l2))
        record("gradient", err <= GRAD_TOL, inst,
               f"trial {trial}: gradient relative error {err:.3e} (l2={l2})")

    return list(results.values()), paths
