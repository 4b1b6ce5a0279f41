import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (extract_entities, naive_nll_and_gradient, naive_train, spans_to_tags,
                     weighted_f1_reference)
from mixner.cli import main
from mixner.corpus import Dataset, Sentence, TagSet, induce_tagset, parse_conll, write_conll
import mixner.crf as crf_module
from mixner.crf import (CrfModel, TrainConfig, log_partition, marginals, nll_and_gradient,
                        train, viterbi)
from mixner.features import (EncodedCorpus, EncodedSentence, FeatureIndex, build_index,
                             encode_dataset)
from mixner.modelfile import load_model
from mixner.oracle import (TOL, TinyInstance, enumerate_best, enumerate_logZ,
                           enumerate_marginals, fd_gradient, gradient_error,
                           naive_sequence_score, random_instance, run_verification,
                           serialize_instance)


def zero_instance(tags, t_len, num_attrs=1):
    index = FeatureIndex([f"a{i}" for i in range(num_attrs)], TagSet(tuple(tags)))
    model = CrfModel.zeros(index)
    enc = EncodedSentence(tuple(() for _ in range(t_len)),
                          tuple(0 for _ in range(t_len)))
    return TinyInstance(model, enc)


class TestRandomInstance:
    def test_draws_are_pinned(self):
        # Weights are drawn in weight-vector order (emissions, transitions,
        # start, end); the digest pins that order so seeded trials stay put.
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(200):
            digest.update(serialize_instance(random_instance(rng)).encode())
        assert digest.hexdigest() == \
            "75828a3b2fdfb358ded4a462f274e70686980bd1ffabaf3b427e8a7ac134a75e"


class TestEnumeration:
    def test_logz_zero_weights(self):
        inst = zero_instance(["O", "B-X", "B-Y", "I-X"], 3)
        assert enumerate_logZ(inst) == pytest.approx(3 * math.log(4), abs=1e-12)

    def test_single_tag_logz_is_score(self):
        rng = random.Random(0)
        inst = random_instance(rng, max_tags=1)
        expected = naive_sequence_score(inst.model, inst.sentence,
                                        [0] * inst.sentence.length)
        assert enumerate_logZ(inst) == pytest.approx(expected, abs=1e-12)

    def test_best_zero_weights_all_ties_to_first(self):
        inst = zero_instance(["O", "B-X"], 3)
        path, score = enumerate_best(inst)
        assert path == [0, 0, 0] and score == 0.0

    def test_best_tie_break_matches_viterbi_rule(self):
        # Emission 2.0 on (a0, tag 1) at position 0 only; position 1 ties.
        inst = zero_instance(["O", "B-X"], 2, num_attrs=1)
        inst.model.emissions[0, 1] = 2.0
        inst = TinyInstance(inst.model,
                            EncodedSentence(((0,), ()), (0, 0)))
        path, score = enumerate_best(inst)
        assert path == [1, 0] and score == 2.0

    def test_oversized_instance_rejected(self):
        inst = zero_instance(["O", "B-X", "B-Y", "I-X"], 7)
        with pytest.raises(ValueError, match="too large"):
            enumerate_logZ(inst)

    def test_marginals_sum_to_one(self):
        inst = random_instance(random.Random(12))
        node, edge = enumerate_marginals(inst)
        assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)
        assert abs(edge.sum() - (len(node) - 1)) <= 1e-9


class TestAgainstFastPath:
    def test_logz_viterbi_marginals_agree(self):
        rng = random.Random(99)
        for _ in range(50):
            inst = random_instance(rng)
            assert abs(log_partition(inst.model, inst.sentence)
                       - enumerate_logZ(inst)) <= 1e-9
            path, score = viterbi(inst.model, inst.sentence)
            ref_path, ref_score = enumerate_best(inst)
            assert path == ref_path
            assert abs(score - ref_score) <= 1e-9
            node, edge = marginals(inst.model, inst.sentence)
            ref_node, ref_edge = enumerate_marginals(inst)
            assert np.max(np.abs(node - ref_node)) <= 1e-9
            assert np.max(np.abs(edge - ref_edge)) <= 1e-9


class TestGradient:
    @pytest.mark.parametrize("l2", [0.0, 1e-4, 1e-2])
    def test_fd_matches_analytic(self, l2):
        rng = random.Random(int(l2 * 1e6) + 1)
        for _ in range(7):
            inst = random_instance(rng)
            batch = EncodedCorpus.from_sentences([inst.sentence])
            analytic = nll_and_gradient(inst.model, batch, l2)[1]
            numeric = fd_gradient(inst.model, batch, l2)
            assert gradient_error(analytic, numeric) <= 1e-4

    def test_emission_gradient_is_l2_only_without_features(self):
        rng = random.Random(8)
        inst = random_instance(rng, max_tags=3)
        featureless = EncodedSentence(
            tuple(() for _ in range(inst.sentence.length)), inst.sentence.tag_ids)
        l2 = 0.3
        _, grad = nll_and_gradient(inst.model, EncodedCorpus.from_sentences([featureless]), l2)
        assert np.array_equal(CrfModel(grad, inst.model.index).emissions,
                              l2 * inst.model.emissions)

    def test_error_shrinks_quadratically_in_h(self):
        inst = random_instance(random.Random(1))  # T=5, K=2: non-degenerate
        batch = EncodedCorpus.from_sentences([inst.sentence])
        analytic = nll_and_gradient(inst.model, batch, 1e-2)[1]
        e_big = gradient_error(analytic, fd_gradient(inst.model, batch, 1e-2, h=1e-3))
        e_small = gradient_error(analytic, fd_gradient(inst.model, batch, 1e-2, h=5e-4))
        assert e_big / e_small == pytest.approx(4.0, rel=0.3)

    def test_perturbation_leaves_weights_untouched(self):
        inst = random_instance(random.Random(2))
        before = inst.model.weights.copy()
        fd_gradient(inst.model, EncodedCorpus.from_sentences([inst.sentence]), 1e-4)
        assert np.array_equal(before, inst.model.weights)


class TestDriver:
    def test_all_checks_pass(self):
        results, _ = run_verification(trials=25, seed=5)
        assert [r.name for r in results] == ["logZ", "viterbi", "marginals",
                                             "gradient"]
        assert all(r.ok and r.passed == 25 for r in results)

    def test_checks_reach_both_paths_and_tally_them(self, monkeypatch):
        """In one 300-trial run, every check passes on both forward-backward
        paths, and the returned tally counts, per trial, the path that
        crf.log_partition on that trial's model runs."""
        calls, taken = Counter(), []
        for name in ("_scaled", "_log_space"):
            def counting(*args, _real=getattr(crf_module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(crf_module, name, counting)

        def recording(*args, _real=log_partition):
            before = calls.copy()
            result = _real(*args)
            taken.extend((calls - before).elements())
            return result

        monkeypatch.setattr(crf_module, "log_partition", recording)
        results, paths = run_verification(300, 7)
        assert all(r.ok and r.passed == 300 for r in results)
        assert calls["_scaled"] > 0 and calls["_log_space"] > 0
        assert paths == Counter(taken)
        assert len(taken) == 300 and set(taken) == {"_scaled", "_log_space"}

    def test_failure_carries_instance(self, monkeypatch):
        # run_verification reads log_partition off the crf module, so a fault
        # injected there must be caught and reported with the instance.
        import mixner.crf as crf_module
        real = log_partition
        monkeypatch.setattr(crf_module, "log_partition",
                            lambda m, e: real(m, e) + 1e-6)
        results, _ = run_verification(trials=3, seed=5)
        logz = next(r for r in results if r.name == "logZ")
        assert not logz.ok
        assert "instance" in logz.detail

    def test_wrong_path_fails_even_among_ties(self, monkeypatch):
        # Accepting any near-tied optimum must not accept a suboptimal path.
        import mixner.crf as crf_module
        real = viterbi
        monkeypatch.setattr(crf_module, "viterbi",
                            lambda m, e: ([0] * e.length, real(m, e)[1]))
        results, _ = run_verification(trials=20, seed=1000115)
        check = next(r for r in results if r.name == "viterbi")
        assert check.failed > 0 and "instance" in check.detail


def test_verify_checks_the_decode_layout(monkeypatch):
    """verify's checks run the layout that tag and train pack every batch
    in: a fault planted in crf._ranges, through which _Packed gathers every
    batch's tokens and attributes, here reversing each run index, fails the
    logZ, viterbi and marginals checks.  The gradient check cannot catch it:
    its finite differences run the same packed loss as the gradient."""
    import mixner.features as features_module

    def reversed_runs(starts, counts):
        index, offsets = features_module._ranges(starts, counts)
        return index[::-1], offsets

    monkeypatch.setattr(crf_module, "_ranges", reversed_runs)
    results = {r.name: r for r in run_verification(20, 7)[0]}
    for name in ("logZ", "viterbi", "marginals"):
        assert results[name].failed > 0 and "instance" in results[name].detail, name


@st.composite
def tiny_training_runs(draw):
    """A training set of 1..6 sentences of 1..5 tokens over 2..4 tags, a dev
    set of 1..4 such sentences (with one word unseen in training), a short
    configuration whose patience can run out, and a MIN_DELTA, drawn because
    F1 on so few spans moves in steps far above the default 1e-4."""
    def sentences(tags, words, most):
        token = st.tuples(st.sampled_from(words), st.sampled_from(tags))
        rows = draw(st.lists(st.lists(token, min_size=1, max_size=5), min_size=1, max_size=most))
        return Dataset(tuple(Sentence(*zip(*row)) for row in rows))

    train_ds = sentences(("O", "B-X", "I-X", "B-Y")[:draw(st.integers(2, 4))], "abcd", 6)
    tags = induce_tagset(train_ds).tags
    assume(len(tags) >= 2)
    cfg = TrainConfig(epochs=draw(st.integers(1, 4)), batch_size=draw(st.integers(1, 6)),
                      patience=draw(st.integers(0, 1)),
                      learning_rate=draw(st.sampled_from([0.1, 0.5])),
                      l2=draw(st.sampled_from([0.0, 1e-4, 1e-2])), seed=draw(st.integers(0, 999)))
    return train_ds, sentences(tags, "abcde", 4), cfg, draw(st.sampled_from([1e-4, 0.3, 0.6]))


def near_tied(weights, index, dev) -> bool:
    """Whether some dev sentence has two tag paths whose scores under the
    weights lie within the oracle gate of each other."""
    model = CrfModel(weights, index)
    for enc in encode_dataset(dev, index):
        scores = sorted(naive_sequence_score(model, enc, y) for y in
                        itertools.product(range(model.num_tags), repeat=enc.length))
        if len(scores) > 1 and scores[-1] - scores[-2] <= TOL * max(1.0, abs(scores[-1])):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(tiny_training_runs())
def test_train_matches_naive_reference(run):
    """crf.train against the reference trainer, both fed the enumerated
    batch gradient: every epoch's loss and the kept weights within the gate,
    relative to max(1, |value|), and the same dev F1 and best epoch.  Dev F1
    may differ only at an epoch where a dev sentence has near-tied paths,
    which verify also accepts; the weights do not depend on dev F1, so they
    are still compared.

    Both take the same gradient because AdaGrad's step g / (sqrt(accum) +
    1e-8) has slope up to 1e8 in g: on a weight whose exact gradient is 0,
    rounding noise of 1e-16 becomes a step of 1e-9, and later steps amplify
    it, so two exact gradient codes give weights that differ far beyond any
    rounding gate (up to 0.9 after four epochs on corpora like these).  The batch gradient itself is checked against enumeration
    and finite differences elsewhere."""
    train_ds, dev_ds, cfg, min_delta = run
    index = build_index(train_ds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helpers, "MIN_DELTA", min_delta)
        patch.setattr(crf_module, "MIN_DELTA", min_delta)
        ref = naive_train(train_ds, dev_ds, cfg, index)
        patch.setattr(crf_module, "nll_and_gradient", naive_nll_and_gradient)
        model, history = train(train_ds, dev_ds, cfg, index)

    for r, nll in zip(history.records, ref.train_nll):
        assert abs(r.train_nll - nll) <= TOL * max(1.0, abs(nll))
    f1 = [r.dev_f1 for r in history.records]
    split = next((e for e, pair in enumerate(zip(f1, ref.dev_f1)) if pair[0] != pair[1]), None)
    if split is None:
        assert f1 == ref.dev_f1
        assert history.best_epoch == ref.best_epoch
        expected = ref.weights
    else:
        assert near_tied(ref.epoch_weights[split], index, dev_ds)
        if history.best_epoch > len(ref.epoch_weights):
            return
        expected = ref.epoch_weights[history.best_epoch - 1]
    assert np.all(np.abs(model.weights - expected) <= TOL * np.maximum(1.0, np.abs(expected)))



def canonical(ds: Dataset) -> Dataset:
    """The dataset with every span opened by B-X, as the reference for what
    validate_iob gives train: the spans of extract_entities written back."""
    return Dataset(Sentence(s.surfaces, spans_to_tags(extract_entities(s.tags), len(s)), s.id)
                   for s in ds)


@st.composite
def tiny_pipelines(draw):
    """A primary corpus of 1..3 sentences, an auxiliary one of 0..3 and a dev
    set of 1..3, whose words include one never seen in training: sentences of
    1..4 tokens over at most 3 tags, stray I-X included.  Then a mix seed and
    a training configuration of 1 or 2 epochs."""
    def corpus(words, tags, least):
        token = st.tuples(st.sampled_from(words), st.sampled_from(tags))
        rows = draw(st.lists(st.lists(token, min_size=1, max_size=4),
                             min_size=least, max_size=3))
        return Dataset(Sentence(*zip(*row)) for row in rows)

    tags = draw(st.sampled_from([("O", "B-X", "I-X"), ("O", "B-X", "B-Y")]))
    primary, aux = corpus("abc", tags, 1), corpus("abc", tags, 0)
    known = induce_tagset(canonical(helpers.mix_reference(primary, [aux]))).tags
    cfg = TrainConfig(epochs=draw(st.integers(1, 2)), batch_size=draw(st.integers(1, 6)),
                      seed=draw(st.integers(0, 999)))
    return primary, aux, corpus("abcd", known, 1), draw(st.integers(0, 999)), cfg


@settings(max_examples=100, deadline=None)
@given(tiny_pipelines())
def test_pipeline_matches_reference_chain(run):
    """mix --shuffle, train, tag and eval --format json through cli.main
    against the reference chain: helpers.mix_reference, naive_train,
    enumerate_best per dev sentence and weighted_f1_reference.  Both trainers
    take the enumerated batch gradient, for the reason
    test_train_matches_naive_reference gives.

    The mixed file is the reference's, byte for byte, and so are the
    history's losses and dev F1, except that dev F1 may differ from the
    first epoch at which a dev sentence has near-tied paths.  The model holds the
    reference's weights at the best epoch train reports.  Each tagged
    sentence has the reference's path, or one that rescores to within TOL of
    it, as verify accepts; and eval's F1 is the reference's over those
    paths."""
    primary, aux, dev, mix_seed, cfg = run
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()) as stdout:
        d = Path(tmp)
        for name, ds in (("primary", primary), ("aux", aux), ("dev", dev)):
            (d / f"{name}.conll").write_text(write_conll(ds), encoding="utf-8")
        patch.setattr(crf_module, "nll_and_gradient", naive_nll_and_gradient)
        for argv in (["mix", "--primary", d / "primary.conll", "--aux", d / "aux.conll",
                      "--shuffle", "--seed", mix_seed, "-o", d / "mixed.conll"],
                     ["train", "--train", d / "mixed.conll", "--dev", d / "dev.conll",
                      "--epochs", cfg.epochs, "--batch", cfg.batch_size, "--seed", cfg.seed,
                      "-o", d / "model.txt"],
                     ["tag", "--model", d / "model.txt", "--input", d / "dev.conll",
                      "-o", d / "pred.conll"],
                     ["eval", "--gold", d / "dev.conll", "--pred", d / "pred.conll",
                      "--format", "json", "--report", d / "report.json"]):
            assert main([str(a) for a in argv]) == 0
        out = {name: (d / name).read_text(encoding="utf-8") for name in
               ("mixed.conll", "model.txt.history.tsv", "pred.conll", "report.json")}
        weights = load_model(d / "model.txt").weights
    best = int(re.search(r"^best epoch (\d+)", stdout.getvalue(), re.M).group(1))

    mixed = helpers.mix_reference(primary, [aux], mix_seed, shuffle=True)
    assert out["mixed.conll"] == write_conll(mixed)
    train_ds, dev_ds = canonical(mixed), canonical(dev)
    index = build_index(train_ds)
    ref = naive_train(train_ds, dev_ds, cfg, index)
    rows = [row.split("\t")[1:3] for row in out["model.txt.history.tsv"].splitlines()[1:]]
    assert [nll for nll, _ in rows] == [f"{nll:.6f}" for nll in ref.train_nll]
    split = next((e for e, ((_, f1), ref_f1) in enumerate(zip(rows, ref.dev_f1))
                  if f1 != f"{ref_f1:.6f}"), None)
    if split is None:
        assert best == ref.best_epoch
    else:
        assert near_tied(ref.epoch_weights[split], index, dev_ds)
    expected = ref.epoch_weights[best - 1]
    assert np.all(np.abs(weights - expected) <= TOL * np.maximum(1.0, np.abs(expected)))

    model, names = CrfModel(expected, index), index.tagset.tags
    tagged = []
    for s, p, enc in zip(dev.sentences, parse_conll(out["pred.conll"]).sentences,
                         encode_dataset(dev_ds, index)):
        path, score = enumerate_best(TinyInstance(model, enc))
        given_path = [names.index(t) for t in p.tags]
        if given_path != path:  # near-tied: verify accepts either
            assert abs(naive_sequence_score(model, enc, given_path) - score) <= TOL
            path = given_path
        tagged.append(Sentence(s.surfaces, [names[k] for k in path], s.id))
    assert out["pred.conll"] == write_conll(Dataset(tagged))
    assert json.loads(out["report.json"])["weighted_f1"] == weighted_f1_reference(
        dev, Dataset(tagged))
