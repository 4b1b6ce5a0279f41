import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_separable_corpus, stray_inside
from mixner.corpus import Dataset, Sentence, TagSet, induce_tagset, write_conll
import mixner.crf as crf_module
import mixner.eval as eval_module
from mixner.crf import (MIN_DELTA, CrfModel, TrainConfig, decode, load_model,
                        log_partition, marginals, nll_and_gradient, save_model,
                        sequence_score, train, viterbi)
from mixner.eval import score_entities
from mixner.features import (EncodedCorpus, EncodedSentence, FeatureIndex, build_index,
                             encode_dataset)
from mixner.oracle import (TOL, TinyInstance, enumerate_best, enumerate_logZ,
                           enumerate_marginals, naive_nll_and_gradient, naive_sequence_score,
                           random_instance)

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_model(tags, num_attrs):
    index = FeatureIndex([f"a{i}" for i in range(num_attrs)], TagSet(tuple(tags)))
    return CrfModel.zeros(index)


def views(model, vector):
    """The four blocks of a vector laid out like the model's weights."""
    v = CrfModel(vector, model.index)
    return v.emissions, v.transitions, v.start, v.end


def enc(attr_ids, tag_ids):
    return EncodedSentence(tuple(tuple(ids) for ids in attr_ids), tuple(tag_ids))


def pack(*sentences):
    return EncodedCorpus.from_sentences(sentences)


def best_paths(model, corpus):
    """crf._best_paths cut into one (path, score) pair per sentence."""
    tags, scores = crf_module._best_paths(model, corpus)
    return list(zip((p.tolist() for p in np.split(tags, corpus.offsets[1:-1])),
                    scores.tolist()))


class TestWeightVector:
    def test_blocks_are_views_in_layout_order(self):
        m = tiny_model(["O", "B-X", "I-X"], 2)
        assert m.weights.shape == ((2 + 3 + 2) * 3,)
        m.weights[:] = np.arange(m.weights.size)
        assert m.emissions.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert m.transitions.tolist() == [[6, 7, 8], [9, 10, 11], [12, 13, 14]]
        assert m.start.tolist() == [15, 16, 17] and m.end.tolist() == [18, 19, 20]
        m.end[2] = -1.0
        assert m.weights[-1] == -1.0

    def test_tagset_is_the_index_tagset(self):
        m = tiny_model(["O", "B-X"], 1)
        assert m.tagset is m.index.tagset and m.num_tags == 2

    def test_wrong_size_rejected(self):
        m = tiny_model(["O", "B-X"], 2)
        with pytest.raises(ValueError, match="do not match"):
            CrfModel(np.zeros(m.weights.size - 1), m.index)

    def test_gradient_has_the_weight_layout(self):
        m = tiny_model(["O", "B-X"], 2)
        _, grad = nll_and_gradient(m, pack(enc([(0,), (1,)], [0, 1])))
        assert grad.shape == m.weights.shape
        emissions, transitions, start, end = views(m, grad)
        # Zero weights: every tag has probability 1/2 at both positions.
        assert emissions.tolist() == [[-0.5, 0.5], [0.5, -0.5]]
        assert transitions.tolist() == [[0.25, -0.75], [0.25, 0.25]]
        assert start.tolist() == [-0.5, 0.5] and end.tolist() == [0.5, -0.5]


class TestSequenceScore:
    def test_zero_weights_score_zero(self):
        m = tiny_model(["O", "B-X"], 2)
        assert sequence_score(m, enc([(0,), (1,)], [0, 1]), [1, 0]) == 0.0

    def test_single_position_sum(self):
        m = tiny_model(["O"], 1)
        m.start[0], m.emissions[0, 0], m.end[0] = 0.5, 2.0, 0.25
        assert sequence_score(m, enc([(0,)], [0]), [0]) == pytest.approx(2.75)

    def test_matches_naive_recomputation(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng)
            y = [rng.randrange(inst.model.num_tags) for _ in range(inst.sentence.length)]
            fast = sequence_score(inst.model, inst.sentence, y)
            naive = naive_sequence_score(inst.model, inst.sentence, y)
            assert fast == pytest.approx(naive, abs=1e-9)

    def test_length_mismatch(self):
        m = tiny_model(["O"], 1)
        with pytest.raises(ValueError):
            sequence_score(m, enc([(0,)], [0]), [0, 0])


class TestLogPartition:
    def test_zero_weights(self):
        m = tiny_model(["O", "B-X", "B-Y", "I-X"], 1)
        value = log_partition(m, enc([(), (), ()], [0, 0, 0]))
        assert value == pytest.approx(3 * math.log(4), abs=1e-12)

    def test_single_tag_equals_score(self):
        rng = random.Random(3)
        m = tiny_model(["O"], 2)
        m.emissions[:] = [[rng.uniform(-2, 2)], [rng.uniform(-2, 2)]]
        m.start[0], m.end[0] = rng.uniform(-2, 2), rng.uniform(-2, 2)
        e = enc([(0, 1), (0,)], [0, 0])
        assert log_partition(m, e) == pytest.approx(
            sequence_score(m, e, [0, 0]), abs=1e-12)

    def test_upper_bounds_every_sequence(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng)
            log_z = log_partition(inst.model, inst.sentence)
            y = [rng.randrange(inst.model.num_tags)
                 for _ in range(inst.sentence.length)]
            assert sequence_score(inst.model, inst.sentence, y) <= log_z + 1e-9


class TestMarginals:
    def test_uniform_at_zero_weights(self):
        m = tiny_model(["O", "B-X", "I-X"], 1)
        node, edge = marginals(m, enc([(), ()], [0, 0]))
        assert np.allclose(node, 1 / 3, atol=1e-12)
        assert np.allclose(edge, 1 / 9, atol=1e-12)

    def test_rows_normalized_and_consistent(self):
        rng = random.Random(17)
        for _ in range(10):
            inst = random_instance(rng)
            node, edge = marginals(inst.model, inst.sentence)
            assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)
            for t in range(edge.shape[0]):
                assert abs(edge[t].sum() - 1.0) <= 1e-9
                # edge marginals must marginalize back to the node rows
                assert np.allclose(edge[t].sum(axis=1), node[t], atol=1e-9)
                assert np.allclose(edge[t].sum(axis=0), node[t + 1], atol=1e-9)

    def test_single_position_shapes(self):
        m = tiny_model(["O", "B-X"], 1)
        node, edge = marginals(m, enc([(0,)], [0]))
        assert node.shape == (1, 2) and edge.shape == (0, 2, 2)


class TestNll:
    def test_zero_weight_loss_is_t_log_k(self):
        m = tiny_model(["O", "B-X", "B-Y", "I-X"], 1)
        loss, _ = nll_and_gradient(m, pack(enc([(0,), (0,)], [0, 1])), l2=0.0)
        assert loss == pytest.approx(2 * math.log(4), abs=1e-12)

    def test_l2_inert_at_zero_weights(self):
        m = tiny_model(["O", "B-X"], 2)
        batch = pack(enc([(0,), (1,)], [0, 1]))
        loss0, g0 = nll_and_gradient(m, batch, l2=0.0)
        loss1, g1 = nll_and_gradient(m, batch, l2=0.5)
        assert loss0 == loss1
        assert np.array_equal(g0, g1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nll_and_gradient(tiny_model(["O"], 1), pack(), 0.0)


class TestViterbi:
    def test_zero_weights_all_first_tag(self):
        m = tiny_model(["O", "B-X", "I-X"], 1)
        path, score = viterbi(m, enc([(), (), (), ()], [0, 0, 0, 0]))
        assert path == [0, 0, 0, 0] and score == 0.0

    def test_tie_breaks_toward_lower_id(self):
        # Only "dig" as B-CW scores; the second position ties and takes O.
        ds = Dataset((Sentence(("dig", "me"), ("B-CW", "O")),))
        index = build_index(ds)
        assert index.tagset == TagSet(("O", "B-CW"))
        m = CrfModel.zeros(index)
        m.emissions[index.attribute_to_id["w0=dig"], index.tag_to_id["B-CW"]] = 2.0
        path, score = viterbi(m, encode_dataset(ds, index)[0])
        assert path == [1, 0]
        assert score == 2.0

    def test_score_matches_rescoring_exactly(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng)
            path, score = viterbi(inst.model, inst.sentence)
            assert score == sequence_score(inst.model, inst.sentence, path)


class TestIdRange:
    """Ids outside the model are rejected where the corpus meets it, with
    the sentence named, instead of -1 reading as the last attribute or tag."""

    def model(self):
        m = tiny_model(["O", "B-X", "I-X"], 2)
        m.weights[...] = np.random.default_rng(0).uniform(-1, 1, m.weights.size)
        return m

    @pytest.mark.parametrize("attr", [-1, 2])
    def test_attribute_out_of_range(self, attr):
        m, e = self.model(), enc([(0,), (1, attr)], [0, 1])
        message = f"sentence 0, position 1: attribute id {attr} is out of range for 2 attributes"
        for call in (lambda: viterbi(m, e), lambda: log_partition(m, e),
                     lambda: marginals(m, e), lambda: sequence_score(m, e, [0, 1]),
                     lambda: nll_and_gradient(m, pack(e))):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("tag", [-1, 3])
    def test_gold_tag_out_of_range(self, tag):
        m = self.model()
        batch = pack(enc([(0,)], [0]), enc([(0,), (1,), ()], [0, 2, tag]))
        message = f"sentence 1, position 2: tag id {tag} is out of range for 3 tags"
        for call in (lambda: nll_and_gradient(m, batch),
                     lambda: crf_module._best_paths(m, batch),
                     lambda: crf_module._decode_paths(m, batch)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("tag", [-1, 3])
    def test_scored_tag_out_of_range(self, tag):
        m = self.model()
        with pytest.raises(ValueError, match=re.escape(
                f"position 1: tag id {tag} is out of range for 3 tags")):
            sequence_score(m, enc([(0,), (1,)], [0, 1]), [0, tag])


def test_encoded_views_read_by_benchmark(monkeypatch):
    """The benchmark's tracer and tag-eval check read enc.attr_ids, enc.length
    and enc.tag_ids off every element of encode_dataset's result and of the
    batches train passes to nll_and_gradient, and call
    sequence_score(model, pe, pe.tag_ids) on such an element."""
    train_ds = make_separable_corpus(40, 1)
    index = build_index(train_ds)
    encoded = encode_dataset(train_ds, index)
    listed = list(encoded)
    assert len(listed) == len(encoded) == len(train_ds)
    for s, e in zip(train_ds.sentences, listed):
        assert isinstance(e, EncodedSentence)
        assert e.length == len(e.tag_ids) == len(e.attr_ids) == len(s)
        assert e.tag_ids == tuple(index.tag_to_id[t] for t in s.tags)
        assert all(len(ids) == 4 for ids in e.attr_ids)
    assert encoded[3] == listed[3] and encoded[-1] == listed[-1]

    tokens, real = [], crf_module.nll_and_gradient

    def counting(model, batch, *args):
        tokens.append(sum(e.length for e in batch))
        return real(model, batch, *args)

    monkeypatch.setattr(crf_module, "nll_and_gradient", counting)
    model, history = train(train_ds, train_ds, TrainConfig(epochs=2, batch_size=16), index)
    assert sum(tokens) == 2 * sum(map(len, train_ds.sentences))
    for e in encoded:
        assert sequence_score(model, e, e.tag_ids) == pytest.approx(
            naive_sequence_score(model, e, e.tag_ids), abs=1e-9)


class TestPersistence:
    def trained_like_model(self):
        rng = np.random.default_rng(9)
        m = tiny_model(["O", "B-CW", "I-CW"], 5)
        m.emissions[:] = rng.uniform(-2, 2, m.emissions.shape)
        m.transitions[:] = rng.uniform(-2, 2, m.transitions.shape)
        m.start[:] = rng.uniform(-2, 2, m.start.shape)
        m.end[:] = rng.uniform(-2, 2, m.end.shape)
        return m

    def test_round_trip_bit_exact(self, tmp_path):
        m = self.trained_like_model()
        path = tmp_path / "model.txt"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.tagset == m.tagset
        assert loaded.index.attribute_to_id == m.index.attribute_to_id
        assert np.array_equal(m.weights, loaded.weights)

    def test_second_save_byte_identical(self, tmp_path):
        m = self.trained_like_model()
        one, two = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m, one)
        save_model(load_model(one), two)
        assert one.read_bytes() == two.read_bytes()

    def test_fresh_zero_model_round_trip(self, tmp_path):
        m = tiny_model(["O", "B-X"], 3)
        one, two = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m, one)
        save_model(load_model(one), two)
        assert one.read_bytes() == two.read_bytes()

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        text = path.read_text().replace("MIXNER-CRF v1", "MIXNER-CRF v9", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="unsupported version"):
            load_model(path)

    def test_truncated_file_names_section(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        lines = path.read_text().splitlines()
        cut = lines.index("[transitions]")
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError, match="transitions"):
            load_model(path)

    def test_duplicate_attribute_rejected_on_load(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        lines = path.read_text().splitlines()
        first = lines.index("[attributes]") + 1
        lines[first + 1] = lines[first]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate attribute"):
            load_model(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section", ["start", "transitions", "emissions"])
    def test_non_finite_weight_rejected_on_load(self, tmp_path, bad, section):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        lines = path.read_text().splitlines()
        row = lines.index(f"[{section}]") + 1
        lines[row] = " ".join([bad] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"non-finite weight in \\[{section}\\]"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: "", "bad row width"),  # np.loadtxt alone would skip it
        (lambda row: "   ", "bad row width"),
        (lambda row: row + " 0.5", "bad row width"),
        (lambda row: " ".join(row.split()[1:]), "bad row width"),
        (lambda row: " ".join(["abc"] + row.split()[1:]), "malformed number"),
        (lambda row: " ".join(["1_0"] + row.split()[1:]), "malformed number"),
        (lambda row: " ".join(["#"] + row.split()[1:]), "malformed number"),
    ])
    @pytest.mark.parametrize("section", ["start", "transitions", "emissions"])
    def test_damaged_weight_row_names_section(self, tmp_path, section, edit, message):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        lines = path.read_text().splitlines()
        row = lines.index(f"[{section}]") + 2
        lines[row] = edit(lines[row])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{message} in \\[{section}\\]"):
            load_model(path)

    @pytest.mark.parametrize("section", ["attributes", "start", "end", "transitions",
                                         "emissions"])
    def test_missing_section_header_named(self, tmp_path, section):
        path = tmp_path / "model.txt"
        save_model(self.trained_like_model(), path)
        lines = path.read_text().splitlines()
        lines.remove(f"[{section}]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"expected [{section}]")):
            load_model(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_not_saved(self, tmp_path, bad):
        m = self.trained_like_model()
        m.end[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            save_model(m, tmp_path / "model.txt")
        assert not (tmp_path / "model.txt").exists()

    def test_decoding_survives_round_trip(self, tmp_path):
        m = self.trained_like_model()
        e = enc([(0, 1), (2,), (3, 4)], [0, 1, 2])
        save_model(m, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        assert viterbi(m, e) == viterbi(loaded, e)
        assert log_partition(m, e) == log_partition(loaded, e)


def with_stray_inside(ds):
    """A copy where every B-X that opens a span after O or at the sentence
    start is written I-X: a stray I-X, left unrepaired."""
    def retag(tags, i):
        stray = tags[i][:2] == "B-" and (i == 0 or tags[i - 1] == "O")
        return "I-" + tags[i][2:] if stray else tags[i]

    return Dataset(tuple(Sentence(s.surfaces, tuple(retag(s.tags, i) for i in range(len(s))))
                         for s in ds.sentences))


class TestTrain:
    def fit(self, cfg, n_train=300, n_dev=60, train_seed=31, dev_seed=32, stray=False):
        train_ds = make_separable_corpus(n_train, train_seed)
        dev_ds = make_separable_corpus(n_dev, dev_seed)
        if stray:
            dev_ds = with_stray_inside(dev_ds)
        index = build_index(train_ds)
        model, history = train(train_ds, dev_ds, cfg, index)
        return model, history, dev_ds, index, index.tagset

    def test_learns_separable_data(self):
        cfg = TrainConfig(epochs=12, batch_size=16, seed=1)
        model, history, dev_ds, index, tagset = self.fit(cfg)
        assert history.records[history.best_epoch - 1].dev_f1 > 0.8
        assert history.best_epoch == max(
            range(len(history.records)),
            key=lambda i: history.records[i].dev_f1) + 1

    def test_returned_weights_are_best_epoch(self):
        """The best epoch's dev F1 is score_entities of the returned model's
        Viterbi paths, also on a dev set with stray I-X gold tags."""
        cfg = TrainConfig(epochs=10, batch_size=16, seed=2)
        for stray in (False, True):
            model, history, dev_ds, index, tagset = self.fit(cfg, stray=stray)
            assert stray == any(stray_inside(s.tags) for s in dev_ds.sentences)
            pred = []
            for s, e in zip(dev_ds.sentences, encode_dataset(dev_ds, index)):
                path, _ = viterbi(model, e)
                pred.append(Sentence(s.surfaces, tuple(tagset.tags[k] for k in path)))
            f1 = score_entities(dev_ds, Dataset(tuple(pred))).weighted_f1
            assert f1 == history.records[history.best_epoch - 1].dev_f1

    def test_dev_scoring_builds_no_dataset(self, monkeypatch):
        """train scores dev from decoded tag ids: with the public decode and
        score_entities made to raise, its history is unchanged."""
        cfg = TrainConfig(epochs=4, batch_size=16, seed=5)
        _, expected, *_ = self.fit(cfg, stray=True)

        def forbidden(*args, **kwargs):
            raise AssertionError("train must not rebuild the dev set")

        for module in (crf_module, eval_module):
            for name in ("decode", "score_entities"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        _, history, *_ = self.fit(cfg, stray=True)
        assert [(r.epoch, r.train_nll, r.dev_f1) for r in history.records] == \
               [(r.epoch, r.train_nll, r.dev_f1) for r in expected.records]
        assert history.best_epoch == expected.best_epoch

    def test_patience_zero_stops_at_first_plateau(self):
        cfg = TrainConfig(epochs=40, batch_size=16, patience=0, seed=3)
        _, history, *_ = self.fit(cfg)
        assert len(history.records) < 40
        ref = -1.0
        for r in history.records[:-1]:
            assert r.dev_f1 > ref + MIN_DELTA
            ref = r.dev_f1
        assert history.records[-1].dev_f1 <= ref + MIN_DELTA

    def test_deterministic_given_seed(self, tmp_path):
        cfg = TrainConfig(epochs=5, batch_size=16, seed=4)
        model_a, hist_a, *_ = self.fit(cfg)
        model_b, hist_b, *_ = self.fit(cfg)
        save_model(model_a, tmp_path / "a.txt")
        save_model(model_b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert [(r.epoch, r.train_nll, r.dev_f1) for r in hist_a.records] == \
               [(r.epoch, r.train_nll, r.dev_f1) for r in hist_b.records]

    def test_empty_train_rejected(self):
        ds = make_separable_corpus(5, 1)
        with pytest.raises(ValueError, match="empty"):
            train(Dataset(), ds, TrainConfig(epochs=1), build_index(ds))

    def test_dev_outside_tagset_rejected(self):
        ds = make_separable_corpus(5, 1)
        alien = Dataset((Sentence(("x",), ("B-UNSEEN",)),))
        with pytest.raises(ValueError,
                           match="^dev sentence 0, position 0: tag 'B-UNSEEN' "):
            train(ds, alien, TrainConfig(epochs=1), build_index(ds))

    def test_empty_dev_rejected(self):
        ds = make_separable_corpus(5, 1)
        with pytest.raises(ValueError, match="empty"):
            train(ds, Dataset(), TrainConfig(epochs=1), build_index(ds))

    def test_non_finite_loss_stops_training(self):
        # A finite but absurd step size overflows the scores in epoch 1.
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e300)
        with pytest.raises(ValueError, match=r"epoch 1, batch \d+: training loss is"):
            self.fit(cfg, n_train=40, n_dev=10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=-1)

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("l2", -1.0), ("l2", math.nan), ("l2", math.inf)])
    def test_config_rejects_bad_number(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite") + ".*"
                           + re.escape(f"got {value!r}")):
            TrainConfig(**{name: value})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_logz_bounds_gold_score_property(seed):
    inst = random_instance(random.Random(seed))
    gold = list(inst.sentence.tag_ids)
    log_z = log_partition(inst.model, inst.sentence)
    assert sequence_score(inst.model, inst.sentence, gold) <= log_z + 1e-9


@st.composite
def ragged_batches(draw, scale=2.0, max_len=6):
    """A random model with weights uniform in [-scale, scale] and a corpus of
    1..8 sentences of length 1..max_len, with positions that may have no
    attributes and some sentences repeated."""
    k = draw(st.integers(1, 4))
    num_attrs = draw(st.integers(1, 5))
    model = tiny_model(["O", "B-X", "B-Y", "I-X"][:k], num_attrs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model.weights[...] = rng.uniform(-scale, scale, model.weights.size)
    position = st.tuples(st.lists(st.integers(0, num_attrs - 1), max_size=3),
                         st.integers(0, k - 1))
    sentences = draw(st.lists(st.lists(position, min_size=1, max_size=max_len),
                              min_size=1, max_size=8))
    batch = [enc([a for a, _ in s], [t for _, t in s]) for s in sentences]
    repeats = draw(st.lists(st.integers(0, len(batch) - 1), max_size=3))
    return model, EncodedCorpus.from_sentences(batch + [batch[i] for i in repeats])


def close(a, b, rel=1e-9):
    return float(np.linalg.norm(np.subtract(a, b))) <= rel * max(float(np.linalg.norm(b)), 1.0)


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.data())
def test_packed_nll_matches_single_sentence_sum(case, data):
    """A ragged batch equals the sum of its B=1 sub-corpora, and of any two
    slices that split it."""
    model, corpus = case
    loss, grad = nll_and_gradient(model, corpus)
    singles = [nll_and_gradient(model, corpus[[i]]) for i in range(len(corpus))]
    assert close(loss, sum(l for l, _ in singles))
    for j, block in enumerate(views(model, grad)):
        assert close(block, sum(views(model, g)[j] for _, g in singles))
    cut = data.draw(st.integers(1, len(corpus)))
    parts = [nll_and_gradient(model, part) for part in (corpus[:cut], corpus[cut:])
             if len(part)]
    assert close(loss, sum(l for l, _ in parts))
    assert close(grad, sum(g for _, g in parts))
    oracle = sum(enumerate_logZ(TinyInstance(model, e))
                 - naive_sequence_score(model, e, e.tag_ids) for e in corpus)
    assert close(loss, oracle)


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.integers(1, 4))
def test_packed_viterbi_and_decode_match_single_sentence(case, chunk):
    """Packed Viterbi equals one call per sentence view, and _decode_paths in
    any chunk size gives those paths."""
    model, corpus = case
    singles = [viterbi(model, e) for e in corpus]
    assert best_paths(model, corpus) == singles
    assert [best_paths(model, corpus[i:i + 1])[0] for i in range(len(corpus))] == singles
    for e, (path, score) in zip(corpus, singles):
        assert score == sequence_score(model, e, path)
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        paths = crf_module._decode_paths(model, corpus)
    assert [p.tolist() for p in np.split(paths, corpus.offsets[1:-1])] == \
           [path for path, _ in singles]


@settings(max_examples=100, deadline=None)
@given(ragged_batches(), st.integers(1, 4))
def test_exact_ties_follow_enumeration_property(case, chunk):
    """With weights rounded to small integers every path score is exact and
    ties are common.  Viterbi, alone and packed by _decode_paths in chunks
    of any size, then returns exactly enumerate_best's path and score: the
    backtrace's first maximum is the rule the oracle states."""
    model, corpus = case
    model.weights[...] = np.rint(model.weights)
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        paths = np.split(crf_module._decode_paths(model, corpus), corpus.offsets[1:-1])
    for e, path in zip(corpus, paths):
        best = enumerate_best(TinyInstance(model, e))
        assert viterbi(model, e) == best
        assert path.tolist() == best[0]


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.data())
def test_packed_results_independent_of_input_order(case, data):
    """Reordering the corpus, or taking any subset of it by index, leaves
    every sentence's decoded path and score as they were."""
    model, corpus = case
    perm = data.draw(st.permutations(range(len(corpus))))
    shuffled = corpus[perm]
    decoded = best_paths(model, corpus)
    assert best_paths(model, shuffled) == [decoded[i] for i in perm]
    subset = data.draw(st.lists(st.integers(-len(corpus), len(corpus) - 1), min_size=1))
    assert best_paths(model, corpus[np.array(subset)]) == [decoded[i] for i in subset]
    loss, grad = nll_and_gradient(model, corpus, 1e-2)
    loss_s, grad_s = nll_and_gradient(model, shuffled, 1e-2)
    assert close(loss_s, loss)
    assert all(close(a, b) for a, b in zip(views(model, grad_s), views(model, grad)))


@settings(max_examples=60, deadline=None)
@given(ragged_batches(scale=1e3, max_len=5), st.booleans(), st.data())
def test_forward_backward_exact_on_both_sides_of_the_matmul_bound(case, over, data):
    """With weights up to 1e3 and the transitions' spread drawn on either
    side of _MATMUL_SPREAD, log Z, node marginals, the loss and the gradient
    match enumeration to TOL * max(1, |log Z|); where the matmul path applies,
    the log-sum-exp path agrees with it to 1e-9 relative."""
    model, corpus = case
    bound = crf_module._MATMUL_SPREAD
    spread = data.draw(st.floats(bound + 1, 2e3) if over else st.floats(0, bound - 1))
    t = model.transitions
    if np.ptp(t) > 0:
        t[...] = (t - t.min()) * (spread / np.ptp(t)) - spread / 2
    assert (np.ptp(t) > bound) == (over and t.size > 1)
    log_z = [enumerate_logZ(TinyInstance(model, e)) for e in corpus]
    tol = TOL * max(1.0, *map(abs, log_z))
    for e, ref in zip(corpus, log_z):
        assert abs(log_partition(model, e) - ref) <= tol
        node, edge = marginals(model, e)
        ref_node, ref_edge = enumerate_marginals(TinyInstance(model, e))
        assert np.max(np.abs(node - ref_node)) <= tol
        assert edge.size == 0 or np.max(np.abs(edge - ref_edge)) <= tol
    loss, grad = nll_and_gradient(model, corpus)
    ref_loss, ref_grad = naive_nll_and_gradient(model, corpus)
    assert abs(loss - ref_loss) <= TOL * max(1.0, abs(ref_loss))
    assert np.max(np.abs(grad - ref_grad)) <= tol
    if np.ptp(t) <= bound:
        with patch.object(crf_module, "_MATMUL_SPREAD", -1.0):  # log-sum-exp only
            lse_loss, lse_grad = nll_and_gradient(model, corpus)
            lse_node, lse_edge = marginals(model, corpus[0])
        assert close(lse_loss, loss) and close(lse_grad, grad)
        node, edge = marginals(model, corpus[0])
        assert close(lse_node, node) and close(lse_edge, edge)


@pytest.mark.parametrize("trans, matmul", [
    ([[0.0, 600.0], [-60.0, 1.0]], True), ([[0.0, 700.0], [-60.0, 1.0]], False),
    ([[0.0, np.inf], [0.0, 0.0]], False), ([[0.0, np.nan], [0.0, 0.0]], False),
    ([[1e300, -1e300], [0.0, 0.0]], False)])
def test_matmul_path_only_within_the_bound(trans, matmul):
    """The gradient sums a per-row edge array only off the matmul path."""
    m = tiny_model(["O", "B-X"], 1)
    m.transitions[...] = trans
    with np.errstate(all="ignore"), patch.object(
            crf_module, "_edges", wraps=crf_module._edges) as edges:
        nll_and_gradient(m, pack(enc([(0,), (), (0,)], [0, 1, 1])))
    assert edges.called != matmul


@pytest.mark.parametrize("low", [-660.0, -900.0])
def test_low_transition_column_outweighed_by_emissions(low):
    """Every transition into tag 1 lies |low| below the rest, and an emission
    of 1000 still makes the edge into tag 1 the likely one.  Within the bound
    (660) the matmul path is exact; beyond it (900) exp(low) underflows, and
    the log-sum-exp path keeps the result exact."""
    m = tiny_model(["O", "B-X"], 1)
    m.transitions[:, 1] = low
    m.emissions[0, 1] = 1000.0
    e = enc([(), (0,), ()], [0, 1, 0])
    inst = TinyInstance(m, e)
    assert abs(log_partition(m, e) - enumerate_logZ(inst)) <= TOL * 1e3
    for got, ref in zip(marginals(m, e), enumerate_marginals(inst)):
        assert np.max(np.abs(got - ref)) <= TOL * 1e3
    grad, ref_grad = (f(m, pack(e))[1] for f in (nll_and_gradient, naive_nll_and_gradient))
    assert np.max(np.abs(grad - ref_grad)) <= TOL * 1e3


def thirteen_tag_case(seed, sentences):
    """A 13-tag model over 4,000 attributes with N(0, 0.5) weights, and a
    corpus of sentences of 1..24 tokens with 4 attributes each."""
    rng = np.random.default_rng(seed)
    tags = ["O"] + sorted(f"{p}-{c}" for c in "ABCDEF" for p in "BI")
    model = tiny_model(tags, 4000)
    model.weights[...] = rng.normal(0.0, 0.5, model.weights.size)
    lengths = rng.integers(1, 25, sentences)
    return model, pack(*(enc(rng.integers(0, 4000, (n, 4)), rng.integers(0, 13, n))
                         for n in lengths))


def test_gradient_builds_no_per_row_edge_array():
    """The traced peak of one 256-sentence, 13-tag gradient stays below the
    size of the (tokens - sentences, K, K) edge-marginal array."""
    model, corpus = thirteen_tag_case(5, 256)
    nll_and_gradient(model, corpus, 1e-4)
    tracemalloc.start()
    try:
        nll_and_gradient(model, corpus, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (len(corpus.tags) - len(corpus)) * 13 * 13 * 8


def test_decode_memory_stays_flat():
    """_decode_paths packs DECODE_CHUNK sentences per call, so its traced
    peak on 8 * DECODE_CHUNK 13-tag sentences is at most 1.5 times its peak
    on DECODE_CHUNK of them, plus 24 bytes per token for the paths returned."""
    model, corpus = thirteen_tag_case(11, 8 * crf_module.DECODE_CHUNK)

    def peak(encoded):
        crf_module._decode_paths(model, encoded)
        tracemalloc.start()
        try:
            crf_module._decode_paths(model, encoded)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(corpus[:crf_module.DECODE_CHUNK])
    assert peak(corpus) <= 1.5 * small + 24 * len(corpus.tags)


def test_every_forward_pass_runs_the_one_forward_recursion(monkeypatch):
    """The sum-product pass, Viterbi and sequence_score have no loop of their
    own: wrapping mixner.crf._forward sees one call from each entry point."""
    model = tiny_model(["O", "B-X", "I-X"], 4)
    model.weights[...] = np.random.default_rng(3).normal(0.0, 1.0, model.weights.size)
    sentence = enc([[0, 1], [2], [3, 0]], [1, 2, 0])
    corpus = pack(sentence, enc([[1]], [0]), enc([[2], [3]], [0, 1]))
    real, calls = crf_module._forward, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(crf_module, "_forward", counting)
    for name, run in [("log_partition", lambda: log_partition(model, sentence)),
                      ("marginals", lambda: marginals(model, sentence)),
                      ("nll_and_gradient", lambda: nll_and_gradient(model, corpus, 1e-4)),
                      ("viterbi", lambda: viterbi(model, sentence)),
                      ("_decode_paths", lambda: crf_module._decode_paths(model, corpus)),
                      ("sequence_score", lambda: sequence_score(model, sentence, [1, 2, 0]))]:
        calls.clear()
        run()
        assert len(calls) == 1, name


def test_same_model_under_one_and_two_blas_threads(tmp_path):
    """mixner train writes byte-identical models with one and with two BLAS
    threads.  With --batch 1024 the acceptance corpus is one batch, whose
    transition-count product is 7 x 6,875 by 6,875 x 7: 336,875
    multiply-adds, above the 4 x 65,536 at which OpenBLAS splits a product
    across threads by default."""
    for name, n, seed in [("train", 1000, 21), ("dev", 200, 22)]:
        (tmp_path / f"{name}.conll").write_text(
            write_conll(make_separable_corpus(n, seed)), encoding="utf-8")
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model{threads}.txt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "mixner.cli", "train",
                        "--train", str(tmp_path / "train.conll"),
                        "--dev", str(tmp_path / "dev.conll"), "--epochs", "3",
                        "--batch", "1024", "-o", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        models.append(out.read_bytes())
    assert models[0] == models[1]


@st.composite
def small_datasets(draw):
    """1..6 sentences of 1..6 tokens over five surfaces, tagged from four
    tags, some of them with ids."""
    token = st.tuples(st.sampled_from("abcde"), st.sampled_from(["O", "B-X", "I-X", "B-Y"]))
    sentence = st.builds(lambda pairs, sid: Sentence(*zip(*pairs), sid),
                         st.lists(token, min_size=1, max_size=6),
                         st.none() | st.sampled_from(["s1", "s2"]))
    return Dataset(tuple(draw(st.lists(sentence, min_size=1, max_size=6))))


@settings(max_examples=60, deadline=None)
@given(small_datasets(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_decode_matches_per_sentence_viterbi_property(ds, seed, chunk):
    """Under random weights over build_index(ds), decode tags every sentence
    with its own Viterbi path over encode_dataset(ds, model.index), in any
    chunk size, and keeps its surfaces and id."""
    index = build_index(ds)
    assert index.tagset == induce_tagset(ds)
    model = CrfModel.zeros(index)
    model.weights[...] = np.random.default_rng(seed).uniform(-2, 2, model.weights.size)
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        tagged = decode(model, ds)
    assert [s.tags for s in tagged] == [tuple(model.tagset.tags[k] for k in viterbi(model, e)[0])
                                        for e in encode_dataset(ds, model.index)]
    assert [(s.surfaces, s.id) for s in tagged] == [(s.surfaces, s.id) for s in ds]


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.booleans())
def test_scatter_and_gather_bit_equal_to_add_at_property(case, bare):
    """The (K, rows) emission sums of a packed batch and the emission
    gradient are bit for bit those of np.add.at, and float64, also when some
    tokens or the whole batch have no attributes."""
    model, corpus = case
    if bare:
        corpus = EncodedCorpus([], np.zeros(len(corpus.tags) + 1, np.intp),
                               corpus.tags, corpus.offsets)
    p = crf_module._Packed(model, corpus)
    em = np.zeros((p.n, model.num_tags))
    np.add.at(em, p.attr_rows, model.emissions[p.attrs])
    assert p.em.dtype == np.float64 and p.em.shape == (model.num_tags, p.n)
    assert p.em.tobytes() == em.T.tobytes()

    node = crf_module._forward_backward(model, p)[0]
    assert node.shape == (model.num_tags, p.n)
    node[p.tags, np.arange(p.n)] -= 1.0
    expected = np.zeros_like(model.emissions)
    np.add.at(expected, p.attrs, node.T[p.attr_rows])
    grad = nll_and_gradient(model, corpus)[1]
    assert grad.dtype == np.float64
    assert views(model, grad)[0].tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["[", "[tags]", "x", "\n", "\r\n", "\r", "\x85", "\u2028", " "])
                | st.text(max_size=3)).map("".join))
def test_blocks_match_per_line_scan_property(text):
    """The cuts found by str.find agree with a per-line startswith("[") scan
    of text.splitlines(), whatever line breaks the text holds."""
    expected = [[]]
    for i, line in enumerate(text.splitlines()):
        if i and line.startswith("["):
            expected.append([])
        expected[-1].append(line)
    assert crf_module._blocks(text) == expected


def saved_model_lines(seed):
    with tempfile.TemporaryDirectory() as d:
        save_model(random_instance(random.Random(seed)).model, Path(d) / "model.txt")
        return (Path(d) / "model.txt").read_text(encoding="utf-8").splitlines()


def load_text(text):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "model.txt").write_text(text, encoding="utf-8")
        return load_model(Path(d) / "model.txt")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_truncated_or_line_deleted_model_rejected_property(seed, data):
    """Cutting the file anywhere before its last line, or deleting any one
    line, always leaves a file load_model rejects with ValueError."""
    lines = saved_model_lines(seed)
    text = "\n".join(lines) + "\n"
    i = data.draw(st.integers(0, len(lines) - 1))
    damaged = data.draw(st.sampled_from([
        "\n".join(lines[:i] + lines[i + 1:]) + "\n",
        text[:data.draw(st.integers(0, len(text) - len(lines[-1]) - 1))]]))
    with pytest.raises(ValueError):
        load_text(damaged)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.text(min_size=1, max_size=12) | st.sampled_from(
    ["[extra]\nhello world\n", "[tags]\n", "[", "\n", " ", "0.5\n"]))
def test_appended_text_model_rejected_property(seed, extra):
    """The file ends after the [emissions] rows: any non-empty text
    appended to a saved model makes load_model raise ValueError."""
    with pytest.raises(ValueError):
        load_text("\n".join(saved_model_lines(seed)) + "\n" + extra)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_line_replaced_model_raises_only_value_error_property(seed, data):
    """Replacing any one line never makes load_model fail with anything but
    ValueError.  The new line may still form a valid file (one weight for
    another), so a successful load is allowed here."""
    lines = saved_model_lines(seed)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(st.text(max_size=12) | st.sampled_from(lines) | st.sampled_from(
        ["", "O", "I-Z", "[tags]", "[end]", "nan", "-inf", "1e999", "0x10", "1_0", "1 2 3 4 5"]))
    try:
        load_text("\n".join(lines) + "\n")
    except ValueError:
        pass
