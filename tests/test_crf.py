import math
import random
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_separable_corpus
from mixner.corpus import Dataset, Sentence, TagSet, Token, induce_tagset
import mixner.crf as crf_module
from mixner.crf import (MIN_DELTA, CrfModel, TrainConfig, decode, load_model,
                        log_partition, marginals, nll_and_gradient, save_model,
                        sequence_score, train, viterbi, viterbi_batch)
from mixner.eval import score_entities
from mixner.features import EncodedSentence, FeatureIndex, build_index, encode_dataset
from mixner.oracle import (TinyInstance, enumerate_logZ, naive_sequence_score,
                           random_instance)


def tiny_model(tags, num_attrs):
    index = FeatureIndex([f"a{i}" for i in range(num_attrs)], TagSet(tuple(tags)))
    return CrfModel.zeros(index)


def views(model, vector):
    """The four blocks of a vector laid out like the model's weights."""
    v = CrfModel(vector, model.index)
    return v.emissions, v.transitions, v.start, v.end


def enc(attr_ids, tag_ids):
    return EncodedSentence(tuple(tuple(ids) for ids in attr_ids), tuple(tag_ids))


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
        _, grad = nll_and_gradient(m, [enc([(0,), (1,)], [0, 1])])
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
        loss, _ = nll_and_gradient(m, [enc([(0,), (0,)], [0, 1])], l2=0.0)
        assert loss == pytest.approx(2 * math.log(4), abs=1e-12)

    def test_l2_inert_at_zero_weights(self):
        m = tiny_model(["O", "B-X"], 2)
        batch = [enc([(0,), (1,)], [0, 1])]
        loss0, g0 = nll_and_gradient(m, batch, l2=0.0)
        loss1, g1 = nll_and_gradient(m, batch, l2=0.5)
        assert loss0 == loss1
        assert np.array_equal(g0, g1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nll_and_gradient(tiny_model(["O"], 1), [], 0.0)


class TestViterbi:
    def test_zero_weights_all_first_tag(self):
        m = tiny_model(["O", "B-X", "I-X"], 1)
        path, score = viterbi(m, enc([(), (), (), ()], [0, 0, 0, 0]))
        assert path == [0, 0, 0, 0] and score == 0.0

    def test_tie_breaks_toward_lower_id(self):
        # Only "dig" as B-CW scores; the second position ties and takes O.
        sentence = Sentence((Token("dig", "O"), Token("me", "O")))
        ds = Dataset((sentence,))
        tagset = TagSet(("O", "B-CW"))
        index = build_index(ds, tagset)
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


class TestTrain:
    def fit(self, cfg, n_train=300, n_dev=60, train_seed=31, dev_seed=32):
        train_ds = make_separable_corpus(n_train, train_seed)
        dev_ds = make_separable_corpus(n_dev, dev_seed)
        tagset = induce_tagset(train_ds)
        index = build_index(train_ds, tagset)
        encoded = encode_dataset(train_ds, index)
        model, history = train(encoded, dev_ds, cfg, index)
        return model, history, dev_ds, index, tagset

    def test_learns_separable_data(self):
        cfg = TrainConfig(epochs=12, batch_size=16, seed=1)
        model, history, dev_ds, index, tagset = self.fit(cfg)
        assert history.records[history.best_epoch - 1].dev_f1 > 0.8
        assert history.best_epoch == max(
            range(len(history.records)),
            key=lambda i: history.records[i].dev_f1) + 1

    def test_returned_weights_are_best_epoch(self):
        cfg = TrainConfig(epochs=10, batch_size=16, seed=2)
        model, history, dev_ds, index, tagset = self.fit(cfg)
        pred = []
        for s, e in zip(dev_ds.sentences, encode_dataset(dev_ds, index)):
            path, _ = viterbi(model, e)
            pred.append(Sentence(tuple(
                Token(t.surface, tagset.tags[k]) for t, k in zip(s.tokens, path))))
        f1 = score_entities(dev_ds, Dataset(tuple(pred))).weighted_f1
        assert f1 == history.records[history.best_epoch - 1].dev_f1

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
        tagset = induce_tagset(ds)
        index = build_index(ds, tagset)
        with pytest.raises(ValueError, match="empty"):
            train([], ds, TrainConfig(epochs=1), index)

    def test_dev_outside_tagset_rejected(self):
        ds = make_separable_corpus(5, 1)
        tagset = induce_tagset(ds)
        index = build_index(ds, tagset)
        encoded = encode_dataset(ds, index)
        alien = Dataset((Sentence((Token("x", "B-UNSEEN"),)),))
        with pytest.raises(ValueError, match="B-UNSEEN"):
            train(encoded, alien, TrainConfig(epochs=1), index)

    def test_empty_dev_rejected(self):
        ds = make_separable_corpus(5, 1)
        index = build_index(ds, induce_tagset(ds))
        with pytest.raises(ValueError, match="empty"):
            train(encode_dataset(ds, index), Dataset(), TrainConfig(epochs=1), index)

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
def ragged_batches(draw):
    """A random model and a batch of 1..8 sentences of length 1..6, with
    positions that may have no attributes and some sentences repeated."""
    k = draw(st.integers(1, 4))
    num_attrs = draw(st.integers(1, 5))
    model = tiny_model(["O", "B-X", "B-Y", "I-X"][:k], num_attrs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model.weights[...] = rng.uniform(-2, 2, model.weights.size)
    position = st.tuples(st.lists(st.integers(0, num_attrs - 1), max_size=3),
                         st.integers(0, k - 1))
    sentences = draw(st.lists(st.lists(position, min_size=1, max_size=6),
                              min_size=1, max_size=8))
    batch = [enc([a for a, _ in s], [t for _, t in s]) for s in sentences]
    repeats = draw(st.lists(st.integers(0, len(batch) - 1), max_size=3))
    return model, batch + [batch[i] for i in repeats]


def close(a, b, rel=1e-9):
    return float(np.linalg.norm(np.subtract(a, b))) <= rel * max(float(np.linalg.norm(b)), 1.0)


@settings(max_examples=60, deadline=None)
@given(ragged_batches())
def test_packed_nll_matches_single_sentence_sum(case):
    model, batch = case
    loss, grad = nll_and_gradient(model, batch)
    singles = [nll_and_gradient(model, [e]) for e in batch]
    assert close(loss, sum(l for l, _ in singles))
    for j, block in enumerate(views(model, grad)):
        assert close(block, sum(views(model, g)[j] for _, g in singles))
    oracle = sum(enumerate_logZ(TinyInstance(model, e))
                 - naive_sequence_score(model, e, e.tag_ids) for e in batch)
    assert close(loss, oracle)


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.integers(1, 4))
def test_packed_viterbi_and_decode_match_single_sentence(case, chunk):
    model, batch = case
    singles = [viterbi(model, e) for e in batch]
    assert viterbi_batch(model, batch) == singles
    for e, (path, score) in zip(batch, singles):
        assert score == sequence_score(model, e, path)
    ds = Dataset(tuple(Sentence(tuple(Token(f"w{i}", "O") for i in range(e.length)))
                       for e in batch))
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        tagged = decode(model, ds, batch)
    assert [s.tags for s in tagged] == [[model.tagset.tags[k] for k in path]
                                        for path, _ in singles]
    assert [s.surfaces for s in tagged] == [s.surfaces for s in ds]


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.data())
def test_packed_results_independent_of_input_order(case, data):
    model, batch = case
    perm = data.draw(st.permutations(range(len(batch))))
    shuffled = [batch[i] for i in perm]
    decoded = viterbi_batch(model, batch)
    assert viterbi_batch(model, shuffled) == [decoded[i] for i in perm]
    loss, grad = nll_and_gradient(model, batch, 1e-2)
    loss_s, grad_s = nll_and_gradient(model, shuffled, 1e-2)
    assert close(loss_s, loss)
    assert all(close(a, b) for a, b in zip(views(model, grad_s), views(model, grad)))


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
