import inspect
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (make_separable_corpus, model_text_reference, naive_nll_and_gradient,
                     stray_inside)
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
                           enumerate_marginals, naive_sequence_score, random_instance,
                           run_verification)

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
    """crf._best_paths on the whole corpus packed as one batch, cut into one
    (path, emission sums) pair per sentence: its path, and the bytes of the
    (K, T) sums p.em[:, p.rows] that its Viterbi pass reads."""
    p = crf_module._Packed(model, corpus)
    cuts = corpus.offsets[1:-1]
    return [(path.tolist(), sums.tobytes()) for path, sums in zip(
        np.split(crf_module._best_paths(model, p), cuts), np.split(p.em[:, p.rows], cuts, 1))]


def overflow_at_first_token(tag):
    """A 2-tag model with one attribute whose emission sum at tag for the
    first token, -1.7e308 plus start's -1e308, overflows to -inf, and the
    2-token sentence with the attribute at its first token."""
    m = tiny_model(["O", "B-X"], 1)
    m.emissions[0, tag] = -1.7e308
    m.start[tag] = -1e308
    return m, enc([(0,), ()], [0, 0])


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

    def test_overflowed_path_score_rejected(self):
        """A path whose score overflows to -inf raises ValueError, with no
        numpy warning, instead of returning -inf; viterbi takes the other
        first tag and scores its path."""
        m, e = overflow_at_first_token(0)
        with pytest.raises(ValueError,
                           match="^path score is -inf; the model's weights overflow it$"):
            sequence_score(m, e, [0, 0])
        assert viterbi(m, e) == ([1, 0], 0.0)


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
            assert abs(edge.sum() - (len(node) - 1)) <= 1e-9
            # the summed edges marginalize back to the summed node rows
            assert np.allclose(edge.sum(axis=1), node[:-1].sum(axis=0), atol=1e-9)
            assert np.allclose(edge.sum(axis=0), node[1:].sum(axis=0), atol=1e-9)

    def test_single_position_shapes(self):
        m = tiny_model(["O", "B-X"], 1)
        node, edge = marginals(m, enc([(0,)], [0]))
        assert node.shape == (1, 2) and np.array_equal(edge, np.zeros((2, 2)))

    def test_marginals_are_the_training_statistic(self):
        """On instances drawn as run_verification draws them, every other
        one's weights scaled by 200, 400 or 800 so that both paths run, the
        summed edges less the gold transition counts are the gradient's
        transitions block, and the first node row less the first gold tag's
        one-hot is its start block, bit for bit."""
        rng = random.Random(25)
        with forward_backward_paths() as taken:
            for trial in range(400):
                inst = random_instance(rng)
                model, e = inst.model, inst.sentence
                if trial % 2:
                    model.weights *= (200.0, 400.0, 800.0)[trial // 2 % 3]
                k, gold = model.num_tags, e.tag_ids
                pairs = np.zeros((k, k), np.intp)
                for a, b in zip(gold, gold[1:]):
                    pairs[a, b] += 1
                node, edge = marginals(model, e)
                _, transitions, start, _ = views(model, nll_and_gradient(model, pack(e), 0.0)[1])
                assert np.array_equal(edge - pairs, transitions)
                assert np.array_equal(node[0] - np.eye(k)[gold[0]], start)
        assert taken == {"_scaled", "_log_space"}


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

    def test_overflowing_path_score_names_the_sentence(self):
        """Finite weights whose best path score overflows make decoding raise
        ValueError naming the sentence, with no numpy warning: viterbi, and
        _decode_paths past the first DECODE_CHUNK sentences, where only the
        last sentence holds attribute 1 twice."""
        m = tiny_model(["O", "B-X", "I-X"], 2)
        m.emissions[1] = 1e308
        n = crf_module.DECODE_CHUNK + 44
        corpus = pack(*[enc([(0,), (1,)], [0, 1])] * (n - 1), enc([(1,), (1,)], [0, 0]))
        for call, sentence in ((lambda: viterbi(m, corpus[n - 1]), 0),
                               (lambda: crf_module._decode_paths(m, corpus), n - 1)):
            with pytest.raises(ValueError, match=f"^sentence {sentence}: best path score is inf"):
                call()
        assert viterbi(m, corpus[0])[1] == 1e308


@pytest.mark.parametrize("call, expected", [
    (lambda m, e: viterbi(m, e), ([0, 0], 0.0)),
    (lambda m, e: sequence_score(m, e, [0, 0]), 0.0),
    (lambda m, e: log_partition(m, e), math.log(2)),
    (lambda m, e: [a.tolist() for a in marginals(m, e)],
     [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 0.0]]]),
    (lambda m, e: [np.asarray(x).tolist() for x in nll_and_gradient(m, pack(e))],
     [math.log(2), [0.0, 0.0, -0.5, 0.5, 0.0, 0.0, 0.0, 0.0, -0.5, 0.5]]),
], ids=["viterbi", "sequence_score", "log_partition", "marginals", "nll_and_gradient"])
def test_overflow_off_every_path_is_quiet(call, expected):
    """An emission sum that overflows to -inf at a tag whose paths weigh
    nothing leaves every entry's result finite and exact, and no entry
    warns about it: pytest's filterwarnings turns a numpy warning into a
    failure."""
    assert call(*overflow_at_first_token(1)) == expected


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
                     lambda: crf_module._Packed(m, batch),
                     lambda: crf_module._decode_paths(m, batch)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("attr", [-1, 2])
    def test_decode_names_the_corpus_sentence(self, attr):
        """Past the first DECODE_CHUNK sentences, _decode_paths names a bad
        id by its sentence in the corpus, as nll_and_gradient does, not by
        its place in the chunk it was decoded in."""
        m, n = self.model(), crf_module.DECODE_CHUNK + 44
        corpus = pack(*[enc([(0,), (1,)], [0, 1])] * (n - 1), enc([(attr,)], [0]))
        message = f"sentence {n - 1}, position 0: attribute id {attr} is out of range"
        for call in (lambda: nll_and_gradient(m, corpus),
                     lambda: crf_module._decode_paths(m, corpus)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("tag, attr, bad", [(-1, 0, "tag id -1 is out of range for 3 tags"),
                                                (3, 0, "tag id 3 is out of range for 3 tags"),
                                                (0, -1, "attribute id -1 is out of range"),
                                                (0, 2, "attribute id 2 is out of range")])
    def test_packed_selection_out_of_range(self, tag, attr, bad):
        """A _Packed checks the sentences it packs, with no check run by its
        caller first, and names a bad id by its sentence and position in the
        corpus it was given, not by its place in the selection."""
        m = self.model()
        corpus = pack(enc([(0,)], [0]), enc([(1,)], [1]), enc([(), (0,), (1, attr)], [0, 1, tag]))
        with pytest.raises(ValueError, match=re.escape(f"sentence 2, position 2: {bad}")):
            crf_module._Packed(m, corpus, np.array([1, 2]))
        assert crf_module._Packed(m, corpus, np.array([1, 0])).b == 2  # the bad one not packed

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

    def spelled_models(self):
        values = tiny_model(["O", "B-A", "B-B", "I-A", "I-B"], 2)
        values.emissions[1] = [-0.0, 5e-324, 1e-05, 1e+16, 0.1]
        return {"trained-like": self.trained_like_model(),
                "zero attributes": tiny_model(["O", "B-X"], 0),
                "one tag": tiny_model(["O"], 3),
                "edge values": values}

    @pytest.mark.parametrize("name", ["trained-like", "zero attributes", "one tag",
                                      "edge values"])
    def test_bytes_equal_per_row_reference(self, tmp_path, name):
        m = self.spelled_models()[name]
        save_model(m, tmp_path / "model.txt")
        data = (tmp_path / "model.txt").read_bytes()
        assert data == model_text_reference(m).encode("utf-8")
        if name == "zero attributes":
            assert data.endswith(b"[emissions]\n")
        if name == "edge values":
            assert data.endswith(b"\n-0.0 5e-324 1e-05 1e+16 0.1\n")

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

    @staticmethod
    def attribute_model(attributes):
        model = CrfModel.zeros(FeatureIndex(attributes, TagSet(("O", "B-X"))))
        model.weights[:] = np.arange(model.weights.size) / 8
        return model

    @pytest.mark.parametrize("attributes", [["[x"], ["a", "[b]"], ["a\x0cb", "c"], ["a\u2028b"],
                                            ["a\r", "b"], ["x\n"], ["a\r\nb"], ["\x1c"]])
    def test_attribute_that_does_not_read_back_not_saved(self, tmp_path, attributes):
        """load_model ends a line at every str.splitlines break and starts a
        section at every line that starts with "[", so an attribute holding
        either would not load back; save_model refuses it, writing nothing."""
        with pytest.raises(ValueError, match="refusing to save attribute"):
            save_model(self.attribute_model(attributes), tmp_path / "model.txt")
        assert not (tmp_path / "model.txt").exists()

    @pytest.mark.parametrize("attributes", [[""], [" "], ["x[y"], ["a\tb"], ["a\x1fb", "\ufeff"],
                                            ["b", "w0=[x", "w-1=]", "w+1=a[b"]])
    def test_unusual_attributes_round_trip(self, tmp_path, attributes):
        model = self.attribute_model(attributes)
        save_model(model, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        assert loaded.index.attributes() == attributes
        assert np.array_equal(loaded.weights, model.weights)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.sampled_from("a [\t\n\r\x0b\x0c\x1c\x1f\x85\u2028\ufeff"),
                            max_size=4), max_size=4, unique=True))
    def test_saved_attributes_read_back_property(self, attributes):
        """Either save_model refuses the attributes, exactly when one holds a
        line break or starts with "[", or load_model reads them back."""
        unreadable = any(a[:1] == "[" or len((a + "x").splitlines()) > 1 for a in attributes)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "model.txt"
            try:
                save_model(self.attribute_model(attributes), path)
            except ValueError:
                assert unreadable and not path.exists()
                return
            assert not unreadable and load_model(path).index.attributes() == attributes

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
        assert history.patience_ran_out

    def test_patience_ran_out_at_the_last_epoch(self):
        """A stall that exhausts patience on the final epoch still counts as
        patience running out; a run that never stalls past it does not."""
        stalled = TrainConfig(epochs=40, batch_size=16, patience=0, seed=3)
        _, history, *_ = self.fit(stalled)
        n = len(history.records)
        _, last, *_ = self.fit(TrainConfig(epochs=n, batch_size=16, patience=0, seed=3))
        assert len(last.records) == n and last.patience_ran_out
        _, short, *_ = self.fit(TrainConfig(epochs=n - 1, batch_size=16, patience=0, seed=3))
        assert len(short.records) == n - 1 and not short.patience_ran_out

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
    """Packed Viterbi gives every sentence the path, and reads the emission
    sums, bit for bit, of a one-sentence batch; viterbi, and _decode_paths in
    any chunk size, give those paths."""
    model, corpus = case
    singles = [best_paths(model, corpus[i:i + 1])[0] for i in range(len(corpus))]
    assert best_paths(model, corpus) == singles
    paths = [path for path, _ in singles]
    assert [viterbi(model, e)[0] for e in corpus] == paths
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        decoded = crf_module._decode_paths(model, corpus)
    assert [p.tolist() for p in np.split(decoded, corpus.offsets[1:-1])] == paths


@settings(max_examples=30, deadline=None)
@given(ragged_batches(max_len=4), st.integers(1, 4))
def test_decoded_paths_outscore_every_sequence_exactly(case, chunk):
    """The property the benchmark's tag-eval check reads: no tag sequence has
    a higher sequence_score than a path _decode_paths returns, in chunks of
    any size, compared exactly.  Weights are drawn, scaled by 400 and rounded
    to integers, so that ties are common."""
    model, corpus = case
    model.weights[...] = np.rint(model.weights * 400)
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        paths = np.split(crf_module._decode_paths(model, corpus), corpus.offsets[1:-1])
    for e, path in zip(corpus, paths):
        best = sequence_score(model, e, path.tolist())
        assert all(sequence_score(model, e, tags) <= best for tags in
                   itertools.product(range(model.num_tags), repeat=e.length))


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
    every sentence's decoded path and score as they were.  _Packed's default
    selection, the whole corpus, packs as the index array of every sentence
    does, and a slice as the index array of its sentences: a slice must not
    read the offset past its last sentence."""
    model, corpus = case
    lo = data.draw(st.integers(0, len(corpus) - 1))
    cut = lo, data.draw(st.integers(lo + 1, len(corpus)))
    for sel, same in (((), np.arange(len(corpus))), ((slice(*cut),), np.arange(*cut))):
        p, q = crf_module._Packed(model, corpus, *sel), crf_module._Packed(model, corpus, same)
        for name in ("tokens", "rows", "tags", "attrs", "attr_rows"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name
        assert p.em.tobytes() == q.em.tobytes()
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
        assert np.max(np.abs(edge - ref_edge)) <= tol
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


@contextmanager
def forward_backward_paths():
    """The set of forward-backward paths, "_scaled" and "_log_space", called
    within it."""
    taken = set()

    def counting(name):
        real = getattr(crf_module, name)

        def path(*args):
            taken.add(name)
            return real(*args)
        return patch.object(crf_module, name, path)

    with counting("_scaled"), counting("_log_space"):
        yield taken


@pytest.mark.parametrize("trans, matmul", [
    ([[0.0, crf_module._MATMUL_SPREAD - 61.0], [-60.0, 1.0]], True),  # spread bound - 1
    ([[0.0, crf_module._MATMUL_SPREAD - 59.0], [-60.0, 1.0]], False),  # spread bound + 1
    ([[0.0, np.inf], [0.0, 0.0]], False), ([[0.0, np.nan], [0.0, 0.0]], False),
    ([[1e300, -1e300], [0.0, 0.0]], False)])
def test_matmul_path_only_within_the_bound(trans, matmul):
    """The gradient takes _scaled only while the transitions spread by at
    most _MATMUL_SPREAD, and _log_space beyond it or for non-finite ones."""
    m = tiny_model(["O", "B-X"], 1)
    m.transitions[...] = trans
    with np.errstate(all="ignore"), forward_backward_paths() as taken:
        nll_and_gradient(m, pack(enc([(0,), (), (0,)], [0, 1, 1])))
    assert taken == {"_scaled" if matmul else "_log_space"}


@pytest.mark.parametrize("low, path", [
    (1.0 - crf_module._MATMUL_SPREAD, "_scaled"), (-660.0, "_log_space"),
    (-900.0, "_log_space")])
def test_low_transition_column_outweighed_by_emissions(low, path):
    """Every transition into tag 1 lies |low| below the rest, and an emission
    of 1000 still makes the edge into tag 1 the likely one.  Within the bound
    (_MATMUL_SPREAD - 1) the matmul path is exact; beyond it (660, and 900,
    where exp(low) underflows) the log-sum-exp path keeps the result exact."""
    m = tiny_model(["O", "B-X"], 1)
    m.transitions[:, 1] = low
    m.emissions[0, 1] = 1000.0
    e = enc([(), (0,), ()], [0, 1, 0])
    inst = TinyInstance(m, e)
    with forward_backward_paths() as taken:
        assert abs(log_partition(m, e) - enumerate_logZ(inst)) <= TOL * 1e3
        for got, ref in zip(marginals(m, e), enumerate_marginals(inst)):
            assert np.max(np.abs(got - ref)) <= TOL * 1e3
        grad = nll_and_gradient(m, pack(e))[1]
    assert np.max(np.abs(grad - naive_nll_and_gradient(m, pack(e))[1])) <= TOL * 1e3
    assert taken == {path}


def exact_against_enumeration(model, e):
    """log Z, node and edge marginals and the gradient of one sentence agree
    with enumeration to TOL * max(1, |log Z|), with warnings as errors."""
    inst = TinyInstance(model, e)
    ref = enumerate_logZ(inst)
    tol = TOL * max(1.0, abs(ref))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(log_partition(model, e) - ref) <= tol
        for got, want in zip(marginals(model, e), enumerate_marginals(inst)):
            assert np.max(np.abs(got - want)) <= tol
        grad = nll_and_gradient(model, pack(e))[1]
    assert np.max(np.abs(grad - naive_nll_and_gradient(model, pack(e))[1])) <= tol


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("attrs", [[(1,), (0,), (1,)], [(1,), (1,), (0,), (1,)]])
@pytest.mark.parametrize("deficit", [720.0, 760.0, 800.0])
@pytest.mark.parametrize("into, out", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_interior_rival_past_underflow_stays_scaled(k, attrs, deficit, into, out):
    """B-X lies deficit below O at one interior token, where exp(x) is
    subnormal (720) or 0 (760, 800); its neighbours are held at O, and the
    transitions into and out of B-X are worth up to _MATMUL_SPREAD - 1
    (into, out).  Every path through it is worth less than 2**-114 of the
    same path through O, so _scaled runs, and the results stay exact."""
    m = tiny_model(["O", "B-X", "I-X"][:k], 2)
    worth = crf_module._MATMUL_SPREAD - 1.0
    m.transitions[0, 1], m.transitions[1, 0] = into * worth, out * worth
    m.emissions[0, 0] = deficit  # attribute 0: the interior token
    m.emissions[1, 0] = 20.0  # attribute 1: a neighbour
    e = enc(attrs, [0] * len(attrs))
    with forward_backward_paths() as taken:
        exact_against_enumeration(m, e)
    assert taken == {"_scaled"}


@pytest.mark.parametrize("attrs, start, end, into, out", [
    # last token: emission favours O by 800, end B-X by 1600
    ([(), (), (0,)], 0.0, 1600.0, 0.0, 0.0),
    ([(0,), (), ()], 1600.0, 0.0, 0.0, 0.0),  # the same at the first token, through start
    ([(0,)], 400.0, 1600.0, 0.0, 0.0),        # one token: start, emission and end at once
    # O lies 720 (exp subnormal) or 760 (exp 0) below B-X; at a last or first
    # token the transitions on O's one side repay 310 of it
    ([(), (), (0,)], 0.0, 1520.0, 310.0, 0.0), ([(), (), (0,)], 0.0, 1560.0, 310.0, 0.0),
    ([(0,), (), ()], 1520.0, 0.0, 0.0, 310.0), ([(0,), (), ()], 1560.0, 0.0, 0.0, 310.0),
    ([(0,)], 400.0, 1130.0, 0.0, 0.0), ([(0,)], 400.0, 1160.0, 0.0, 0.0)])
def test_start_and_end_traps_match_enumeration(attrs, start, end, into, out):
    """Start and end weights, whose spread is unbounded, enter the scaled
    recursion as emissions of the first and last rows, which, like every
    row's emissions, are not bounded: exp(em - max em) rounds the O
    emission's rivals to 0 there, or O itself to a subnormal or 0 when start
    or end make B-X the likely tag, with transitions into or out of O (into,
    out) up to 310, and the results stay exact."""
    m = tiny_model(["O", "B-X", "I-X"], 1)
    m.transitions[...] = [[0.5, -1.0, 0.2], [0.3, 2.0, -0.7], [1.1, 0.0, 0.4]]
    m.transitions[:, 0] += into
    m.transitions[0] += out
    m.emissions[0, 0] = 800.0
    m.start[1], m.end[1] = start, end
    e = enc(attrs, [1] * len(attrs))
    with forward_backward_paths() as taken:
        exact_against_enumeration(m, e)
    assert taken == {"_scaled"}


def test_interior_emission_deficit_repaid_by_transitions():
    """B-X at the middle token lies 800 below O in emission, and the
    transitions into and out of it are worth 600 each, so it is the likely
    tag.  exp(-800) underflows, so the scaled recursion would drop it; but
    the transitions spread by 600, beyond _MATMUL_SPREAD, so
    _forward_backward takes the log-space path, and stays exact."""
    m = tiny_model(["O", "B-X"], 2)
    m.transitions[...] = [[0.0, 600.0], [600.0, 0.0]]
    m.emissions[:, 0] = [2000.0, 800.0]
    e = enc([(0,), (1,), (0,)], [0, 1, 0])
    with forward_backward_paths() as taken:
        exact_against_enumeration(m, e)
    assert taken == {"_log_space"}
    assert marginals(m, e)[0][1, 1] > 0.5


@pytest.mark.parametrize("line, fault", [
    ("ut /= s[:, None]", "ut /= 2 * s[:, None]"),  # divides by twice the maximum it records
    ("ut /= s[:, None]", "pass"),  # the forward skips its division
    ("wt /= wt.max(axis=1, keepdims=True)", "pass")],  # the backward skips its division
    ids=["forward-halved", "forward-undivided", "backward-undivided"])
def test_verify_checks_the_scaled_renormalisation(monkeypatch, line, fault):
    """A fault planted in a renormalisation of crf._scaled, the branches its
    loops take when t % r == 0, fails run_verification within 6 trials at
    seed 7: trial 5, scaled so that its transitions spread 0.9 of the bound,
    has 3 tags, 6 tokens and r = 2.  An undivided row overflows, so numpy's
    warnings are muted for the fault to show as a failed check.  (Halving
    the backward's division is no fault: it cancels in the per-row
    normalisation.)"""
    source = inspect.getsource(crf_module._scaled)
    assert source.count(line) == 1
    planted = {}
    exec(source.replace(line, fault), vars(crf_module), planted)
    monkeypatch.setattr(crf_module, "_scaled", planted["_scaled"])
    with np.errstate(all="ignore"):
        assert not all(r.ok for r in run_verification(6, 7)[0])


THIRTEEN_TAGS = ["O"] + sorted(f"{p}-{c}" for c in "ABCDEF" for p in "BI")


@st.composite
def long_batches(draw):
    """A model of 2..13 tags whose transitions spread near 0, mid-range or
    just under _MATMUL_SPREAD, with start and end weights up to 1e3, and 1..6
    sentences of 1..200 tokens with two attributes each.  (With one tag the
    gradient is 0, and the log-sum-exp path's rounding over 1,200 rows
    alone exceeds 1e-9.)"""
    k = draw(st.integers(2, 13))
    model = tiny_model(THIRTEEN_TAGS[:k], 6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model.weights[...] = rng.normal(0.0, 1.0, model.weights.size)
    model.start[...], model.end[...] = rng.uniform(-1e3, 1e3, (2, k))
    bound = crf_module._MATMUL_SPREAD
    lo, hi = draw(st.sampled_from([(0.0, 2.0), (150.0, 300.0), (bound - 1.0, bound)]))
    t = model.transitions
    t[...] = (t - t.min()) * (draw(st.floats(lo, hi)) / np.ptp(t)) - hi / 2
    lengths = draw(st.lists(st.integers(1, 200), min_size=1, max_size=6))
    return model, pack(*(enc(rng.integers(0, 6, (n, 2)), rng.integers(0, k, n))
                         for n in lengths))


def test_renormalisation_interval_is_at_least_two_steps():
    """_scaled divides its rows by their maxima when t % r == 0, with
    r = floor(_GROWTH / (S + ln K)): at the largest spread S it takes and any
    K < 2**31 tags, r is at least 2, so t % r never divides by zero."""
    growth = crf_module._MATMUL_SPREAD + math.log(2**31 - 1)
    assert int(crf_module._GROWTH // growth) >= 2


@settings(max_examples=40, deadline=None)
@given(long_batches())
def test_long_sentences_through_the_renormalisation_property(case):
    """Sentences too long for enumeration, with transitions up to the bound,
    where a row is divided by its maximum every other step (r = 2) or
    rarely: the scaled path's loss, gradient, log Z and node marginals agree
    with the log-sum-exp path to 1e-9 relative."""
    model, corpus = case
    p = crf_module._Packed(model, corpus)
    with forward_backward_paths() as taken:
        node, _, log_z = crf_module._forward_backward(model, p)
        loss, grad = nll_and_gradient(model, corpus)
    assert taken == {"_scaled"}
    with patch.object(crf_module, "_MATMUL_SPREAD", -1.0):  # log-sum-exp only
        lse_node, _, lse_log_z = crf_module._forward_backward(model, p)
        lse_loss, lse_grad = nll_and_gradient(model, corpus)
    assert close(log_z, lse_log_z) and close(node, lse_node)
    assert close(loss, lse_loss) and close(grad, lse_grad)


@settings(max_examples=60, deadline=None)
@given(long_batches(), st.booleans())
def test_time_reversal_property(case, log_space):
    """Every sentence read right to left, under the model with start and end
    swapped and the transitions transposed, has the same log Z and the
    mirrored node marginals, to 1e-9, on the scaled and on the log-space
    path: first and last rows are treated alike."""
    model, corpus = case
    mirror = CrfModel(model.weights.copy(), model.index)
    mirror.start[...], mirror.end[...] = model.end, model.start
    mirror.transitions[...] = model.transitions.T
    mirrored = pack(*(enc(e.attr_ids[::-1], e.tag_ids[::-1]) for e in corpus))
    flip = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                           for lo, hi in zip(corpus.offsets[:-1], corpus.offsets[1:])])
    results = []
    for m, c in ((model, corpus), (mirror, mirrored)):
        p = crf_module._Packed(m, c)
        with patch.object(crf_module, "_MATMUL_SPREAD",
                          -1.0 if log_space else crf_module._MATMUL_SPREAD):
            node, _, log_z = crf_module._forward_backward(m, p)
        results.append((node[:, p.rows], log_z[p.rank]))
    (node, log_z), (mirror_node, mirror_log_z) = results
    assert close(mirror_log_z, log_z)
    assert np.max(np.abs(mirror_node - node[:, flip])) <= 1e-9


def test_gradient_takes_no_exp_or_log_per_step(monkeypatch):
    """nll_and_gradient calls np.exp and np.log as often on 13-tag sentences
    of up to 60 tokens as on sentences of up to 5: the recursions multiply,
    and transcendentals run once per batch."""
    model, _ = thirteen_tag_case(7, 1)
    rng = np.random.default_rng(8)
    corpora = [pack(*(enc(rng.integers(0, 4000, (n, 4)), rng.integers(0, 13, n))
                      for n in [longest, *rng.integers(1, longest, 30)]))
               for longest in (5, 60)]
    counts = Counter()
    for name in ("exp", "log"):
        def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    tallies = []
    for corpus in corpora:
        counts.clear()
        nll_and_gradient(model, corpus, 1e-4)
        tallies.append(dict(counts))
    assert tallies[0] == tallies[1] and tallies[0]["exp"] > 0


def thirteen_tag_case(seed, sentences):
    """A 13-tag model over 4,000 attributes with N(0, 0.5) weights, and a
    corpus of sentences of 1..24 tokens with 4 attributes each."""
    rng = np.random.default_rng(seed)
    model = tiny_model(THIRTEEN_TAGS, 4000)
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


def test_decode_memory_stays_flat_with_skewed_lengths():
    """With half the sentences 1 token long and half 30, the longest first
    are decoded together, and a chunk of DECODE_CHUNK of them would hold twice
    the tokens of a chunk in input order: the token bound keeps the traced
    peak within the bound of test_decode_memory_stays_flat."""
    model, _ = thirteen_tag_case(11, 1)
    rng = np.random.default_rng(12)
    corpus = pack(*(enc(rng.integers(0, 4000, (n, 4)), rng.integers(0, 13, n))
                    for n in [1, 30] * (4 * crf_module.DECODE_CHUNK)))

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


def test_decode_takes_long_sentences_together(monkeypatch):
    """Two 40-token sentences, at positions 0 and DECODE_CHUNK among
    one-token ones, are decoded longest first in one chunk: Viterbi takes 39
    steps, not 39 for each of two chunks in input order."""
    model, _ = thirteen_tag_case(13, 1)
    lengths = [1] * 300
    lengths[0] = lengths[crf_module.DECODE_CHUNK] = 40
    corpus = pack(*(enc([(0, 1)] * n, [0] * n) for n in lengths))
    real, steps = crf_module._forward, []

    def counting(p, step):
        return real(p, lambda *args: steps.append(1) or step(*args))

    monkeypatch.setattr(crf_module, "_forward", counting)
    paths = crf_module._decode_paths(model, corpus)
    assert len(steps) == 39
    assert paths.tolist() == [k for e in corpus for k in viterbi(model, e)[0]]


def test_decode_holds_one_chunk_at_a_time(monkeypatch):
    """_decode_paths drops each chunk before _chunks builds the next, so
    working memory stays flat: when a _Packed is built, no earlier one is
    alive.  With DECODE_CHUNK at 4, the 14 sentences make at least 3 chunks."""
    model, corpus = thirteen_tag_case(17, 14)
    real, built = crf_module._Packed.__init__, []

    def tracking(self, *args):
        assert all(ref() is None for ref in built), "an earlier chunk is still alive"
        real(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(crf_module._Packed, "__init__", tracking)
    monkeypatch.setattr(crf_module, "DECODE_CHUNK", 4)
    crf_module._decode_paths(model, corpus)
    assert len(built) >= 3


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.integers(1, 4))
def test_decode_chunks_are_bounded_property(case, chunk):
    """_chunks takes every sentence once, longest first with ties in input
    order, in chunks of at most chunk sentences and, unless a chunk is one
    sentence, at most chunk times the mean length, rounded up, in tokens."""
    model, corpus = case
    with patch.object(crf_module, "DECODE_CHUNK", chunk):
        chunks = list(crf_module._chunks(model, corpus))
    lengths = corpus.lengths
    cap = chunk * math.ceil(lengths.mean())
    assert np.concatenate([p.tokens for p in chunks]).tolist() == \
           [t for i in np.argsort(-lengths, kind="stable") for t in range(
               corpus.offsets[i], corpus.offsets[i + 1])]
    assert all(p.b <= chunk and (p.n <= cap or p.b == 1) for p in chunks)


@pytest.mark.parametrize("log_space", [False, True])
def test_every_tag_major_pass_runs_the_one_forward_recursion(monkeypatch, log_space):
    """_log_space, Viterbi and sequence_score have no forward loop of their
    own: wrapping mixner.crf._forward sees one call from each entry point but
    viterbi, and two from viterbi: its max pass and sequence_score's.  _scaled
    runs its own row-major loops, so on the scaled path the sum-product
    entries call _forward not at all."""
    model = tiny_model(["O", "B-X", "I-X"], 4)
    model.weights[...] = np.random.default_rng(3).normal(0.0, 1.0, model.weights.size)
    sentence = enc([[0, 1], [2], [3, 0]], [1, 2, 0])
    corpus = pack(sentence, enc([[1]], [0]), enc([[2], [3]], [0, 1]))
    real, calls = crf_module._forward, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(crf_module, "_forward", counting)
    if log_space:
        monkeypatch.setattr(crf_module, "_MATMUL_SPREAD", -1.0)
    sum_product = 1 if log_space else 0
    for name, run, expected in [
            ("log_partition", lambda: log_partition(model, sentence), sum_product),
            ("marginals", lambda: marginals(model, sentence), sum_product),
            ("nll_and_gradient", lambda: nll_and_gradient(model, corpus, 1e-4), sum_product),
            ("viterbi", lambda: viterbi(model, sentence), 2),
            ("_decode_paths", lambda: crf_module._decode_paths(model, corpus), 1),
            ("sequence_score", lambda: sequence_score(model, sentence, [1, 2, 0]), 1)]:
        calls.clear()
        run()
        assert len(calls) == expected, name


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


def test_same_loss_under_one_and_two_blas_threads():
    """nll_and_gradient's loss is bit-equal with one and with two BLAS
    threads.  The model has 52,195 weights and l2 = 1, so the penalty
    ||w||^2 sums a vector far longer than the 10,000 or so elements at
    which OpenBLAS splits a dot product across threads."""
    script = (
        "import numpy as np\n"
        "from mixner.corpus import TagSet\n"
        "from mixner.crf import CrfModel, nll_and_gradient\n"
        "from mixner.features import EncodedCorpus, EncodedSentence, FeatureIndex\n"
        f"tags = {THIRTEEN_TAGS!r}\n"
        "model = CrfModel.zeros(FeatureIndex([f'a{i}' for i in range(4000)], TagSet(tags)))\n"
        "rng = np.random.default_rng(29)\n"
        "model.weights[...] = rng.normal(0.0, 0.5, model.weights.size)\n"
        "batch = EncodedCorpus.from_sentences([EncodedSentence(\n"
        "    tuple(map(tuple, rng.integers(0, 4000, (n, 4)).tolist())),\n"
        "    tuple(rng.integers(0, 13, n).tolist())) for n in rng.integers(1, 25, 16)])\n"
        "print(nll_and_gradient(model, batch, 1.0)[0].hex())\n")
    losses = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        losses.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                     capture_output=True, text=True, timeout=120).stdout)
    assert losses[0] == losses[1]


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
    """The (K, rows) emission sums of a packed batch, start and end added at
    first and last rows, and the emission gradient are bit for bit those of
    np.add.at, and float64, also when some tokens or the whole batch have no
    attributes."""
    model, corpus = case
    if bare:
        corpus = EncodedCorpus([], np.zeros(len(corpus.tags) + 1, np.intp),
                               corpus.tags, corpus.offsets)
    p = crf_module._Packed(model, corpus)
    em = np.zeros((p.n, model.num_tags))
    np.add.at(em, p.attr_rows, model.emissions[p.attrs])
    em[:p.b] += model.start
    em[p.last] += model.end
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


_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_saved_bytes_equal_per_row_reference_property(k, num_attrs, data):
    """Any finite float64 bit patterns, in any block shape, are written as the
    per-row reference spells them, and read back to the same bits."""
    m = tiny_model(["O", "B-A", "B-B", "I-A"][:k], num_attrs)
    bits = data.draw(st.lists(_FINITE_BITS, min_size=m.weights.size,
                              max_size=m.weights.size))
    m.weights[:] = np.array(bits, dtype=np.uint64).view(np.float64)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.txt"
        save_model(m, path)
        assert path.read_bytes() == model_text_reference(m).encode("utf-8")
        assert load_model(path).weights.tobytes() == m.weights.tobytes()
