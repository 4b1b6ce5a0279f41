import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import template_reference
from mixner.corpus import Dataset, Sentence, TagSet, induce_tagset, parse_conll
from mixner.features import (BOS, EOS, EncodedCorpus, EncodedSentence, FeatureIndex,
                             build_index, encode_dataset)


def sent(words, tags=None):
    return Sentence(words, tags or ["O"] * len(words))


def position_names(ds):
    """The attribute names encode_dataset gives each position of each sentence,
    against the index built from the same sentences (so none is unknown)."""
    index = build_index(ds, induce_tagset(ds))
    names = index.attributes()
    return [[tuple(names[a] for a in ids) for ids in s.attr_ids]
            for s in encode_dataset(ds, index)]


class TestExtract:
    def test_interior_position(self, table1_text):
        assert set(position_names(parse_conll(table1_text))[0][1]) == {
            "b", "w0=this", "w-1=hameM", "w+1=magic"}

    def test_single_token_sentence(self):
        assert position_names(Dataset((sent(["x"]),))) == [
            [("b", "w0=x", "w-1=<BOS>", "w+1=<EOS>")]]

    def test_table2_dig(self, table2_text):
        assert set(position_names(parse_conll(table2_text))[1][3]) == {
            "b", "w0=dig", "w-1=is", "w+1=me"}

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_exactly_four_attributes(self, table1_text, i):
        ds = parse_conll(table1_text)
        names = position_names(ds)[0]
        assert len(names) == len(ds.sentences[0])
        assert len(names[i]) == 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(min_size=1, max_size=3).filter(
    lambda w: not re.search(r"\s", w)), min_size=1, max_size=8), min_size=1, max_size=4))
def test_template_matches_per_position_reference(sentences):
    """Across sentence boundaries, every position gets, in order, the bias,
    w0, w-1 and w+1 of the per-position reference."""
    ds = Dataset(tuple(sent(words) for words in sentences))
    assert position_names(ds) == [template_reference(words) for words in sentences]


class TestBuildIndex:
    def test_table1_attribute_count(self, table1_text):
        ds = parse_conll(table1_text)
        index = build_index(ds, induce_tagset(ds))
        # 1 bias + 4 w0 + 4 w-1 + 4 w+1 over four positions
        assert index.num_attributes == 13

    def test_tag_ids_follow_tagset_order(self, table1_text):
        ds = parse_conll(table1_text)
        index = build_index(ds, induce_tagset(ds))
        assert index.tag_to_id == {"O": 0, "B-CW": 1, "I-CW": 2}

    def test_min_count_filters(self):
        ds = Dataset((sent(["alpha", "beta", "gamma"]), sent(["delta", "epsilon"])))
        index = build_index(ds, induce_tagset(ds), min_count=2)
        # Only the bias and the boundary attributes recur across sentences.
        assert set(index.attribute_to_id) == {"b", "w-1=<BOS>", "w+1=<EOS>"}

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index(Dataset(), induce_tagset(Dataset((sent(["x"]),))))

    def test_deterministic(self, table2_text):
        ds = parse_conll(table2_text)
        ts = induce_tagset(ds)
        assert build_index(ds, ts).attribute_to_id == build_index(ds, ts).attribute_to_id

    def test_index_is_immutable(self, table1_text):
        ds = parse_conll(table1_text)
        index = build_index(ds, induce_tagset(ds))
        with pytest.raises(TypeError):
            index.attribute_to_id["w0=new"] = 13
        with pytest.raises(AttributeError):
            index.tagset = TagSet(("O",))
        assert index.num_attributes == 13 and "w0=new" not in index.attribute_to_id

    def test_ids_follow_attribute_order(self):
        index = FeatureIndex(["b", "w0=x", "w-1=<BOS>"], TagSet(("O", "B-X")))
        assert index.attribute_to_id == {"b": 0, "w0=x": 1, "w-1=<BOS>": 2}
        assert index.attributes() == ["b", "w0=x", "w-1=<BOS>"]
        assert index.tag_to_id == {"O": 0, "B-X": 1}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError, match="duplicate attribute"):
            FeatureIndex(["b", "w0=x", "b"], TagSet(("O",)))


class TestEncode:
    def test_self_encoding_covers_every_position(self, table1_text):
        ds = parse_conll(table1_text)
        index = build_index(ds, induce_tagset(ds))
        enc = encode_dataset(ds, index)[0]
        assert enc.length == 4
        assert all(len(ids) == 4 for ids in enc.attr_ids)
        assert enc.tag_ids == (0, 1, 2, 2)

    def test_unknown_attributes_dropped(self):
        train = Dataset((sent(["aa", "bb"]),))
        index = build_index(train, induce_tagset(train))
        enc = encode_dataset(Dataset((sent(["zz", "bb"]),)), index)[0]
        # position 0 keeps bias, w-1=<BOS>, and w+1=bb; w0=zz is unseen
        assert len(enc.attr_ids[0]) == 3

    def test_unknown_tag_is_an_error(self, table1_text):
        ds = parse_conll(table1_text)
        index = build_index(ds, induce_tagset(ds))
        alien = Dataset((sent(["x", "y"], ["O", "B-LOC"]),))
        with pytest.raises(ValueError, match="sentence 0, position 1"):
            encode_dataset(alien, index)

    def test_encoded_sentence_alignment_enforced(self):
        with pytest.raises(ValueError, match="sentence 0: .*aligned"):
            EncodedCorpus.from_sentences([EncodedSentence(((0,),), (0, 1))])


def naive_encode(ds, index):
    """Per-position reference: the template of every position, unknown
    attributes dropped, as per-position tuples."""
    out = []
    for si, s in enumerate(ds.sentences):
        for i, tag in enumerate(s.tags):
            if tag not in index.tag_to_id:
                raise ValueError(f"sentence {si}, position {i}: tag {tag!r}")
        attr_ids = tuple(tuple(index.attribute_to_id[a] for a in attrs
                               if index.attribute_to_id.get(a) is not None)
                         for attrs in template_reference(s.surfaces))
        out.append(EncodedSentence(attr_ids, tuple(index.tag_to_id[t] for t in s.tags)))
    return out


# Literal "<BOS>"/"<EOS>" surfaces and "b" (not the bias) sit beside words
# the training data may never see.
WORDS = st.sampled_from([BOS, EOS, "b", "x", "y", "z", "unseen1", "unseen2"])
TAGS = st.sampled_from(["O", "B-X", "I-X", "B-Y"])


def datasets(words):
    sentence = st.lists(st.tuples(words, TAGS), min_size=1, max_size=5).map(
        lambda pairs: Sentence(tuple(w for w, _ in pairs), tuple(t for _, t in pairs)))
    return st.lists(sentence, max_size=6).map(lambda ss: Dataset(tuple(ss)))


@settings(max_examples=200, deadline=None)
@given(datasets(st.sampled_from([BOS, EOS, "b", "x", "y"])).filter(len), datasets(WORDS),
       st.integers(1, 4))
def test_encode_matches_per_position_reference_property(train, ds, min_count):
    index = build_index(train, induce_tagset(train), min_count)
    # The index keeps what a count over the reference keeps, in first-seen order.
    counts = Counter(chain.from_iterable(chain.from_iterable(
        template_reference(s.surfaces) for s in train)))
    assert index.attributes() == [a for a, n in counts.items() if n >= min_count]
    try:
        expected = naive_encode(ds, index)
    except ValueError as exc:  # a tag outside the training tag set
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            encode_dataset(ds, index)
        return
    corpus = encode_dataset(ds, index)
    assert list(corpus) == expected
    assert [corpus[i] for i in range(len(corpus))] == expected
    assert corpus.attrs.dtype == corpus.tags.dtype == np.intp


def test_all_unknown_words_keep_bias_and_boundaries():
    train = Dataset((sent(["aa", "bb"]),))
    index = build_index(train, induce_tagset(train))
    corpus = encode_dataset(Dataset((sent(["zz"]), sent(["yy", "xx", "ww"]))), index)
    b, bos, eos = (index.attribute_to_id[a] for a in ("b", "w-1=<BOS>", "w+1=<EOS>"))
    assert list(corpus) == [(((b, bos, eos),), (0,)),
                            (((b, bos), (b,), (b, eos)), (0, 0, 0))]


def test_encoded_corpus_rejects_malformed_offsets():
    with pytest.raises(ValueError, match="malformed encoded corpus"):
        EncodedCorpus([0], [0, 1], [0, 0], [0, 2])  # attr offsets short of the tokens
    with pytest.raises(ValueError, match="malformed encoded corpus"):
        EncodedCorpus([], [0, 0, 0], [0, 0], [0, 0, 2])  # an empty sentence
