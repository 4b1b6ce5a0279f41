import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (array_spans, extract_entities, mix_reference, spans_to_tags,
                     stray_inside)
from mixner.corpus import (Dataset, ParseError, Sentence, TagSet, Token,
                           induce_tagset, mix_datasets, parse_conll, validate_iob,
                           write_conll)


def sent(pairs, id=None):
    return Sentence(*zip(*pairs), id=id)


class TestParse:
    def test_table1(self, table1_text):
        ds = parse_conll(table1_text)
        assert len(ds) == 1
        s = ds.sentences[0]
        assert s.surfaces == ("hameM", "this", "magic", "moment")
        assert s.tags == ("O", "B-CW", "I-CW", "I-CW")

    def test_table1_language_column(self, table1_lang_text, table1_text):
        # The language id between token and tag is ignored.
        ds = parse_conll(table1_lang_text)
        assert ds.sentences[0].surfaces == ("hameM", "this", "magic", "moment")
        assert ds.sentences[0].tags == ("O", "B-CW", "I-CW", "I-CW")
        assert ds == parse_conll(table1_text)

    def test_table2(self, table2_text):
        ds = parse_conll(table2_text)
        assert [len(s) for s in ds] == [10, 7, 5]
        assert ds.sentences[1].tags == ("O", "O", "O", "B-CW", "I-CW", "I-CW", "O")
        assert ds.sentences[2].tags == ("O", "B-CW", "I-CW", "O", "O")

    def test_multiconer_four_column(self, multiconer_text):
        ds = parse_conll(multiconer_text)
        assert len(ds) == 2
        assert ds.sentences[0].id == "5bb93fba-ba27-4a91-9b6d-ed1a9e4ff94b"
        assert ds.sentences[0].surfaces[:4] == ("what", "city", "is", "dig")
        assert ds.sentences[0].tags[3] == "B-CW"

    def test_empty_document(self):
        assert len(parse_conll("")) == 0

    def test_consecutive_blank_lines_collapse(self):
        ds = parse_conll("a\tO\n\n\n\nb\tO\n")
        assert [s.surfaces for s in ds] == [("a",), ("b",)]

    def test_id_equals_form(self):
        ds = parse_conll("# id = my sentence\nfoo\tO\n")
        assert ds.sentences[0].id == "my sentence"

    def test_missing_tag_column(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("a\tO\nb\n")

    def test_bad_tag(self):
        with pytest.raises(ParseError, match="line 1.*X-CW"):
            parse_conll("a\tX-CW\n")

    def test_zero_is_not_a_tag(self):
        with pytest.raises(ParseError, match="invalid IOB tag"):
            parse_conll("das\t0\n")

    def test_lenient_mode_fills_o(self):
        ds = parse_conll("hello\nworld\n", require_tags=False)
        assert ds.sentences[0].tags == ("O", "O")

    def test_hash_initial_token_is_not_metadata(self):
        ds = parse_conll("#hashtag\tO\n")
        assert ds.sentences[0].surfaces == ("#hashtag",)

    def test_bare_hash_token_round_trips(self):
        # "#\tO" is a data line; only "#" alone or "# ..." is metadata.
        ds = parse_conll("#\tO\n")
        assert ds.sentences[0].surfaces == ("#",)
        assert parse_conll(write_conll(ds)).sentences[0].surfaces == ("#",)

    def test_tab_separator_keeps_underscores(self, multiconer_text):
        # Tab-separated "_ _" columns are skipped; the tag is the last column.
        ds = parse_conll(multiconer_text.replace(" _ _ ", "\t_\t_\t"))
        assert ds.sentences[0].tags[3] == "B-CW"
        assert "_" not in ds.sentences[0].surfaces
        assert ds == parse_conll(multiconer_text)


class TestWrite:
    def test_round_trip_table1(self, table1_text):
        ds = parse_conll(table1_text)
        assert parse_conll(write_conll(ds)) == ds

    def test_round_trip_multiconer(self, multiconer_text):
        ds = parse_conll(multiconer_text)
        again = parse_conll(write_conll(ds))
        assert again == ds

    def test_empty_dataset(self):
        assert write_conll(Dataset()) == ""

    def test_single_interior_blank_line(self):
        ds = Dataset((sent([("a", "O")]), sent([("b", "O")])))
        assert write_conll(ds) == "a\tO\n\nb\tO\n"

    def test_id_line_written(self):
        ds = Dataset((sent([("a", "O")], id="s1"),))
        assert write_conll(ds) == "# id = s1\na\tO\n"


class TestIob:
    def test_valid_sequence_clean(self, table1_text, table2_text):
        for text in (table1_text, table2_text):
            ds = parse_conll(text)
            assert all(stray_inside(s.tags) == [] for s in ds)
            fixed = validate_iob(ds)
            assert fixed == ds

    def test_stray_inside_found_then_repaired(self):
        tags = ["O", "I-CW", "I-CW", "B-CW", "I-PROD", "O", "I-CW"]
        assert stray_inside(tags) == [1, 4, 6]
        ds = Dataset((sent([(f"w{i}", t) for i, t in enumerate(tags)]),))
        assert stray_inside(validate_iob(ds).sentences[0].tags) == []

    def test_repair_stray_inside(self):
        ds = Dataset((sent([("a", "O"), ("b", "I-CW"), ("c", "I-CW")]),))
        fixed = validate_iob(ds)
        assert fixed.sentences[0].tags == ("O", "B-CW", "I-CW")

    def test_repair_class_switch(self):
        ds = Dataset((sent([("a", "I-PROD"), ("b", "I-CW")]),))
        fixed = validate_iob(ds)
        assert fixed.sentences[0].tags == ("B-PROD", "B-CW")

    def test_repair_idempotent(self):
        ds = Dataset((sent([("a", "I-X"), ("b", "O"), ("c", "I-Y")]),))
        once = validate_iob(ds)
        assert validate_iob(once) == once
        assert stray_inside(once.sentences[0].tags) == []


class TestTagset:
    def test_table1_tagset(self, table1_text):
        ts = induce_tagset(parse_conll(table1_text))
        assert ts.tags == ("O", "B-CW", "I-CW")

    def test_only_o(self):
        ts = induce_tagset(Dataset((sent([("a", "O")]),)))
        assert ts.tags == ("O",)

    def test_closure_adds_begin(self):
        ds = Dataset((sent([("a", "I-PROD")]),))
        assert induce_tagset(ds).tags == ("O", "B-PROD", "I-PROD")

    def test_order_insensitive(self, table2_text):
        ds = parse_conll(table2_text)
        reversed_ds = Dataset(tuple(reversed(ds.sentences)))
        assert induce_tagset(ds) == induce_tagset(reversed_ds)

    def test_invalid_tagset_rejected(self):
        with pytest.raises(ValueError):
            TagSet(("B-CW", "O"))
        with pytest.raises(ValueError):
            TagSet(("O", "I-CW"))


class TestMix:
    def make(self, n, prefix):
        return Dataset(tuple(sent([(f"{prefix}{i}", "O")]) for i in range(n)))

    def test_size_additivity(self):
        mixed = mix_datasets(self.make(3, "a"),
                             [self.make(2, "b"), self.make(1, "c")])
        assert len(mixed) == 6

    def test_identity_without_shuffle(self):
        ds = self.make(4, "a")
        mixed = mix_datasets(ds)
        assert [s.surfaces for s in mixed] == [s.surfaces for s in ds]

    def test_shuffle_is_permutation(self):
        mixed = mix_datasets(self.make(5, "a"), [self.make(5, "b")],
                             seed=3, shuffle=True)
        assert sorted(s.surfaces[0] for s in mixed) == sorted(
            f"{p}{i}" for p in "ab" for i in range(5))

    def test_same_seed_same_bytes(self):
        a = self.make(6, "a")
        b = self.make(6, "b")
        one = write_conll(mix_datasets(a, [b], seed=13, shuffle=True))
        two = write_conll(mix_datasets(a, [b], seed=13, shuffle=True))
        assert one == two

    def test_different_seed_usually_differs(self):
        a = self.make(8, "a")
        b = self.make(8, "b")
        one = write_conll(mix_datasets(a, [b], seed=1, shuffle=True))
        two = write_conll(mix_datasets(a, [b], seed=2, shuffle=True))
        assert one != two


# Hypothesis strategies for arbitrary IOB-valid datasets.

surfaces = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "S")),
    min_size=1, max_size=6)
classes = st.sampled_from(["CW", "PROD", "GRP"])


@st.composite
def sentences(draw):
    chunks = draw(st.lists(
        st.one_of(st.none(), st.tuples(classes, st.integers(1, 3))),
        min_size=1, max_size=5))
    pairs = []
    for chunk in chunks:
        if chunk is None:
            pairs.append((draw(surfaces), "O"))
        else:
            cls, length = chunk
            pairs.append((draw(surfaces), f"B-{cls}"))
            for _ in range(length - 1):
                pairs.append((draw(surfaces), f"I-{cls}"))
    id_ = draw(st.none() | st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True))
    return sent(pairs, id=id_)


datasets = st.builds(lambda ss: Dataset(tuple(ss)),
                     st.lists(sentences(), min_size=0, max_size=5))


@settings(max_examples=60, deadline=None)
@given(datasets)
def test_round_trip_property(ds):
    assert parse_conll(write_conll(ds)) == ds


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-X", "I-X", "B-Y", "I-Y"]),
                min_size=1, max_size=8))
def test_repair_idempotent_property(tags):
    ds = Dataset((sent([(f"w{i}", t) for i, t in enumerate(tags)]),))
    once = validate_iob(ds)
    assert stray_inside(once.sentences[0].tags) == []
    assert validate_iob(once) == once
    assert extract_entities(once.sentences[0].tags) == extract_entities(tags)


iob_sentences = st.lists(st.sampled_from(["O", "B-X", "I-X", "B-Y", "I-Y"]),
                         min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(iob_sentences, min_size=1, max_size=5))
@example([["O", "B-X"], ["I-X", "I-X"], ["B-Y", "I-X"]])
@example([["B-X", "I-X"], ["I-X"], ["I-Y", "I-Y"]])
def test_span_rule_matches_reference_property(tag_lists):
    """The array rule, run over a whole dataset's flat tag ids, gives every
    sentence the spans of the per-sentence reference, so a sentence that
    opens with I-X after one that ends in X starts a new span; validate_iob
    writes those spans out and leaves the other sentences as they were."""
    ds = Dataset(tuple(sent([(f"w{i}", t) for i, t in enumerate(tags)]) for tags in tag_lists))
    assert array_spans(ds) == [extract_entities(tags) for tags in tag_lists]
    fixed = validate_iob(ds)
    assert len(fixed) == len(ds)
    for s, f in zip(ds.sentences, fixed.sentences):
        expected = tuple(spans_to_tags(extract_entities(s.tags), len(s)))
        assert f.tags == expected and f.surfaces == s.surfaces
        assert (f == s) == (expected == s.tags)


# Any token, tag and id the data model admits, not only IOB-valid ones.
non_space = st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace())
any_surfaces = st.text(non_space, min_size=1, max_size=4)
any_tags = st.just("O") | st.builds(str.__add__, st.sampled_from(["B-", "I-"]),
                                    st.text(non_space, min_size=1, max_size=3))
any_sentences = st.builds(sent, st.lists(st.tuples(any_surfaces, any_tags),
                                         min_size=1, max_size=4),
                          id=st.none() | st.text(max_size=8))
any_datasets = st.builds(lambda ss: Dataset(tuple(ss)), st.lists(any_sentences, max_size=4))


@settings(max_examples=200, deadline=None)
@given(any_datasets)
def test_parse_write_is_identity_property(ds):
    assert parse_conll(write_conll(ds)) == ds


@settings(max_examples=100, deadline=None)
@given(any_datasets, any_datasets, st.integers(0, 2**32), st.booleans())
def test_mixed_dataset_round_trips_property(a, b, seed, shuffle):
    """A mixed dataset is a dataset like any other: its file holds all of it,
    and it equals the per-sentence reference, shuffled sentences included."""
    mixed = mix_datasets(a, [b], seed=seed, shuffle=shuffle)
    assert mixed == mix_reference(a, [b], seed=seed, shuffle=shuffle)
    assert Dataset(mixed.sentences) == parse_conll(write_conll(mixed)) == mixed


@settings(max_examples=100, deadline=None)
@given(any_datasets)
def test_validated_dataset_round_trips_property(ds):
    """validate_iob's rewritten tags column makes a dataset like any other."""
    fixed = validate_iob(ds)
    assert Dataset(fixed.sentences) == parse_conll(write_conll(fixed)) == fixed


@pytest.mark.parametrize("raw, expected", [("  a    b", "a b"), ("", None), (" \t x\ty ", "x y")])
def test_parsed_ids_are_normalised_as_sentence_ids(raw, expected):
    """The parser builds no Sentence, so it normalises an id the way Sentence
    does: runs of whitespace become one space, and a blank id is None."""
    ds = parse_conll(f"# id ={raw}\nx\tO\n")
    assert ds.ids == (expected,) == (Sentence(("x",), ("O",), id=raw).id,)
    assert ds == Dataset((Sentence(("x",), ("O",), id=raw),))
    assert parse_conll(write_conll(ds)) == ds


# The Sentence contract: two aligned, non-empty columns, checked once on
# construction, and a derived (surface, tag) view.
WHITESPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]
bad_tags = st.text(max_size=4).filter(lambda t: not re.fullmatch(r"O|[BI]-\S+", t))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(any_surfaces, any_tags), min_size=1, max_size=5), st.data())
def test_sentence_rejects_malformed_columns_property(pairs, data):
    words, tags = map(list, zip(*pairs))
    Sentence(words, tags)  # the unmodified columns are accepted
    i = data.draw(st.integers(0, len(words) - 1))
    fault = data.draw(st.sampled_from(
        ["empty", "unequal", "empty surface", "whitespace", "bad tag"]))
    if fault == "empty":
        words, tags = [], []
    elif fault == "unequal":
        tags = data.draw(st.sampled_from([tags[:-1], tags + ["O"]]))
    elif fault == "empty surface":
        words[i] = ""
    elif fault == "whitespace":
        cut = data.draw(st.integers(0, len(words[i])))
        words[i] = words[i][:cut] + data.draw(st.sampled_from(WHITESPACE)) + words[i][cut:]
    else:
        tags[i] = data.draw(bad_tags)
    with pytest.raises(ValueError):
        Sentence(words, tags)


@pytest.mark.parametrize("tag", ["", "B-", "X-CW", "0", "o", "O\n", "B-X\n", "I-X Y"])
def test_sentence_rejects_non_iob_tag(tag):
    with pytest.raises(ValueError, match="invalid IOB tag"):
        Sentence(("a",), (tag,))


def test_invalid_tag_named_is_the_first_under_every_hash_seed():
    """Sentence and parse_conll both name the first bad tag, whatever order
    the hash seed gives a set of the tags."""
    code = textwrap.dedent("""
        from mixner.corpus import Sentence, parse_conll
        for make in (lambda: Sentence("abcd", ("X1", "X2", "X3", "X4")),
                     lambda: parse_conll("a X1\\nb X2\\nc X3\\nd X4\\n")):
            try:
                make()
            except ValueError as exc:
                print(exc)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert run.stdout == "invalid IOB tag 'X1'\nline 1: invalid IOB tag 'X1'\n", seed


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(["O", "B-X", "I-X", "B-Y", "# c"])),
                min_size=1, max_size=300),
       st.sampled_from(["X-CW", "0", "B-", "b-X", None]))
def test_parse_names_the_line_of_a_bad_tag_property(lines, bad):
    """A bad tag or a missing tag column (None) after many valid lines (None:
    a blank line; "# c": a metadata line) is still reported on its own line;
    without require_tags it reads as O."""
    text = "".join("\n" if t is None else f"{t}\n" if t[0] == "#" else f"w\t{t}\n"
                   for t in lines)
    last = f"w\t{bad}\n" if bad else "w\n"
    with pytest.raises(ParseError, match="invalid IOB tag" if bad else "no tag column") as err:
        parse_conll(text + last)
    assert err.value.line == len(lines) + 1
    assert parse_conll(text + last, require_tags=False).sentences[-1].tags[-1] == "O"


@settings(max_examples=60, deadline=None)
@given(any_sentences)
def test_tokens_view_property(s):
    assert s.tokens == tuple(zip(s.surfaces, s.tags))
    assert all(isinstance(t, Token) for t in s.tokens)
    assert [(t.surface, t.tag) for t in s.tokens] == list(zip(s.surfaces, s.tags))
