import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (EntitySpan, array_spans, confusion_reference, extract_entities,
                     report_from_json, span_counts_reference, spans_to_tags, stray_inside)
from mixner.corpus import Dataset, Sentence, _tag_ids, parse_conll, validate_iob
from mixner.eval import _class_scores, _span_counts, render_report, score_entities


def sent(pairs):
    return Sentence(*zip(*pairs))


def tagged(*tag_lists):
    """Datasets of dummy tokens carrying the given tag sequences."""
    return Dataset(tuple(sent([(f"w{i}", t) for i, t in enumerate(tags)])
                         for tags in tag_lists))


def spans(tags):
    """The spans of one tag sequence by the reference, checked against the
    array rule of corpus._spans."""
    ref = extract_entities(tags)
    assert array_spans(tagged(tags)) == [ref]
    return ref


class TestExtract:
    def test_table1_span(self):
        assert spans(["O", "B-CW", "I-CW", "I-CW"]) == [EntitySpan("CW", 1, 3)]

    def test_table2_prod_span(self, table2_text):
        s = parse_conll(table2_text).sentences[0]
        assert spans(s.tags) == [EntitySpan("PROD", 3, 6)]

    def test_all_o(self):
        assert spans(["O", "O"]) == []

    def test_adjacent_spans(self):
        assert spans(["B-CW", "B-CW", "I-CW"]) == [EntitySpan("CW", 0, 0),
                                                   EntitySpan("CW", 1, 2)]

    def test_span_at_sentence_end(self):
        assert spans(["O", "B-GRP"]) == [EntitySpan("GRP", 1, 1)]

    def test_stray_inside_opens_span(self):
        assert spans(["O", "I-CW", "I-CW"]) == [EntitySpan("CW", 1, 2)]
        assert spans(["B-PROD", "I-CW", "I-PROD"]) == [
            EntitySpan("PROD", 0, 0), EntitySpan("CW", 1, 1), EntitySpan("PROD", 2, 2)]

    def test_span_does_not_cross_sentences(self):
        ds = tagged(["O", "B-CW"], ["I-CW", "I-CW"], ["B-CW"], ["I-PROD"])
        assert array_spans(ds) == [[EntitySpan("CW", 1, 1)], [EntitySpan("CW", 0, 1)],
                                   [EntitySpan("CW", 0, 0)], [EntitySpan("PROD", 0, 0)]]

    def test_non_iob_tag_rejected(self):
        with pytest.raises(ValueError, match="position 1"):
            extract_entities(["O", "X-CW"])

    def test_spans_to_tags_inverse(self):
        tags = ["O", "B-CW", "I-CW", "O", "B-PROD"]
        assert spans_to_tags(extract_entities(tags), len(tags)) == tags


class TestScore:
    def test_perfect_prediction(self, table2_text):
        ds = parse_conll(table2_text)
        report = score_entities(ds, ds)
        assert report.weighted_f1 == 1.0
        assert report.micro_f1 == 1.0
        assert all(cs.f1 == 1.0 for cs in report.per_class.values())

    def test_three_matched_one_missed(self):
        gold = tagged(["B-A", "O", "B-A"], ["B-A", "O", "B-B"])
        pred = tagged(["B-A", "O", "B-A"], ["B-A", "O", "O"])
        report = score_entities(gold, pred)
        assert report.per_class["A"].f1 == 1.0
        assert report.per_class["B"].f1 == 0.0
        assert report.per_class["B"].support == 1
        assert report.weighted_f1 == 0.75
        assert report.macro_f1 == 0.5
        # pooled: tp=3, fp=0, fn=1
        assert report.micro_f1 == pytest.approx(6 / 7)

    def test_boundary_shift_scores_zero(self):
        gold = tagged(["O", "B-CW", "I-CW", "O"])
        pred = tagged(["O", "B-CW", "O", "O"])
        cs = score_entities(gold, pred).per_class["CW"]
        assert (cs.precision, cs.recall, cs.f1) == (0.0, 0.0, 0.0)

    def test_spurious_class_has_zero_support(self):
        gold = tagged(["O", "O"])
        pred = tagged(["B-CW", "O"])
        report = score_entities(gold, pred)
        assert report.per_class["CW"].support == 0
        assert report.weighted_f1 == 0.0

    def test_raw_decoder_output_is_repaired(self):
        gold = tagged(["B-CW", "I-CW"])
        pred = tagged(["I-CW", "I-CW"])  # stray I- becomes B- before scoring
        assert score_entities(gold, pred).per_class["CW"].f1 == 1.0

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            score_entities(tagged(["O"]), tagged(["O"], ["O"]))

    def test_token_count_mismatch_names_sentence(self):
        with pytest.raises(ValueError, match="sentence 1"):
            score_entities(tagged(["O"], ["O", "O"]), tagged(["O"], ["O"]))

    def test_surface_mismatch_names_sentence(self):
        gold = Dataset((sent([("a", "O")]), sent([("a", "B-X"), ("b", "O")])))
        pred = Dataset((sent([("a", "O")]), sent([("zzz", "B-X"), ("yyy", "O")])))
        with pytest.raises(ValueError, match="sentence 1"):
            score_entities(gold, pred)
        with pytest.raises(ValueError, match="sentence 1"):
            score_entities(pred, gold)


class TestConfusion:
    def test_table1_all_o_prediction(self, table1_text):
        gold = parse_conll(table1_text)
        pred = Dataset((sent([(w, "O") for w in gold.sentences[0].surfaces]),))
        cm = score_entities(gold, pred).confusion
        assert cm.labels == ("O", "CW")
        gold_cw = cm.labels.index("CW")
        assert cm.counts[gold_cw][cm.labels.index("O")] == 3
        assert cm.counts[0][0] == 1
        assert sum(map(sum, cm.counts)) == 4

    def test_included_in_report(self, table2_text):
        ds = parse_conll(table2_text)
        report = score_entities(ds, ds)
        assert sum(map(sum, report.confusion.counts)) == sum(len(s) for s in ds)


class TestRender:
    def test_text_contains_weighted_line(self, table2_text):
        ds = parse_conll(table2_text)
        assert "weighted_f1 1.0000" in render_report(score_entities(ds, ds))

    def test_text_quarter_case(self):
        gold = tagged(["B-A", "O", "B-A"], ["B-A", "O", "B-B"])
        pred = tagged(["B-A", "O", "B-A"], ["B-A", "O", "O"])
        text = render_report(score_entities(gold, pred), "text")
        assert "weighted_f1 0.7500" in text

    def test_json_round_trip_byte_identical(self, table2_text):
        ds = parse_conll(table2_text)
        pred = validate_iob_like(ds)
        doc = render_report(score_entities(ds, pred), "json")
        assert render_report(report_from_json(doc), "json") == doc

    def test_json_schema_keys(self):
        gold = tagged(["B-A", "O"])
        doc = render_report(score_entities(gold, gold), "json")
        report = report_from_json(doc)
        assert report.per_class["A"].support == 1
        import json
        obj = json.loads(doc)
        assert set(obj) == {"per_class", "weighted_f1", "micro_f1", "macro_f1",
                            "confusion"}
        assert set(obj["per_class"]["A"]) == {"p", "r", "f1", "support"}

    def test_unknown_format_rejected(self):
        gold = tagged(["O"])
        with pytest.raises(ValueError):
            render_report(score_entities(gold, gold), "yaml")


def validate_iob_like(ds):
    """A slightly perturbed copy: drop the last entity of the last sentence."""
    sentences = list(ds.sentences)
    last = sentences[-1]
    sentences[-1] = Sentence(last.surfaces, ("O",) * len(last))
    return Dataset(tuple(sentences))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-CW", "I-CW", "B-PROD"]),
                min_size=1, max_size=8))
def test_spans_round_trip_property(tags):
    ds = tagged(tags)
    repaired = validate_iob(ds).sentences[0].tags
    spans = extract_entities(repaired)
    assert tuple(spans_to_tags(spans, len(repaired))) == repaired
    assert spans == extract_entities(tags)


iob_tag = st.sampled_from(["O", "B-X", "I-X", "B-Y", "I-Y"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(iob_tag, min_size=1, max_size=7), min_size=1, max_size=4),
       st.data())
def test_raw_and_repaired_reports_equal_property(gold_tags, data):
    """Scoring raw tags with stray I-X gives the very report that scoring
    their repaired copies gives."""
    pred_tags = [data.draw(st.lists(iob_tag, min_size=len(tags), max_size=len(tags)))
                 for tags in gold_tags]
    gold, pred = tagged(*gold_tags), tagged(*pred_tags)
    fixed_gold, fixed_pred = validate_iob(gold), validate_iob(pred)
    assert all(stray_inside(s.tags) == [] for s in fixed_gold.sentences + fixed_pred.sentences)
    assert (render_report(score_entities(gold, pred), "json")
            == render_report(score_entities(fixed_gold, fixed_pred), "json"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(iob_tag, min_size=1, max_size=7), min_size=1, max_size=4),
       st.data())
def test_span_helpers_match_score_entities_property(gold_tags, data):
    """The span counts that train takes from tag ids, and the scores and
    confusion matrix of score_entities, equal a naive count over the
    reference spans and tag pairs, stray I-X included."""
    pred_tags = [data.draw(st.lists(iob_tag, min_size=len(tags), max_size=len(tags)))
                 for tags in gold_tags]
    gold, pred = tagged(*gold_tags), tagged(*pred_tags)
    expected = span_counts_reference(gold, pred)
    names, offsets, (g, p) = _tag_ids(gold, pred)
    assert _span_counts(g, p, offsets, names) == expected
    # train passes its whole tag set, which may hold tags no sentence has.
    assert _span_counts(g, p, offsets, names + ["B-Z", "I-Z"]) == expected
    report = score_entities(gold, pred)
    assert _class_scores(*expected) == (report.per_class, report.weighted_f1)
    assert report.confusion == confusion_reference(gold, pred)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-CW", "B-PROD"]), min_size=1, max_size=6),
       st.lists(st.sampled_from(["O", "B-CW", "B-PROD"]), min_size=1, max_size=6))
def test_weighted_f1_within_class_range(gold_tags, pred_tags):
    n = min(len(gold_tags), len(pred_tags))
    gold, pred = tagged(gold_tags[:n]), tagged(pred_tags[:n])
    report = score_entities(gold, pred)
    supported = [cs.f1 for cs in report.per_class.values() if cs.support]
    if supported:
        assert min(supported) - 1e-12 <= report.weighted_f1 <= max(supported) + 1e-12
    else:
        assert report.weighted_f1 == 0.0
