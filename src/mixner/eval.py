"""Entity-level exact-match scoring and token-level confusion matrices."""

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .corpus import Dataset, EntitySpan, extract_entities


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ConfusionMatrix:
    """Token-level counts over collapsed classes; rows gold, columns predicted."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassScore]
    weighted_f1: float
    micro_f1: float
    macro_f1: float
    confusion: ConfusionMatrix


def _check_aligned(gold: Dataset, pred: Dataset) -> None:
    if len(gold.sentences) != len(pred.sentences):
        raise ValueError(f"sentence count mismatch: gold has {len(gold.sentences)}, "
                         f"predictions have {len(pred.sentences)}")
    for si, (g, p) in enumerate(zip(gold.sentences, pred.sentences)):
        if len(g) != len(p):
            raise ValueError(f"sentence {si}: token count mismatch "
                             f"({len(g)} gold vs {len(p)} predicted)")
        if g.surfaces != p.surfaces:
            i = next(i for i, (a, b) in enumerate(zip(g.surfaces, p.surfaces)) if a != b)
            raise ValueError(f"sentence {si}: token {i} differs "
                             f"({g.surfaces[i]!r} gold vs {p.surfaces[i]!r} predicted)")


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    # 0/0 counts as 0 throughout.
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _confusion(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    def collapse(tag: str) -> str:
        return "O" if tag == "O" else tag[2:]

    pairs = Counter()  # (gold tag, predicted tag) -> tokens
    for g, p in zip(gold.sentences, pred.sentences):
        pairs.update(zip(g.tags, p.tags))
    classes = {collapse(t) for pair in pairs for t in pair}
    labels = ["O"] + sorted(classes - {"O"})
    pos = {c: i for i, c in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for (gt, pt), n in pairs.items():
        counts[pos[collapse(gt)]][pos[collapse(pt)]] += n
    return ConfusionMatrix(tuple(labels), tuple(tuple(row) for row in counts))


def _span_counts(gold_spans: Iterable[list[EntitySpan]],
                 pred_spans: Iterable[list[EntitySpan]]) -> tuple[Counter, Counter, Counter]:
    """True positives, false positives and false negatives per class, from
    the gold and predicted span lists of aligned sentences."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for gspans, pspans in zip(gold_spans, pred_spans):
        gset, pset = set(gspans), set(pspans)
        for sp in pspans:
            (tp if sp in gset else fp)[sp.label] += 1
        fn.update(sp.label for sp in gspans if sp not in pset)
    return tp, fp, fn


def _class_scores(tp: Counter, fp: Counter, fn: Counter) -> tuple[dict[str, ClassScore], float]:
    """Per-class scores in sorted class order, and their support-weighted F1
    summed in that order."""
    per_class = {}
    for c in sorted(set(tp) | set(fp) | set(fn)):
        p, r, f1 = _prf(tp[c], fp[c], fn[c])
        per_class[c] = ClassScore(p, r, f1, tp[c] + fn[c])
    total_support = sum(cs.support for cs in per_class.values())
    weighted = (sum(cs.f1 * cs.support for cs in per_class.values()) / total_support
                if total_support else 0.0)
    return per_class, weighted


def score_entities(gold: Dataset, pred: Dataset) -> EvalReport:
    """Exact-match entity scoring: a predicted span counts only when its
    class and both boundaries agree with a gold span.

    Spans are read with extract_entities, where a stray I-X opens a span, so
    raw decoder output can be scored directly.
    """
    _check_aligned(gold, pred)
    tp, fp, fn = _span_counts((extract_entities(s.tags) for s in gold.sentences),
                              (extract_entities(s.tags) for s in pred.sentences))
    per_class, weighted = _class_scores(tp, fp, fn)
    supported = [cs.f1 for cs in per_class.values() if cs.support]
    macro = sum(supported) / len(supported) if supported else 0.0
    _, _, micro = _prf(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return EvalReport(per_class, weighted, micro, macro, _confusion(gold, pred))


def render_report(report: EvalReport, fmt: str = "text") -> str:
    """Render an EvalReport as an aligned text table or canonical JSON."""
    if fmt == "json":
        obj = {
            "per_class": {c: {"p": cs.precision, "r": cs.recall,
                              "f1": cs.f1, "support": cs.support}
                          for c, cs in report.per_class.items()},
            "weighted_f1": report.weighted_f1,
            "micro_f1": report.micro_f1,
            "macro_f1": report.macro_f1,
            "confusion": {"labels": list(report.confusion.labels),
                          "counts": [list(row) for row in report.confusion.counts]},
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = []
    name_w = max([len("class")] + [len(c) for c in report.per_class])
    lines.append(f"{'class':<{name_w}}  precision  recall  f1      support")
    for c in sorted(report.per_class):
        cs = report.per_class[c]
        lines.append(f"{c:<{name_w}}  {cs.precision:9.4f}  {cs.recall:6.4f}  "
                     f"{cs.f1:6.4f}  {cs.support:7d}")
    lines.append(f"micro_f1 {report.micro_f1:.4f}")
    lines.append(f"macro_f1 {report.macro_f1:.4f}")
    lines.append(f"weighted_f1 {report.weighted_f1:.4f}")
    lines.append("")
    lines.append("token confusion (rows = gold, columns = predicted)")
    labels = report.confusion.labels
    col_w = max([5] + [len(c) for c in labels])
    header = " " * col_w + "".join(f"  {c:>{col_w}}" for c in labels)
    lines.append(header)
    for label, row in zip(labels, report.confusion.counts):
        lines.append(f"{label:<{col_w}}" + "".join(f"  {n:>{col_w}d}" for n in row))
    return "\n".join(lines) + "\n"
