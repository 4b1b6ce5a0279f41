"""Entity-level exact-match scoring and token-level confusion matrices."""

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Dataset, _spans, _tag_classes, _tag_ids


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


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassScore]
    weighted_f1: float
    micro_f1: float
    macro_f1: float
    confusion: ConfusionMatrix


def _check_aligned(gold: Dataset, pred: Dataset) -> None:
    """Raise ValueError naming the first sentence whose tokens differ."""
    if gold.offsets == pred.offsets and gold.surfaces == pred.surfaces:
        return
    if len(gold) != len(pred):
        raise ValueError(f"sentence count mismatch: gold has {len(gold)}, "
                         f"predictions have {len(pred)}")
    go, po = gold.offsets, pred.offsets
    for si in range(len(gold)):
        g, p = gold.surfaces[go[si]:go[si + 1]], pred.surfaces[po[si]:po[si + 1]]
        if len(g) != len(p):
            raise ValueError(f"sentence {si}: token count mismatch "
                             f"({len(g)} gold vs {len(p)} predicted)")
        if g != p:
            i = next(i for i, (a, b) in enumerate(zip(g, p)) if a != b)
            raise ValueError(f"sentence {si}: token {i} differs "
                             f"({g[i]!r} gold vs {p[i]!r} predicted)")


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    # 0/0 counts as 0 throughout.
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _span_counts(gold: np.ndarray, pred: np.ndarray, offsets: np.ndarray,
                 names: Sequence[str]) -> tuple[Counter, Counter, Counter]:
    """True positives, false positives and false negatives per class, from
    gold and predicted flat arrays of ids into names over the same offsets; a
    predicted span is a true positive when a gold span has its start, end and class."""
    classes, cls, is_b = _tag_classes(names)
    (gs, ge, gc), (ps, pe, pc) = (_spans(ids, offsets, cls, is_b) for ids in (gold, pred))
    gold_at = np.full(len(gold), -1, np.intp)  # gold spans never overlap: one per start
    gold_at[gs] = ge * len(classes) + gc
    tp = np.bincount(pc[gold_at[ps] == pe * len(classes) + pc], minlength=len(classes))
    counts = (tp, np.bincount(pc, minlength=len(classes)) - tp,
              np.bincount(gc, minlength=len(classes)) - tp)
    return tuple(Counter({c: n for c, n in zip(classes, col.tolist()) if n}) for col in counts)


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

    Spans are read off flat tag ids by corpus._spans, where a stray I-X
    opens a span, so raw decoder output can be scored directly.
    """
    _check_aligned(gold, pred)
    names, offsets, (g, p) = _tag_ids(gold, pred)
    tp, fp, fn = _span_counts(g, p, offsets, names)
    per_class, weighted = _class_scores(tp, fp, fn)
    supported = [cs.f1 for cs in per_class.values() if cs.support]
    macro = sum(supported) / len(supported) if supported else 0.0
    _, _, micro = _prf(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    classes, cls, _ = _tag_classes(names)
    k = len(classes) + 1  # O is label 0, class c is label c + 1
    counts = np.bincount((cls[g] + 1) * k + cls[p] + 1, minlength=k * k).reshape(k, k)
    confusion = ConfusionMatrix(("O", *classes), tuple(map(tuple, counts.tolist())))
    return EvalReport(per_class, weighted, micro, macro, confusion)


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
