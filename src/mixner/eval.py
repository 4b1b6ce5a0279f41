"""Entity-level exact-match scoring and token-level confusion matrices."""

import json
from dataclasses import dataclass

from .corpus import Dataset, extract_entities


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
        if len(g.tokens) != len(p.tokens):
            raise ValueError(f"sentence {si}: token count mismatch "
                             f"({len(g.tokens)} gold vs {len(p.tokens)} predicted)")
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


def token_confusion(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    """Count collapsed-class agreement token by token."""
    _check_aligned(gold, pred)
    return _confusion(gold, pred)


def _confusion(gold: Dataset, pred: Dataset) -> ConfusionMatrix:
    def collapse(tag: str) -> str:
        return "O" if tag == "O" else tag[2:]

    classes = set()
    pairs = []
    for g, p in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(g.tokens, p.tokens):
            gc, pc = collapse(gt.tag), collapse(pt.tag)
            classes.update((gc, pc))
            pairs.append((gc, pc))
    labels = ["O"] + sorted(classes - {"O"})
    pos = {c: i for i, c in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for gc, pc in pairs:
        counts[pos[gc]][pos[pc]] += 1
    return ConfusionMatrix(tuple(labels), tuple(tuple(row) for row in counts))


def score_entities(gold: Dataset, pred: Dataset) -> EvalReport:
    """Exact-match entity scoring: a predicted span counts only when its
    class and both boundaries agree with a gold span.

    Spans are read with extract_entities, where a stray I-X opens a span, so
    raw decoder output can be scored directly.
    """
    _check_aligned(gold, pred)
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for g, p in zip(gold.sentences, pred.sentences):
        gspans = extract_entities(g.tags)
        pspans = extract_entities(p.tags)
        gset = set(gspans)
        pset = set(pspans)
        for sp in pspans:
            bucket = tp if sp in gset else fp
            bucket[sp.label] = bucket.get(sp.label, 0) + 1
        for sp in gspans:
            if sp not in pset:
                fn[sp.label] = fn.get(sp.label, 0) + 1

    classes = sorted(set(tp) | set(fp) | set(fn))
    per_class = {}
    for c in classes:
        p, r, f1 = _prf(tp.get(c, 0), fp.get(c, 0), fn.get(c, 0))
        per_class[c] = ClassScore(p, r, f1, tp.get(c, 0) + fn.get(c, 0))

    total_support = sum(cs.support for cs in per_class.values())
    weighted = (sum(cs.f1 * cs.support for cs in per_class.values()) / total_support
                if total_support else 0.0)
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


def report_from_json(text: str) -> EvalReport:
    """Rebuild an EvalReport from render_report(..., "json") output."""
    obj = json.loads(text)
    per_class = {c: ClassScore(d["p"], d["r"], d["f1"], d["support"])
                 for c, d in obj["per_class"].items()}
    confusion = ConfusionMatrix(tuple(obj["confusion"]["labels"]),
                                tuple(tuple(row) for row in obj["confusion"]["counts"]))
    return EvalReport(per_class, obj["weighted_f1"], obj["micro_f1"],
                      obj["macro_f1"], confusion)
