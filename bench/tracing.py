"""Spans around calls into mixner, recorded from outside the package.

The tracer replaces module attributes (for example ``mixner.cli.viterbi`` or
``mixner.oracle.nll_and_gradient``) with wrappers that record a span: name,
start, end, parent span and request id.  Because the CLI, ``crf.train`` and
the oracle look these names up in their own module namespaces at call time,
wrapping the attribute is enough to see every call; nothing in ``src/``
changes.  Spans stay in memory and are written out when the run ends.

Each wrapped name may carry a counter that records work done (tokens,
sequences, bytes) from the call's arguments or result, so rates are measured
where the work happens.  Counting runs after the span closes, so its cost is
tracing overhead, not layer time.
"""

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

_CLOCK = time.perf_counter


def _tokens(ds) -> int:
    return sum(len(s.tokens) for s in ds.sentences)


def _count_parse(counts, args, result):
    counts["corpus.parse_conll.tokens"] += _tokens(result)


def _count_write(counts, args, result):
    counts["corpus.write_conll.tokens"] += _tokens(args[0])


def _count_encode(counts, args, result):
    ds, index = args[0], args[1]
    kept = sum(len(ids) for enc in result for ids in enc.attr_ids)
    positions = sum(enc.length for enc in result)
    known = index.attribute_to_id
    oov = sum(1 for s in ds.sentences for tok in s.tokens
              if f"w0={tok.surface}" not in known)
    counts["features.encode_dataset.tokens"] += positions
    counts["features.encode_dataset.attrs_kept"] += kept
    # Four attributes per position under the default template (bias, w0,
    # w-1, w+1); the CLI cannot select another template.
    counts["features.encode_dataset.attrs_extracted"] += 4 * positions
    counts["features.w0_oov"] += oov


def _count_batch(counts, args, result):
    counts["crf.nll_and_gradient.tokens"] += sum(enc.length for enc in args[1])


def _count_viterbi(counts, args, result):
    counts["crf.viterbi.tokens"] += args[1].length


def _count_score(counts, args, result):
    counts["eval.score_entities.tokens"] += _tokens(args[0])


def _count_load(counts, args, result):
    counts["crf.load_model.bytes"] += os.path.getsize(args[0])


def _count_sequences(counts, args, result):
    inst = args[0]
    counts["oracle.sequences"] += inst.model.num_tags ** inst.sentence.length


# (module, attribute, span name, counter).  The same function is wrapped in
# every namespace that calls it, under one span name.
PLAN = (
    ("mixner.cli", "main", "cli.main", None),
    ("mixner.cli", "parse_conll", "corpus.parse_conll", _count_parse),
    ("mixner.cli", "write_conll", "corpus.write_conll", _count_write),
    ("mixner.cli", "mix_datasets", "corpus.mix_datasets", None),
    ("mixner.cli", "validate_iob", "corpus.validate_iob", None),
    ("mixner.cli", "induce_tagset", "corpus.induce_tagset", None),
    ("mixner.cli", "build_index", "features.build_index", None),
    ("mixner.cli", "encode_dataset", "features.encode_dataset", _count_encode),
    ("mixner.cli", "train", "crf.train", None),
    ("mixner.cli", "save_model", "crf.save_model", None),
    ("mixner.cli", "load_model", "crf.load_model", _count_load),
    ("mixner.cli", "viterbi", "crf.viterbi", _count_viterbi),
    ("mixner.cli", "score_entities", "eval.score_entities", _count_score),
    ("mixner.cli", "render_report", "eval.render_report", None),
    ("mixner.cli", "run_verification", "oracle.run_verification", None),
    ("mixner.crf", "nll_and_gradient", "crf.nll_and_gradient", _count_batch),
    ("mixner.crf", "viterbi", "crf.viterbi", _count_viterbi),
    ("mixner.crf", "log_partition", "crf.log_partition", None),
    ("mixner.crf", "marginals", "crf.marginals", None),
    ("mixner.crf", "score_entities", "eval.score_entities", _count_score),
    ("mixner.crf", "encode_dataset", "features.encode_dataset", _count_encode),
    ("mixner.eval", "validate_iob", "corpus.validate_iob", None),
    ("mixner.oracle", "nll_and_gradient", "crf.nll_and_gradient", _count_batch),
    ("mixner.oracle", "fd_gradient", "oracle.fd_gradient", None),
    ("mixner.oracle", "random_instance", "oracle.random_instance", None),
    ("mixner.oracle", "enumerate_logZ", "oracle.enumerate_logZ", _count_sequences),
    ("mixner.oracle", "enumerate_best", "oracle.enumerate_best", _count_sequences),
    ("mixner.oracle", "enumerate_marginals", "oracle.enumerate_marginals",
     _count_sequences),
)


class Tracer:
    """Collects spans as tuples (span_id, parent_id, request_id, name,
    start, end), in the order the spans opened."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.request = None
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1] if self._stack else None,
                           self.request, name, _CLOCK(), None))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = _CLOCK()
        self._stack.pop()
        self.spans[sid] = self.spans[sid][:5] + (end,)

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                try:
                    count(tracer.counts, args, result)
                except Exception:  # a counter that no longer fits the API
                    tracer.counts["trace.counter_errors"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every attribute in the plan; names a later version of the
        package no longer has are skipped and listed in ``missing``."""
        self.missing = []
        for module_name, attr, name, count in PLAN:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        """The root span of one request; spans opened inside carry its id."""
        self.request = request_id
        sid = self._open("request")
        try:
            yield
        finally:
            self._close(sid)
            self.request = None


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is the part of the
    interval no child covers.
    """
    child_time = defaultdict(float)
    for _sid, parent, _req, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, _parent, _req, name, start, end in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[sid]
    return out
