"""What the benchmark's tracer, bench/tracing.py, reads from mixner: the names
it wraps and the counts it takes from their arguments and results.  A change
under src/ that breaks a counter fails here, not only in a BENCH file.

bench/tracing.py is loaded from its file, with no bytecode written, and its
tracer is uninstalled however the test ends, so nothing under bench/ is
written or left wrapped.
"""

import importlib.util
import sys
from pathlib import Path

import mixner.cli as cli
from helpers import make_separable_corpus
from mixner.corpus import write_conll

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Names in the tracer's plan that mixner no longer has; the tracer skips them.
MISSING = {"mixner.cli.induce_tagset", "mixner.cli.encode_dataset", "mixner.cli.viterbi",
           "mixner.crf.score_entities", "mixner.eval.validate_iob"}

# Counts that the benchmark's per-layer rates are made from.
COUNTS = ("corpus.parse_conll.tokens", "features.encode_dataset.tokens",
          "crf.nll_and_gradient.tokens", "crf.load_model.bytes", "eval.score_entities.tokens",
          "crf.viterbi.tokens", "oracle.sequences")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_pipeline_counts_every_layer(tmp_path):
    """A traced mix, 1-epoch train, tag, eval and verify through
    mixner.cli.main: no counter fails and every layer counts some work."""
    files = {}
    for name, n, seed in (("train", 60, 11), ("dev", 20, 12), ("aux", 30, 13)):
        files[name] = tmp_path / f"{name}.conll"
        files[name].write_text(write_conll(make_separable_corpus(n, seed)), encoding="utf-8")
    mixed, model, pred = (tmp_path / n for n in ("mixed.conll", "model.txt", "pred.conll"))
    steps = [["mix", "--primary", files["train"], "--aux", files["aux"], "-o", mixed],
             ["train", "--train", mixed, "--dev", files["dev"], "--epochs", "1", "-o", model],
             ["tag", "--model", model, "--input", files["dev"], "-o", pred],
             ["eval", "--gold", files["dev"], "--pred", pred, "--format", "json",
              "--report", tmp_path / "report.json"],
             ["verify", "--trials", "4"]]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for argv in steps:
            assert cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= MISSING
    assert tracer.counts["trace.counter_errors"] == 0
    assert {name: tracer.counts[name] for name in COUNTS if tracer.counts[name] <= 0} == {}
