"""Release gate: one end-to-end check per shipping requirement.

Run ``pytest tests/test_acceptance.py -v -s`` to get a single PASS/FAIL
line per check on the console.  The reference-corpus check skips unless
MIXNER_DATA points at a directory with the real splits; everything else
runs on generated data and must stay green.
"""

import functools
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import make_separable_corpus, stray_inside
from mixner.cli import main
from mixner.corpus import (Dataset, Sentence, mix_datasets, parse_conll,
                           validate_iob, write_conll)
from mixner.crf import (TrainConfig, log_partition, marginals,
                        nll_and_gradient, train, viterbi)
from mixner.eval import score_entities
from mixner.features import EncodedCorpus, build_index
from mixner.modelfile import save_model
from mixner.oracle import (enumerate_best, enumerate_logZ,
                           enumerate_marginals, fd_gradient, gradient_error,
                           random_instance)


def gate(name):
    """Print one console line per check so the gate reads at a glance."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                word = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"{word}  {name}")
                raise
            print(f"PASS  {name}")
        return wrapper
    return deco


def tagged(*sentences):
    sents = []
    for tags in sentences:
        sents.append(Sentence(tuple(f"w{i}" for i in range(len(tags))), tags))
    return Dataset(tuple(sents))


@gate("inference matches exhaustive enumeration on 200 random instances")
def test_enumeration_agreement_bulk():
    rng = random.Random(97)
    started = time.monotonic()
    for _ in range(200):
        inst = random_instance(rng)
        assert abs(log_partition(inst.model, inst.sentence)
                   - enumerate_logZ(inst)) <= 1e-9
        path, score = viterbi(inst.model, inst.sentence)
        ref_path, ref_score = enumerate_best(inst)
        assert path == ref_path
        assert abs(score - ref_score) <= 1e-9
        node, edge = marginals(inst.model, inst.sentence)
        ref_node, ref_edge = enumerate_marginals(inst)
        assert np.max(np.abs(node - ref_node)) <= 1e-9
        assert np.max(np.abs(edge - ref_edge)) <= 1e-9
    assert time.monotonic() - started <= 10.0


@gate("analytic gradient within 1e-4 of finite differences, l2 included")
def test_gradient_agreement_bulk():
    rng = random.Random(53)
    for i in range(21):
        l2 = (0.0, 1e-4, 1e-2)[i % 3]
        inst = random_instance(rng)
        batch = EncodedCorpus.from_sentences([inst.sentence])
        analytic = nll_and_gradient(inst.model, batch, l2)[1]
        numeric = fd_gradient(inst.model, batch, l2, h=1e-5)
        assert gradient_error(analytic, numeric) <= 1e-4


@gate("default training reaches dev weighted F1 0.95 on separable data")
def test_synthetic_end_to_end(tmp_path):
    train_ds = make_separable_corpus(1000, 21)
    dev_ds = make_separable_corpus(200, 22)
    index = build_index(train_ds)
    cfg = TrainConfig()

    started = time.monotonic()
    model_a, hist_a = train(train_ds, dev_ds, cfg, index)
    elapsed = time.monotonic() - started
    assert hist_a.records[hist_a.best_epoch - 1].dev_f1 >= 0.95
    assert elapsed <= 60.0

    model_b, hist_b = train(train_ds, dev_ds, cfg, index)
    save_model(model_a, tmp_path / "a.txt")
    save_model(model_b, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@gate("dataset mixing is additive, seeded, and identity without extras")
def test_mixing_mechanics():
    primary = make_separable_corpus(40, 1)
    extra_a = make_separable_corpus(25, 2)
    extra_b = make_separable_corpus(15, 3)

    mixed = mix_datasets(primary, (extra_a, extra_b))
    assert len(mixed) == len(primary) + len(extra_a) + len(extra_b)

    one = mix_datasets(primary, (extra_a,), seed=13, shuffle=True)
    two = mix_datasets(primary, (extra_a,), seed=13, shuffle=True)
    assert write_conll(one) == write_conll(two)

    alone = mix_datasets(primary)
    assert write_conll(alone) == write_conll(primary)


@gate("corpus files survive a parse/write/parse round trip")
def test_corpus_round_trip(table1_text, table2_text, multiconer_text):
    for text in (table1_text, table2_text, multiconer_text):
        first = parse_conll(text)
        canon = write_conll(first)
        second = parse_conll(canon)
        assert second == first
        assert write_conll(second) == canon

    broken = parse_conll("a\tI-X\nb\tI-X\n\nc\tO\nd\tI-Y\n")
    repaired = validate_iob(broken)
    assert [s.tags for s in repaired] == [("B-X", "I-X"), ("O", "B-Y")]
    assert all(stray_inside(s.tags) == [] for s in repaired)
    assert validate_iob(repaired) == repaired


@gate("metrics hit their hand-computed values exactly")
def test_metric_sanity(table2_text):
    perfect = parse_conll(table2_text)
    assert score_entities(perfect, perfect).weighted_f1 == 1.0

    gold = tagged(["B-A", "O", "B-A"], ["B-A", "O", "B-B"])
    pred = tagged(["B-A", "O", "B-A"], ["B-A", "O", "O"])
    assert score_entities(gold, pred).weighted_f1 == 0.75

    gold = tagged(["O", "B-CW", "I-CW", "O"])
    shifted = tagged(["O", "B-CW", "O", "O"])
    assert score_entities(gold, shifted).per_class["CW"].f1 == 0.0

    n_tokens = sum(len(s) for s in perfect.sentences)
    assert sum(map(sum, score_entities(perfect, perfect).confusion.counts)) == n_tokens


def run_sequence(tmp_path, tag, train_file, dev_file, aux=None):
    """mix -> train -> tag -> eval; returns the weighted F1 from the report."""
    mixed = tmp_path / f"{tag}.conll"
    model = tmp_path / f"{tag}.model"
    pred = tmp_path / f"{tag}.pred.conll"
    report = tmp_path / f"{tag}.report.json"
    mix_cmd = ["mix", "--primary", str(train_file), "-o", str(mixed)]
    if aux is not None:
        mix_cmd[3:3] = ["--aux", str(aux)]
    for cmd in (
        mix_cmd,
        ["train", "--train", str(mixed), "--dev", str(dev_file),
         "--epochs", "3", "--batch", "16", "-o", str(model)],
        ["tag", "--model", str(model), "--input", str(dev_file),
         "-o", str(pred)],
        ["eval", "--gold", str(dev_file), "--pred", str(pred),
         "--format", "json", "--report", str(report)],
    ):
        assert main(cmd) == 0, cmd
    return json.loads(report.read_text(encoding="utf-8"))["weighted_f1"]


@gate("with/without extra data comparison runs as two command sequences")
def test_two_sequence_experiment_grid(tmp_path, capsys):
    files = {}
    for name, n, seed in [("cm_train", 60, 31), ("cm_dev", 20, 32),
                          ("ml_train", 30, 33)]:
        p = tmp_path / f"{name}.conll"
        p.write_text(write_conll(make_separable_corpus(n, seed)),
                     encoding="utf-8")
        files[name] = p
    without = run_sequence(tmp_path, "without", files["cm_train"],
                           files["cm_dev"])
    with_aux = run_sequence(tmp_path, "with", files["cm_train"],
                            files["cm_dev"], aux=files["ml_train"])
    assert 0.0 <= without <= 1.0
    assert 0.0 <= with_aux <= 1.0


# Historical weighted F1 on the real code-mixed splits, (dev, test),
# keyed by whether the extra multilingual training data is mixed in.
REFERENCE_F1 = {"without": (0.565, 0.561), "with": (0.560, 0.556)}


@gate("scores on the reference corpus land near the recorded numbers")
def test_reference_corpus_scores(tmp_path):
    data_dir = os.environ.get("MIXNER_DATA")
    if not data_dir:
        pytest.skip("set MIXNER_DATA to a directory with cm_train.conll, "
                    "cm_dev.conll, cm_test.conll and ml_train.conll to run "
                    "the full comparison")
    data = Path(data_dir)
    needed = ["cm_train.conll", "cm_dev.conll", "ml_train.conll"]
    missing = [n for n in needed if not (data / n).exists()]
    if missing:
        pytest.skip(f"missing from MIXNER_DATA: {', '.join(missing)}")

    splits = [("cm_dev", 0)]
    if (data / "cm_test.conll").exists():
        splits.append(("cm_test", 1))
    for variant, aux in [("without", None), ("with", data / "ml_train.conll")]:
        mixed = tmp_path / f"{variant}.conll"
        model = tmp_path / f"{variant}.model"
        mix_cmd = ["mix", "--primary", str(data / "cm_train.conll"),
                   "-o", str(mixed)]
        if aux is not None:
            mix_cmd[3:3] = ["--aux", str(aux)]
        assert main(mix_cmd) == 0
        assert main(["train", "--train", str(mixed),
                     "--dev", str(data / "cm_dev.conll"),
                     "-o", str(model)]) == 0
        for split, column in splits:
            pred = tmp_path / f"{variant}_{split}.pred.conll"
            report = tmp_path / f"{variant}_{split}.report.json"
            assert main(["tag", "--model", str(model),
                         "--input", str(data / f"{split}.conll"),
                         "-o", str(pred)]) == 0
            assert main(["eval", "--gold", str(data / f"{split}.conll"),
                         "--pred", str(pred), "--format", "json",
                         "--report", str(report)]) == 0
            got = json.loads(report.read_text(encoding="utf-8"))["weighted_f1"]
            want = REFERENCE_F1[variant][column]
            print(f"{variant} {split}: weighted_f1 {got:.4f} "
                  f"(reference {want:.3f})")
            assert abs(got - want) <= 0.05
