import argparse
import contextlib
import dataclasses
import io
import os
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_separable_corpus, mix_reference
import mixner.cli as cli_module
import mixner.crf as crf_module
from mixner.cli import build_parser, main
from mixner.corpus import Dataset, Sentence, parse_conll, write_conll
from mixner.crf import CrfModel, TrainConfig, train
from mixner.features import build_index
from mixner.modelfile import load_model, save_model


@pytest.fixture
def corpus_files(tmp_path):
    paths = {}
    for name, n, seed in [("cm_train", 80, 11), ("cm_dev", 30, 12),
                          ("ml_train", 40, 13)]:
        ds = make_separable_corpus(n, seed)
        p = tmp_path / f"{name}.conll"
        p.write_text(write_conll(ds), encoding="utf-8")
        paths[name] = p
    return paths


class TestMix:
    def test_counts_and_output(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "combined.conll"
        code = main(["mix", "--primary", str(corpus_files["cm_train"]),
                     "--aux", str(corpus_files["ml_train"]),
                     "--seed", "13", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cm_train: 80 sentences" in printed
        assert "ml_train: 40 sentences" in printed
        assert "total: 120 sentences" in printed
        assert len(parse_conll(out.read_text())) == 120

    def test_no_aux_is_identity(self, corpus_files, tmp_path):
        out = tmp_path / "same.conll"
        assert main(["mix", "--primary", str(corpus_files["cm_train"]),
                     "-o", str(out)]) == 0
        original = parse_conll(corpus_files["cm_train"].read_text())
        assert parse_conll(out.read_text()) == original

    def test_same_seed_byte_identical(self, corpus_files, tmp_path):
        outs = []
        for name in ("one.conll", "two.conll"):
            out = tmp_path / name
            main(["mix", "--primary", str(corpus_files["cm_train"]),
                  "--aux", str(corpus_files["ml_train"]),
                  "--shuffle", "--seed", "13", "-o", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_shuffle_order_is_the_per_sentence_reference(self, corpus_files, tmp_path):
        """--shuffle orders the sentences as random.Random(seed).shuffle
        orders the list of all sentences."""
        out = tmp_path / "mixed.conll"
        assert main(["mix", "--primary", str(corpus_files["cm_train"]),
                     "--aux", str(corpus_files["ml_train"]),
                     "--shuffle", "--seed", "13", "-o", str(out)]) == 0
        primary, aux = (parse_conll(corpus_files[name].read_text())
                        for name in ("cm_train", "ml_train"))
        assert parse_conll(out.read_text()) == mix_reference(primary, [aux], 13, True)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["mix", "--primary", str(tmp_path / "nope.conll"),
                     "-o", str(tmp_path / "out.conll")])
        assert code == 2
        assert "nope.conll" in capsys.readouterr().err


class TestTrain:
    def run_train(self, corpus_files, tmp_path, *extra):
        model_path = tmp_path / "model.txt"
        code = main(["train", "--train", str(corpus_files["cm_train"]),
                     "--dev", str(corpus_files["cm_dev"]),
                     "-o", str(model_path), *extra])
        return code, model_path

    def test_header_echoes_defaults(self, corpus_files, tmp_path, capsys):
        code, model_path = self.run_train(corpus_files, tmp_path, "--epochs", "2")
        assert code == 0
        printed = capsys.readouterr().out
        assert "--epochs 2 --batch 64 --patience 4" in printed
        assert "--seed 42" in printed
        assert model_path.exists()

    def test_stop_line_when_epochs_are_used_up(self, corpus_files, tmp_path, capsys):
        code, _ = self.run_train(corpus_files, tmp_path, "--epochs", "2", "--patience", "2")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "stopped: epochs used up"

    def test_stop_line_when_patience_runs_out(self, corpus_files, tmp_path, capsys):
        code, _ = self.run_train(corpus_files, tmp_path, "--epochs", "30", "--patience", "0")
        assert code == 0
        epochs = len((tmp_path / "model.txt.history.tsv").read_text().splitlines()) - 1
        assert epochs < 30
        assert capsys.readouterr().out.splitlines()[1] == \
            f"stopped: patience ran out at epoch {epochs}"

    def test_history_log_one_row_per_epoch(self, corpus_files, tmp_path):
        code, model_path = self.run_train(corpus_files, tmp_path, "--epochs", "1")
        assert code == 0
        history = (tmp_path / "model.txt.history.tsv").read_text().splitlines()
        assert history[0] == "epoch\ttrain_nll\tdev_weighted_f1\tseconds"
        assert len(history) == 2

    def test_same_seed_models_byte_identical(self, corpus_files, tmp_path):
        _, first = self.run_train(corpus_files, tmp_path, "--epochs", "2")
        first_bytes = first.read_bytes()
        _, second = self.run_train(corpus_files, tmp_path, "--epochs", "2")
        assert second.read_bytes() == first_bytes

    def test_empty_train_file_exits_2(self, corpus_files, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        code = main(["train", "--train", str(empty),
                     "--dev", str(corpus_files["cm_dev"]),
                     "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_empty_dev_file_exits_2(self, corpus_files, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        code = main(["train", "--train", str(corpus_files["cm_train"]),
                     "--dev", str(empty), "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert f"empty dev file: {empty}" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_missing_output_directory_exits_2_before_training(self, corpus_files, tmp_path,
                                                               capsys, monkeypatch):
        """-o into a missing directory, onto a directory or onto an input
        file fails with one error line before training, and so does an -o
        whose history file <out>.history.tsv would be a directory or an
        input file."""
        trainer = Mock(side_effect=AssertionError("train ran"))
        monkeypatch.setattr(cli_module, "train", trainer)
        (tmp_path / "m.txt.history.tsv").mkdir()
        train_file, dev, history_dev = (
            tmp_path / "t.conll", tmp_path / "dev.conll", tmp_path / "d.txt.history.tsv")
        train_file.write_bytes(corpus_files["cm_train"].read_bytes())
        for path in (dev, history_dev):
            path.write_bytes(corpus_files["cm_dev"].read_bytes())
        for out, dev_file, message in [
                (train_file, dev, f"output path is also an input: {train_file}"),
                (dev, dev, f"output path is also an input: {dev}"),
                (tmp_path / "d.txt", history_dev,
                 f"output path is also an input: {history_dev}"),
                (tmp_path / "missing" / "m.txt", dev,
                 f"output directory does not exist: {tmp_path / 'missing'}"),
                (tmp_path, dev, f"output path is a directory: {tmp_path}"),
                (tmp_path / "m.txt", dev,
                 f"output path is a directory: {tmp_path / 'm.txt.history.tsv'}")]:
            before = train_file.read_bytes(), dev_file.read_bytes()
            code = main(["train", "--train", str(train_file), "--dev", str(dev_file),
                         "-o", str(out)])
            assert code == 2 and not trainer.called
            assert capsys.readouterr().err == f"error: {message}\n"
            assert (train_file.read_bytes(), dev_file.read_bytes()) == before

    @pytest.mark.parametrize("flag, value, name", [
        ("--l2", "-1", "l2"), ("--l2", "nan", "l2"), ("--l2", "inf", "l2"),
        ("--lr", "nan", "learning_rate"), ("--lr", "0", "learning_rate"),
        ("--lr", "-0.1", "learning_rate"), ("--lr", "inf", "learning_rate")])
    def test_bad_optimizer_setting_exits_2(self, corpus_files, tmp_path, capsys,
                                           flag, value, name):
        code, model_path = self.run_train(corpus_files, tmp_path, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and value in err
        assert not model_path.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_min_count_below_one_exits_2(self, corpus_files, tmp_path, capsys, value):
        code, model_path = self.run_train(corpus_files, tmp_path, "--min-count", value)
        assert code == 2
        assert capsys.readouterr().err == f"error: min_count must be >= 1, got {value}\n"
        assert not model_path.exists()

    def test_setting_flags_default_to_train_config(self):
        args = build_parser().parse_args(["train", "--train", "t", "--dev", "d", "-o", "m"])
        flag_of = {"epochs": "epochs", "batch_size": "batch", "patience": "patience",
                   "learning_rate": "lr", "l2": "l2", "seed": "seed"}
        assert ({field: getattr(args, flag) for field, flag in flag_of.items()}
                == dataclasses.asdict(TrainConfig()))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_loss_exits_2(self, corpus_files, tmp_path, capsys):
        # A finite but absurd step size overflows the scores in epoch 1.  The
        # error names the batch, and no numpy warning precedes it.
        code, model_path = self.run_train(corpus_files, tmp_path, "--lr", "1e300")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: epoch 1, batch \d+: training loss is \S+; "
                            r"try a smaller learning rate", err[0])
        assert not model_path.exists()


class TestTagAndEval:
    def test_tag_preserves_token_count(self, corpus_files, tmp_path):
        model_path = tmp_path / "model.txt"
        main(["train", "--train", str(corpus_files["cm_train"]),
              "--dev", str(corpus_files["cm_dev"]), "--epochs", "2",
              "-o", str(model_path)])
        pred_path = tmp_path / "pred.conll"
        assert main(["tag", "--model", str(model_path),
                     "--input", str(corpus_files["cm_dev"]),
                     "-o", str(pred_path)]) == 0
        gold = parse_conll(corpus_files["cm_dev"].read_text())
        pred = parse_conll(pred_path.read_text())
        assert [len(s) for s in pred] == [len(s) for s in gold]
        assert [s.surfaces for s in pred] == [s.surfaces for s in gold]

    def test_zero_weight_model_tags_all_o(self, corpus_files, tmp_path):
        train_ds = parse_conll(corpus_files["cm_train"].read_text())
        model = CrfModel.zeros(build_index(train_ds))
        model_path = tmp_path / "zero.txt"
        save_model(model, model_path)
        pred_path = tmp_path / "pred.conll"
        assert main(["tag", "--model", str(model_path),
                     "--input", str(corpus_files["cm_dev"]),
                     "-o", str(pred_path)]) == 0
        pred = parse_conll(pred_path.read_text())
        assert all(t == "O" for s in pred for t in s.tags)

    def test_tag_accepts_untagged_input(self, corpus_files, tmp_path):
        model_path = tmp_path / "model.txt"
        main(["train", "--train", str(corpus_files["cm_train"]),
              "--dev", str(corpus_files["cm_dev"]), "--epochs", "1",
              "-o", str(model_path)])
        raw = tmp_path / "raw.conll"
        raw.write_text("ctx0\nlocb1\n\nctx2\n")
        pred_path = tmp_path / "pred.conll"
        assert main(["tag", "--model", str(model_path), "--input", str(raw),
                     "-o", str(pred_path)]) == 0
        assert [len(s) for s in parse_conll(pred_path.read_text())] == [2, 1]

    def test_tag_ignores_tags_outside_the_model(self, tmp_path):
        """The input's tag column is read as O, so tags the model never saw
        tag exactly like the token-only form of the same file."""
        train_path = tmp_path / "train.conll"
        train_path.write_text("a\tB-X\nb\tO\n\nb\tO\na\tB-X\n")
        model_path = tmp_path / "model.txt"
        assert main(["train", "--train", str(train_path), "--dev", str(train_path),
                     "--epochs", "1", "-o", str(model_path)]) == 0
        tagged, raw = tmp_path / "tagged.conll", tmp_path / "raw.conll"
        tagged.write_text("a\tB-NEW\nb\tI-OTHER\n\nb\tX-BAD\n")
        raw.write_text("a\nb\n\nb\n")
        outs = []
        for path in (tagged, raw):
            out = tmp_path / f"{path.stem}.pred.conll"
            assert main(["tag", "--model", str(model_path), "--input", str(path),
                         "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_perfect_prediction(self, corpus_files, capsys):
        code = main(["eval", "--gold", str(corpus_files["cm_dev"]),
                     "--pred", str(corpus_files["cm_dev"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted_f1 1.0000" in out

    def test_eval_writes_json_report(self, corpus_files, tmp_path):
        report = tmp_path / "report.json"
        code = main(["eval", "--gold", str(corpus_files["cm_dev"]),
                     "--pred", str(corpus_files["cm_dev"]),
                     "--report", str(report), "--format", "json"])
        assert code == 0
        import json
        assert json.loads(report.read_text())["weighted_f1"] == 1.0

    def test_eval_shape_mismatch_exits_2(self, corpus_files, tmp_path, capsys):
        short = tmp_path / "short.conll"
        ds = parse_conll(corpus_files["cm_dev"].read_text())
        short.write_text(write_conll(type(ds)(ds.sentences[:-1])))
        code = main(["eval", "--gold", str(corpus_files["cm_dev"]),
                     "--pred", str(short)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_eval_surface_mismatch_exits_2(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("a B-CW\nb O\n")
        pred.write_text("zzz B-CW\nyyy O\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
        assert "sentence 0" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_text, message", [
        ("a O\nz O\n\nc O\nd O\n", "sentence 0: token 1 differs ('b' gold vs 'z' predicted)"),
        ("a O\n\nz O\n", "sentence 0: token count mismatch (2 gold vs 1 predicted)")])
    def test_eval_names_the_first_misaligned_sentence(self, tmp_path, capsys,
                                                      pred_text, message):
        """Sentence 0 differs in a surface and sentence 1 in length, or the
        other way round: the error names sentence 0, whichever way it differs."""
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("a O\nb O\n\nc O\n")
        pred.write_text(pred_text)
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        """A file that starts with a UTF-8 byte-order mark reads as the same
        file without one, whether it opens with an id line or a token."""
        for body in ("# id = s1\na\tB-CW\nb\tO\n", "a\tB-CW\nb\tO\n"):
            plain, marked = tmp_path / "plain.conll", tmp_path / "marked.conll"
            plain.write_text(body, encoding="utf-8")
            marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
            out = tmp_path / "mixed.conll"
            assert main(["mix", "--primary", str(marked), "-o", str(out)]) == 0
            assert out.read_bytes() == plain.read_bytes()
            capsys.readouterr()
            assert main(["eval", "--gold", str(plain), "--pred", str(marked)]) == 0
            assert "weighted_f1 1.0000" in capsys.readouterr().out

    def test_model_byte_order_mark_is_dropped(self, corpus_files, tmp_path):
        """A model file that starts with a UTF-8 byte-order mark loads to the
        same weights as the file without one, and tags the same bytes."""
        train_ds = parse_conll(corpus_files["cm_train"].read_text())
        model = CrfModel.zeros(build_index(train_ds))
        model.weights[...] = np.random.default_rng(3).uniform(-2, 2, model.weights.size)
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        save_model(model, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_model(marked).weights.tobytes() == load_model(plain).weights.tobytes()
        outs = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.pred.conll"
            assert main(["tag", "--model", str(path), "--input", str(corpus_files["cm_dev"]),
                         "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tag_rejects_non_finite_model(self, corpus_files, tmp_path, capsys):
        train_ds = parse_conll(corpus_files["cm_train"].read_text())
        model_path = tmp_path / "zero.txt"
        save_model(CrfModel.zeros(build_index(train_ds)), model_path)
        lines = model_path.read_text().splitlines()
        row = lines.index("[emissions]") + 1
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        model_path.write_text("\n".join(lines) + "\n")
        pred_path = tmp_path / "pred.conll"
        assert main(["tag", "--model", str(model_path),
                     "--input", str(corpus_files["cm_dev"]),
                     "-o", str(pred_path)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not pred_path.exists()

    def test_tag_rejects_a_model_whose_path_scores_overflow(self, tmp_path, capsys):
        """Weights near the largest float are finite, so save_model writes
        them and load_model reads them, but they overflow a path's score: tag
        exits 2 with one error line naming a sentence, writes nothing, and
        no numpy warning precedes it, here raised as an error."""
        train_path, model_path = tmp_path / "train.conll", tmp_path / "model.txt"
        train_path.write_text("a\tB-X\nb\tI-X\n\nc\tO\n")
        assert main(["train", "--train", str(train_path), "--dev", str(train_path),
                     "--epochs", "1", "-o", str(model_path)]) == 0
        model = load_model(model_path)
        assert model.weights.size == 39
        model.weights[...] = np.random.default_rng(0).uniform(-1, 1, 39) * 1.7e308
        save_model(model, model_path)
        capsys.readouterr()
        pred_path = tmp_path / "pred.conll"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tag", "--model", str(model_path), "--input", str(train_path),
                         "-o", str(pred_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(r"error: sentence \d+: best path score is .+", err[0])
        assert not pred_path.exists()


@pytest.mark.parametrize("command, work", [
    ("mix", "mix_datasets"), ("tag", "decode"), ("eval", "score_entities")])
def test_missing_output_directory_exits_2_before_the_work(corpus_files, tmp_path, capsys,
                                                          monkeypatch, command, work):
    """mix -o, tag -o and eval --report into a missing directory, onto a
    directory ('' included) or onto an input file (a hard link included)
    fail with one error line before mixing, decoding or scoring, as train
    does."""
    model = tmp_path / "zero.txt"
    save_model(CrfModel.zeros(build_index(parse_conll(corpus_files["cm_train"].read_text()))),
               model)
    missing = tmp_path / "missing"
    dev = tmp_path / "dev.conll"
    dev.write_bytes(corpus_files["cm_dev"].read_bytes())
    link = tmp_path / "link.conll"
    os.link(dev, link)
    worker = Mock(side_effect=AssertionError(f"{work} ran"))
    monkeypatch.setattr(cli_module, work, worker)
    for out, message in [(dev, f"output path is also an input: {dev}"),
                         (link, f"output path is also an input: {link}"),
                         (missing / "out.txt", f"output directory does not exist: {missing}"),
                         (tmp_path, f"output path is a directory: {tmp_path}"),
                         ("", "output path is a directory: .")]:
        before = dev.read_bytes(), model.read_bytes()
        argv = {"mix": ["mix", "--primary", dev, "-o", out],
                "tag": ["tag", "--model", model, "--input", dev, "-o", out],
                "eval": ["eval", "--gold", dev, "--pred", dev, "--report", out]}
        assert main([str(a) for a in argv[command]]) == 2 and not worker.called
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (dev.read_bytes(), model.read_bytes()) == before


class TestVerify:
    def test_passes_and_prints_per_check(self, capsys):
        assert main(["verify", "--trials", "20", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for name in ("logZ", "viterbi", "marginals", "gradient"):
            assert f"{name:<10} 20/20 pass" in out

    def test_near_tied_viterbi_paths_pass(self, capsys):
        # Trial 15 of this seed has two optimal paths whose scores differ
        # only by float summation order; either one is a correct answer.
        assert main(["verify", "--trials", "20", "--seed", "1000115"]) == 0
        assert "viterbi    20/20 pass" in capsys.readouterr().out

    def test_reports_forward_backward_path_counts(self, capsys):
        """After its checks verify writes to stderr how many trials' models
        take each forward-backward path; both are reached at 8 trials."""
        assert main(["verify", "--trials", "8", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        found = re.fullmatch(r"forward-backward: (\d+) trials _scaled, (\d+) _log_space\n",
                             captured.err)
        assert found, captured.err
        scaled, log_space = map(int, found.groups())
        assert scaled > 0 and log_space > 0 and scaled + log_space == 8
        assert "forward-backward" not in captured.out

    def test_draws_each_trial_once(self, monkeypatch, capsys):
        """The path counts come from the trials just checked: verify draws
        each instance once, not a second time to count paths."""
        import mixner.oracle as oracle_module
        drawn = Mock(side_effect=oracle_module.random_instance)
        monkeypatch.setattr(oracle_module, "random_instance", drawn)
        assert main(["verify", "--trials", "8", "--seed", "7"]) == 0
        assert drawn.call_count == 8
        assert "8/8 pass" in capsys.readouterr().out

    def test_zero_trials_warns(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        assert "no checks run" in capsys.readouterr().out

    def test_negative_trials_exits_2(self, capsys):
        assert main(["verify", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "trials must be >= 0, got -3" in captured.err
        assert "pass" not in captured.out

    def test_injected_fault_exits_1(self, monkeypatch, capsys):
        import mixner.crf as crf_module
        real = crf_module.log_partition
        monkeypatch.setattr(crf_module, "log_partition",
                            lambda m, e: real(m, e) + 1e-6)
        assert main(["verify", "--trials", "5", "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "instance" in captured.err


def test_readme_names_every_option_and_default():
    """README's bullet for each subcommand, the lines from the one that opens
    with "- `name" to the next unindented one, names every option and, as
    `--opt value`, every default that is not None, False or []."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        first = next(i for i, line in enumerate(lines)
                     if line.startswith((f"- `{name} ", f"- `{name}`")))
        end = next((i for i in range(first + 1, len(lines))
                    if not lines[i].startswith("  ")), len(lines))
        bullet = " ".join(" ".join(lines[first:end]).split())
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert any(re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", bullet)
                       for o in action.option_strings), (name, action.option_strings)
            if not (action.default is None or action.default is False or action.default == []):
                flag = max(action.option_strings, key=len)
                assert f"{flag} {action.default}" in bullet, (name, flag, action.default)


def test_main_builds_the_parser_once(monkeypatch):
    """After one main call, later calls parse with the same parser and
    construct no argparse.ArgumentParser, subcommand parsers included."""
    main(["verify", "--trials", "0"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["verify", "--trials", "0"], ["verify", "--trials", "0", "--seed", "3"]):
        assert main(argv) == 0
    assert built == [] and build_parser() is build_parser()


def run_main(argv, capsys):
    """main's exit code, argparse's included, and what it wrote."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_shared_parser_answers_as_a_fresh_one(corpus_files, tmp_path, monkeypatch, capsys):
    """One process interleaves commands through the shared parser, and each
    exits, prints and reports errors as it does through a parser built for
    it alone: --aux given twice leaves nothing behind for the next mix, and
    a bad option value still exits 2 with one error line."""
    files = {name: str(path) for name, path in corpus_files.items()}
    out = tmp_path / "out.conll"
    commands = [
        ["mix", "--primary", files["cm_train"], "--aux", files["ml_train"],
         "--aux", files["cm_dev"], "-o", out],
        ["mix", "--primary", files["cm_train"], "-o", out],
        ["train", "--train", files["cm_train"], "--dev", files["cm_dev"], "--epochs", "many",
         "-o", tmp_path / "m.txt"],
        ["eval", "--gold", files["cm_dev"], "--pred", files["cm_dev"]],
        ["eval", "--gold", files["cm_dev"], "--pred", files["cm_dev"], "--format", "json"],
        ["verify", "--trials", "5"],
    ]
    results = []
    for argv in commands:
        shared = run_main(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli_module, "build_parser", build_parser.__wrapped__)
            assert run_main(argv, capsys) == shared, argv
        results.append(shared)
    (code, out_aux, _), (_, out_plain, _), (code_bad, _, err_bad) = results[:3]
    assert code == 0 and "ml_train: 40 sentences" in out_aux
    assert out_plain.splitlines()[1:] == ["cm_train: 80 sentences", "total: 80 sentences"]
    assert code_bad == 2 and err_bad.count("error:") == 1
    assert "invalid int value: 'many'" in err_bad
    assert [code for code, _, _ in results[3:]] == [0, 0, 0]
    mix = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["mix"]
    assert next(a for a in mix._actions if a.dest == "aux").default == []


def run_pipeline(files, out):
    """mix, train, tag and eval through main on the corpus files, with a dev
    file whose spans open with stray I-X and a tag input with no tag column;
    the bytes of every output, the timing column of the history dropped."""
    out.mkdir()
    dev, raw = out / "dev.conll", out / "raw.conll"
    dev.write_text(files["cm_dev"].read_text().replace("\tB-", "\tI-"))
    raw.write_text(re.sub(r"\t\S+$", "", files["cm_dev"].read_text(), flags=re.M))
    steps = [["mix", "--primary", files["cm_train"], "--aux", files["ml_train"],
              "--shuffle", "--seed", "5", "-o", out / "mixed.conll"],
             ["train", "--train", out / "mixed.conll", "--dev", dev, "--epochs", "3",
              "-o", out / "model.txt"],
             ["tag", "--model", out / "model.txt", "--input", raw, "-o", out / "pred.conll"],
             ["eval", "--gold", dev, "--pred", out / "pred.conll", "--format", "json",
              "--report", out / "report.json"],
             ["eval", "--gold", dev, "--pred", out / "pred.conll", "--report", out / "report.txt"]]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0
    history = out / "model.txt.history.tsv"
    history.write_text("\n".join(row.rsplit("\t", 1)[0]
                                 for row in history.read_text().splitlines()))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_pipeline_reads_no_token_view(corpus_files, tmp_path, monkeypatch):
    """No layer goes back to per-token objects: with Sentence.tokens made to
    raise, every output of mix, train, tag and eval equals an unpatched run's."""
    expected = run_pipeline(corpus_files, tmp_path / "plain")

    def no_tokens(self):
        raise AssertionError("Sentence.tokens read inside mixner")

    monkeypatch.setattr(Sentence, "tokens", property(no_tokens))
    assert run_pipeline(corpus_files, tmp_path / "columnar") == expected


def test_encode_and_index_are_called_by_module_name(corpus_files, tmp_path, monkeypatch):
    """crf looks encode_dataset up in its own namespace and cli looks
    build_index up in its own, so wrapping mixner.crf.encode_dataset and
    mixner.cli.build_index sees every call: train builds the index once and
    encodes the training set, then dev; tag encodes its input once."""
    calls = Counter()
    encoded = []

    def wrap(module, name, record=None):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            if record is not None:
                record.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    wrap(crf_module, "encode_dataset", encoded)
    wrap(cli_module, "build_index")
    model = tmp_path / "model.txt"
    assert main(["train", "--train", str(corpus_files["cm_train"]),
                 "--dev", str(corpus_files["cm_dev"]), "--epochs", "1",
                 "-o", str(model)]) == 0
    assert calls == {"encode_dataset": 2, "build_index": 1}
    assert encoded == [80, 30]
    calls.clear()
    assert main(["tag", "--model", str(model), "--input", str(corpus_files["cm_dev"]),
                 "-o", str(tmp_path / "pred.conll")]) == 0
    assert calls == {"encode_dataset": 1}


def test_pipeline_builds_no_sentence(corpus_files, tmp_path, monkeypatch):
    """mix, train, tag and eval read and write the Dataset columns: counting
    Sentence.__post_init__ while they run sees no Sentence built."""
    real, calls = Sentence.__post_init__, []

    def counting(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(Sentence, "__post_init__", counting)
    run_pipeline(corpus_files, tmp_path / "out")
    assert calls == []
    Sentence(("a",), ("O",))
    assert calls == [1]


# Bytes inserted by the damaged-input test: a NUL, an invalid UTF-8 byte, a
# byte-order mark, three line breaks (str.splitlines ends lines at U+0085 and
# U+2028 too), a metadata marker, a model section opener and non-finite numbers.
INSERTS = (b"\x00", b"\xff", "\ufeff".encode(), b"\r", "\x85".encode(),
           "\u2028".encode(), b"# ", b"[", b"nan", b"1e999")


def damage(data: bytes, draw) -> bytes:
    """data after one to three byte-level insertions, deletions, truncations
    or duplications of a range, each at a drawn position."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 40)))
        kind = draw(st.sampled_from(["insert", "delete", "truncate", "duplicate"]))
        data = {"insert": lambda: data[:i] + draw(st.sampled_from(INSERTS)) + data[i:],
                "delete": lambda: data[:i] + data[j:],
                "truncate": lambda: data[:i],
                "duplicate": lambda: data[:j] + data[i:j] + data[j:]}[kind]()
    return data


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a small valid corpus, with sentence ids, and of a model
    trained on it for one epoch."""
    ds = Dataset(Sentence(s.surfaces, s.tags, f"s{i}")
                 for i, s in enumerate(make_separable_corpus(3, 21)))
    model_path = tmp_path_factory.mktemp("pristine") / "model.txt"
    save_model(train(ds, ds, TrainConfig(epochs=1), build_index(ds))[0], model_path)
    return {"corpus": write_conll(ds).encode(), "model": model_path.read_bytes()}


# For each damaged file: which pristine file it starts from, the command with
# {damaged}, {corpus}, {model} and {out} to fill in, and whether {out} is a
# CoNLL file to read back.
DAMAGED_RUNS = {
    "mix input": ("corpus", ["mix", "--primary", "{damaged}", "--aux", "{corpus}",
                             "--shuffle", "-o", "{out}"], True),
    "train input": ("corpus", ["train", "--train", "{damaged}", "--dev", "{corpus}",
                               "--epochs", "1", "-o", "{out}"], False),
    "tag model": ("model", ["tag", "--model", "{damaged}", "--input", "{corpus}",
                            "-o", "{out}"], True),
    "tag input": ("corpus", ["tag", "--model", "{model}", "--input", "{damaged}",
                             "-o", "{out}"], True),
    "eval prediction": ("corpus", ["eval", "--gold", "{corpus}", "--pred", "{damaged}",
                                   "--report", "{out}"], False),
}


@pytest.mark.parametrize("target", DAMAGED_RUNS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_input_exits_0_or_2_property(pristine, target, data):
    """A damaged file makes a command exit 2 with one `error:` line, or exit 0
    with output that reads back: no traceback, no warning, no other code."""
    source, argv, conll_out = DAMAGED_RUNS[target]
    damaged = damage(pristine[source], data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("damaged", "corpus", "model", "out")}
        paths["damaged"].write_bytes(damaged)
        paths["corpus"].write_bytes(pristine["corpus"])
        paths["model"].write_bytes(pristine["model"])
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([arg.format(**paths) for arg in argv])
        assert code in (0, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        elif conll_out:
            text = paths["out"].read_text(encoding="utf-8")
            x = parse_conll(text)
            assert parse_conll(write_conll(x)) == x
            assert write_conll(x) == text
