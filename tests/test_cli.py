import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from helpers import make_separable_corpus
import mixner.cli as cli_module
import mixner.crf as crf_module
from mixner.cli import build_parser, main
from mixner.corpus import Sentence, parse_conll, write_conll
from mixner.crf import CrfModel, TrainConfig, load_model, save_model
from mixner.features import build_index


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
