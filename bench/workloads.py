"""The three request types the benchmark sends, their inputs and their checks.

A request is one unit of user work done through ``mixner.cli.main``:

- ``mix-train``: ``mix`` a Zipf code-mixed primary corpus (13 tags) with a
  separable auxiliary corpus, then ``train`` for a fixed number of epochs.
  Patience equals the epoch count, so a change in numerics cannot change
  the amount of work.
- ``tag-eval``: ``tag`` about a thousand held-out sentences (raw tokens,
  some words unseen in training) with a model trained once beforehand, then
  ``eval`` the result against gold as JSON.
- ``verify``: ``verify`` with a few trials on the request's own seed.

Every request is checked after it returns, outside its timing: ``check``
raises ``CheckFailed`` (or any other exception) when an output is wrong and
otherwise returns the request's F1-like quality figure.  Identical output
files are checked once and the verdict reused, keyed by their hash.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import mixner
import mixner.cli
import mixner.oracle

import synth

SIZES = {
    # Zipf corpora are sized in tokens, the separable one in sentences.
    "mix-train": {"primary": 3600, "aux": 60, "dev": 4000, "epochs": 3, "lr": 1.0},
    "tag-eval": {"train": 24000, "dev": 2400, "epochs": 2, "lr": 1.0, "input": 12000},
    "verify": {"trials": 20},
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _cli(*argv) -> tuple[int, str]:
    """Run one CLI command; its exit code and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = mixner.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _check_f1(f1) -> float:
    _require(isinstance(f1, float) and math.isfinite(f1) and 0.0 <= f1 <= 1.0,
             f"F1 {f1!r} is not a finite number in [0, 1]")
    return f1


def _fresh_outputs(work: Path, i: int, **names) -> dict[str, Path]:
    """Output paths of request i.  Each request writes new files: on ext4,
    truncating and rewriting an existing file forces a flush when it is
    closed, which would time the disk instead of the program."""
    return {key: work / f"{i}-{name}" for key, name in names.items()}


class Request:
    """Exit codes and output files of one request; leaving the ``with``
    block of its check deletes the files."""

    def __init__(self, codes: tuple, out: dict[str, Path]):
        self.codes = codes
        self.out = out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for path in self.out.values():
            path.unlink(missing_ok=True)
        return False


def make_inputs(workload: str, seed: int, work: Path, sizes: dict | None = None) -> dict:
    """Write the seeded inputs of one workload under ``work`` and return the
    spec its requests are built from.  For tag-eval this also trains the
    model, once, outside every timed metric."""
    size = dict(SIZES[workload], **(sizes or {}))
    spec = {"workload": workload, "seed": seed, "dir": str(work), "size": size}
    gen = synth.ZipfGenerator()
    if workload == "mix-train":
        primary = gen.corpus(size["primary"], seed * 10 + 1)
        aux = synth.separable_corpus(size["aux"], seed * 10 + 2)
        dev = gen.corpus(size["dev"], seed * 10 + 3)
        (work / "primary.conll").write_text(synth.to_conll(primary), encoding="utf-8")
        (work / "aux.conll").write_text(synth.to_conll(aux), encoding="utf-8")
        (work / "dev.conll").write_text(synth.to_conll(dev), encoding="utf-8")
        spec["stats"] = {"primary": synth.corpus_stats(primary, dev),
                         "aux": synth.corpus_stats(aux),
                         "mixed": synth.corpus_stats(primary + aux, dev)}
    elif workload == "tag-eval":
        train = gen.corpus(size["train"], seed * 10 + 4)
        held_out = gen.corpus(size["input"], seed * 10 + 5)
        dev = gen.corpus(size["dev"], seed * 10 + 6)
        (work / "train.conll").write_text(synth.to_conll(train), encoding="utf-8")
        (work / "dev.conll").write_text(synth.to_conll(dev), encoding="utf-8")
        (work / "gold.conll").write_text(synth.to_conll(held_out), encoding="utf-8")
        (work / "input.conll").write_text(synth.to_conll(held_out, with_tags=False),
                                          encoding="utf-8")
        spec["stats"] = {"train": synth.corpus_stats(train),
                         "input": synth.corpus_stats(held_out),
                         "input_w0_oov_share":
                             synth.corpus_stats(train, held_out)["held_out_w0_oov_share"]}
        rc, _ = _cli("train", "--train", work / "train.conll", "--dev", work / "dev.conll",
                     "--epochs", size["epochs"], "--patience", size["epochs"],
                     "--lr", size["lr"], "--seed", seed, "-o", work / "model.txt")
        if rc != 0:
            raise RuntimeError(f"preparing the tag-eval model failed with exit code {rc}")
    elif workload != "verify":
        raise ValueError(f"unknown workload {workload!r}")
    return spec


class MixTrain:
    """mix, then train for a fixed number of epochs."""

    def __init__(self, spec: dict):
        self.dir = Path(spec["dir"])
        self.seed = spec["seed"]
        self.epochs = spec["size"]["epochs"]
        self.lr = spec["size"]["lr"]
        self.tokens = spec["stats"]["mixed"]["tokens"] * self.epochs
        self._saved = None
        self._loaded = {}
        # Keep the model object train hands to save_model, so the check can
        # compare it with what load_model reads back.
        save = mixner.cli.save_model

        def save_and_keep(model, path):
            self._saved = model
            return save(model, path)

        mixner.cli.save_model = save_and_keep

    def request(self, i: int) -> Request:
        d = self.dir
        out = _fresh_outputs(d, i, mixed="mixed.conll", model="model.txt",
                             history="model.txt.history.tsv")
        rc_mix, _ = _cli("mix", "--primary", d / "primary.conll", "--aux", d / "aux.conll",
                         "--shuffle", "--seed", self.seed, "-o", out["mixed"])
        rc_train, _ = _cli("train", "--train", out["mixed"], "--dev", d / "dev.conll",
                           "--epochs", self.epochs, "--patience", self.epochs,
                           "--lr", self.lr, "--seed", self.seed, "-o", out["model"])
        return Request((rc_mix, rc_train), out)

    def check(self, i: int, req: Request) -> float:
        with req:
            return self._check(req)

    def _check(self, req: Request) -> float:
        _require(req.codes == (0, 0), f"exit codes (mix, train) = {req.codes}")
        rows = [r.split("\t") for r in
                req.out["history"].read_text(encoding="utf-8").splitlines()[1:]]
        _require([int(r[0]) for r in rows] == list(range(1, self.epochs + 1)),
                 f"history has {len(rows)} epochs, expected {self.epochs}")
        saved, self._saved = self._saved, None
        _require(saved is not None, "train saved no model")
        key = hashlib.sha256(req.out["model"].read_bytes()).digest()
        if key not in self._loaded:
            self._loaded = {key: mixner.load_model(req.out["model"])}
        loaded = self._loaded[key]
        same = (saved.tagset == loaded.tagset
                and saved.index.attributes() == loaded.index.attributes()
                and all(np.array_equal(getattr(saved, b), getattr(loaded, b))
                        for b in ("emissions", "transitions", "start", "end")))
        _require(same, "the saved model does not reload with the same weights")
        return _check_f1(max(float(r[2]) for r in rows))

    def units(self, i: int) -> dict:
        return {"tokens": self.tokens, "trials": 1}


class TagEval:
    """tag a held-out file, then eval it against gold."""

    def __init__(self, spec: dict):
        self.dir = Path(spec["dir"])
        self.tokens = spec["stats"]["input"]["tokens"]
        self._verdicts = {}
        self._reference = None

    def request(self, i: int) -> Request:
        d = self.dir
        out = _fresh_outputs(d, i, pred="pred.conll", report="report.json")
        rc_tag, _ = _cli("tag", "--model", d / "model.txt", "--input", d / "input.conll",
                         "-o", out["pred"])
        rc_eval, _ = _cli("eval", "--gold", d / "gold.conll", "--pred", out["pred"],
                          "--format", "json", "--report", out["report"])
        return Request((rc_tag, rc_eval), out)

    def check(self, i: int, req: Request) -> float:
        with req:
            return self._check(req)

    def _check(self, req: Request) -> float:
        _require(req.codes == (0, 0), f"exit codes (tag, eval) = {req.codes}")
        pred = req.out["pred"].read_bytes()
        report = req.out["report"].read_bytes()
        key = hashlib.sha256(pred + b"\0" + report).digest()
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check_outputs(pred.decode("utf-8"),
                                                          report.decode("utf-8"))
            except Exception as exc:
                self._verdicts[key] = exc
        verdict = self._verdicts[key]
        if isinstance(verdict, Exception):
            raise verdict
        return verdict

    def _check_outputs(self, pred_text: str, report_text: str) -> float:
        if self._reference is None:
            model = mixner.load_model(self.dir / "model.txt")
            gold = mixner.parse_conll((self.dir / "gold.conll").read_text(encoding="utf-8"))
            self._reference = (model, gold, mixner.encode_dataset(gold, model.index))
        model, gold, gold_enc = self._reference
        try:
            pred = mixner.parse_conll(pred_text)
        except mixner.ParseError as exc:
            raise CheckFailed(f"tag output does not parse: {exc}") from None
        _require(len(pred) == len(gold),
                 f"tag output has {len(pred)} sentences, input has {len(gold)}")
        for si, (p, g) in enumerate(zip(pred.sentences, gold.sentences)):
            _require(p.surfaces == g.surfaces,
                     f"sentence {si}: tokens differ from the input")
        tags = set(model.tagset.tags)
        bad = sorted({t.tag for s in pred.sentences for t in s.tokens} - tags)
        _require(not bad, f"tags outside the tag set: {bad}")
        pred_enc = mixner.encode_dataset(pred, model.index)
        for si, (pe, ge) in enumerate(zip(pred_enc, gold_enc)):
            best = mixner.sequence_score(model, pe, pe.tag_ids)
            ref = mixner.sequence_score(model, ge, ge.tag_ids)
            _require(best >= ref, f"sentence {si}: decoded path scores {best!r}, "
                                  f"below the gold path's {ref!r}")
        try:
            f1 = json.loads(report_text)["weighted_f1"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"eval JSON unreadable: {exc!r}") from None
        return _check_f1(f1)

    def units(self, i: int) -> dict:
        return {"tokens": self.tokens, "trials": 1}


class Verify:
    """verify with a few trials; request i has its own seed."""

    def __init__(self, spec: dict):
        self.seed = spec["seed"]
        self.trials = spec["size"]["trials"]

    def request_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def request(self, i: int):
        return _cli("verify", "--trials", self.trials, "--seed", self.request_seed(i))

    def check(self, i: int, state) -> float:
        rc, out = state
        _require(rc == 0, f"verify exit code {rc}")
        results = {}
        for line in out.splitlines()[1:]:
            name, counts, status = line.split()
            passed, total = map(int, counts.split("/"))
            _require(status == "pass" and passed == total == self.trials,
                     f"check {name}: {counts} {status}")
            results[name] = passed
        _require(len(results) == 4, f"expected 4 checks, got {sorted(results)}")
        return sum(results.values()) / (4 * self.trials)

    def units(self, i: int) -> dict:
        """Tokens are the sentence lengths of the request's tiny instances,
        drawn again from its seed the way the verification draws them."""
        rng = random.Random(self.request_seed(i))
        tokens = sum(mixner.oracle.random_instance(rng).sentence.length
                     for _ in range(self.trials))
        return {"tokens": tokens, "trials": self.trials}


WORKLOADS = {"mix-train": MixTrain, "tag-eval": TagEval, "verify": Verify}
