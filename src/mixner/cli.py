"""Command-line entry points: mix, train, tag, eval, verify.

Exit codes: 0 on success, 1 when verification fails, 2 on usage or data
errors.  main may be called many times in one process: the parser is built
on the first call and parses every later argv too.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

from .corpus import (Dataset, ParseError, mix_datasets, parse_conll,
                     validate_iob, write_conll)
from .crf import TrainConfig, decode, train
from .features import build_index
from .eval import render_report, score_entities
from .modelfile import load_model, save_model
from .oracle import run_verification

DEFAULT_SEED = 42


def _read_dataset(path: str, require_tags: bool = True) -> Dataset:
    text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    return parse_conll(text, require_tags=require_tags)


def _check_out(path: str | Path, inputs: list[str]) -> None:
    """Fail before any work if an output would go into a missing directory,
    onto a directory ('' and '.' included), or onto one of the command's
    input files, however the two paths are spelled."""
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"output path is a directory: {out}")
    if not out.parent.is_dir():
        raise ValueError(f"output directory does not exist: {out.parent}")
    if out.exists() and any(Path(p).exists() and os.path.samefile(out, p) for p in inputs):
        raise ValueError(f"output path is also an input: {out}")


def cmd_mix(args) -> int:
    _check_out(args.out, [args.primary, *args.aux])
    print(f"mix: --seed {args.seed}")
    primary = _read_dataset(args.primary)
    auxiliaries = [_read_dataset(p) for p in args.aux]
    mixed = mix_datasets(primary, auxiliaries, seed=args.seed, shuffle=args.shuffle)
    Path(args.out).write_text(write_conll(mixed), encoding="utf-8")
    for path, ds in zip((args.primary, *args.aux), (primary, *auxiliaries)):
        print(f"{Path(path).stem}: {len(ds)} sentences")
    print(f"total: {len(mixed)} sentences")
    return 0


def cmd_train(args) -> int:
    _check_out(args.out, [args.train, args.dev])
    history_path = Path(args.out).with_name(Path(args.out).name + ".history.tsv")
    _check_out(history_path, [args.train, args.dev])
    print(f"train: --epochs {args.epochs} --batch {args.batch} "
          f"--patience {args.patience} --lr {args.lr} --l2 {args.l2} "
          f"--min-count {args.min_count} --seed {args.seed}")
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                      patience=args.patience, learning_rate=args.lr,
                      l2=args.l2, seed=args.seed)
    train_ds = validate_iob(_read_dataset(args.train))
    dev_ds = validate_iob(_read_dataset(args.dev))
    if not len(train_ds):
        raise ValueError(f"empty training file: {args.train}")
    if not len(dev_ds):
        raise ValueError(f"empty dev file: {args.dev}")
    index = build_index(train_ds, min_count=args.min_count)
    model, history = train(train_ds, dev_ds, cfg, index)
    save_model(model, args.out)
    rows = ["epoch\ttrain_nll\tdev_weighted_f1\tseconds"]
    rows.extend(f"{r.epoch}\t{r.train_nll:.6f}\t{r.dev_f1:.6f}\t{r.seconds:.3f}"
                for r in history.records)
    history_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"stopped: patience ran out at epoch {len(history.records)}"
          if history.patience_ran_out else "stopped: epochs used up")
    best = history.records[history.best_epoch - 1]
    print(f"best epoch {history.best_epoch}  dev weighted_f1 {best.dev_f1:.4f}")
    print(f"model written to {args.out}")
    return 0


def cmd_tag(args) -> int:
    _check_out(args.out, [args.model, args.input])
    model = load_model(args.model)
    ds = _read_dataset(args.input, require_tags=False)
    tagged = decode(model, ds)
    Path(args.out).write_text(write_conll(tagged), encoding="utf-8")
    print(f"tagged {len(tagged)} sentences")
    return 0


def cmd_eval(args) -> int:
    if args.report is not None:
        _check_out(args.report, [args.gold, args.pred])
    gold = _read_dataset(args.gold)
    pred = _read_dataset(args.pred)
    report = score_entities(gold, pred)
    rendered = render_report(report, args.format)
    if args.report is not None:
        Path(args.report).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    print(f"weighted_f1 {report.weighted_f1:.4f}")
    return 0


def cmd_verify(args) -> int:
    print(f"verify: --trials {args.trials} --seed {args.seed}")
    if args.trials == 0:
        print("warning: no checks run (--trials 0)")
        return 0
    results, paths = run_verification(args.trials, args.seed)
    failed = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name:<10} {r.passed}/{r.passed + r.failed} {status}")
        if not r.ok:
            failed = True
            print(r.detail, file=sys.stderr)
    print(f"forward-backward: {paths['_scaled']} trials _scaled, "
          f"{paths['_log_space']} _log_space", file=sys.stderr)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Callers
    share it and must not change it; parse_args keeps no state in it, since
    each call returns a new namespace and argparse copies the list default
    of an "append" option such as --aux before it appends."""
    parser = argparse.ArgumentParser(
        prog="mixner",
        description="Code-mixed NER: corpus mixing, CRF training, tagging, "
                    "evaluation, and self-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mix", help="concatenate datasets, optionally shuffled")
    p.add_argument("--primary", required=True, help="primary corpus file")
    p.add_argument("--aux", action="append", default=[],
                   help="auxiliary corpus file (repeatable)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--shuffle", action="store_true",
                   help="apply a seeded permutation to the mixed sentences")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", help="train a CRF tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("-o", "--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CoNLL input; the tag column is optional")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="entity-level evaluation of predictions")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
