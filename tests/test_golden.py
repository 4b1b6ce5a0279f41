"""Golden bytes for the documented file formats, pinned without a trained
model (exp and log bits vary across numpy builds, so a trained model's
bytes would not).

tests/golden holds a hand-made 3-tag model whose weights include long reprs
(0.30000000000000004, 1.2345678901234567, 5e-324), the sidecar a load of it
writes (model.sidecar: .gitignore hides *.mixner-cache), a token-only input
with a "#hashtag" token and words the model has never seen, the output of
`mixner tag` on it, a hand-tagged gold.conll of the same tokens, and
`mixner eval`'s text and JSON reports of that output against it; every
check runs on copies in tmp_path.  (verify.out and verify.err, the output of
`mixner verify --trials 300 --seed 7`, are checked in tests/test_oracle.py,
in its one 300-trial run.)
"""

import hashlib
import json
import re
import shutil
from pathlib import Path
from unittest.mock import patch

import numpy as np

from mixner.cli import main
from mixner.modelfile import load_model, save_model

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def parsing_no_weight_row():
    """A patch under which a load that parses a weight row fails."""
    return patch("mixner.modelfile._read_block",
                 side_effect=AssertionError("a weight row was parsed"))


def copied(tmp_path, *names):
    for name in names:
        shutil.copyfile(GOLDEN / name, tmp_path / name)
    return [tmp_path / name for name in names]


def test_model_saves_again_byte_identical(tmp_path):
    model, = copied(tmp_path, "model.txt")
    again = tmp_path / "again.txt"
    save_model(load_model(model), again)
    assert again.read_bytes() == (GOLDEN / "model.txt").read_bytes()


def test_tag_writes_the_golden_bytes_cold_and_warm(tmp_path, capsys):
    """tag writes tests/golden/tagged.conll, first parsing the model's text
    and then, from the sidecar that load left, without parsing it."""
    model, text = copied(tmp_path, "model.txt", "input.conll")

    def tag(out):
        assert main(["tag", "--model", str(model), "--input", str(text), "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "tagged.conll").read_bytes()

    tag(tmp_path / "cold.conll")
    assert Path(f"{model}.mixner-cache").exists()
    with parsing_no_weight_row():
        tag(tmp_path / "warm.conll")
    assert capsys.readouterr().out == "tagged 3 sentences\n" * 2


def test_sidecar_is_magic_digest_and_little_endian_weights(tmp_path):
    """README's layout, read from the text with float, not from load_model:
    the magic line, the SHA-256 of the model file's bytes, then the weights
    as <f8 in the order emissions, transitions, start, end."""
    model, = copied(tmp_path, "model.txt")
    load_model(model)
    data = model.read_bytes()
    sections = dict(re.findall(r"\[(\w+)\]\n([^[]*)", data.decode("utf-8")))
    weights = [float(w) for name in ("emissions", "transitions", "start", "end")
               for w in sections[name].split()]
    assert len(weights) == 10 * 3 + 3 * 3 + 3 + 3
    assert Path(f"{model}.mixner-cache").read_bytes() == (
        b"MIXNER-CRF-CACHE v1\n" + hashlib.sha256(data).digest()
        + np.array(weights, "<f8").tobytes())


def test_cold_load_writes_the_golden_sidecar(tmp_path):
    """A cold load leaves the committed sidecar's bytes beside the model, and
    a load beside those bytes parses no weight row."""
    model, = copied(tmp_path, "model.txt")
    cold = load_model(model)
    assert Path(f"{model}.mixner-cache").read_bytes() == (GOLDEN / "model.sidecar").read_bytes()
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copyfile(GOLDEN / "model.txt", fresh / "model.txt")
    shutil.copyfile(GOLDEN / "model.sidecar", fresh / "model.txt.mixner-cache")
    with parsing_no_weight_row():
        assert load_model(fresh / "model.txt").weights.tobytes() == cold.weights.tobytes()


def test_start_line_after_no_newline_is_parsed_every_load(tmp_path):
    """load_model looks for the [start] line after a "\\n" alone.  The golden
    model with every "\\n" written "\\r" has none: it loads to the same
    weights every time, by parsing its text, and gets no sidecar.  The
    original, and a copy with "\\r\\n" line ends, load warm the second time."""
    model, = copied(tmp_path, "model.txt")
    cr, crlf = tmp_path / "cr.txt", tmp_path / "crlf.txt"
    cr.write_bytes(model.read_bytes().replace(b"\n", b"\r"))
    crlf.write_bytes(model.read_bytes().replace(b"\n", b"\r\n"))
    expected = load_model(model).weights.tobytes()
    for _ in range(2):
        assert load_model(cr).weights.tobytes() == expected
    assert not Path(f"{cr}.mixner-cache").exists()
    assert load_model(crlf).weights.tobytes() == expected
    with parsing_no_weight_row():
        for path in (model, crlf):
            assert load_model(path).weights.tobytes() == expected


def test_eval_writes_the_golden_reports(tmp_path, capsys):
    """eval of tagged.conll against gold.conll writes the committed text and
    JSON reports: one CW span right and one cut short, one EN span typed CW
    and one missed."""
    gold, pred = copied(tmp_path, "gold.conll", "tagged.conll")
    for fmt, name in [("text", "report.txt"), ("json", "report.json")]:
        out = tmp_path / name
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--format", fmt,
                     "--report", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()
    assert capsys.readouterr().out == "weighted_f1 0.2000\n" * 2


def test_readme_json_report_is_evals_output(tmp_path, capsys):
    """README's JSON block is what `eval --format json` prints for its
    example: gold B-CW I-CW O O, predicted B-CW O O O."""
    block = re.search(r"## JSON report schema\n\n```json\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    words = ["w0", "w1", "w2", "w3"]
    for path, tags in [(gold, ["B-CW", "I-CW", "O", "O"]), (pred, ["B-CW", "O", "O", "O"])]:
        path.write_text("".join(f"{w}\t{t}\n" for w, t in zip(words, tags)), encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--format", "json"]) == 0
    *report, last = capsys.readouterr().out.splitlines(keepends=True)
    assert json.loads("".join(report)) == json.loads(block)
    assert last == "weighted_f1 0.0000\n"
