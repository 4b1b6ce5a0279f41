"""Tests of the benchmark itself: inputs, output checks and the result line.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import synth  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic():
    for make in (synth.zipf_corpus, synth.separable_corpus):
        first = synth.to_conll(make(600, 7)).encode()
        assert synth.to_conll(make(600, 7)).encode() == first
        assert synth.to_conll(make(600, 8)).encode() != first
    train, held_out = synth.zipf_corpus(7000, 1), synth.zipf_corpus(2000, 2)
    stats = synth.corpus_stats(train, held_out)
    assert stats["tags"] == 13
    assert 7000 <= stats["tokens"] < 7000 + 48
    assert stats["attributes"] > stats["tokens"] / 10
    assert 0.0 < stats["held_out_w0_oov_share"] < 0.5
    assert synth.corpus_stats(synth.separable_corpus(200, 1))["tags"] == 7
    assert len({len(s) for s in train}) > 10


@pytest.fixture(scope="module")
def tag_eval(tmp_path_factory):
    work = tmp_path_factory.mktemp("tag-eval")
    spec = workloads.make_inputs("tag-eval", 3, work, sizes={
        "train": 5000, "dev": 300, "epochs": 1, "input": 500})
    return workloads.TagEval(spec)


def _corrupt(text: str, how: str) -> str:
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line)
    if how == "foreign tag":
        lines[first] = lines[first].split("\t")[0] + "\tB-NOPE"
    elif how == "malformed tag":
        lines[first] = lines[first].split("\t")[0] + "\tXYZ"
    elif how == "dropped token":
        del lines[first]
    elif how == "renamed token":
        lines[first] = "zzz\t" + lines[first].split("\t")[1]
    elif how == "dropped sentence":
        lines = lines[lines.index("") + 1:]
    elif how == "truncated":
        lines = lines[:len(lines) // 2]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("how", ["foreign tag", "malformed tag", "dropped token",
                                 "renamed token", "dropped sentence", "truncated"])
def test_corrupted_tag_output_is_a_failed_check(tag_eval, how):
    assert 0.0 <= tag_eval.check(0, tag_eval.request(0)) <= 1.0
    req = tag_eval.request(1)
    pred = req.out["pred"]
    pred.write_text(_corrupt(pred.read_text(encoding="utf-8"), how), encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        tag_eval.check(1, req)
    assert not pred.exists()


def test_unreadable_eval_report_is_a_failed_check(tag_eval):
    req = tag_eval.request(0)
    req.out["report"].write_text("{not json", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        tag_eval.check(0, req)


class _Broken:
    """A workload whose requests alternately raise and return bad output."""

    def request(self, i):
        if i % 2:
            raise RuntimeError("request blew up")
        return "bad"

    def check(self, i, state):
        return state[99]

    def units(self, i):
        return {"tokens": 1, "trials": 1}


def test_failures_are_counted_not_raised():
    result = worker.run({"seconds": 0.05}, _Broken(), None)
    records = result["records"]
    assert len(records) >= 2
    assert all(r["error"] for r in records)
    assert any("blew up" in r["error"] for r in records)
    assert any("IndexError" in r["error"] for r in records)


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(x) for x in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == table
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "mix-train",
                              "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        for name in table:
            assert name in out.stdout
