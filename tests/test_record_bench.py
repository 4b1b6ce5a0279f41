"""scripts/record_bench.py's aggregation, on canned bench/run.py results:
no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

ENV = {"nproc": 2, "cpus_usable": 2, "machine": "x86_64", "python": "3.11.7",
       "numpy": "2.4.6", "blas": {"name": "scipy-openblas", "version": "0.3.31"},
       "blas_threads": 2, "git_sha": "abc123", "src_lines": 1718}


def result(workload, seed, trace, values, attempted=10, failed=0, missing=(), load=0.5):
    """A results dict with the fields bench/run.py writes that the recorder reads."""
    return {"workload": workload, "seed": seed, "seconds": 30.0, "trace": trace,
            "attempted": attempted, "failed": failed, "untraced_wrappers": list(missing),
            "values": values,
            "env": dict(ENV, loadavg_start=[load, 0.4, 0.3], loadavg_end=[load + 1, 0.5, 0.3])}


def test_quartiles_of_several_values_and_of_one():
    assert record_bench.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == \
           {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert record_bench.quartiles([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "n": 1}


def test_groups_by_workload_and_trace():
    runs = [result("mix-train", s, 0, {"req_p50_s": 0.05 + s / 100, "dev_f1": 0.6},
                   attempted=100 + s, failed=s % 2, load=s)
            for s in (3, 1, 2)]
    runs += [result("mix-train", s, 1, {"cli.self_s": float(s)}, missing=[m])
             for s, m in [(1, "mixner.cli.viterbi"), (2, "mixner.crf.score_entities")]]
    runs.append(result("tag-eval", 1, 0, {"req_p50_s": 0.053}))
    record = record_bench.aggregate(runs)
    assert record["env"] == ENV
    assert sorted(record["groups"]) == ["mix-train-trace0", "mix-train-trace1", "tag-eval-trace0"]
    plain = record["groups"]["mix-train-trace0"]
    assert (plain["workload"], plain["trace"], plain["seeds"]) == ("mix-train", 0, [1, 2, 3])
    assert (plain["attempted"], plain["failed"], plain["seconds"]) == (306, 2, [30.0])
    assert plain["metrics"]["req_p50_s"] == pytest.approx(
        {"median": 0.07, "q1": 0.065, "q3": 0.075, "n": 3})
    assert plain["metrics"]["dev_f1"] == {"median": 0.6, "q1": 0.6, "q3": 0.6, "n": 3}
    assert [load[0] for load in plain["loadavg_start"]] == [1, 2, 3]
    traced = record["groups"]["mix-train-trace1"]
    assert traced["untraced_wrappers"] == ["mixner.cli.viterbi", "mixner.crf.score_entities"]
    assert traced["metrics"] == {"cli.self_s": {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}}
    assert record["groups"]["tag-eval-trace0"]["metrics"]["req_p50_s"]["n"] == 1
    json.dumps(record, allow_nan=False)


def test_runs_from_different_commits_are_refused():
    other = result("mix-train", 2, 0, {"req_p50_s": 0.05})
    other["env"]["git_sha"] = "def456"
    with pytest.raises(ValueError, match="git_sha"):
        record_bench.aggregate([result("mix-train", 1, 0, {"req_p50_s": 0.05}), other])


BENCH_FILES = sorted(SCRIPT.parents[1].glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_bench_files_have_the_recorded_layout(path):
    """Every BENCH_<pr>.json at the root has the layout the recorder writes:
    its settings, the env of ENV_KEYS, and one group per workload and trace
    setting with the fields aggregate writes, whose metrics each hold a
    median between their quartiles."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert list(record) == ["settings", "env", "groups"]
    settings = record["settings"]
    assert sorted(settings) == ["seconds", "seeds", "traces", "workloads"]
    assert sorted(record["env"]) == sorted(record_bench.ENV_KEYS)
    fields = sorted(record_bench.aggregate([result("mix-train", 1, 0, {})])["groups"]
                    ["mix-train-trace0"])
    assert sorted(record["groups"]) == sorted(
        f"{w}-trace{t}" for w in settings["workloads"] for t in settings["traces"])
    for name, group in record["groups"].items():
        assert sorted(group) == fields, name
        assert f"{group['workload']}-trace{group['trace']}" == name
        assert group["seeds"] == settings["seeds"], name
        assert 0 <= group["failed"] <= group["attempted"], name
        for metric, q in group["metrics"].items():
            assert sorted(q) == ["median", "n", "q1", "q3"], (name, metric)
            assert q["q1"] <= q["median"] <= q["q3"] and q["n"] >= 1, (name, metric)


class FakeRuns:
    """A stand-in for subprocess.run in the loaded recorder: git status finds
    nothing changed, and a bench/run.py run writes a canned result file and
    a forward-backward line to its stderr, or fails with `fail_rc`."""

    def __init__(self, root, fail_rc=0):
        self.root, self.fail_rc, self.envs = root, fail_rc, []

    def __call__(self, cmd, **kwargs):
        if cmd[0] == "git":
            return record_bench.subprocess.CompletedProcess(cmd, 0, stdout="")
        self.envs.append(kwargs["env"])
        opt = dict(zip(cmd[2::2], cmd[3::2]))
        kwargs["stderr"].write("forward-backward: 7 trials _scaled, 1 _log_space\n")
        name = f"{opt['--workload']}-seed{opt['--seed']}-trace{opt['--trace']}"
        out = self.root / ".bench_work" / "results" / f"{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result(opt["--workload"], int(opt["--seed"]),
                                         int(opt["--trace"]), {"req_p50_s": 0.05})))
        return record_bench.subprocess.CompletedProcess(cmd, self.fail_rc)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A temporary checkout root with src/mixner and bench, no bytecode."""
    (tmp_path / "src" / "mixner").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    return tmp_path


def test_runs_stderr_goes_to_logs(tree, monkeypatch, capsys):
    """The terminal shows the recorder's progress lines only; each run's
    stderr is in its own log, and no run writes bytecode."""
    runs = FakeRuns(tree)
    monkeypatch.setattr(record_bench.subprocess, "run", runs)
    assert record_bench.main(["--pr", "99", "--seconds", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{w} seed {s} trace {t} (1.0 s)" for s in record_bench.SEEDS
                   for w in record_bench.WORKLOADS for t in record_bench.TRACES] + \
        ["wrote BENCH_99.json"]
    logs = sorted((tree / ".bench_work" / "logs").iterdir())
    assert len(logs) == len(runs.envs) == 30
    assert all(log.read_text() == "forward-backward: 7 trials _scaled, 1 _log_space\n"
               for log in logs)
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in runs.envs)


def test_failed_run_names_its_log(tree, monkeypatch):
    monkeypatch.setattr(record_bench.subprocess, "run", FakeRuns(tree, fail_rc=3))
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--pr", "99", "--seconds", "1"])
    log = tree / ".bench_work" / "logs" / "mix-train-seed1-trace0.log"
    assert exc.value.code == f"mix-train-seed1-trace0 failed with exit code 3; " \
                             f"its stderr is in {log}"
    assert "forward-backward" in log.read_text()
    assert not (tree / "BENCH_99.json").exists()


def test_refuses_to_start_with_bytecode_caches(tree, monkeypatch, capsys):
    """A __pycache__ under src/ or bench/ makes setup_s read low, so the
    recorder exits 2 naming each one, before any run."""
    for cache in ("src/mixner/__pycache__", "bench/__pycache__"):
        (tree / cache).mkdir()
    runs = FakeRuns(tree)
    monkeypatch.setattr(record_bench.subprocess, "run", runs)
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--pr", "99", "--seconds", "1"])
    assert exc.value.code == 2 and not runs.envs
    err = capsys.readouterr().err
    assert "bench/__pycache__" in err and "src/mixner/__pycache__" in err
    (tree / "bench/__pycache__").rmdir()
    (tree / "src/mixner/__pycache__").rmdir()
    assert record_bench.main(["--pr", "99", "--seconds", "1"]) == 0
