"""Record the benchmark as BENCH_<pr>.json.

    python3 scripts/record_bench.py --pr N [--seconds S]

For every seed (1 to 5), workload (mix-train, tag-eval, verify) and trace
setting (0 and 1) it runs ``python3 bench/run.py`` in this checkout, for
BENCHMARK.json's run_seconds unless --seconds says otherwise, and reads the run's
``.bench_work/results/<workload>-seed<s>-trace<t>.json``.  Per workload and
trace setting, BENCH_<pr>.json holds the median and quartiles of every metric
in the runs' ``values``, the summed ``attempted`` and ``failed`` requests, the
tracer's ``untraced_wrappers`` and each run's load average; beside them, the
environment the runs share: git SHA, ``src_lines``, nproc, Python, numpy and
BLAS.  It refuses to run while ``src/`` or ``bench/`` differ from the
checked-out commit, so the recorded git SHA names the code that was measured,
and while a ``__pycache__`` exists under either, since bytecode left by an
earlier command makes ``setup_s`` read low; the runs themselves write none
(``PYTHONDONTWRITEBYTECODE=1``).  Each run's stderr goes to
``.bench_work/logs/<workload>-seed<s>-trace<t>.log``, so the terminal shows only
the recorder's progress lines, and the log's name when a run fails.  It uses
the standard library only; the 30 runs of the default settings take about 25
minutes at 30 s a run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mix-train", "tag-eval", "verify")
SEEDS = (1, 2, 3, 4, 5)
TRACES = (0, 1)
# The part of a run's env that every run of one BENCH file must share.
ENV_KEYS = ("git_sha", "src_lines", "nproc", "cpus_usable", "machine", "python", "numpy",
            "blas", "blas_threads")


def quartiles(values: list[float]) -> dict:
    """The median and the quartiles, by the inclusive method: with one value
    all three are that value."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def aggregate(results: list[dict]) -> dict:
    """BENCH_<pr>.json's env and groups from bench/run.py result dicts.
    Raises ValueError if the runs were made in different environments."""
    envs = [{key: r["env"].get(key) for key in ENV_KEYS} for r in results]
    if any(env != envs[0] for env in envs):
        raise ValueError("the runs do not share one environment: " + ", ".join(
            key for key in ENV_KEYS if len({json.dumps(e[key]) for e in envs}) > 1))
    groups = {}
    for r in sorted(results, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        groups.setdefault(f"{r['workload']}-trace{r['trace']}", []).append(r)
    out = {}
    for name, runs in groups.items():
        metrics = sorted({m for r in runs for m in r["values"]})
        out[name] = {
            "workload": runs[0]["workload"], "trace": runs[0]["trace"],
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m: quartiles([r["values"][m] for r in runs if m in r["values"]])
                        for m in metrics},
            "untraced_wrappers": sorted({w for r in runs for w in r["untraced_wrappers"]}),
            "loadavg_start": [r["env"].get("loadavg_start") for r in runs],
            "loadavg_end": [r["env"].get("loadavg_end") for r in runs],
        }
    return {"env": envs[0], "groups": out}


def run_one(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """Run bench/run.py once, its stderr to a log, and return the result file
    it wrote.  Exits naming the log if the run fails."""
    name = f"{workload}-seed{seed}-trace{trace}"
    path = ROOT / ".bench_work" / "results" / f"{name}.json"
    log = ROOT / ".bench_work" / "logs" / f"{name}.log"
    path.unlink(missing_ok=True)
    log.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with log.open("w", encoding="utf-8") as err:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1")).returncode
    if rc:
        sys.exit(f"{name} failed with exit code {rc}; its stderr is in {log}")
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    caches = sorted(str(p.relative_to(ROOT)) for top in ("src", "bench")
                    for p in (ROOT / top).rglob("__pycache__"))
    if caches:
        parser.error("bytecode caches would make setup_s read low; remove "
                     + ", ".join(caches))
    changed = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"], cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
    if changed:
        parser.error("src/ or bench/ differ from the checked-out commit:\n" + changed)
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    results = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in TRACES:
                print(f"{workload} seed {seed} trace {trace} ({seconds} s)", file=sys.stderr)
                results.append(run_one(workload, seed, trace, seconds))
    record = {"settings": {"seconds": seconds, "seeds": list(SEEDS),
                           "workloads": list(WORKLOADS), "traces": list(TRACES)},
              **aggregate(results)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
