"""Request-level benchmark of mixner.

    python3 bench/run.py --workload {mix-train,tag-eval,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/``).
The run generates its inputs from the seed, measures set-up time over
several fresh interpreters, then drives one workload as a closed loop for S
seconds in a worker process (see worker.py and workloads.py) and checks
every output.  It prints a table of the metrics with units and sample
counts, the environment, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
other request is traced and the metrics are per layer.  Full results go to
``.bench_work/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostinfo  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402

SETUP_STARTS = 15
WORKER_GRACE_S = 120

# name -> unit.  Per-layer seconds and counts are means per traced request.
END_TO_END = {
    "req_p50_s": "s",
    "req_tail_s": "s",
    "tokens_per_s": "tok/s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dev_f1": "f1",
}
PER_LAYER = {
    "crf.nll_and_gradient.tokens_per_s": "tok/s",
    "crf.nll_and_gradient.calls": "count",
    "crf.nll_and_gradient.share": "share",
    "crf.train.self_s": "s",
    "crf.viterbi.tokens_per_s": "tok/s",
    "crf.viterbi.calls": "count",
    "crf.log_partition.calls_per_s": "1/s",
    "crf.marginals.calls_per_s": "1/s",
    "crf.load_model.busy_s": "s",
    "crf.load_model.mb_per_s": "MB/s",
    "crf.save_model.busy_s": "s",
    "corpus.parse_conll.tokens_per_s": "tok/s",
    "corpus.write_conll.tokens_per_s": "tok/s",
    "features.encode_dataset.tokens_per_s": "tok/s",
    "eval.score_entities.tokens_per_s": "tok/s",
    "corpus.mix_datasets.busy_s": "s",
    "corpus.validate_iob.busy_s": "s",
    "features.build_index.busy_s": "s",
    "features.encode_dataset.attr_hit_share": "share",
    "features.w0_oov_share": "share",
    "oracle.enumerate.self_s": "s",
    "oracle.fd_gradient.self_s": "s",
    "oracle.sequences": "count",
    "cli.self_s": "s",
    "trace.overhead_share": "share",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it, and the
    latency there (the eleventh largest); the maximum below 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(records: list[dict], setup, setup_wall, peak_rss_kb: int) -> dict:
    # Failed requests count in fail_share; when none succeeded, time them all.
    timed = [r for r in records[1:] if r["error"] is None] or records
    lat = [r["latency_s"] for r in timed]
    busy = sum(lat)
    pct, tail_s = tail(lat)
    values = {
        "req_p50_s": statistics.median(lat),
        "req_tail_s": tail_s,
        "tokens_per_s": _ratio(sum(r["tokens"] for r in timed), busy),
        "trials_per_s": _ratio(sum(r["trials"] for r in timed), busy),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024,
        "dev_f1": statistics.median(r["f1"] or 0.0 for r in timed),
    }
    samples = {name: len(lat) for name in values}
    samples.update(setup_s=len(setup), peak_rss_mb=1)
    notes = {"req_p50_s": f"wall {statistics.median(r['wall_s'] for r in timed):.4g} s",
             "req_tail_s": f"p{pct:.1f}",
             "setup_s": f"wall {statistics.median(setup_wall):.4g} s"}
    return {"values": values, "samples": samples, "notes": notes}


def per_layer(records: list[dict], summary: dict, counts: dict) -> dict:
    traced = [r for r in records[1:] if r["traced"] and r["error"] is None]
    plain = [r for r in records[1:] if not r["traced"] and r["error"] is None]
    n = len(traced)
    busy = sum(r["wall_s"] for r in traced)  # spans are wall-clock too

    def agg(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    def per_request(x):
        return _ratio(x, n)

    enumerate_self = sum(agg(f"oracle.enumerate_{k}", "self_s")
                         for k in ("logZ", "best", "marginals"))
    layer_self = sum(v["self_s"] for k, v in summary.items()
                     if k not in ("request", "cli.main"))
    values = {
        "crf.nll_and_gradient.tokens_per_s":
            _ratio(counts.get("crf.nll_and_gradient.tokens", 0), agg("crf.nll_and_gradient")),
        "crf.nll_and_gradient.calls": per_request(agg("crf.nll_and_gradient", "calls")),
        "crf.nll_and_gradient.share": _ratio(agg("crf.nll_and_gradient"), busy),
        "crf.train.self_s": per_request(agg("crf.train", "self_s")),
        "crf.viterbi.tokens_per_s":
            _ratio(counts.get("crf.viterbi.tokens", 0), agg("crf.viterbi")),
        "crf.viterbi.calls": per_request(agg("crf.viterbi", "calls")),
        "crf.log_partition.calls_per_s":
            _ratio(agg("crf.log_partition", "calls"), agg("crf.log_partition")),
        "crf.marginals.calls_per_s": _ratio(agg("crf.marginals", "calls"), agg("crf.marginals")),
        "crf.load_model.busy_s": per_request(agg("crf.load_model")),
        "crf.load_model.mb_per_s":
            _ratio(counts.get("crf.load_model.bytes", 0) / 1e6, agg("crf.load_model")),
        "crf.save_model.busy_s": per_request(agg("crf.save_model")),
        "corpus.parse_conll.tokens_per_s":
            _ratio(counts.get("corpus.parse_conll.tokens", 0), agg("corpus.parse_conll")),
        "corpus.write_conll.tokens_per_s":
            _ratio(counts.get("corpus.write_conll.tokens", 0), agg("corpus.write_conll")),
        "features.encode_dataset.tokens_per_s":
            _ratio(counts.get("features.encode_dataset.tokens", 0),
                   agg("features.encode_dataset")),
        "eval.score_entities.tokens_per_s":
            _ratio(counts.get("eval.score_entities.tokens", 0), agg("eval.score_entities")),
        "corpus.mix_datasets.busy_s": per_request(agg("corpus.mix_datasets")),
        "corpus.validate_iob.busy_s": per_request(agg("corpus.validate_iob")),
        "features.build_index.busy_s": per_request(agg("features.build_index")),
        "features.encode_dataset.attr_hit_share":
            _ratio(counts.get("features.encode_dataset.attrs_kept", 0),
                   counts.get("features.encode_dataset.attrs_extracted", 0)),
        "features.w0_oov_share":
            _ratio(counts.get("features.w0_oov", 0),
                   counts.get("features.encode_dataset.tokens", 0)),
        "oracle.enumerate.self_s": per_request(enumerate_self),
        "oracle.fd_gradient.self_s": per_request(agg("oracle.fd_gradient", "self_s")),
        "oracle.sequences": per_request(counts.get("oracle.sequences", 0)),
        "cli.self_s": per_request(busy - layer_self),
        "trace.overhead_share":
            _ratio(_median(r["latency_s"] for r in traced),
                   _median(r["latency_s"] for r in plain)) - 1.0,
    }
    samples = {name: n for name in values}
    notes = {"cli.self_s": "request time outside every layer span",
             "trace.overhead_share": f"median of {n} traced vs {len(plain)} untraced requests"}
    return {"values": values, "samples": samples, "notes": notes}


def _spawn_ready(cmd: list[str]) -> tuple[float, float]:
    """Start a fresh interpreter that sets up a workload and exits; the
    seconds from spawning it until it could send its first request, as wall
    time and normalised to the reference speed."""
    before = refspeed.reference_s()
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    wall = float(out.stdout.split()[-1]) - start
    return wall, refspeed.normalise(wall, before, refspeed.reference_s())


def _measure_setup(cmd: list[str]) -> list[tuple[float, float]]:
    """SETUP_STARTS samples of _spawn_ready.  The interpreters and the
    reference task run on one CPU, so both see the same host speed."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return [_spawn_ready(cmd) for _ in range(SETUP_STARTS)]
    finally:
        os.sched_setaffinity(0, cpus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mix-train", "tag-eval", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixner" / "__init__.py").is_file():
        print(f"error: no mixner sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import workloads  # imports mixner, so only once the sources are known to exist

    load_start = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = ROOT / ".bench_work" / "results"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        spec = workloads.make_inputs(args.workload, args.seed, work)
        spec.update(seconds=args.seconds, trace=args.trace,
                    result=str(work / "result.json"),
                    spans=str(results_dir / f"{args.workload}.spans.json"))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        worker = [sys.executable, str(BENCH / "worker.py"), str(spec_path)]
        setup_wall, setup = zip(*_measure_setup(worker + ["--setup-only"]))
        subprocess.run(worker, timeout=args.seconds + WORKER_GRACE_S, check=True)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if r["error"] is not None]
    if args.trace:
        spans = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))["spans"]
        report = per_layer(records, tracing.summarize(spans), result["counts"])
        units = PER_LAYER
    else:
        report = end_to_end(records, setup, setup_wall, result["peak_rss_kb"])
        units = END_TO_END
    env = hostinfo.collect(ROOT)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": len(records), "failed": len(failed),
               "fail_share": len(failed) / len(records), "warmup_requests": 1,
               "inputs": spec.get("stats"), "size": spec["size"],
               "errors": [f"request {r['i']}: {r['error']}" for r in failed[:10]],
               "untraced_wrappers": result.get("missing", []),
               "latencies_s": [r["latency_s"] for r in records],
               "wall_latencies_s": [r["wall_s"] for r in records],
               "setup_s": setup, "wall_setup_s": setup_wall,
               "counts": result.get("counts"), "env": env, **report}
    (results_dir / f"{tag}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(records)} requests "
          f"(1 warm-up), {len(failed)} failed, fail_share {summary['fail_share']:.4f}")
    for err in summary["errors"]:
        print(f"  FAILED {err}")
    for name, unit in units.items():
        note = report["notes"].get(name, "")
        print(f"  {name:<40} {report['values'][name]:>14.6g} {unit:<6} "
              f"n={report['samples'][name]:<5} {note}")
    print("inputs " + json.dumps(spec.get("stats"), sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {name: {"value": report["values"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
