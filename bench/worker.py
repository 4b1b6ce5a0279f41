"""One workload as a closed loop: one client in this process sends the next
request only after the previous one has returned and been checked.

    python3 bench/worker.py SPEC.json [--setup-only]

Reads the spec written by run.py, prints the monotonic time at which the
first request could be sent, and (unless --setup-only) runs requests until
the spec's seconds have passed after a warm-up request.  Per-request records,
trace counts and peak memory go to the spec's result file, spans to its
spans file.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run(spec: dict, wl, tracer) -> dict:
    records = []
    deadline = None
    i = 0
    while deadline is None or time.monotonic() < deadline:
        # In a traced run every other request is traced, so the untraced
        # ones measure what tracing costs.
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        error = f1 = None
        ref_before = refspeed.reference_s()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.request_span(i):
                    state = wl.request(i)
            else:
                state = wl.request(i)
        except Exception as exc:  # the request failed; count it, keep going
            error = f"request raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        ref_after = refspeed.reference_s()
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                f1 = wl.check(i, state)
            except Exception as exc:  # any wrong or unreadable output
                error = f"{type(exc).__name__}: {exc}"
        records.append({"i": i, "wall_s": wall,
                        "latency_s": refspeed.normalise(wall, ref_before, ref_after),
                        "traced": traced,
                        "error": error, "f1": f1, **wl.units(i)})
        i += 1
        if deadline is None:  # request 0 warmed caches; timing starts now
            deadline = time.monotonic() + spec["seconds"]
    result = {"records": records,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
        Path(spec["spans"]).write_text(json.dumps(
            {"fields": ["id", "parent", "request", "name", "start", "end"],
             "spans": tracer.spans}), encoding="utf-8")
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[spec["workload"]](spec)
    tracer = tracing.Tracer() if spec["trace"] else None
    ready = time.monotonic()
    if argv[2:] == ["--setup-only"]:
        print(ready)
        return 0
    result = run(spec, wl, tracer)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
