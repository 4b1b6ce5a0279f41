"""Price the host's current speed with a fixed reference task.

On a shared host the same code can run 1.5 to 2 times slower for minutes at
a time while other tenants load the machine, so a wall-clock median moves by
far more than any bound a change could be held to.  Each timed interval is
therefore bracketed by a short reference task that belongs to the benchmark
and never changes.  It does the two kinds of work mixner does: small-array
numpy calls in a Python loop (the CRF code) and Python object churn over a
working set of a few megabytes (parsing, encoding, building sentences); a
reference with only one of the two tracked one workload and missed the
other.  A latency is reported as

    wall seconds * REFERENCE_S / (mean of the reference times before and after)

that is, in seconds on a host that runs the reference task in REFERENCE_S.
Raw wall-clock times are kept beside the normalised ones in the results.
"""

import functools
import time

import numpy as np

# The reference task's time on an unshared core of a 2-vCPU AMD EPYC virtual
# machine (numpy 2.4, Python 3.11).
REFERENCE_S = 0.006

_X0 = np.linspace(-1.0, 1.0, 13)
_T = np.cos(np.arange(169.0)).reshape(13, 13)


@functools.cache
def _words() -> list[str]:
    return [f"w{i % 5000}x{i}" for i in range(20000)]


def reference_s() -> float:
    """Seconds the reference task takes now."""
    words = _words()
    start = time.perf_counter()
    x = _X0
    for _ in range(600):
        a = x[:, None] + _T
        m = a.max(axis=0)
        x = np.log(np.exp(a - m).sum(axis=0)) + m
        x = x - x.max()
    counts: dict[str, int] = {}
    for w in words[:12000]:
        key = w.split("x")[0]
        counts[key] = counts.get(key, 0) + 1
    rows = [(w, len(w)) for w in words[::2]]
    sum(n for _, n in rows)
    return time.perf_counter() - start


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
