"""The vectorised writer against repr, on the value families that random
bit patterns rarely draw."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mixner import shortest
from mixner.shortest import format_rows

WIDTHS = (1, 7, 13)


def repr_rows(block: np.ndarray) -> bytes:
    return "\n".join(" ".join(map(repr, row)) for row in block.tolist()).encode("ascii")


def as_block(values, width: int) -> np.ndarray:
    """values, repeated from the start to fill whole rows of `width`."""
    values = np.asarray(values, dtype=np.float64)
    return np.resize(values, -(-len(values) // width) * width).reshape(-1, width)


def neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


SMALLEST_NORMAL = np.finfo(np.float64).tiny
FAMILIES = {
    "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "extremes": [0.0, -0.0, 5e-324, -5e-324, np.nextafter(SMALLEST_NORMAL, 0), SMALLEST_NORMAL,
                 -SMALLEST_NORMAL, np.finfo(np.float64).max, -np.finfo(np.float64).max],
    "format boundaries": [v for x in (1e-5, 1e-4, 1e15, 1e16, 1e17, 2.0 ** 53)
                          for v in neighbours(x)],
    "integers": np.concatenate([
        np.arange(0, 20000), 10.0 ** np.arange(16), 2.0 ** 53 - np.arange(1, 50),
        np.random.default_rng(5).integers(0, 2 ** 53, 5000, endpoint=True)]).astype(np.float64),
}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("family", FAMILIES)
def test_families_match_repr(family, width):
    block = as_block(FAMILIES[family], width)
    assert b"".join(format_rows(block)) == repr_rows(block)
    assert b"".join(format_rows(-block)) == repr_rows(-block)


@pytest.mark.parametrize("width", WIDTHS)
def test_random_bit_patterns_match_repr(width):
    """100k finite doubles of uniformly random bits: many slices, every
    exponent range and both layouts."""
    bits = np.random.default_rng(29).integers(0, 2 ** 64, 120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    block = as_block(values[np.isfinite(values)][:100_000], width)
    assert block.size > 10 * shortest.SLICE
    assert b"".join(format_rows(block)) == repr_rows(block)


def test_rows_wider_than_a_slice():
    block = np.random.default_rng(3).standard_normal((3, shortest.SLICE + 5))
    assert b"".join(format_rows(block)) == repr_rows(block)


def test_small_block_buffers_fit_the_block():
    """A block smaller than a slice gets a frame buffer and separators of its
    own size, not a whole slice's (393 KB for one column)."""
    block = np.random.default_rng(4).standard_normal((13, 1))
    shortest._tables()  # built once per process, not part of a call's cost
    tracemalloc.start()
    try:
        text = b"".join(format_rows(block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == repr_rows(block)
    assert peak < 64 * 1024


def test_tables_are_built_on_first_use():
    code = ("import numpy as np, mixner, mixner.shortest as s; "
            "assert s._tables.cache_info().currsize == 0; "
            "s.format_rows(np.ones((1, 1))); assert s._tables.cache_info().currsize == 1")
    src = str(Path(shortest.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
