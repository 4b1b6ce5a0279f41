"""The text repr gives a block of float64 weights, computed for the whole
block at once in numpy.

format_rows(block) returns the ASCII bytes of "\\n".join(" ".join(map(repr,
row)) for row in block) for a 2-D float64 block of finite weights, in parts:
a list of bytearrays, one per slice, that b"".join would put together.  A
writer that writes the parts in turn never holds the block's text twice.

Digits.  repr writes the shortest decimal that reads back to the same float,
and of those the closest to it.  These come from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) in exact uint64 arithmetic: a
float c * 2**q has the rounding interval [c - 1/2, c + 1/2] * 2**q (a lower
half-width of 1/4 at powers of two, whose lower neighbour is closer); its
ends and centre are scaled by 10**-k, with k = floor(log10(2**q)), through
the 126-bit g(k) of _g_table and rounded to odd, and the candidates are
10**(k+1) * floor(s / 10), the next multiple of 10**(k+1), s * 10**k and
(s + 1) * 10**k, where s is the scaled centre's integer part.  The shorter
pair is tried whenever s >= 10, not at Java's s >= 100, so that 5e-324
keeps its single digit.  Subnormals with c < 3 are scaled by 10 first.

Layout.  repr writes d.ddde-XX (at least two exponent digits) when the
decimal point falls more than 4 places left of the first digit or more
than 16 right of it, and positional text with ".0" after integers
otherwise.  Each weight gets a fixed frame of six 8-byte words: the sign
and the "0.000" prefix; four words of four digits, each followed by a slot
for the point; the 17th digit, the exponent and the separator.  Every part
comes from a table lookup, every character a weight does not write is a
NUL, and one bytes.translate deletes the NULs.

Blocks are formatted SLICE weights at a time, in whole rows, so the
temporaries stay small, and a smaller block gets buffers of its own size.
Every uint64 array meets only uint64 arrays and np.uint64 scalars: numpy 1.x
promotes uint64 with int64 to float64.
"""

import functools
from typing import NamedTuple

import numpy as np

SLICE = 8192  # weights formatted at a time, rounded down to whole rows (at least one)

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that doubles need
_E_OFF = 400  # the exponent table's offset: entry 0 (exponent -400) is blank
_FRAME = 48  # bytes per weight: six little-endian uint64 words

_FOURS = np.array([[0], [4], [8], [12]], dtype=np.int8)  # each group's first digit
_KEEP_OFFSETS = 12 * 33 + 12 - 34 * 4 * np.arange(4)[:, None]  # see _Tables.keep
_CLOSER = np.array([1, 1, 1, 0, 1, 1, 0, 0], dtype=bool)  # by vb % 8: s, not s + 1


class _Tables(NamedTuple):
    # By a double's row: its biased exponent, plus 2048 at the powers of two
    # above 2**-1073, whose interval is irregular.
    g1: np.ndarray  # g(k) = g1 * 2**63 + g0
    g0: np.ndarray
    k: np.ndarray  # int64
    shift: np.ndarray  # h + 2: 4 * c << h is c << shift
    pow10: np.ndarray  # 10**i for i up to 17
    # By a group of four digits: its digits in bytes 0, 2, 4 and 6 with a
    # point in each slot between, and how many of the four end with its last
    # nonzero digit (-20 for 0000).
    digits: np.ndarray
    last: np.ndarray
    # By (shown - 4 i + 12) * 33 + (dot - 4 i + 12) for group i: the mask
    # that keeps the group's digits below `shown` and its slot after digit
    # `dot`, the point's.
    keep: np.ndarray
    prefix: np.ndarray  # "", "0.", ... "0.000" in bytes 1-5
    exponent: np.ndarray  # by exponent + _E_OFF: "e-05" ... in bytes 1-5; entry 0 blank


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g1 and g0 of g(k) = g1 * 2**63 + g0 for k from _K_MIN to _K_MAX, where
    g(k) = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1 lies in
    [2**125, 2**126)."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e2 = 125 - ((-k * 913124641741) >> 38)
        g = (10 ** max(-k, 0) << max(e2, 0)) // (10 ** max(k, 0) << max(-e2, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


def _words(texts) -> np.ndarray:
    """Each text as one little-endian uint64 word of its ASCII bytes, NUL padded."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), "<u8")


def _keep(shown: int, dot: int) -> int:
    """The mask of a group's first `shown` digits (none to all four) and of
    its slot after digit `dot`, if it has that slot."""
    digits = sum(0xFF << 16 * i for i in range(min(max(shown, 0), 4)))
    return digits | (0xFF << 16 * dot + 8 if 0 <= dot < 4 else 0)


@functools.cache
def _tables() -> _Tables:
    e = np.arange(4096) % 2048
    q = e - 1075 + (e == 0)
    irregular = np.arange(4096) >= 2048
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2  # 2 to 5 wherever a finite double lands
    g1, g0 = _g_table()
    rows = np.clip(k - _K_MIN, 0, len(g1) - 1)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10  # (10000, 4)
    chars = np.full((10000, 8), ord("."), dtype=np.uint8)
    chars[:, 0::2] = digits + ord("0")
    last = ((digits != 0) * np.arange(1, 5)).max(axis=1).astype(np.int8)
    last[0] = -20
    return _Tables(
        g1[rows], g0[rows], k, (h + 2).astype(np.uint64), 10 ** np.arange(18, dtype=np.uint64),
        chars.view("<u8").reshape(-1), last,
        np.array([_keep(a, b) for a in range(-12, 18) for b in range(-12, 21)], dtype=np.uint64),
        _words(["", "0.", "0.0", "0.00", "0.000"]) << _U(8),
        _words([""] + [f"e{e:+03d}" for e in range(1 - _E_OFF, _E_OFF)]) << _U(8))


def _mulhi(ah, al, b1, b0):
    """floor(a * b / 2**64) for a = ah * 2**32 + al < 2**63 and b = b1 * 2**32
    + b0 < 2**60, so the inner sum stays under 2**64."""
    return ah * b1 + ((al * b1 + ah * b0 + ((al * b0) >> _U(32))) >> _U(32))


def _round_odd(x1, y0, y1):
    """Schubfach's rop: g * cp / 2**127 rounded to odd, from x1 = the high word
    of g0 * cp and y1:y0 = g1 * cp."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z << _U(1)) != _U(0))


def _shortest(bits: np.ndarray, tables: _Tables):
    """The shortest, closest decimal f * 10**e of each nonzero double's
    magnitude, as uint64 f and int64 e; zeros give f = 0."""
    t = bits & _U((1 << 52) - 1)
    e = (bits.view(np.int64) >> 52) & 0x7FF
    c = t | ((e != 0).astype(np.uint64) << _U(52))
    tiny = c < _U(3)  # subnormals 1 and 2, scaled by 10 to keep enough digits
    c = np.where(tiny, c * _U(10), c)
    irregular = (t == _U(0)) & (e > 1)
    row = e + 2048 * irregular
    g1, g0 = tables.g1.take(row), tables.g0.take(row)
    shift = tables.shift.take(row)
    cp = c << shift  # (4 * c) << h, under 2**60
    c1, c0 = cp >> _U(32), cp & _M32
    g1h, g1l, g0h, g0l = g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32
    x1, x0 = _mulhi(g0h, g0l, c1, c0), g0 * cp
    y1, y0 = _mulhi(g1h, g1l, c1, c0), g1 * cp
    vb = _round_odd(x1, y0, y1)
    # The interval's ends: cp moves by 2 << h (1 << h below a power of two),
    # so g0 * cp and g1 * cp move by g0 and g1 shifted left as many bits.
    d = shift - _U(1)
    xr0 = x0 + (g0 << d)
    yr0 = y0 + (g1 << d)
    vbr = _round_odd(x1 + (g0 >> (_U(64) - d)) + (xr0 < x0), yr0,
                     y1 + (g1 >> (_U(64) - d)) + (yr0 < y0))
    d = d - irregular
    xl0 = x0 - (g0 << d)
    yl0 = y0 - (g1 << d)
    out = c & _U(1)  # odd c: the interval's ends round to c's neighbours, so are excluded
    vbl = _round_odd(x1 - (g0 >> (_U(64) - d)) - (xl0 > x0), yl0,
                     y1 - (g1 >> (_U(64) - d)) - (yl0 > y0)) + out
    # vb = 4 s + r: the candidates s and s + 1, one of them or both in the
    # interval, and 10 floor(s / 10) and 10 more, at most one of them in it.
    s4 = vb & _U(~3 % 2**64)
    uin = vbl <= s4
    win = s4 + (out + _U(4)) <= vbr
    # Of s and s + 1 the one alone in the interval, else the closer, else the even.
    longer = (vb >> _U(2)) + ~(uin & (~win | _CLOSER.take((vb & _U(7)).view(np.int64))))
    sp40 = vb // _U(40) * _U(40)
    upin = vbl <= sp40
    shorter = (vb >= _U(40)) & (upin != (sp40 + (out + _U(40)) <= vbr))
    f = np.where(shorter, (sp40 >> _U(2)) + ~upin * _U(10), longer)
    f[(bits << _U(1)) == _U(0)] = 0
    return f, tables.k.take(row) - tiny


def _format_slice(x: np.ndarray, tables: _Tables, separators: np.ndarray,
                  buf: bytearray) -> bytearray:
    """The text of a (rows, width) slice as ASCII, every row ended by "\\n",
    framed in buf, which has room for a whole slice."""
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.uint64)
    m = len(bits)
    f, e = _shortest(bits, tables)
    n = np.searchsorted(tables.pow10, f, side="right")  # digits in f, 0 for 0.0
    f17 = f * tables.pow10.take(17 - n)  # the digits, left-aligned to 17
    point = np.where(f == _U(0), 1, n + e)  # digits before the point; 0.0 has one
    positional = (point > -4) & (point <= 16)
    after = positional & (point > 0)  # ddd.ddd or ddd000.0; else 0.000ddd or d.ddde-XX
    # The first 16 digits as four groups of four, and the 17th.
    a = f17 // _U(10 ** 9)
    b = f17 - a * _U(10 ** 9)
    groups = np.empty((4, m), dtype=np.uint64)
    np.floor_divide(a, _U(10 ** 4), out=groups[0])
    np.subtract(a, groups[0] * _U(10 ** 4), out=groups[1])
    np.floor_divide(b, _U(10 ** 5), out=groups[2])
    b = b - groups[2] * _U(10 ** 5)
    np.floor_divide(b, _U(10), out=groups[3])
    d16 = b - groups[3] * _U(10)
    groups = groups.view(np.int64)
    significant = np.maximum((tables.last.take(groups) + _FOURS).max(axis=0),
                             (d16 != _U(0)) * np.int8(17))  # digits up to the last nonzero one
    shown = np.maximum(significant, ((point + 1) * after).astype(np.int8))
    # The point follows digit point - 1, or the first digit of a d.ddde-XX
    # weight with more than one; 20 is past every slot.
    dot = np.where(after, point - 1, np.where(~positional & (significant > 1), 0, 20))
    keep = tables.keep.take(shown.astype(np.int64) * 33 + dot + _KEEP_OFFSETS)
    words = np.frombuffer(buf, dtype="<u8").reshape(-1, _FRAME // 8)
    words[m:] = 0  # the frames a short last slice leaves over
    words = words[:m]
    words[:, 0] = (tables.prefix.take((1 - point) * (positional & ~after))
                   | (bits >> _U(63)) * _U(ord("-")))
    words[:, 1:5] = (tables.digits.take(groups) & keep).T
    words[:, 5] = ((d16 + _U(ord("0"))) * (shown > 16) | separators[:m]
                   | tables.exponent.take((point - 1 + _E_OFF) * ~positional))
    return buf.translate(None, b"\0")


def format_rows(block: np.ndarray) -> list[bytearray]:
    """The ASCII bytes of "\\n".join(" ".join(map(repr, row)) for row in
    block), for a 2-D float64 block of finite weights with at least one
    column, as one part per slice, unjoined: each part holds whole rows, and
    every row ends in "\\n" except the block's last."""
    tables = _tables()
    rows, width = block.shape
    step = max(1, min(rows, SLICE // width))  # rows a slice holds, no more than the block has
    separators = np.full((step, width), ord(" ") << 48, dtype=np.uint64)  # byte 6 of word 5
    separators[:, -1] = ord("\n") << 48
    buf = bytearray(separators.size * _FRAME)
    parts = [_format_slice(block[lo:lo + step], tables, separators.reshape(-1), buf)
             for lo in range(0, rows, step)]
    if parts:
        del parts[-1][-1]  # the last row's "\n"
    return parts
