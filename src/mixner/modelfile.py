"""Model files: save_model writes a CrfModel as versioned UTF-8 text, and
load_model reads it back.  After parsing a model file's text, load_model
writes the weights to a sidecar, <model>.mixner-cache, keyed by the SHA-256
of the file's bytes, and a later load of the same bytes parses only the
header, [tags] and [attributes] and reads the weights from it.
"""

import contextlib
import hashlib
import io
import os
import stat
import tempfile
from pathlib import Path

import numpy as np

from .corpus import TagSet
from .crf import CrfModel
from .features import FeatureIndex
from .shortest import format_rows

MODEL_HEADER = "MIXNER-CRF v1"
_SECTIONS = ("tags", "attributes", "start", "end", "transitions", "emissions")


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned UTF-8 text, each weight as its float's
    repr, which reads back bit for bit.  shortest.format_rows writes each
    block's rows: repr's shortest round-trip digits come from Schubfach in
    exact uint64 arithmetic, for a slice of weights at once, and the bytes
    are pinned against tests/helpers.model_text_reference, which calls repr
    row by row.  Nothing is opened before every row is formatted, and the
    rows are written in format_rows' parts, never joined, so the writer
    holds one copy of the text."""
    if not np.isfinite(model.weights).all():
        raise ValueError("refusing to save a model with non-finite weights")
    attributes = model.index.attributes()
    joined = "".join(attributes)  # load_model reads back none with a line break or a leading "["
    if "\n[" in "\n".join(["", *attributes]) or any(c in joined for c in _LINE_BREAKS):
        bad = next(a for a in attributes if a[:1] == "[" or any(c in a for c in _LINE_BREAKS))
        raise ValueError(f"refusing to save attribute {bad!r}: it would not load back")
    parts = ["\n".join([MODEL_HEADER, "[tags]", *model.tagset.tags,
                        "[attributes]", *attributes, ""]).encode("utf-8")]
    for name in _SECTIONS[2:]:
        block = getattr(model, name)
        parts.append(f"[{name}]\n".encode("ascii"))
        if block.size:  # start and end, 1-D, are written one weight a line
            parts += [*format_rows(block.reshape(len(block), -1)), b"\n"]
    with open(path, "wb") as f:
        f.writelines(parts)


# The characters str.splitlines ends a line at: a "[" after one starts a line.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_CACHE_SUFFIX = ".mixner-cache"
_CACHE_KIND = b"MIXNER-CRF-CACHE v"  # the start of every version's sidecar
# A sidecar's first bytes; the SHA-256 of the model file's bytes and the
# weights, little-endian float64 in CrfModel's layout, follow.  Bump the
# version whenever load_model's acceptance rules or the weight layout change,
# so that no sidecar written under the old ones is read.
_CACHE_MAGIC = _CACHE_KIND + b"1\n"


def _blocks(text: str) -> list[list[str]]:
    """text.splitlines(), cut before every line after the first that starts
    with "[".  The cuts are found with str.find, not by a loop over lines.
    Each falls at a line start, so the blocks are slices of one
    text.splitlines(), cut where the lines of the blocks before are counted:
    the last block's text, [emissions] in a model file, is never copied."""
    cuts, at = [0], text.find("[", 1)
    while at >= 0:
        if text[at - 1] in _LINE_BREAKS:
            cuts.append(at)
        at = text.find("[", at + 1)
    starts = [0]
    for a, b in zip(cuts, cuts[1:]):
        starts.append(starts[-1] + len(text[a:b].splitlines()))
    lines = text.splitlines()
    return [lines[a:b] for a, b in zip(starts, starts[1:] + [len(lines)])]


def _sections(text: str, names: tuple[str, ...]) -> list[list[str]]:
    """The rows of each section of a model file's text, which holds the
    header line and then the sections names, in order.  A section runs from
    its "[name]" line to the next line that starts with "[".  A wrong header,
    a missing section and anything after the last are rejected."""
    head, *blocks = _blocks(text)
    if not head or head[0] != MODEL_HEADER:
        raise ValueError(f"unsupported version: expected {MODEL_HEADER!r} header")
    if len(head) > 1:  # lines between the header and the first "[" line
        blocks.insert(0, head[1:])
    for i, name in enumerate(names):
        if i >= len(blocks) or blocks[i][0] != f"[{name}]":
            raise ValueError(f"truncated or malformed model file: expected [{name}]")
    if len(blocks) > len(names):
        raise ValueError(f"malformed model file: unexpected {blocks[len(names)][0]!r} "
                         f"after the [{names[-1]}] rows")
    return [block[1:] for block in blocks]


def _read_block(rows: list[str], block: np.ndarray, section: str) -> None:
    """Fill a weight block from its section, one block row per line.  Rows are
    read with np.loadtxt, which reads the same bits as Python's float."""
    width = block.shape[1] if block.ndim == 2 else 1
    if len(rows) != len(block):
        raise ValueError(f"truncated model file: bad row count in [{section}]")
    if not rows:
        return
    try:  # a blank first row is left to the check below: loadtxt warns on no data
        arr = (np.loadtxt(rows, comments=None, ndmin=2, dtype=np.float64)
               if rows[0].strip() else None)
    except ValueError:
        arr = None
    # loadtxt skips blank rows and rejects ragged ones, so this shape means
    # every row has `width` fields; anything else gets the row-by-row check.
    if arr is None or arr.shape != (len(rows), width):
        if any(len(row.split()) != width for row in rows):
            raise ValueError(f"truncated model file: bad row width in [{section}]")
        raise ValueError(f"malformed number in [{section}]")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite weight in [{section}]")
    block[...] = arr.reshape(block.shape)


def _read(path: str | Path) -> tuple[bytes, bytes, bool]:
    """The bytes of the file at path, their SHA-256 digest, and whether it is
    a regular file."""
    with open(path, "rb") as f:
        data, regular = f.read(), stat.S_ISREG(os.fstat(f.fileno()).st_mode)
    return data, hashlib.sha256(data).digest(), regular


def _open_sidecar(path: str | Path):
    """What is at the sidecar path of the model file at path, opened for
    reading: None if nothing is there, and an empty stream if it is not a
    regular file or cannot be opened, so that it is never read as a sidecar
    or replaced.  O_NONBLOCK keeps the open from waiting on a named pipe."""
    try:
        fd = os.open(f"{path}{_CACHE_SUFFIX}", os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        return None
    except OSError:
        return io.BytesIO()
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return open(fd, "rb")
    os.close(fd)
    return io.BytesIO()


def _write_cache(path: str | Path, digest: bytes, weights: np.ndarray) -> None:
    """Write the sidecar of the model file at path, whose bytes hash to
    digest, with the file's permission bits, unless what _open_sidecar finds
    in its place does not start with _CACHE_KIND, as a sidecar of every
    version does: to a unique temporary file in its directory, then
    os.replace'd into place.  The sidecar only saves time, so an OSError is
    ignored and leaves no temporary file."""
    found = _open_sidecar(path)
    if found:
        with found:
            if found.read(len(_CACHE_KIND)) != _CACHE_KIND:
                return
    cache = Path(f"{path}{_CACHE_SUFFIX}")
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{cache.name}.", suffix=".tmp", dir=cache.parent)
    except OSError:
        return
    try:
        with open(fd, "wb") as f:
            f.write(_CACHE_MAGIC + digest)
            f.write(weights.astype("<f8", copy=False))  # from the array's buffer, no copy
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, cache)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # already gone after os.replace


def load_model(path: str | Path) -> CrfModel:
    """Inverse of save_model; weights round trip bit for bit.  A leading
    byte-order mark is dropped, as it is from corpus files.

    The file is read and hashed once.  When it is a regular file whose
    [start] line follows a "\\n" and _open_sidecar finds its sidecar holding
    _CACHE_MAGIC, the digest and then exactly as many weights as the index
    parsed from the text before that line needs, every one finite, the
    weights come from the sidecar, read after the bytes are dropped.
    Otherwise the text is parsed with one copy of the file held, its bytes
    decoded and dropped first, and a regular file with such a [start] line
    gets its sidecar written (_write_cache).  Any other sidecar is ignored,
    so the result, or the error, is always that of the text."""
    data, digest, regular = _read(path)
    end = data.find(b"\n[start]") + 1 if regular else 0  # 0: no warm load, no sidecar
    with _open_sidecar(path) or io.BytesIO() as sidecar:
        if end and sidecar.read(len(_CACHE_MAGIC) + 32) == _CACHE_MAGIC + digest:
            head = data[:end].decode("utf-8-sig")
            del data
            tags, attributes = _sections(head, _SECTIONS[:2])
            index = FeatureIndex(attributes, TagSet(tuple(tags)))
            weights = np.empty((index.num_attributes + len(tags) + 2) * len(tags), "<f8")
            if (os.fstat(sidecar.fileno()).st_size == sidecar.tell() + weights.nbytes
                    and sidecar.readinto(weights) == weights.nbytes and np.isfinite(weights).all()):
                return CrfModel(weights, index)
            data, digest, _ = _read(path)  # the weights failed a check: the text decides
    text = data.decode("utf-8-sig")
    del data
    sections = dict(zip(_SECTIONS, _sections(text, _SECTIONS)))
    del text
    index = FeatureIndex(sections["attributes"], TagSet(tuple(sections["tags"])))
    model = CrfModel.zeros(index)
    for name in _SECTIONS[2:]:
        _read_block(sections[name], getattr(model, name), name)
    if end:
        _write_cache(path, digest, model.weights)
    return model
