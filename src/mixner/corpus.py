"""CoNLL-style corpus handling: parsing, IOB2 spans, serialization, mixing.

The on-disk format is the shared task's: one token per line, the token in the
first whitespace-separated column and the tag in the last, a blank line
between sentences, and lines starting with "# " treated as metadata.  Datasets
are plain immutable value objects, held as token and sentence columns, so they
can be shared freely between pipeline stages.

The IOB2 span rule is stated once, in _spans, over flat tag-id arrays;
validate_iob, eval and train's dev scoring all read spans through it.
"""

import random
import re
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

TAG_RE = re.compile(r"(?:O|[BI]-\S+)\Z")
_WS_RE = re.compile(r"\s")
_ID_EQ_RE = re.compile(r"^id\s*=\s*(.*)$")
_ID_BARE_RE = re.compile(r"^id\s+(\S+)")


def _first_bad_tag(tags: Sequence[str | None]) -> int | None:
    """The position of the first tag that is missing (None) or is not an IOB2
    tag, or None if there is none; each distinct tag is matched once."""
    bad = {t for t in set(tags) if t is None or not TAG_RE.match(t)}
    return next(i for i, t in enumerate(tags) if t in bad) if bad else None


def _clean_id(sid: str) -> str | None:
    """A sentence id with its whitespace runs collapsed to one space, or None
    if nothing is left.  Ids are written on "# id = ..." lines, so they must
    survive a strip-and-reread cycle: Sentence and parse_conll normalize them
    instead of failing later."""
    return " ".join(sid.split()) or None


class ParseError(ValueError):
    """Raised for malformed corpus files; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    """One surface form with its IOB2 tag: an item of Sentence.tokens."""

    surface: str
    tag: str


@dataclass(frozen=True)
class Sentence:
    """A non-empty sentence as two aligned columns, surface forms and IOB2
    tags, with an optional id: exactly what one CoNLL block holds."""

    surfaces: tuple[str, ...]
    tags: tuple[str, ...]
    id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.surfaces or len(self.surfaces) != len(self.tags):
            raise ValueError("a sentence needs one or more tokens, each with one tag")
        if not all(self.surfaces) or _WS_RE.search("".join(self.surfaces)):
            bad = next(w for w in self.surfaces if not w or _WS_RE.search(w))
            raise ValueError(f"invalid token surface {bad!r}: "
                             "must be non-empty and contain no whitespace")
        bad = _first_bad_tag(self.tags)
        if bad is not None:
            raise ValueError(f"invalid IOB tag {self.tags[bad]!r}")
        if self.id is not None:
            object.__setattr__(self, "id", _clean_id(self.id))

    def __len__(self) -> int:
        return len(self.surfaces)

    @property
    def tokens(self) -> tuple[Token, ...]:
        """(surface, tag) pairs built from the columns on every call, for
        readers outside mixner; mixner itself reads the columns."""
        return tuple(map(Token, self.surfaces, self.tags))


@dataclass(frozen=True, init=False)
class Dataset:
    """An ordered collection of sentences, exactly what a CoNLL file holds,
    in four columns laid out like EncodedCorpus: sentence s is tokens
    offsets[s]:offsets[s + 1] of surfaces and tags, with id ids[s].

    Dataset(sentences) concatenates the columns of Sentences, each of which
    checked itself; parse_conll, decode, validate_iob and mix_datasets fill
    the columns directly.  Reading .sentences, or iterating, builds the
    Sentences from the columns every time; none is kept."""

    surfaces: tuple[str, ...]
    tags: tuple[str, ...]
    offsets: tuple[int, ...]
    ids: tuple[str | None, ...]

    def __init__(self, sentences: Iterable[Sentence] = ()):
        sentences = tuple(sentences)
        self._fill(chain.from_iterable(s.surfaces for s in sentences),
                   chain.from_iterable(s.tags for s in sentences),
                   (0, *accumulate(map(len, sentences))), (s.id for s in sentences))

    @classmethod
    def _from_columns(cls, surfaces, tags, offsets, ids) -> "Dataset":
        """A dataset of columns whose tokens, tags and ids are already checked
        and whose offsets bound non-empty sentences."""
        ds = object.__new__(cls)
        ds._fill(surfaces, tags, offsets, ids)
        return ds

    def _fill(self, surfaces, tags, offsets, ids) -> None:
        for name, column in zip(("surfaces", "tags", "offsets", "ids"),
                                (surfaces, tags, offsets, ids)):
            object.__setattr__(self, name, tuple(column))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        off = self.offsets
        return tuple(Sentence(self.surfaces[lo:hi], self.tags[lo:hi], sid)
                     for lo, hi, sid in zip(off, off[1:], self.ids))

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)


@dataclass(frozen=True)
class TagSet:
    """The tag inventory of a model: "O" first, remaining tags sorted."""

    tags: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.tags or self.tags[0] != "O":
            raise ValueError('tag set must start with "O"')
        rest = self.tags[1:]
        if list(rest) != sorted(set(rest)):
            raise ValueError("tags after 'O' must be unique and sorted")
        for t in rest:
            if not TAG_RE.match(t) or t == "O":
                raise ValueError(f"invalid tag {t!r} in tag set")
            if t.startswith("I-") and "B-" + t[2:] not in self.tags:
                raise ValueError(f"tag set contains {t} without B-{t[2:]}")

    def __len__(self) -> int:
        return len(self.tags)


def _is_metadata(line: str) -> bool:
    # Only "#" alone or "# ..." with a literal space is metadata.  Surfaces
    # such as "#hashtag" or a bare "#" token must stay data lines: the writer
    # emits them tab-separated ("#\tO"), so hash-plus-space never collides
    # and parse(write(ds)) stays the identity.
    return line == "#" or line.startswith("# ")


def _metadata_id(line: str) -> str | None:
    body = line[1:].strip()
    m = _ID_EQ_RE.match(body) or _ID_BARE_RE.match(body)
    return _clean_id(m.group(1)) if m else None


def _data_line(text: str, token: int) -> int:
    """The 1-based line number of the given token's line, counting tokens
    as parse_conll does: every line that is neither blank nor metadata."""
    lines = (n for n, line in enumerate(text.splitlines(), 1)
             if line.split() and not _is_metadata(line))
    return next(islice(lines, token, None))


def parse_conll(text: str, require_tags: bool = True) -> Dataset:
    """Parse a CoNLL-style document into a Dataset.

    Token lines are split on whitespace: the first column is the token and
    the last the tag, and columns between them (such as "_ _" or a language
    id) are ignored.  Blank lines delimit sentences, "# id = ..." lines set
    sentence ids, and other metadata lines are ignored.  With
    require_tags=False every tag reads as "O", whatever the last column holds,
    which lets the tagger accept raw token-only input and ignore any tags.
    """
    surfaces: list[str] = []
    tags: list[str | None] = []  # the last column, None where there is only one
    offsets, ids = [0], []
    pending_id: str | None = None
    for line in chain(text.splitlines(), ("",)):  # a last blank line ends the last sentence
        cols = line.split()
        if not cols:
            if len(surfaces) > offsets[-1]:
                offsets.append(len(surfaces))
                ids.append(pending_id)
                pending_id = None
        elif line[0] == "#" and _is_metadata(line):
            found = _metadata_id(line)
            if found is not None:
                pending_id = found
        else:
            surfaces.append(cols[0])
            tags.append(cols[-1] if len(cols) > 1 else None)

    if not require_tags:
        tags = ["O"] * len(surfaces)
    token = _first_bad_tag(tags)
    if token is not None:
        tag = tags[token]
        raise ParseError(f"invalid IOB tag {tag!r}" if tag else
                         "fewer columns than required: no tag column", _data_line(text, token))
    return Dataset._from_columns(surfaces, tags, offsets, ids)


def write_conll(ds: Dataset) -> str:
    """Serialize a Dataset in canonical two-column form (token<TAB>tag)."""
    tokens = list(map("\t".join, zip(ds.surfaces, ds.tags)))
    lines = []
    for lo, hi, sid in zip(ds.offsets, ds.offsets[1:], ds.ids):
        if sid is not None:
            lines.append(f"# id = {sid}")
        lines.extend(tokens[lo:hi])
        lines.append("")  # the blank line after every sentence, and the final newline
    return "\n".join(lines)


def _offsets(counts) -> np.ndarray:
    """CSR offsets of consecutive runs of the given sizes: 0, then the running sum."""
    out = np.zeros(len(counts) + 1, np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def _tag_ids(*datasets: Dataset) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """The sorted tag names the datasets hold, the first one's sentence
    offsets, and each one's tags as one flat array of ids into the names."""
    names = sorted(set().union(*(ds.tags for ds in datasets)))
    pos = {t: k for k, t in enumerate(names)}
    ids = [np.fromiter(map(pos.__getitem__, ds.tags), np.intp, len(ds.tags)) for ds in datasets]
    return names, np.array(datasets[0].offsets, np.intp), ids


def _tag_classes(names: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sorted classes of IOB2 tag names, and per tag id its class id (-1
    for O) and whether it is a B- tag."""
    classes = sorted({t[2:] for t in names if t != "O"})
    cls = np.array([classes.index(t[2:]) if t != "O" else -1 for t in names], np.intp)
    return classes, cls, np.array([t[:2] == "B-" for t in names], bool)


def _spans(ids: np.ndarray, offsets: np.ndarray, cls: np.ndarray,
           is_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The IOB2 span rule over flat tag ids, sentence s being ids[offsets[s]:
    offsets[s + 1]]: a token continues the span before it when it is I-X, is
    not first in its sentence and follows a token of class X; every other
    non-O token starts a span.  Returns the spans' first and last positions
    and class ids."""
    c = cls[ids]
    cont = np.zeros(len(ids) + 1, bool)  # a last False ends the final span
    cont[1:-1] = (c[1:] >= 0) & ~is_b[ids[1:]] & (c[1:] == c[:-1])
    cont[offsets[:-1]] = False
    starts = np.flatnonzero((c >= 0) & ~cont[:-1])
    return starts, np.flatnonzero((c >= 0) & ~cont[1:]), c[starts]


def validate_iob(ds: Dataset) -> Dataset:
    """Rewrite every stray I-X to B-X, so the tags spell out the spans that
    _spans reads.  Idempotent; never changes a span's class.  Only the fixed
    positions of the tags column are rewritten."""
    names, offsets, (ids,) = _tag_ids(ds)
    _, cls, is_b = _tag_classes(names)
    starts = _spans(ids, offsets, cls, is_b)[0]
    tags = list(ds.tags)
    for t in starts[~is_b[ids[starts]]].tolist():
        tags[t] = "B" + tags[t][1:]
    return Dataset._from_columns(ds.surfaces, tags, ds.offsets, ds.ids)


def induce_tagset(ds: Dataset) -> TagSet:
    """Collect every observed tag, close under B-X for each I-X, add "O"."""
    observed = {"O", *ds.tags}
    for tag in list(observed):
        if tag.startswith("I-"):
            observed.add("B-" + tag[2:])
    return TagSet(("O", *sorted(observed - {"O"})))


def mix_datasets(primary: Dataset, auxiliaries: Sequence[Dataset] = (),
                 seed: int = 0, shuffle: bool = False) -> Dataset:
    """Concatenate datasets, optionally shuffling with a seeded permutation.

    No deduplication is performed; every input sentence appears exactly once
    in the output.  Shuffling permutes the list of sentence spans as
    random.Random(seed).shuffle permutes any list of that length, so the
    order is the one shuffling a list of the sentences gives.
    """
    spans = [(ds, lo, hi, sid) for ds in (primary, *auxiliaries)
             for lo, hi, sid in zip(ds.offsets, ds.offsets[1:], ds.ids)]
    if shuffle:
        random.Random(seed).shuffle(spans)
    surfaces = chain.from_iterable(ds.surfaces[lo:hi] for ds, lo, hi, _ in spans)
    tags = chain.from_iterable(ds.tags[lo:hi] for ds, lo, hi, _ in spans)
    offsets = (0, *accumulate(hi - lo for _, lo, hi, _ in spans))
    return Dataset._from_columns(surfaces, tags, offsets, (sid for *_, sid in spans))
