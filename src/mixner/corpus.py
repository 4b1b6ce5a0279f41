"""CoNLL-style corpus handling: parsing, IOB2 spans, serialization, mixing.

The on-disk format is the shared task's: one token per line, the token in the
first whitespace-separated column and the tag in the last, a blank line
between sentences, and lines starting with "# " treated as metadata.  Datasets
are plain immutable value objects so they can be shared freely between
pipeline stages.
"""

import random
import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

TAG_RE = re.compile(r"^(?:O|[BI]-\S+)$")
_WS_RE = re.compile(r"\s")
_ID_EQ_RE = re.compile(r"^id\s*=\s*(.*)$")
_ID_BARE_RE = re.compile(r"^id\s+(\S+)")


class ParseError(ValueError):
    """Raised for malformed corpus files; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    """A single surface form with its IOB2 tag."""

    surface: str
    tag: str

    def __post_init__(self):
        if not self.surface or _WS_RE.search(self.surface):
            raise ValueError(f"invalid token surface {self.surface!r}: "
                             "must be non-empty and contain no whitespace")
        if not TAG_RE.match(self.tag):
            raise ValueError(f"invalid IOB tag {self.tag!r}")


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty token sequence with an optional id and origin."""

    tokens: tuple[Token, ...]
    id: str | None = None
    source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("a sentence must contain at least one token")
        if self.id is not None:
            # Ids are written on "# id = ..." lines, so they must survive a
            # strip-and-reread cycle: normalize here instead of failing later.
            clean = " ".join(self.id.split())
            object.__setattr__(self, "id", clean or None)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    @property
    def tags(self) -> list[str]:
        return [t.tag for t in self.tokens]


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of sentences from one source (or a mix)."""

    sentences: tuple[Sentence, ...] = ()
    source_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

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


@dataclass(frozen=True)
class EntitySpan:
    """One entity occurrence: class label plus inclusive token positions."""

    label: str
    start: int
    end: int


def _is_metadata(line: str) -> bool:
    # Only "#" alone or "# ..." with a literal space is metadata.  Surfaces
    # such as "#hashtag" or a bare "#" token must stay data lines: the writer
    # emits them tab-separated ("#\tO"), so hash-plus-space never collides
    # and parse(write(ds)) stays the identity.
    return line == "#" or line.startswith("# ")


def _metadata_id(line: str) -> str | None:
    body = line[1:].strip()
    m = _ID_EQ_RE.match(body)
    if m:
        return m.group(1).strip() or None
    m = _ID_BARE_RE.match(body)
    if m:
        return m.group(1)
    return None


def parse_conll(text: str, source_label: str = "",
                require_tags: bool = True) -> Dataset:
    """Parse a CoNLL-style document into a Dataset.

    Token lines are split on whitespace: the first column is the token and
    the last the tag, and columns between them (such as "_ _" or a language
    id) are ignored.  Blank lines delimit sentences, "# id = ..." lines set
    sentence ids, and other metadata lines are ignored.  With
    require_tags=False a missing or malformed tag field falls back to "O",
    which lets the tagger accept raw token-only input.
    """
    sentences: list[Sentence] = []
    buf: list[Token] = []
    pending_id: str | None = None

    def flush():
        nonlocal pending_id
        if buf:
            sentences.append(Sentence(tuple(buf), id=pending_id,
                                      source=source_label or None))
            buf.clear()
            pending_id = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        if _is_metadata(line):
            found = _metadata_id(line)
            if found is not None:
                pending_id = found
            continue

        cols = line.split()
        tag = cols[-1] if len(cols) > 1 else None
        if tag is None or not TAG_RE.match(tag):
            if require_tags:
                raise ParseError(f"invalid IOB tag {tag!r}" if tag else
                                 "fewer columns than required: no tag column", lineno)
            tag = "O"
        buf.append(Token(cols[0], tag))

    flush()
    return Dataset(tuple(sentences), source_label=source_label)


def write_conll(ds: Dataset) -> str:
    """Serialize a Dataset in canonical two-column form (token<TAB>tag)."""
    blocks = []
    for s in ds.sentences:
        lines = []
        if s.id is not None:
            lines.append(f"# id = {s.id}")
        lines.extend(f"{t.surface}\t{t.tag}" for t in s.tokens)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def extract_entities(tags: Sequence[str]) -> list[EntitySpan]:
    """Read entity spans off an IOB2 tag sequence.

    B-X opens a span, and so does a stray I-X (one that does not continue an
    X span); I-X continues the open X span.  Raises ValueError on tags that
    are not O, B-X or I-X.
    """
    spans: list[EntitySpan] = []
    open_label: str | None = None
    open_start = 0
    for i, tag in enumerate(tags):
        if tag != "O" and tag[:2] not in ("B-", "I-"):
            raise ValueError(f"invalid tag {tag!r} at position {i}")
        if tag[:2] == "I-" and tag[2:] == open_label:
            continue
        if open_label is not None:
            spans.append(EntitySpan(open_label, open_start, i - 1))
        open_label, open_start = (None if tag == "O" else tag[2:]), i
    if open_label is not None:
        spans.append(EntitySpan(open_label, open_start, len(tags) - 1))
    return spans


def spans_to_tags(spans: Sequence[EntitySpan], length: int) -> list[str]:
    """Inverse of extract_entities for non-overlapping, in-bounds spans."""
    tags = ["O"] * length
    last_end = -1
    for sp in sorted(spans, key=lambda s: s.start):
        if sp.start <= last_end or not 0 <= sp.start <= sp.end < length:
            raise ValueError(f"span {sp} overlaps or is out of bounds")
        tags[sp.start] = "B-" + sp.label
        for i in range(sp.start + 1, sp.end + 1):
            tags[i] = "I-" + sp.label
        last_end = sp.end
    return tags


def validate_iob(ds: Dataset) -> Dataset:
    """Rewrite every stray I-X to B-X, so the tags spell out the spans that
    extract_entities reads.  Idempotent; never changes a span's class, and
    sentences that need no change are kept as they are."""
    fixed = []
    for s in ds.sentences:
        tags = spans_to_tags(extract_entities(s.tags), len(s))
        if tags != s.tags:
            s = replace(s, tokens=tuple(tok if tag == tok.tag else replace(tok, tag=tag)
                                        for tok, tag in zip(s.tokens, tags)))
        fixed.append(s)
    return Dataset(tuple(fixed), source_label=ds.source_label)


def induce_tagset(*datasets: Dataset) -> TagSet:
    """Collect every observed tag, close under B-X for each I-X, add "O"."""
    if not datasets:
        raise ValueError("at least one dataset is required")
    observed = {"O"}
    for ds in datasets:
        for s in ds.sentences:
            for tok in s.tokens:
                observed.add(tok.tag)
    for tag in list(observed):
        if tag.startswith("I-"):
            observed.add("B-" + tag[2:])
    return TagSet(("O", *sorted(observed - {"O"})))


def mix_datasets(primary: Dataset, auxiliaries: Sequence[Dataset] = (),
                 seed: int = 0, shuffle: bool = False,
                 source_label: str = "mixed") -> Dataset:
    """Concatenate datasets, optionally shuffling with a seeded permutation.

    No deduplication is performed; every input sentence appears exactly once
    in the output, tagged with its origin dataset's source label.
    """
    sentences = []
    for ds in (primary, *auxiliaries):
        for s in ds.sentences:
            if s.source is None and ds.source_label:
                s = replace(s, source=ds.source_label)
            sentences.append(s)
    if shuffle:
        random.Random(seed).shuffle(sentences)
    return Dataset(tuple(sentences), source_label=source_label)
