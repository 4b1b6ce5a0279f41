"""CoNLL-style corpus handling: parsing, IOB2 validation, serialization, mixing.

The on-disk format is the usual one: one token per line, blank line between
sentences, lines starting with "# " treated as metadata.  Datasets are plain
immutable value objects so they can be shared freely between pipeline stages.
"""

import random
import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

TAG_RE = re.compile(r"^(?:O|[BI]-\S+)$")
_WS_RE = re.compile(r"\s")
_ID_EQ_RE = re.compile(r"^id\s*=\s*(.*)$")
_ID_BARE_RE = re.compile(r"^id\s+(\S+)")

BLANK = ""


class ParseError(ValueError):
    """Raised for malformed corpus files; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    """A single surface form with its IOB2 tag and optional language id."""

    surface: str
    tag: str
    lang: str | None = None

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

    @classmethod
    def from_tags(cls, tags) -> "TagSet":
        """Build a valid TagSet from any iterable of tags (order-insensitive)."""
        rest = sorted(set(tags) - {"O"})
        return cls(("O", *rest))

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({t[2:] for t in self.tags if t != "O"}))

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class ColumnSpec:
    """Where to find things on a token line.

    tag_column may be an integer or the string "last"; separator is either
    "tab" (split on single tabs) or "whitespace" (split on any run).
    """

    token_column: int = 0
    tag_column: int | str = "last"
    lang_column: int | None = None
    separator: str = "whitespace"

    def __post_init__(self):
        if self.separator not in ("tab", "whitespace"):
            raise ValueError(f"unknown separator {self.separator!r}")
        if isinstance(self.tag_column, str) and self.tag_column != "last":
            raise ValueError(f"tag_column must be an index or 'last', got {self.tag_column!r}")
        if self.tag_column == self.token_column:
            raise ValueError("token_column and tag_column must differ")


@dataclass(frozen=True)
class IobViolation:
    sentence: int
    position: int
    reason: str


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


def parse_conll(text: str, columns: ColumnSpec | None = None,
                source_label: str = "", require_tags: bool = True) -> Dataset:
    """Parse a CoNLL-style document into a Dataset.

    Blank lines delimit sentences, "# id = ..." lines set sentence ids, and
    other metadata lines are ignored.  With require_tags=False a missing or
    malformed tag field falls back to "O", which lets the tagger accept raw
    token-only input.
    """
    layout = columns or ColumnSpec()
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

        cols = line.split("\t") if layout.separator == "tab" else line.split()
        if len(cols) <= layout.token_column:
            raise ParseError(f"expected a token in column {layout.token_column}, "
                             f"found only {len(cols)} column(s)", lineno)

        if layout.tag_column == "last":
            tag_idx = len(cols) - 1
            if tag_idx == layout.token_column:
                tag_idx = None
        else:
            tag_idx = layout.tag_column if layout.tag_column < len(cols) else None
        if tag_idx is None and require_tags:
            raise ParseError("fewer columns than required: no tag column", lineno)

        lang = None
        if layout.lang_column is not None:
            if layout.lang_column >= len(cols):
                raise ParseError(f"no language column {layout.lang_column}", lineno)
            lang = cols[layout.lang_column]

        surface = cols[layout.token_column]
        if not surface or _WS_RE.search(surface):
            raise ParseError(f"invalid token {surface!r}", lineno)

        tag = cols[tag_idx] if tag_idx is not None else None
        if tag is None or not TAG_RE.match(tag):
            if require_tags:
                raise ParseError(f"invalid IOB tag {tag!r}", lineno)
            tag = "O"
        buf.append(Token(surface, tag, lang))

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


def validate_iob(ds: Dataset, mode: str = "strict"):
    """Check or fix IOB2 structure.

    mode="strict" returns a list of IobViolation records; mode="repair"
    returns a new Dataset where every stray I-X is rewritten to B-X.  Repair
    is idempotent and never changes a span's class.
    """
    if mode == "strict":
        violations = []
        for si, s in enumerate(ds.sentences):
            prev = "O"
            for pos, tok in enumerate(s.tokens):
                if tok.tag.startswith("I-") and prev not in (
                        "B-" + tok.tag[2:], "I-" + tok.tag[2:]):
                    violations.append(IobViolation(
                        si, pos, f"{tok.tag} does not continue a {tok.tag[2:]} span"))
                prev = tok.tag
        return violations
    if mode == "repair":
        fixed = []
        for s in ds.sentences:
            prev = "O"
            toks = []
            for tok in s.tokens:
                tag = tok.tag
                if tag.startswith("I-") and prev not in ("B-" + tag[2:], "I-" + tag[2:]):
                    tag = "B-" + tag[2:]
                toks.append(tok if tag == tok.tag else replace(tok, tag=tag))
                prev = tag
            fixed.append(replace(s, tokens=tuple(toks)))
        return Dataset(tuple(fixed), source_label=ds.source_label)
    raise ValueError(f"unknown mode {mode!r}")


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
    return TagSet.from_tags(observed)


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
