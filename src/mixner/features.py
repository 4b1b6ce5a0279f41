"""The fixed first-order feature template and the attribute/tag index.

Every position gets a bias plus the current, previous, and next surface
forms; tag context is handled entirely by the transition weights of the
model, never by the attributes.  One template, _template, feeds both
build_index and encode_dataset, as CRFsuite's one attribute generator feeds
its dictionary and its encoder, so the two cannot drift apart.
"""

from dataclasses import InitVar, dataclass, field
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Dataset, TagSet, _offsets, induce_tagset

BOS = "<BOS>"
EOS = "<EOS>"


@dataclass(frozen=True, eq=False)
class FeatureIndex:
    """Immutable numbering of attributes and tags, built once.

    Attribute ids are dense and follow the order of the given attributes;
    tag ids follow the tag set's order.  Unknown attributes look up as absent.
    """

    attributes_in_order: InitVar[Sequence[str]]
    tagset: TagSet
    attribute_to_id: Mapping[str, int] = field(init=False)
    tag_to_id: Mapping[str, int] = field(init=False)

    def __post_init__(self, attributes_in_order):
        ids = {a: i for i, a in enumerate(attributes_in_order)}
        if len(ids) != len(attributes_in_order):
            raise ValueError("duplicate attribute in the index")
        object.__setattr__(self, "attribute_to_id", MappingProxyType(ids))
        object.__setattr__(self, "tag_to_id", MappingProxyType(
            {t: k for k, t in enumerate(self.tagset.tags)}))

    @property
    def num_attributes(self) -> int:
        return len(self.attribute_to_id)

    def attributes(self) -> list[str]:
        """Attribute strings ordered by id."""
        return list(self.attribute_to_id)


class EncodedSentence(NamedTuple):
    """One sentence as attribute ids per position plus gold tag ids: a
    read-only view of an EncodedCorpus sentence, with no checks of its own."""

    attr_ids: tuple[tuple[int, ...], ...]
    tag_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.tag_ids)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs starts[i] .. starts[i] + counts[i] - 1 concatenated into one
    index array, and the CSR offsets of the runs in it."""
    offsets = _offsets(counts)
    return np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts), offsets


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Sentences reduced to attribute and tag ids, in flat CSR-style buffers
    like CRFsuite's: sentence s holds tokens offsets[s]:offsets[s + 1], and
    token t has gold tag tags[t] and attributes attrs[attr_offsets[t]:
    attr_offsets[t + 1]], in listed order.  Indexing with an int gives that
    sentence's EncodedSentence view; a slice or an array of sentence indices
    gives a new corpus of those sentences, in that order.  The arrays are
    read-only; ids are checked against a model where the corpus meets one."""

    attrs: np.ndarray
    attr_offsets: np.ndarray
    tags: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("attrs", "attr_offsets", "tags", "offsets"):
            arr = np.asarray(getattr(self, name), np.intp).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        off, attr_off, n = self.offsets, self.attr_offsets, len(self.tags)
        if not (off.ndim == self.tags.ndim == self.attrs.ndim == 1 and off.size
                and attr_off.shape == (n + 1,) and off[0] == attr_off[0] == 0
                and off[-1] == n and attr_off[-1] == len(self.attrs)
                and (np.diff(off) > 0).all() and (np.diff(attr_off) >= 0).all()):
            raise ValueError("malformed encoded corpus: offsets do not bound "
                             "non-empty sentences and their attributes")

    @classmethod
    def from_sentences(cls, sentences: Iterable[EncodedSentence]) -> "EncodedCorpus":
        """Pack sentences given as per-position tuples."""
        sentences = list(sentences)
        for si, (attr_ids, tag_ids) in enumerate(sentences):
            if len(attr_ids) != len(tag_ids) or not tag_ids:
                raise ValueError(f"sentence {si}: attr_ids and tag_ids must be "
                                 "non-empty and aligned")
        positions = [ids for s in sentences for ids in s.attr_ids]
        return cls(np.fromiter(chain.from_iterable(positions), np.intp),
                   _offsets(np.fromiter(map(len, positions), np.intp, len(positions))),
                   np.fromiter(chain.from_iterable(s.tag_ids for s in sentences), np.intp),
                   _offsets(np.fromiter((len(s.tag_ids) for s in sentences), np.intp,
                                        len(sentences))))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def locate(self, token: int) -> tuple[int, int]:
        """The sentence of a token index and the token's position in it."""
        si = int(np.searchsorted(self.offsets, token, "right")) - 1
        return si, token - int(self.offsets[si])

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[[key]]))
        sel = np.arange(len(self))[key]
        tokens, offsets = _ranges(self.offsets[sel], self.lengths[sel])
        starts = self.attr_offsets[tokens]
        attrs, attr_offsets = _ranges(starts, self.attr_offsets[tokens + 1] - starts)
        return EncodedCorpus(self.attrs[attrs], attr_offsets, self.tags[tokens], offsets)

    def __iter__(self) -> Iterator[EncodedSentence]:
        attrs, bounds = self.attrs.tolist(), self.attr_offsets.tolist()
        tags, offsets = self.tags.tolist(), self.offsets.tolist()
        for lo, hi in zip(offsets, offsets[1:]):
            yield EncodedSentence(tuple(tuple(attrs[bounds[t]:bounds[t + 1]])
                                        for t in range(lo, hi)), tuple(tags[lo:hi]))


def _template(ds: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The template of every token, stated once for the index and the encoder.

    Each distinct surface is one type; <BOS> and <EOS> are types 0 and 1, and
    surfaces spelled the same share them.  Returns the names ("b", then one per
    (slot, type)), the sentences' token offsets, and the (tokens, 4) matrix of
    name codes in the listed order b, w0, w-1, w+1.
    """
    offsets, surfaces = np.array(ds.offsets, np.intp), ds.surfaces
    type_of = {w: i for i, w in enumerate(dict.fromkeys(chain((BOS, EOS), surfaces)))}
    codes = np.zeros((len(surfaces), 4), np.intp)  # types first, then name codes
    codes[:, 1] = np.fromiter(map(type_of.__getitem__, surfaces), np.intp, len(surfaces))
    codes[1:, 2], codes[:-1, 3] = codes[:-1, 1], codes[1:, 1]
    codes[offsets[:-1], 2] = type_of[BOS]
    codes[offsets[1:] - 1, 3] = type_of[EOS]
    codes += (0, 1, 1 + len(type_of), 1 + 2 * len(type_of))
    names = ["b", *(f"w0={w}" for w in type_of), *(f"w-1={w}" for w in type_of),
             *(f"w+1={w}" for w in type_of)]
    return names, offsets, codes


def build_index(train: Dataset, min_count: int = 1) -> FeatureIndex:
    """Count attributes over the training data and keep those seen at least
    min_count (>= 1) times; the tag set is induce_tagset(train).  Ids follow
    first occurrence order, so the index is a deterministic function of the
    data.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not len(train):
        raise ValueError("empty training set")
    names, _, codes = _template(train)
    flat = codes.ravel()
    first = np.full(len(names), flat.size, np.intp)
    np.minimum.at(first, flat, np.arange(flat.size))
    kept = np.flatnonzero(np.bincount(flat, minlength=len(names)) >= min_count)
    return FeatureIndex([names[c] for c in kept[np.argsort(first[kept])]],
                        induce_tagset(train))


def encode_dataset(ds: Dataset, index: FeatureIndex) -> EncodedCorpus:
    """Map every sentence to attribute ids, silently dropping unknown attributes.

    Each attribute name of the template is looked up once, and the
    template's (tokens, 4) code matrix gathers the ids; a mask drops the
    unknown ones, keeping the listed order b, w0, w-1, w+1.
    """
    names, offsets, ids = _template(ds)  # name codes, gathered into ids
    ids = np.fromiter(map(index.attribute_to_id.get, names, repeat(-1)), np.intp,
                      len(names))[ids]
    known = ids >= 0
    tags = np.fromiter(map(index.tag_to_id.get, ds.tags, repeat(-1)), np.intp, len(ids))
    corpus = EncodedCorpus(ids[known], _offsets(known.sum(axis=1)), tags, offsets)
    if (tags < 0).any():
        token = int(np.argmax(tags < 0))
        si, i = corpus.locate(token)
        raise ValueError(f"sentence {si}, position {i}: "
                         f"tag {ds.tags[token]!r} is not in the tag set")
    return corpus
