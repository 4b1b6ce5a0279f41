"""The fixed first-order feature template and the attribute/tag index.

Every position gets a bias plus the current, previous, and next surface
forms; tag context is handled entirely by the transition weights of the
model, never by the attributes.
"""

from collections import Counter
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import Dataset, Sentence, TagSet

BOS = "<BOS>"
EOS = "<EOS>"


def extract_attributes(sentence: Sentence, i: int) -> list[str]:
    """The four attribute strings for position i: bias, w0, w-1 and w+1."""
    if not 0 <= i < len(sentence.tokens):
        raise IndexError(f"position {i} out of range for sentence of "
                         f"length {len(sentence.tokens)}")
    w = sentence.tokens[i].surface
    prev = sentence.tokens[i - 1].surface if i > 0 else BOS
    nxt = sentence.tokens[i + 1].surface if i + 1 < len(sentence.tokens) else EOS
    return ["b", f"w0={w}", f"w-1={prev}", f"w+1={nxt}"]


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


@dataclass(frozen=True)
class EncodedSentence:
    """A sentence reduced to attribute ids per position plus gold tag ids."""

    attr_ids: tuple[tuple[int, ...], ...]
    tag_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "attr_ids",
                           tuple(tuple(ids) for ids in self.attr_ids))
        object.__setattr__(self, "tag_ids", tuple(self.tag_ids))
        if len(self.attr_ids) != len(self.tag_ids) or not self.tag_ids:
            raise ValueError("attr_ids and tag_ids must be non-empty and aligned")

    @property
    def length(self) -> int:
        return len(self.tag_ids)


def build_index(train: Dataset, tagset: TagSet, min_count: int = 1) -> FeatureIndex:
    """Count attributes over the training data and keep those seen enough.

    Ids follow first occurrence order, so the index is a deterministic
    function of the data.
    """
    if not train.sentences:
        raise ValueError("empty training set")
    counts: Counter[str] = Counter()
    for s in train.sentences:
        for i in range(len(s.tokens)):
            counts.update(extract_attributes(s, i))
    return FeatureIndex([a for a, n in counts.items() if n >= min_count], tagset)


def encode_dataset(ds: Dataset, index: FeatureIndex) -> list[EncodedSentence]:
    """Map every sentence to attribute ids, silently dropping unknown attributes."""
    encoded = []
    for si, s in enumerate(ds.sentences):
        attr_ids = []
        tag_ids = []
        for i, tok in enumerate(s.tokens):
            ids = [index.attribute_to_id[a] for a in extract_attributes(s, i)
                   if a in index.attribute_to_id]
            attr_ids.append(tuple(ids))
            tid = index.tag_to_id.get(tok.tag)
            if tid is None:
                raise ValueError(f"sentence {si}, position {i}: "
                                 f"tag {tok.tag!r} is not in the tag set")
            tag_ids.append(tid)
        encoded.append(EncodedSentence(tuple(attr_ids), tuple(tag_ids)))
    return encoded
