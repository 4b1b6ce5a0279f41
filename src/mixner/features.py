"""The fixed first-order feature template and the attribute/tag index.

Every position gets a bias plus the current, previous, and next surface
forms; tag context is handled entirely by the transition weights of the
model, never by the attributes.
"""

from collections import Counter
from dataclasses import InitVar, dataclass, field
from itertools import chain, repeat
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import Dataset, TagSet

BOS = "<BOS>"
EOS = "<EOS>"


def extract_attributes(surfaces: Sequence[str]) -> list[tuple[str, str, str, str]]:
    """The template for every position of a sentence: bias, w0, w-1 and w+1."""
    return list(zip(repeat("b"), [f"w0={w}" for w in surfaces],
                    [f"w-1={w}" for w in (BOS, *surfaces[:-1])],
                    [f"w+1={w}" for w in (*surfaces[1:], EOS)]))


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
        counts.update(chain.from_iterable(extract_attributes(s.surfaces)))
    return FeatureIndex([a for a, n in counts.items() if n >= min_count], tagset)


def encode_dataset(ds: Dataset, index: FeatureIndex) -> list[EncodedSentence]:
    """Map every sentence to attribute ids, silently dropping unknown attributes."""
    attr_id, tag_to_id = index.attribute_to_id.get, index.tag_to_id
    encoded = []
    for si, s in enumerate(ds.sentences):
        tag_ids = tuple(map(tag_to_id.get, s.tags))
        if None in tag_ids:
            i = tag_ids.index(None)
            raise ValueError(f"sentence {si}, position {i}: "
                             f"tag {s.tags[i]!r} is not in the tag set")
        attr_ids = tuple(tuple([a for a in map(attr_id, attrs) if a is not None])
                         for attrs in extract_attributes(s.surfaces))
        encoded.append(EncodedSentence(attr_ids, tag_ids))
    return encoded
