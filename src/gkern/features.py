"""Sparse feature vectors keyed by tag-first integer tuples.

Explicit kernel computation materializes, per graph, a sparse vector of
feature weights.  Features coming from different constructions (vertex
labels, walk label sequences, bin indices of continuous attributes, ...)
must never collide, so every key is a tuple whose first item is a small
integer *tag* naming its namespace:

``(TAG, *ints)``            a plain key: the tag, then an integer payload
``(TAG_PART, i, key)``      ``key`` as part ``i`` of a direct sum
``(TAG_PAIR, left, right)`` the tensor pairing of two keys

Keys that share a tag share a shape: plain payloads are integers
throughout, and composite keys nest whole keys at fixed positions.  So
any two keys compare — at the first position where they differ both
hold ints or both hold keys — and nesting stays injective, since tuples
compare and hash by their items.

Vectors are closed under the operations needed to assemble kernels:

``scale``           k' = a * k        weights multiplied by sqrt(a)
``direct_sum``      k' = k1 + k2      keys wrapped with the part index
``tensor_product``  k' = k1 * k2      keys are key pairs
``set_sum``         sum over a set of objects of their feature vectors

Zero weights are never stored: builders drop them and ``set_sum`` removes
exact cancellations.  Entries are kept in ascending key order, which makes
every accumulation (in particular ``dot``) run in one fixed, reproducible
order regardless of how the operands were built.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence

from .errors import ParameterError

# Key namespaces.
TAG_LABEL = 1      # one-hot on a discrete annotation value
TAG_CLASS = 2      # equivalence class of a binary kernel
TAG_BIN = 3        # randomized grid cell of a continuous attribute
TAG_WALK = 4       # label sequence of a fixed-length walk
TAG_SP = 5         # (source label, target label, distance) triple
TAG_GRAPHLET = 6   # canonical form of a small induced subgraph
TAG_WL = 7         # refinement color at a given iteration
TAG_GH = 8         # (position, path length) cell of a path-count table
TAG_LEN = 9        # one-hot on a path length
TAG_PART = 10      # (index, key): a key of one part of a direct sum
TAG_PAIR = 11      # (left, right): a key of a tensor product


class FeatureVector:
    """Immutable-by-convention sparse vector: feature key -> weight.

    Weights may be ints or floats; integer pipelines (counting features
    compared with Dirac kernels) stay in exact integer arithmetic all the
    way into the Gram matrix.  Entries are stored in ascending key order
    and never include exact zeros.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[tuple, float] | None = None):
        if entries:
            self.entries = {k: entries[k] for k in sorted(entries) if entries[k] != 0}
        else:
            self.entries = {}

    @classmethod
    def _from_sorted(cls, entries: Dict[tuple, float]) -> "FeatureVector":
        """Trusted constructor: ``entries`` already pruned and key-sorted."""
        vec = cls.__new__(cls)
        vec.entries = entries
        return vec

    @classmethod
    def one_hot(cls, key: tuple, weight: float = 1) -> "FeatureVector":
        return cls({key: weight})

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: tuple) -> float:
        return self.entries.get(key, 0)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def items(self):
        return self.entries.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"FeatureVector(nnz={len(self.entries)})"

    # -- debug serialization -------------------------------------------------

    def to_text(self) -> str:
        """One ``key<TAB>weight`` line per entry, ascending key order."""
        return "\n".join(f"{k!r}\t{w!r}" for k, w in self.entries.items())


def dot(u: FeatureVector, v: FeatureVector) -> float:
    """Sparse inner product; iterates the operand with fewer entries."""
    a, b = u.entries, v.entries
    if len(a) > len(b):
        a, b = b, a
    lookup = b.get
    total = 0
    for key, weight in a.items():
        other = lookup(key)
        if other is not None:
            total += weight * other
    return total


def scale(v: FeatureVector, alpha: float) -> FeatureVector:
    """Feature map of ``alpha * k``: every weight multiplied by sqrt(alpha)."""
    if alpha < 0:
        raise ParameterError(f"scale factor must be non-negative, got {alpha}")
    if alpha == 0:
        return FeatureVector()
    root = alpha**0.5
    return FeatureVector._from_sorted({k: w * root for k, w in v.entries.items()})


def direct_sum(parts: Sequence[FeatureVector]) -> FeatureVector:
    """Feature map of the sum kernel: concatenation of the part vectors.

    Keys are wrapped with the part index, so the result's entry count
    is the sum of the parts' and parts can never cancel each other.
    """
    entries: Dict[tuple, float] = {}
    for index, part in enumerate(parts):
        for key, weight in part.entries.items():
            entries[(TAG_PART, index, key)] = weight
    return FeatureVector(entries)


def tensor_product(u: FeatureVector, v: FeatureVector) -> FeatureVector:
    """Feature map of the product kernel: all pairwise weight products."""
    entries: Dict[tuple, float] = {}
    for ku, wu in u.entries.items():
        for kv, wv in v.entries.items():
            w = wu * wv
            if w != 0:
                entries[(TAG_PAIR, ku, kv)] = w
    return FeatureVector(entries)


def set_sum(vectors: Iterable[FeatureVector]) -> FeatureVector:
    """Pointwise sum of many vectors (the feature map of a kernel on sets
    defined as the sum over all element pairs)."""
    entries: Dict[tuple, float] = {}
    for vec in vectors:
        for key, weight in vec.entries.items():
            accumulated = entries.get(key, 0) + weight
            if accumulated == 0:
                entries.pop(key, None)
            else:
                entries[key] = accumulated
    return FeatureVector(entries)
