"""Sparse feature vectors over a canonical byte-string key space.

Explicit kernel computation materializes, per graph, a sparse vector of
feature weights.  Features coming from different constructions (vertex
labels, walk label sequences, bin indices of continuous attributes, ...)
must never collide, so every key carries a small integer *tag* naming its
namespace followed by an integer payload, serialized to an ASCII byte
string.  The serialization is injective — two keys compare equal iff tag
and payload agree — and all comparison, hashing and ordering happens on the
serialized bytes only.

Vectors are closed under the operations needed to assemble kernels:

``scale``           k' = a * k        weights multiplied by sqrt(a)
``direct_sum``      k' = k1 + k2      keys prefixed with the part index
``tensor_product``  k' = k1 * k2      keys are (length-prefixed) key pairs
``set_sum``         sum over a set of objects of their feature vectors

Zero weights are never stored: builders drop them and ``set_sum`` removes
exact cancellations.  Entries are kept in ascending key order, which makes
every accumulation (in particular ``dot``) run in one fixed, reproducible
order regardless of how the operands were built.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .errors import ParameterError

# Key namespaces.  The integer values are part of the serialized form and
# must stay stable across releases.
TAG_LABEL = 1      # one-hot on a discrete annotation value
TAG_CLASS = 2      # equivalence class of a binary kernel
TAG_BIN = 3        # randomized grid cell of a continuous attribute
TAG_WALK = 4       # label sequence of a fixed-length walk
TAG_SP = 5         # (source label, target label, distance) triple
TAG_GRAPHLET = 6   # canonical form of a small induced subgraph
TAG_WL = 7         # refinement color at a given iteration
TAG_GH = 8         # (position, path length) cell of a path-count table
TAG_LEN = 9        # one-hot on a path length


def feature_key(tag: int, payload: Sequence[int] = ()) -> bytes:
    """Serialize ``(tag, payload)`` to its canonical byte-string key."""
    if payload:
        return b"%d|%s" % (tag, ",".join(map(str, payload)).encode("ascii"))
    return b"%d|" % tag


def decode_key(key: bytes) -> Tuple[int, Tuple[int, ...]]:
    """Inverse of :func:`feature_key` for plain (non-composite) keys."""
    tag, _, rest = key.partition(b"|")
    if not rest:
        return int(tag), ()
    return int(tag), tuple(int(tok) for tok in rest.split(b","))


def part_key(index: int, key: bytes) -> bytes:
    """Re-namespace ``key`` as belonging to part ``index`` of a direct sum."""
    return b"%d+%s" % (index, key)


def pair_key(left: bytes, right: bytes) -> bytes:
    """Combine two keys into the key of their tensor pairing.

    The left key is length-prefixed so nested pairings stay injective.
    """
    return b"%d*%s%s" % (len(left), left, right)


class FeatureVector:
    """Immutable-by-convention sparse vector: canonical byte key -> weight.

    Weights may be ints or floats; integer pipelines (counting features
    compared with Dirac kernels) stay in exact integer arithmetic all the
    way into the Gram matrix.  Entries are stored in ascending key order
    and never include exact zeros.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[bytes, float] | None = None):
        if entries:
            self.entries = {k: entries[k] for k in sorted(entries) if entries[k] != 0}
        else:
            self.entries = {}

    @classmethod
    def _from_sorted(cls, entries: Dict[bytes, float]) -> "FeatureVector":
        """Trusted constructor: ``entries`` already pruned and key-sorted."""
        vec = cls.__new__(cls)
        vec.entries = entries
        return vec

    @classmethod
    def one_hot(cls, key: bytes, weight: float = 1) -> "FeatureVector":
        return cls({key: weight})

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: bytes) -> float:
        return self.entries.get(key, 0)

    def __iter__(self) -> Iterator[bytes]:
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
        return "\n".join(
            f"{k.decode('ascii')}\t{w!r}" for k, w in self.entries.items()
        )


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

    Keys are re-namespaced with the part index, so the result's entry count
    is the sum of the parts' and parts can never cancel each other.
    """
    entries: Dict[bytes, float] = {}
    for index, part in enumerate(parts):
        for key, weight in part.entries.items():
            entries[part_key(index, key)] = weight
    return FeatureVector(entries)


def tensor_product(u: FeatureVector, v: FeatureVector) -> FeatureVector:
    """Feature map of the product kernel: all pairwise weight products."""
    entries: Dict[bytes, float] = {}
    for ku, wu in u.entries.items():
        for kv, wv in v.entries.items():
            w = wu * wv
            if w != 0:
                entries[pair_key(ku, kv)] = w
    return FeatureVector(entries)


def set_sum(vectors: Iterable[FeatureVector]) -> FeatureVector:
    """Pointwise sum of many vectors (the feature map of a kernel on sets
    defined as the sum over all element pairs)."""
    entries: Dict[bytes, float] = {}
    for vec in vectors:
        for key, weight in vec.entries.items():
            accumulated = entries.get(key, 0) + weight
            if accumulated == 0:
                entries.pop(key, None)
            else:
                entries[key] = accumulated
    return FeatureVector(entries)
