"""Sparse feature vectors: plain dicts keyed by tag-first integer tuples.

Explicit kernel computation materializes, per graph, a sparse vector of
feature weights: a ``dict`` mapping each feature key to its non-zero
weight.  Features coming from different constructions (vertex labels,
walk label sequences, bin indices of continuous attributes, ...) must
never collide, so every key is a tuple whose first item is a small
integer *tag* naming its namespace:

``(TAG, *ints)``            a plain key: the tag, then an integer payload
``(TAG_PAIR, left, right)`` the tensor pairing of two keys

Keys that share a tag share a shape: plain payloads are integers
throughout, and pair keys nest whole keys at fixed positions.  So any
two keys compare — at the first position where they differ both hold
ints or both hold keys — and nesting stays injective, since tuples
compare and hash by their items.

The composition rules of kernels each live in the one map that uses
them, since no map composes generically:

* sum kernel, concatenated maps — the maxwalk plan of
  :func:`gkern.bench.kernel_plan` merges the walk maps of lengths
  0..l, whose keys ``(TAG_WALK, l, ...)`` already carry the length;
* product kernel, paired keys — :func:`gkern.weighted.wv_features_explicit`
  pairs each weight key of a vertex with each of its attribute keys as
  ``(TAG_PAIR, weight key, attribute key)``, weighted by the product of
  the two weights: the map of k_W(u, v) * k_V(u, v);
* R-convolution, summed part maps — the same map adds up those
  w(v) x phi(v) over the vertices.

No map stores a zero weight.  :func:`gkern.gram.gram_explicit` takes
the dot products of a dataset's maps, all at once.
"""

from __future__ import annotations

# Key namespaces.
TAG_LABEL = 1      # one-hot on a discrete annotation value
TAG_BIN = 3        # randomized grid cell of a continuous attribute
TAG_WALK = 4       # label sequence of a fixed-length walk
TAG_SP = 5         # (source label, target label, distance) triple
TAG_GRAPHLET = 6   # canonical form of a small induced subgraph
TAG_WL = 7         # refinement color at a given iteration
TAG_GH = 8         # (position, path length) cell of a path-count table
TAG_PAIR = 11      # (left, right): a key of a tensor product

