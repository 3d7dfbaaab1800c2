"""Dataset maps: one pass over a dataset's union gives its feature matrix."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkern import (
    Dataset,
    FeatureMatrix,
    Graph,
    VertexKernelSpec,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    graphlet_features,
    gram_explicit,
    matching_features,
    sp_features_explicit,
    walk_features_explicit,
    wv_features_explicit,
)
from gkern.gram import row_order
from gkern.graphs import DisjointUnion
from conftest import graphs
from oracles import (
    oracle_graphlet_features,
    oracle_matching_features,
    oracle_sp_features,
    oracle_walk_features,
    oracle_wv_features,
    per_graph,
)

DIRAC = VertexKernelSpec("dirac")


def weighted(weight_maps):
    """The weighted vertex map under Dirac on labels, with its weight map
    built over the dataset, and its per-graph oracle."""
    over = lambda members: weight_maps(Dataset("w", list(members)))
    return (
        lambda u: wv_features_explicit(u, over(u), DIRAC),
        lambda g, members: oracle_wv_features(g, over(members), DIRAC),
    )


# (name, dataset map, per-graph oracle of a graph and the dataset's members)
MAPS = [
    ("sp", sp_features_explicit, lambda g, _: oracle_sp_features(g)),
    ("graphlet", graphlet_features, lambda g, _: oracle_graphlet_features(g)),
] + [
    (
        f"matching({size}, {connected})",
        lambda u, s=size, c=connected: matching_features(u, s, c),
        lambda g, _, s=size, c=connected: oracle_matching_features(g, s, c),
    )
    for size in (3, 5)
    for connected in (False, True)
] + [
    ("walk(3)", lambda u: walk_features_explicit(u, 3), lambda g, _: oracle_walk_features(g, 3)),
    (
        "maxwalk(3)",
        lambda u: walk_features_explicit(u, 3, all_rounds=True),
        lambda g, _: {k: c for l in range(4) for k, c in oracle_walk_features(g, l).items()},
    ),
    ("graph-invariant(2)", *weighted(lambda ds: graph_invariant_weight_maps(ds, 2))),
    ("graphhopper", *weighted(graphhopper_weight_maps)),
]

DEGENERATE = [Graph(0), Graph(1, vertex_labels=[2]), Graph(4), Graph(5, [(0, 1), (2, 3)])]


@st.composite
def permuted_datasets(draw):
    """A list of graphs and an order of its indices."""
    members = draw(st.lists(graphs(), max_size=4))
    return members, draw(st.permutations(range(len(members))))


class TestDatasetMaps:
    @settings(max_examples=30, deadline=None)
    @given(permuted_datasets())
    @example((DEGENERATE, [3, 1, 0, 2]))
    @example(([], []))
    def test_permuted_dataset_gives_the_permuted_gram_bit_for_bit(self, drawn):
        members, order = drawn
        permuted = [members[i] for i in order]
        for name, feature_map, oracle in MAPS:
            forward = gram_explicit(Dataset("f", members), feature_map).values
            shuffled = gram_explicit(Dataset("p", permuted), feature_map).values
            at = np.asarray(order, dtype=np.intp)
            expected = forward[np.ix_(at, at)]
            assert shuffled.tobytes() == expected.tobytes(), name
            features = feature_map(DisjointUnion(members))
            for i, g in enumerate(members):
                assert features.vector(i) == oracle(g, members), (name, i)

    def test_columns_index_the_ascending_key_table(self):
        members = [*DEGENERATE, Graph(3, [(0, 1), (1, 2)], [0, 1, 0], [4, 5])]
        for name, feature_map, _ in MAPS:
            features = feature_map(members)
            assert isinstance(features, FeatureMatrix), name
            keys = list(features.keys)
            # ascending within each key width, every key once
            for width in {len(key) for key in keys}:
                same = [key for key in keys if len(key) == width]
                assert same == sorted(set(same)), name
            assert len(set(keys)) == len(keys), name
            assert features.integral.tolist() == [True] * len(members), name
            cells = list(zip(features.graph.tolist(), features.column.tolist()))
            assert len(set(cells)) == len(cells) and (features.weight > 0).all(), name

    def test_per_graph_adapter_numbers_columns_by_ascending_key(self):
        vectors = [{(3,): 1, (1, 2): 2}, {(0,): 0.5, (3,): 4}]
        ds = Dataset("d", [Graph(1), Graph(1)])
        by_graph = {id(g): v for g, v in zip(ds.graphs, vectors)}
        features = per_graph(lambda g: by_graph[id(g)])(DisjointUnion(ds.graphs))
        assert list(features.keys) == [(0,), (1, 2), (3,)]
        assert features.integral.tolist() == [True, False]
        assert [features.vector(i) for i in range(2)] == vectors
        assert type(features.vector(0)[(3,)]) is int

    def test_key_table_rejects_columns_out_of_range(self):
        keys = sp_features_explicit([Graph(2, [(0, 1)])]).keys
        assert list(keys) == [(0, 0, 1)]
        with pytest.raises(IndexError):
            keys[1]

    def test_row_order_sorts_rows_whatever_their_spans(self):
        # small spans pack into one word, a 2**30 span starts a second, and
        # a column spanning past 2**63 compares as it is
        rng = np.random.default_rng(3)
        small = rng.integers(0, 3, 60)
        mid = rng.integers(-(2**30), 2**30, 60)
        wide = rng.integers(-(2**63), 2**63 - 1, 60, endpoint=True)
        for columns in ([small, small], [small, mid, small, mid], [small, wide, small], [wide]):
            rows = np.column_stack(columns)
            ranked = rows[row_order(columns)].tolist()
            assert ranked == sorted(rows.tolist())
