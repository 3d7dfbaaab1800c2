"""Graph kernels computed two ways.

Every kernel in this package can be evaluated *implicitly* — a Gram row
at a time, over a product of one graph with the union of its partners —
and, where a finite feature map exists, *explicitly* — by building the
dataset's sparse feature matrix and taking dot products.  Both schemes
compute the same function; which one is faster depends on the data, and
:mod:`gkern.bench` measures exactly where the crossover sits.

Quick start::

    from gkern import generate_synthetic_labeled, gram_explicit, gram_implicit
    from gkern import walk_features_explicit, walk_kernel_implicit
    from gkern.kernels import VertexKernelSpec, EdgeKernelSpec

    ds = generate_synthetic_labeled(10, seed=1)
    dirac_v, dirac_e = VertexKernelSpec("dirac"), EdgeKernelSpec("dirac")
    # one Gram row per call: g against the partners hs
    implicit = gram_implicit(
        ds, lambda g, hs: walk_kernel_implicit(g, hs, dirac_v, dirac_e, length=4)
    )
    # one dataset map: every graph's walk vector from one pass over the union
    explicit = gram_explicit(ds, lambda union: walk_features_explicit(union, 4))
    assert (implicit.values == explicit.values).all()
    # one graph's vector, as a dict of (length, *labels) -> count
    assert sum(walk_features_explicit(ds.graphs, 4).vector(0).values()) > 0
"""

from .errors import (
    ContractError,
    DatasetFormatError,
    DatasetLoadError,
    GKError,
    GramError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .gram import (
    FeatureMatrix,
    GramMatrix,
    export_gram,
    gram_explicit,
    gram_implicit,
    load_gram_csv,
    min_eigenvalue_estimate,
    normalize,
)
from .graphs import (
    Dataset,
    DistanceMatrix,
    Graph,
    INF_DISTANCE,
    all_pairs_shortest_paths,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    load_tu_dataset,
    scale_attributes,
    write_tu_dataset,
)
from .kernels import (
    BinningGrid,
    EdgeKernelSpec,
    VertexKernelSpec,
    sample_binning_grid,
)
from .rng import SplitMix64
from .shortest_paths import (
    sp_features_explicit,
    sp_transform,
)
from .subgraphs import (
    graphlet_features,
    matching_features,
    subgraph_matching_kernel,
)
from .walks import (
    WeightedProductGraph,
    build_wdpg,
    walk_features_explicit,
    walk_kernel_implicit,
)
from .weighted import (
    WeightFeatureMap,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    wv_features_explicit,
    wv_kernel_implicit,
)
from .wl import ColorAssignment, wl_refine_dataset

__version__ = "0.1.0"

__all__ = [
    "BinningGrid",
    "ColorAssignment",
    "ContractError",
    "Dataset",
    "DatasetFormatError",
    "DatasetLoadError",
    "DistanceMatrix",
    "EdgeKernelSpec",
    "FeatureMatrix",
    "GKError",
    "GramError",
    "GramMatrix",
    "Graph",
    "INF_DISTANCE",
    "MultiplicityOverflowError",
    "ParameterError",
    "ResourceBudgetError",
    "SplitMix64",
    "VertexKernelSpec",
    "WeightFeatureMap",
    "WeightedProductGraph",
    "all_pairs_shortest_paths",
    "build_wdpg",
    "export_gram",
    "generate_synthetic_alphabet",
    "generate_synthetic_labeled",
    "gram_explicit",
    "gram_implicit",
    "graph_invariant_weight_maps",
    "graphhopper_weight_maps",
    "graphlet_features",
    "load_gram_csv",
    "load_tu_dataset",
    "matching_features",
    "min_eigenvalue_estimate",
    "normalize",
    "sample_binning_grid",
    "scale_attributes",
    "sp_features_explicit",
    "sp_transform",
    "subgraph_matching_kernel",
    "walk_features_explicit",
    "walk_kernel_implicit",
    "wl_refine_dataset",
    "write_tu_dataset",
    "wv_features_explicit",
    "wv_kernel_implicit",
]
