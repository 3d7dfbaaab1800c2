"""Graph kernels computed two ways.

Every kernel in this package can be evaluated *implicitly* — one pair of
graphs at a time, by walking a weighted product structure — and, where a
finite feature map exists, *explicitly* — by building one sparse count
vector per graph and taking dot products.  Both schemes compute the same
function; which one is faster depends on the data, and :mod:`gkern.bench`
measures exactly where the crossover sits.

Quick start::

    from gkern import generate_synthetic_labeled, walk_kernel_implicit
    from gkern import walk_features_explicit, dot
    from gkern.kernels import VertexKernelSpec, EdgeKernelSpec

    ds = generate_synthetic_labeled(10, seed=1)
    g, h = ds.graphs[0], ds.graphs[1]
    implicit = walk_kernel_implicit(
        g, h, VertexKernelSpec("dirac"), EdgeKernelSpec("uniform"), length=4
    )
    explicit = dot(walk_features_explicit(g, 4), walk_features_explicit(h, 4))
    assert implicit == explicit
"""

from .errors import (
    ContractError,
    DatasetFormatError,
    DatasetLoadError,
    GKError,
    GramError,
    InvalidKernelError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .features import (
    FeatureVector,
    direct_sum,
    dot,
    scale,
    set_sum,
    tensor_product,
)
from .gram import (
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
    binary_feature_map,
    binning_features,
    brownian_bridge,
    dirac,
    hat_kernel,
    rbf_kernel,
    sample_binning_grid,
)
from .rng import SplitMix64
from .shortest_paths import (
    dirac_length_features,
    sp_features_approx,
    sp_features_explicit,
    sp_kernel_implicit,
    sp_transform,
)
from .subgraphs import (
    canonical_string,
    graphlet_features,
    matching_features,
    subgraph_matching_kernel,
)
from .walks import (
    WeightedProductGraph,
    build_wdpg,
    max_walk_kernel_implicit,
    walk_features_explicit,
    walk_kernel_implicit,
    walk_kernel_row,
)
from .weighted import (
    WeightFeatureMap,
    attribute_class_features,
    binned_attribute_features,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    label_features,
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
    "FeatureVector",
    "GKError",
    "GramError",
    "GramMatrix",
    "Graph",
    "INF_DISTANCE",
    "InvalidKernelError",
    "MultiplicityOverflowError",
    "ParameterError",
    "ResourceBudgetError",
    "SplitMix64",
    "VertexKernelSpec",
    "WeightFeatureMap",
    "WeightedProductGraph",
    "all_pairs_shortest_paths",
    "attribute_class_features",
    "binary_feature_map",
    "binned_attribute_features",
    "binning_features",
    "brownian_bridge",
    "build_wdpg",
    "canonical_string",
    "dirac",
    "dirac_length_features",
    "direct_sum",
    "dot",
    "export_gram",
    "generate_synthetic_alphabet",
    "generate_synthetic_labeled",
    "gram_explicit",
    "gram_implicit",
    "graph_invariant_weight_maps",
    "graphhopper_weight_maps",
    "graphlet_features",
    "hat_kernel",
    "label_features",
    "load_gram_csv",
    "load_tu_dataset",
    "matching_features",
    "max_walk_kernel_implicit",
    "min_eigenvalue_estimate",
    "normalize",
    "rbf_kernel",
    "sample_binning_grid",
    "scale",
    "scale_attributes",
    "set_sum",
    "sp_features_approx",
    "sp_features_explicit",
    "sp_kernel_implicit",
    "sp_transform",
    "subgraph_matching_kernel",
    "tensor_product",
    "walk_features_explicit",
    "walk_kernel_implicit",
    "walk_kernel_row",
    "wl_refine_dataset",
    "write_tu_dataset",
    "wv_features_explicit",
    "wv_kernel_implicit",
]
