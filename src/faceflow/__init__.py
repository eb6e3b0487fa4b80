"""Random tree embeddings of planar-face metrics, cut rounding, and
exact flow/cut oracles."""

from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import FaceflowError, InvariantViolation
from .graph import (
    Cycle,
    MetricGraph,
    PlanarInstance,
    all_pairs_distances,
    ear_decomposition,
    is_outerplanar,
    is_planar,
    reduce_lengths,
    slack_transform,
)
from .instances import Instance, load_instance, save_instance
from .partition import estimate_padding, sample_padded_partition
from .polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    brute_sparsest_edge_cut,
    brute_sparsest_vertex_cut,
    dual_objective,
    lovasz_extension,
    mcf_dual_vertex,
    mcf_polymatroid_lp,
    mcf_vertex_lp,
    nu,
    sparsity,
)
from .retraction import retract_to_outerplanar, retraction_sampler, sample_retraction
from .thinround import multiscale_round, round_thin, thin_map
from .tree import MetricTree, TreeMap, glue
from .treeembed import embed_outerplanar, embed_sampler, is_star_shaped, is_thin

__all__ = [
    "AdaptedLengths",
    "Cycle",
    "DEFAULT_CONFIG",
    "DemandMatrix",
    "FaceflowError",
    "Instance",
    "InvariantViolation",
    "MetricGraph",
    "MetricTree",
    "PipelineConfig",
    "PlanarInstance",
    "PolymatroidCaps",
    "TreeMap",
    "all_pairs_distances",
    "brute_sparsest_edge_cut",
    "brute_sparsest_vertex_cut",
    "dual_objective",
    "ear_decomposition",
    "embed_outerplanar",
    "embed_sampler",
    "estimate_padding",
    "glue",
    "is_outerplanar",
    "is_planar",
    "is_star_shaped",
    "is_thin",
    "load_instance",
    "lovasz_extension",
    "mcf_dual_vertex",
    "mcf_polymatroid_lp",
    "mcf_vertex_lp",
    "multiscale_round",
    "nu",
    "reduce_lengths",
    "retract_to_outerplanar",
    "retraction_sampler",
    "round_thin",
    "sample_padded_partition",
    "sample_retraction",
    "save_instance",
    "slack_transform",
    "sparsity",
    "thin_map",
]
