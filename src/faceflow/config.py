"""Global constants for the pipeline, with the empirically recorded bounds.

The numbers are part of the construction, so they live in one frozen
record, DEFAULT_CONFIG, which the pipeline reads directly (no function takes
them per call); experiments and regression tests agree on one set of numbers.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PipelineConfig:
    # Slack parameter used before embedding outerplanar graphs into trees.
    # The distortion argument needs ears at least 160x longer than the edge
    # they attach to.
    slack_alpha: int = 160

    # Expected contraction of the tree embedding relative to the original
    # outerplanar metric: factor 6 from the extension step, times the slack
    # factor 160.
    embed_contraction: int = 6 * 160  # = 960

    # Anchor-point parameters: (1/6, 1/16)-apart anchors come from the
    # generic-choice construction with these values.
    anchor_alpha: Fraction = Fraction(1, 72)
    anchor_beta: Fraction = Fraction(1, 16)
    # Ratio cap chord/len(path) for which anchors exist.
    anchor_delta_max: Fraction = Fraction(1, 160)
    # Grid resolution for sampling the anchor offset eta.
    anchor_grid: int = 1 << 16

    # Planar padded partition: three chopping rounds with annuli of this
    # width (as a fraction of tau) keep weak diameter <= tau.
    chop_rounds: int = 3
    chop_width_divisor: int = 6

    # Empirical padding constant observed on the planar regression suite;
    # estimate_padding must stay below this.
    padding_alpha_bound: int = 24

    # Empirical bound on mean single-scale gradients of retractions on the
    # regression suite.
    gradient_bound: int = 12

    # Exact cut capacity is brute-forced up to this many cut edges.
    nu_brute_limit: int = 16
    # Exhaustive sparsest-cut enumeration limits.
    vertex_cut_max_n: int = 22
    edge_cut_max_edges: int = 16

    # Thinning degree guaranteed by the random thinning of star-shaped maps.
    thinness: int = 4

    # LP duality tolerance (the rational solver is exact; this is the bound
    # the acceptance suite asserts).
    duality_rel_tol: float = 1e-9

    # Recorded end-to-end bound: rounded-cut sparsity over LP flow value on
    # the regression corpus.  Asserted not to regress.
    pipeline_ratio_bound: float = 24.0

    # Default Monte Carlo sizes.
    default_samples: int = 1000


DEFAULT_CONFIG = PipelineConfig()
