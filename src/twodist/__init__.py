"""Two-distance representation numbers of graphs.

Every simple graph embeds in Euclidean space as a two-distance point set
with edges at the short distance.  This package computes the smallest such
dimensions (plain, spherical, and unit-sphere-with-sqrt(2)-short-distance
variants) exactly, realizes explicit coordinates, and decomposes joins.
"""

from .config import Config, get_config, override, set_config
from .errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    GraphFormatError,
    InfeasibleDistanceError,
    SizeLimitError,
    TwoDistError,
    UndecidableEnclosureError,
)
from .graphs import (
    Graph,
    MultipartiteSignature,
    are_isomorphic,
    canonical_form,
    canonical_key,
    complement,
    complement_components,
    complete_multipartite,
    disjoint_union,
    enumerate_graphs,
    format_edgelist,
    is_complete,
    is_complete_multipartite,
    is_connected,
    is_disjoint_clique_union,
    is_empty_graph,
    is_strongly_regular,
    join,
    parse_edgelist,
    parse_graph6,
    to_graph6,
)
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    multiplicity_at,
    smallest_root_greater_than,
    squarefree_decomposition,
)
from .invariants import (
    RSquared,
    TwoDistanceProfile,
    circumradius_invariant,
    cm_polynomials,
    dim_s_bounded,
    feasible_interval,
    profile,
    tau0,
    tau1_mu,
)
from .geometry import (
    Ball,
    PointConfig,
    PointFactorization,
    beta_star_numeric,
    jspherical_embedding,
    kuperberg_decompose,
    min_enclosing_ball,
    phi,
    realize,
    solve_phi,
)
from .joins import (
    JoinFactorization,
    dims_via_join,
    join_decompose,
    multipartite_dims,
)
from .oracle import (
    OracleReport,
    probe_f_monotonicity,
    reciprocal_check,
    verify_profile,
)

__version__ = "0.1.0"
