"""Constrained variational problems on perturbed lattice truncations."""

from .calculus import (
    Field,
    box_inverse,
    dirichlet_energy,
    dirichlet_gradient,
    laplacian,
    lp_norm,
    nls_energy,
    nls_gradient,
    p_laplacian,
    translate,
)
from .errors import (
    DisconnectedGraph,
    InconclusiveProbe,
    InvalidExponent,
    InvalidRange,
    InvalidSpec,
    MissingColumns,
    NotConverged,
    OutOfBox,
    TooLarge,
    VaroptError,
)
from .lattice import (
    Graph,
    GraphSpec,
    ball_boundary_edges,
    box_vertices,
    build_graph,
    canonical_edge,
    is_base_edge,
    is_connected,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
)
from .solver import (
    NLS,
    SOBOLEV,
    Localization,
    ProblemSpec,
    SolveResult,
    SolverConfig,
    brute_force_oracle,
    make_seed,
    minimize,
    minimize_sobolev,
    spectral_oracle,
)

__version__ = "0.1.0"
