"""Exact quantum-walk transition matrices, graph zeta functions and spectra."""

from .exact import (
    ExactDivisionError,
    Matrix,
    Poly,
    charpoly_exact,
    square_free_decomposition,
)
from .graphs import (
    Graph,
    GraphFormatError,
    SizeGuardError,
    adjacency_matrix,
    parse_edge_list,
    parse_graph6,
)
from .identities import (
    charpoly_support_via_adjacency_form,
    charpoly_u_via_degree_form,
    charpoly_u_via_walk_form,
    vertex_determinant,
)
from .operators import (
    arc_operator,
    coin_weights,
    nonbacktracking_matrix,
    operator_matrix,
    positive_support,
    power_support,
    random_walk_matrix,
    transition_matrix,
)
from .spectra import (
    CompareResult,
    SpectrumMultiset,
    compare,
    map_adjacency_spectrum,
    map_random_walk_spectrum,
    roots,
)
from .zeta import (
    euler_product_oracle,
    ihara_reciprocal_bass_form,
    ihara_reciprocal_edge_form,
    series_inverse,
    weighted_zeta_reciprocal,
)
from .experiments import (
    CorpusEntry,
    DistinguishResult,
    VerificationReport,
    builtin_corpus,
    named_graph,
    run_identity_suite,
    srg_distinguish,
)

__version__ = "0.1.0"
