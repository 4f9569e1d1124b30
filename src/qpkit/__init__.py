"""Exact toolkit for quasiperfect graph recognition and verification."""

from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    bit_members,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    emit_edge_list,
    emit_graph6,
    from_edges,
    induced_subgraph,
    iter_bits,
    mask_of,
    parse_edge_list,
    parse_graph6,
    path_graph,
    permute,
)
from .canonical import canonical_form, canonical_graph, canonical_key
from .invariants import (
    GraphInvariants,
    PerfectionChecker,
    PerfectionLimitError,
    chromatic_number,
    clique_number,
    greedy_coloring_bound,
    independence_number,
    invariant_triple,
    is_block_graph,
    is_forest,
    is_perfect,
    maximum_cliques,
    maximum_independent_sets,
    optimal_colorings,
)
from .recognition import (
    CERTIFICATE_SCHEMA,
    CertificateCheck,
    InvalidCertificateError,
    MemoCapacityError,
    QpCertificate,
    RecognitionEngine,
    RecognitionLimitError,
    RecognitionOutcome,
    RecognitionStats,
    certificate_from_json,
    certificate_to_json,
    coloring_from_certificate,
    complement_certificate,
    is_prime_clique,
    is_prime_independent_set,
    is_quasiperfect,
    prime_cliques,
    prime_independent_sets,
    verify_certificate,
)
from .families import (
    FamilyGraph,
    FamilySpec,
    c5_blowup_with_apex,
    family_prime_clique,
    family_prime_independent_set,
    lovasz_prime_clique,
    odd_cycle_family,
    replicate,
)
from .harness import (
    ClassificationRecord,
    SuiteReport,
    build_classification_record,
    color_class_removal_survey,
    enumerate_graphs,
    minimal_qp_supergraph,
    reading_divergence_survey,
    verify_perfect_subset,
    verify_theorem1,
    verify_theorem2,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
