"""Projected-coloring graphs and quantum pigeonhole paradox certification.

The package decides, for a signed hypergraph ("projected-coloring
graph"), whether its associated quantum state yields a Hardy-like
pigeonhole paradox, using three independent routes: exact GF(2) rank
criteria, exhaustive classical-assignment search, and exact sparse
state simulation.
"""
from .errors import (
    CatalogKeyError,
    CrossCheckError,
    PcgError,
    PcgFileError,
    PcgValidationError,
    ResourceLimitError,
    StateConditionError,
)
from .graph import (
    PCG,
    Coloring,
    ColorabilityResult,
    ColoringCensus,
    IrreducibilityResult,
    SignedEdge,
    ValidationReport,
    Violation,
    brute_force_colorings,
    is_colorable,
    irreducibility_status,
    is_irreducible,
    validate,
)
from .states import (
    BTerm,
    PauliWord,
    SparseState,
    build_qudit_family,
    build_state,
    joint_z_probability,
    omega,
    pps_amplitude,
    project_z,
    qubit_product_state,
    sample_counts,
    x_product_distribution,
)
from .verify import (
    HardyCheck,
    ParadoxCertificate,
    QuditCertificate,
    SuccessRecord,
    SuccessRow,
    pcg_digest,
    success_table,
    verify,
    verify_qudit_family,
)
from .search import SearchCensus, classify, enumerate_pcgs
from .catalog import CatalogEntry, catalog_ids, get as catalog_get
from .fileio import PcgFile, dump_pcg_file, from_json_dict, load_pcg_file, to_dot, to_json_dict

__version__ = "0.1.0"

__all__ = [
    "BTerm",
    "CatalogEntry",
    "CatalogKeyError",
    "Coloring",
    "ColorabilityResult",
    "ColoringCensus",
    "CrossCheckError",
    "HardyCheck",
    "IrreducibilityResult",
    "PCG",
    "ParadoxCertificate",
    "PauliWord",
    "PcgError",
    "PcgFile",
    "PcgFileError",
    "PcgValidationError",
    "QuditCertificate",
    "ResourceLimitError",
    "SearchCensus",
    "SignedEdge",
    "SparseState",
    "StateConditionError",
    "SuccessRecord",
    "SuccessRow",
    "ValidationReport",
    "Violation",
    "brute_force_colorings",
    "build_qudit_family",
    "build_state",
    "catalog_get",
    "catalog_ids",
    "classify",
    "dump_pcg_file",
    "enumerate_pcgs",
    "from_json_dict",
    "irreducibility_status",
    "is_colorable",
    "is_irreducible",
    "joint_z_probability",
    "load_pcg_file",
    "omega",
    "pcg_digest",
    "pps_amplitude",
    "project_z",
    "qubit_product_state",
    "sample_counts",
    "success_table",
    "to_dot",
    "to_json_dict",
    "validate",
    "verify",
    "verify_qudit_family",
    "x_product_distribution",
]
