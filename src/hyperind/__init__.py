"""Independent sets in uniform linear triangle-free hypergraphs.

Library surface:

* ``core`` -- Hypergraph, slot partitions, the .hg text format
* ``properties`` -- structural predicates with failure witnesses
* ``bounds`` -- exact and integral-form degree-sequence bounds
* ``algorithms`` -- certified greedy extraction, exact independence number
* ``generators`` -- seeded random and named instance families
* ``cli`` -- the ``hyperind`` command
"""

from .core import (
    Hypergraph,
    SlotPartition,
    format_hg,
    parse_hg,
    read_hg,
    remove,
    slot_partition,
    write_hg,
)
from .properties import (
    VACUOUS,
    PropertyReport,
    has_uniformity,
    is_double_linear,
    is_linear,
    is_triangle_free,
    is_uniform,
    neighborhood_max_degree,
    property_report,
)
from .bounds import (
    BoundValue,
    TableRow,
    as_ratio,
    bound_table,
    caro_tuza,
    caro_tuza_total,
    chishti,
    chishti_bound,
    convexity_minorant,
    li_zang,
    potential,
    potential_weight,
    shearer_s1,
    table_to_csv,
    table_to_json,
)
from .algorithms import (
    AlphaResult,
    ExtractionCertificate,
    Step,
    candidate_delta,
    exact_alpha,
    greedy_extract,
    verify_independent,
)
from .generators import (
    FAMILIES,
    InstanceSpec,
    SplitMix64,
    fano,
    generate,
    loose_cycle,
    loose_path,
    matching,
    random_linear_triangle_free,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "SlotPartition",
    "format_hg",
    "parse_hg",
    "read_hg",
    "remove",
    "slot_partition",
    "write_hg",
    "VACUOUS",
    "PropertyReport",
    "has_uniformity",
    "is_double_linear",
    "is_linear",
    "is_triangle_free",
    "is_uniform",
    "neighborhood_max_degree",
    "property_report",
    "BoundValue",
    "TableRow",
    "as_ratio",
    "bound_table",
    "caro_tuza",
    "caro_tuza_total",
    "chishti",
    "chishti_bound",
    "convexity_minorant",
    "li_zang",
    "potential",
    "potential_weight",
    "shearer_s1",
    "table_to_csv",
    "table_to_json",
    "AlphaResult",
    "ExtractionCertificate",
    "Step",
    "candidate_delta",
    "exact_alpha",
    "greedy_extract",
    "verify_independent",
    "FAMILIES",
    "InstanceSpec",
    "SplitMix64",
    "fano",
    "generate",
    "loose_cycle",
    "loose_path",
    "matching",
    "random_linear_triangle_free",
    "errors",
    "__version__",
]
