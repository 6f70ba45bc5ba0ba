"""Regular cycles of permutation group elements in induced actions.

A cycle of an element g is *regular* when its length equals the order of g,
equivalently when the cyclic group generated by g has a regular orbit.  The
package decides whether such cycles exist in a range of induced actions
(k-subsets, uniform partitions, product actions on tuples, linear and affine
vector actions, diagonal-type actions, coset actions), constructs certified
witnesses, and evaluates the analytic bound pipelines that control the
fixed-point ratios involved.
"""

from .actions import (
    Action,
    AffineVectorsAction,
    CosetsAction,
    DiagonalAction,
    DiagonalElement,
    DiagonalGroupData,
    KSetsAction,
    NaturalAction,
    PartitionsAction,
    ProductAction,
    VectorsAction,
    WreathElement,
    orbit_lengths,
    realize_diagonal_group,
)
from .gfalgebra import AffineMap, Field, Matrix, field_ops
from .groups import (
    ClosureCapError,
    GeneratedGroup,
    alternating_group,
    m10,
    pgammal2_9,
    pgl2,
    point_stabilizer,
    psl2,
    set_stabilizer,
    sylow_normalizer,
    symmetric_group,
)
from .permcore import (
    CycleType,
    Factorization,
    Permutation,
    canonical_permutation,
    cycle_types,
    factorize,
    first_primes,
    nk_threshold,
    orbit_length_array,
    orbit_partition,
    parse_cycles,
    primes_upto,
    render_cycles,
)
from .regular import (
    DomainCapError,
    PartitionCaseError,
    Verdict,
    affine_witness,
    decide,
    decide_bruteforce,
    decide_fix_union,
    diagonal_fpr_audit,
    gl_regular_vector_set,
    kset_decide,
    kset_witness,
    ksets_theorem_scan,
    partition_witness,
    product_witness,
    render_element,
    wreath_fpr_max,
)
from .verify import (
    RunConfig,
    SuiteReport,
    SUITES,
    run_suite,
    scan_ksets,
    scan_partitions,
)

# The bound sweeps load mpmath, which decide and scan never need: their
# names resolve from regcycle.bounds on first access.
_BOUNDS_NAMES = frozenset({
    "alpha_beta_row",
    "alpha_beta_scan",
    "diagonal_crude_bound",
    "e8_sweep",
    "group_profile",
    "landau_exact",
    "massias_sweep",
    "robin_check",
    "robin_sweep",
    "spanning_count",
    "stirling_sweep",
    "technical_sweep",
    "wreath_case_bound",
})


def __getattr__(name: str):
    if name in _BOUNDS_NAMES:
        from . import bounds

        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Action",
    "AffineMap",
    "AffineVectorsAction",
    "ClosureCapError",
    "CosetsAction",
    "CycleType",
    "DiagonalAction",
    "DiagonalElement",
    "DiagonalGroupData",
    "DomainCapError",
    "Factorization",
    "Field",
    "GeneratedGroup",
    "KSetsAction",
    "Matrix",
    "NaturalAction",
    "PartitionCaseError",
    "PartitionsAction",
    "Permutation",
    "ProductAction",
    "RunConfig",
    "SUITES",
    "SuiteReport",
    "VectorsAction",
    "Verdict",
    "WreathElement",
    "affine_witness",
    "alpha_beta_row",
    "alpha_beta_scan",
    "alternating_group",
    "canonical_permutation",
    "cycle_types",
    "decide",
    "decide_bruteforce",
    "decide_fix_union",
    "diagonal_crude_bound",
    "diagonal_fpr_audit",
    "e8_sweep",
    "factorize",
    "field_ops",
    "first_primes",
    "gl_regular_vector_set",
    "group_profile",
    "kset_decide",
    "kset_witness",
    "ksets_theorem_scan",
    "landau_exact",
    "m10",
    "massias_sweep",
    "nk_threshold",
    "orbit_length_array",
    "orbit_lengths",
    "orbit_partition",
    "parse_cycles",
    "partition_witness",
    "pgammal2_9",
    "pgl2",
    "point_stabilizer",
    "primes_upto",
    "product_witness",
    "psl2",
    "realize_diagonal_group",
    "render_cycles",
    "render_element",
    "robin_check",
    "robin_sweep",
    "run_suite",
    "scan_ksets",
    "scan_partitions",
    "set_stabilizer",
    "spanning_count",
    "stirling_sweep",
    "sylow_normalizer",
    "symmetric_group",
    "technical_sweep",
    "wreath_case_bound",
    "wreath_fpr_max",
]
