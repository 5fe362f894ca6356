"""Exact combinatorics of regular Hessenberg varieties at desk scale."""

from .betti import (
    composition_simple_roots,
    conjugated_hessenberg,
    hessenberg_inversions,
    poincare_arrays,
    poincare_polynomial,
    satisfies_hessenberg_condition,
    shortest_coset_decompose,
    shortest_coset_representatives,
)
from .dot_action import (
    GradedRepDecomposition,
    chromatic_check,
    decompose,
    decompositions,
    e_positivity_report,
    gasharov_check,
    orientation_count_check,
    orientation_histogram,
    zero_one_matrix_count,
)
from .induction import (
    DNuSlice,
    check_maximal_sink_conjecture,
    check_nilpotent_poincare_recursion,
    check_regular_poincare_recursion,
    check_two_part_induction,
    degree_shift_check,
    degree_shift_permutation,
    hessenberg_slice,
    slice_base_permutation,
    slice_bijection_check,
)
from .orientations import (
    AcyclicOrientation,
    IncomparabilityGraph,
    SinkSet,
    build_graph,
    degree_of,
    enumerate_acyclic_orientations,
    max_sink_set_size,
    restrict,
    sink_sets,
)
from .partitions import (
    Partition,
    PartitionOrder,
    count_ph_tableaux,
    dim_tabloid,
    dual_partition,
    fixed_space_matrix,
    kostka,
    kostka_matrix,
    partitions_of,
    solve_fixed_space_system,
)
from .reports import CheckReport
from .roots import (
    HessenbergFunction,
    IdealHeightReport,
    RootSet,
    enumerate_hessenberg_functions,
    height_via_chains,
    hessenberg_of_ideal,
    ideal_of,
    is_abelian,
    is_strictly_negative,
    lower_central_series,
    roots_of,
    validate_hessenberg,
)

__all__ = [name for name in dir() if not name.startswith("_")]
