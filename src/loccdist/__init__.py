"""Local distinguishability of bipartite states against white noise.

Computes and certifies the minimum type-2 error of detecting the completely
mixed state, under the constraint of perfect detection of a given state, for
four operation classes: global, separable, two-way LOCC (upper bound via an
explicit three-step protocol) and one-way LOCC.
"""

from .bounds import BoundsReport, mixed_state_report, pure_state_report
from .families import BUILTIN_FAMILIES, FamilySpec, get_family, parse_family, sweep, sweep_rows
from .one_way import (
    OneWayProtocol,
    beta_one_way,
    build_one_way_test,
    check_lemma3,
    one_way_is_exact,
)
from .operators import (
    eig_hermitian,
    is_hermitian,
    numerical_rank,
    partial_trace,
    povm_element_check,
    psd_check,
    psd_sqrt,
    support_projection,
    tensor,
    tensor_vec,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    beta_two_way_upper_batch,
    grid_oracle,
)
from .separable import (
    SeparableForm,
    SeparablePovmPair,
    beta_sep_pure,
    build_optimal_separable_povm,
    distinguishable_set_bound,
    global_robustness_pure,
    optimal_test_operator,
    sep_lower_bound_mixed,
    twirl,
    verify_appendix_identity,
)
from .states import (
    BipartiteState,
    MaximallyCorrelatedState,
    SchmidtSpectrum,
    parse_spectrum,
    schmidt_decompose,
    spectrum,
    sqrt_trace_reduced,
    state_from_spectrum,
)
from .two_way import (
    DeltaMatrix,
    TwoWayProtocol,
    ZeroProbabilityError,
    build_mub_basis,
    build_two_way_protocol,
    build_two_way_T,
    sigma_A,
    simulate_protocol,
    trace_T_closed_form,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BUILTIN_FAMILIES",
    "BipartiteState",
    "DeltaMatrix",
    "FamilySpec",
    "MaximallyCorrelatedState",
    "OneWayProtocol",
    "OptimizationResult",
    "OptimizerConfig",
    "SchmidtSpectrum",
    "SeparableForm",
    "SeparablePovmPair",
    "TwoWayProtocol",
    "ZeroProbabilityError",
    "beta_one_way",
    "beta_sep_pure",
    "beta_two_way_qubit_analytic",
    "beta_two_way_upper",
    "beta_two_way_upper_batch",
    "build_mub_basis",
    "build_one_way_test",
    "build_optimal_separable_povm",
    "build_two_way_protocol",
    "build_two_way_T",
    "check_lemma3",
    "distinguishable_set_bound",
    "eig_hermitian",
    "get_family",
    "global_robustness_pure",
    "grid_oracle",
    "is_hermitian",
    "mixed_state_report",
    "numerical_rank",
    "one_way_is_exact",
    "optimal_test_operator",
    "parse_family",
    "parse_spectrum",
    "partial_trace",
    "povm_element_check",
    "psd_check",
    "psd_sqrt",
    "pure_state_report",
    "schmidt_decompose",
    "sep_lower_bound_mixed",
    "sigma_A",
    "simulate_protocol",
    "spectrum",
    "sqrt_trace_reduced",
    "state_from_spectrum",
    "support_projection",
    "sweep",
    "sweep_rows",
    "tensor",
    "tensor_vec",
    "trace_T_closed_form",
    "twirl",
    "verify_appendix_identity",
    "wilson_interval",
]
