"""Finite-window laboratory for a unitary photon phase operator on a
polarization-doubled Fock space."""

from .baselines import (
    build_cosine_sine_single,
    build_pegg_barnett,
    build_sg_single,
    compare_distributions,
    pegg_barnett_distribution,
    restrict_to_upper,
    single_mode_coherent,
)
from .fockspace import (
    Boundary,
    Polarization,
    SingleModeWindow,
    StateVector,
    TailWeightError,
    Window,
    coherent_state,
    fock_state,
    parse_complex,
    parse_state_spec,
    photon_count,
    polarization,
    vacuum_symmetric,
)
from .operators import (
    OPERATOR_BUILDERS,
    NumberKind,
    OperatorMatrix,
    WindowMismatchError,
    build_a_m,
    build_a_minus,
    build_a_minus_dagger,
    build_a_plus,
    build_a_plus_dagger,
    build_a_v,
    build_cosine_sine,
    build_helicity,
    build_identity,
    build_number,
    build_polarization_swap,
    build_susskind_glogower,
    commutator,
    lowering_coefficient,
    operator_to_json_dict,
)
from .phase import (
    PhaseDistribution,
    PhaseGrid,
    circular_stats,
    cosine_sine_expectation,
    distribution_to_csv,
    distribution_to_json_dict,
    eigen_decompose_sg,
    eigenvalues_sg,
    phase_distribution,
    phase_grid,
    phase_state,
)
from .verify import CheckReport, ToleranceProfile, run_checks

__version__ = "0.1.0"
