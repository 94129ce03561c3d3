"""Parametrically modulated collective cavity QED: exact dynamics plus
dispersive-regime analytics for two-photon exchange resonances."""

from .errors import (
    ConfigError,
    CutoffError,
    DegeneracyError,
    DickemodError,
    DomainError,
    FitError,
    LabelingError,
    NoResonanceError,
    NormalizationError,
    NumericError,
    PhysicsGuardError,
    SweepBoundaryError,
    UnsupportedError,
)
from .hilbert import (
    ObservableSet,
    Operators,
    SpaceSpec,
    StateVector,
    build_operators,
    coherent_cutoff,
    coherent_state,
    dicke_amplitude,
    dicke_fock_state,
    embed_collective,
    f_coefficient,
    observables,
)
from .model import (
    DissipationRates,
    ModulatedHamiltonian,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
    hamiltonian_static,
    seconds_per_time_unit,
    total_excitation_operator,
    validate_schedules,
)
from .dispersive import (
    DressedSpectrum,
    EffectiveState,
    TransitionRate,
    dispersive_spectrum,
    dressed_state_perturbative,
    eta_resonant,
    evolve_effective,
    lambda_perturbative,
    phase_Phi,
    project_initial,
    reconstruct_state,
    rwa_solution,
    spectrum_exact,
    subspace_rates,
    transition_rate_general,
    two_photon_rate_closed_form,
    upsilon,
)
from .dynamics import (
    DensityMatrix,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,
    lindblad_dissipator,
)
from .scan import (
    RabiFit,
    SweepResult,
    TransferScenario,
    fit_rabi,
    sweep_resonance,
)
from .cli import ScenarioConfig, emit_config, parse_config, run_scenario

__version__ = "0.1.0"
