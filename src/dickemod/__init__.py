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
    SpaceSpec,
    StateVector,
    coherent_state,
    dicke_fock_state,
    f_coefficient,
    observables,
)
from .model import (
    DissipationRates,
    ModulatedHamiltonian,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
    seconds_per_time_unit,
    validate_schedules,
)
from .dispersive import (
    DressedSpectrum,
    EffectiveState,
    TransitionRate,
    dispersive_spectrum,
    eta_resonant,
    lambda_perturbative,
    phase_Phi,
    project_initial,
    reconstruct_state,
    rwa_solution,
    spectrum_exact,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from .dynamics import (
    DensityMatrix,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,
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
