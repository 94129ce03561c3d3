"""Exception taxonomy.

Every guard in the package raises one of these, so callers can tell
configuration mistakes from physics-regime violations and from numerical
failures. Each class owns its CLI label and exit code, and subclasses inherit
them: cli.main prints `error[label]: message` and exits with `exit_code`.
"""


class DickemodError(Exception):
    """Base class for all package errors."""

    label = "failure"
    exit_code = 4


class ConfigError(DickemodError):
    """Invalid configuration or arguments."""

    label = "config"
    exit_code = 2


class DomainError(ConfigError):
    """Argument outside its mathematical domain (bad k, negative rate, ...)."""


class UnsupportedError(ConfigError):
    """Requested a documented restriction (e.g. distinguishable basis with N != 2)."""


class PhysicsGuardError(DickemodError):
    """A validity guard of the physical regime tripped."""

    label = "physics-guard"
    exit_code = 3


class CutoffError(PhysicsGuardError):
    """Fock cutoff too small for the requested state or subspace."""


class DegeneracyError(PhysicsGuardError):
    """Transition rate requested for a (near-)degenerate dressed pair."""


class LabelingError(PhysicsGuardError):
    """Dressed-state labeling ambiguous: no bare component with overlap > 0.5."""


class NumericError(DickemodError):
    """Numerical failure: drift beyond tolerance, integrator breakdown."""

    label = "numeric"
    exit_code = 4


class NormalizationError(NumericError):
    """State or density matrix violates its normalization contract."""


class FitError(NumericError):
    """Least-squares fit rejected; carries diagnostics in the message."""


class SweepBoundaryError(ConfigError):
    """Sweep peak sits on the interval boundary; widen the interval."""


class NoResonanceError(DickemodError):
    """No sweep point stands out of the off-resonant background."""

    label = "no-resonance"
    exit_code = 5
