"""Exception types shared across the package."""

__all__ = [
    "FockPathError",
    "NullStateError",
    "UnknownPortError",
    "NonUnitaryError",
    "EnergyConservationError",
    "PhaseRelationError",
    "ModeMismatchError",
    "PhotonBudgetError",
    "TruncationError",
    "ConvergenceError",
    "EngineDisagreementError",
    "ParseError",
]


class FockPathError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1  # the status ``fockpath`` exits with on this error


class NullStateError(FockPathError, ValueError):
    """An operation required a state with positive norm."""


class UnknownPortError(FockPathError, KeyError):
    """A port label is not part of the state's port universe."""


class NonUnitaryError(FockPathError, ValueError):
    """An element matrix is not unitary within tolerance."""


class EnergyConservationError(FockPathError, ValueError):
    """Splitter coefficients violate |rho|^2 + |tau|^2 = 1."""


class PhaseRelationError(FockPathError, ValueError):
    """Splitter coefficients violate the 90 degree reflection/transmission
    phase relation."""


class ModeMismatchError(FockPathError, ValueError):
    """A transform's modes are inconsistent with the state it is applied to."""


class PhotonBudgetError(FockPathError):
    """Total photon number exceeds the configured maximum."""

    exit_code = 4


class TruncationError(FockPathError, ValueError):
    """A coherent-state truncation cannot satisfy the requested tail bound."""

    exit_code = 4


class ConvergenceError(FockPathError):
    """A quadrature failed its node-doubling refinement check."""


class EngineDisagreementError(FockPathError):
    """The two evolution engines disagree beyond tolerance."""

    exit_code = 3

    def __init__(self, discrepancy: float):
        self.discrepancy = discrepancy
        super().__init__(f"engines disagree: max amplitude difference {discrepancy:.3e}")


class ParseError(FockPathError, ValueError):
    """Circuit-file syntax or validation error, with source location."""

    exit_code = 2

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")
