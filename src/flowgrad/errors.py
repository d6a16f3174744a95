"""Exception hierarchy shared across the package."""


class FlowgradError(Exception):
    """Base class for all package-specific errors."""


class ContractError(FlowgradError):
    """A caller violated a documented precondition (bad shape, bad argument)."""


class GraphError(ContractError):
    """Invalid tape construction, e.g. an input reference that is out of range."""


class NumericError(FlowgradError):
    """A non-finite value appeared where the computation requires finite data."""


class SingularMatrixError(NumericError):
    """Sparse LU factorization failed on a singular matrix; the message is
    SuperLU's."""


class NewtonDivergedError(NumericError):
    """The nonlinear solve did not reach the residual tolerance."""

    def __init__(self, message, last_residual=float("nan"), iterations=0):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


class LineSearchError(FlowgradError):
    """The optimizer could not find an acceptable trial point."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DivergedParameterizationError(FlowgradError):
    """The coefficient model kept producing non-physical values."""


class ConfigError(ContractError):
    """An experiment configuration file failed validation."""
