"""Exception types shared across the package."""


class ConsensusLabError(Exception):
    """Base class for every error raised by consensuslab."""


class ConfigurationError(ConsensusLabError):
    """Bad input: weight matrices, times past a horizon, grids, edge orders,
    noise windows, scenario fields (CLI exit code 2)."""


class NegativeLinkError(ConsensusLabError):
    """A Laplacian violates the positive-semidefiniteness requirement.

    Carries the offending eigenvalue (and segment index, when known).
    """

    def __init__(self, message, eigenvalue=None, segment=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.segment = segment


class UnobservableWindowError(ConsensusLabError):
    """Observability Gramian is numerically singular on the window."""

    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min
