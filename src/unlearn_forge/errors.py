"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, DomainError -> 3,
SolverError -> 4.
"""


class UnlearnForgeError(Exception):
    """Base class for all package errors."""


class ConfigError(UnlearnForgeError):
    """Malformed or inconsistent configuration input."""


class DomainError(UnlearnForgeError):
    """Inputs outside the mathematical domain of an operation."""


class DimensionError(DomainError):
    """Shape or dimension mismatch between arrays."""


class ModelFileError(ConfigError, DomainError):
    """A model file that describes no valid ``Model``: an input file to fix, so
    a config error (exit 2), carrying the DomainError of building the Model."""


class SolverError(UnlearnForgeError):
    """A linear solve failed to reach the required residual."""


class UnsupportedModelError(DomainError):
    """Operation requires a model kind it does not support (e.g. exact Hessian on an MLP)."""


class StratificationError(DomainError):
    """A stratified split cannot give every class at least one forget row."""
