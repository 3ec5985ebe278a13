"""Exception types shared across the package."""


class ForwardYieldError(Exception):
    """Base class for all errors raised by this package."""


class SubspaceViolationError(ForwardYieldError, ValueError):
    """A coefficient vector lies outside its required subspace."""


class ConfigError(ForwardYieldError, ValueError):
    """An experiment configuration failed validation."""


class NumericalRangeError(ForwardYieldError, ValueError):
    """A simulated or closed-form quantity left the range of double
    precision, e.g. wealth underflowing to zero or a price overflowing."""
