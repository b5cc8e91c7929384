"""Exception types shared across the package, and the integer check that
raises one."""

import numbers


class HybridLvError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(HybridLvError, ValueError):
    """An argument is outside the documented domain of an operation."""


def require_integer(name: str, value) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` is an integer:
    any ``numbers.Integral`` (numpy integers included) but ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


class SingularSystemError(HybridLvError):
    """A batch of tridiagonal lines the line solver cannot factor: a zero or
    non-finite pivot, a row swap needed, or an overflowing scan product."""


class PdeBlowUpError(HybridLvError):
    """A time step left a non-finite or non-positive raw field mass."""

    def __init__(self, step: int, t: float, raw_mass: float):
        self.step = step
        self.t = t
        self.raw_mass = raw_mass
        kind = "non-positive" if raw_mass <= 0 else "non-finite"
        super().__init__(f"{kind} raw mass {raw_mass:.6g} at step {step} (t={t:.6g})")


class CalibrationError(HybridLvError):
    """A call surface yields no usable local variance.

    Raised by a single node read (no report) and by the bootstrap, which
    attaches the report of the maturities it finished.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class McAbortedError(HybridLvError):
    """The simulation cannot support the estimate: too many paths produced
    non-finite values, or a kernel-regression center got no weight."""


class ConfigError(HybridLvError):
    """Experiment configuration could not be parsed or validated."""
