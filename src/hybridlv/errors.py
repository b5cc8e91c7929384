"""Exception types shared across the package."""


class HybridLvError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(HybridLvError, ValueError):
    """An argument is outside the documented domain of an operation."""


class SingularCovarianceError(HybridLvError):
    """Conditioning covariance is numerically singular."""


class SingularSystemError(HybridLvError):
    """A tridiagonal system is singular or met a non-finite pivot."""


class PdeBlowUpError(HybridLvError):
    """A time step left a non-finite or non-positive raw field mass."""

    def __init__(self, step: int, t: float, raw_mass: float):
        self.step = step
        self.t = t
        self.raw_mass = raw_mass
        kind = "non-positive" if raw_mass <= 0 else "non-finite"
        super().__init__(f"{kind} raw mass {raw_mass:.6g} at step {step} (t={t:.6g})")


class ButterflyDegenerateError(HybridLvError):
    """Strike convexity of the price surface is below the usable floor."""

    def __init__(self, maturity: float, strike: float, c_kk: float):
        self.maturity = maturity
        self.strike = strike
        self.c_kk = c_kk
        super().__init__(
            f"butterfly value {c_kk:.3e} at (T={maturity:.6g}, K={strike:.6g}) "
            "is below the usable floor"
        )


class NegativeVarianceError(HybridLvError):
    """A local-variance evaluation came out negative."""

    def __init__(self, maturity, strike, dupire_var, adjustment, c_kk):
        self.maturity = maturity
        self.strike = strike
        self.dupire_var = dupire_var
        self.adjustment = adjustment
        self.c_kk = c_kk
        super().__init__(
            f"negative local variance at (T={maturity:.6g}, K={strike:.6g}): "
            f"dupire_var={dupire_var:.6e}, adj={adjustment:.6e}, c_kk={c_kk:.6e}"
        )


class CalibrationError(HybridLvError):
    """Bootstrap calibration failed; carries the per-maturity report."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class McAbortedError(HybridLvError):
    """Too many simulated paths produced non-finite values."""


class NoDataError(HybridLvError):
    """A kernel-regression center received zero total weight."""


class ConfigError(HybridLvError):
    """Experiment configuration could not be parsed or validated."""
