"""Local-volatility pricing and calibration with a Hull-White short rate.

The engine evolves the discounted joint density of (spot, rate) forward
with a two-sweep ADI scheme, prices European calls and the stochastic-rates
corrective terms by single-pass grid integration, and bootstraps local-vol
surfaces maturity by maturity. Closed-form constant-vol results and a
Monte Carlo simulator (:mod:`hybridlv.montecarlo`, not imported here: it is
the one module that loads scipy) serve as independent cross-checks.
"""

from .analytic import (
    BshwMoments,
    PriceAndGreeks,
    analytic_pz,
    analytic_z,
    bshw_call,
    bshw_moments,
)
from .calibration import (
    CalibrationResult,
    CalibrationSettings,
    CallSurface,
    CorrectiveTermCurve,
    calibrate,
    corrective_terms,
    dupire_vol,
    local_vol_stochastic_rates,
    make_analytic_surface,
    price_calls_from_pz,
)
from .models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    HyperbolicVol,
    SurfaceVol,
    forward_rate,
    sde_coefficients,
    zc_price,
)
from .pde import (
    AdiCoefficients,
    Field2D,
    Grid2D,
    auto_grid,
    build_coefficients,
    evolve,
    short_time_start,
)
from .version import __version__
