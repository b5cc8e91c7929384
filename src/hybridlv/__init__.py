"""Local-volatility pricing and calibration with a Hull-White short rate.

The engine evolves the discounted joint density of (spot, rate) forward
with a two-sweep ADI scheme (:mod:`hybridlv.pde`), prices European calls
and the stochastic-rates corrective terms by single-pass grid integration
and bootstraps local-vol surfaces maturity by maturity
(:mod:`hybridlv.calibration`). Closed-form constant-vol results
(:mod:`hybridlv.analytic`) and a Monte Carlo simulator
(:mod:`hybridlv.montecarlo`) serve as independent cross-checks.

The package binds only ``__version__``: each public name lives in its
module's ``__all__``, so importing one module loads only what it imports.
"""

from .version import __version__
