"""Hybrid AMM with oracle-blended pricing: curve math, swaps, analytics, simulation.

The pool's marginal price mixes the internal reserve ratio with an external
oracle price through a single parameter z in [0, 1]; z = 0 recovers the
constant-product AMM and z = 1 pegs the pool to the oracle.  This package
provides the curve algebra, an exact swap engine, closed-form and simulated
impermanent-loss and slippage analytics, deterministic price-path generation,
a scenario simulator, and a CLI (``hybridamm``).
"""

from . import analytics, core, errors, oracle, simulator, swap
from .analytics import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .oracle import *  # noqa: F403
from .simulator import *  # noqa: F403
from .swap import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *core.__all__, *swap.__all__, *analytics.__all__,
           *oracle.__all__, *simulator.__all__]
