"""Hybrid AMM with oracle-blended pricing: curve math, swaps, analytics, simulation.

The pool's marginal price mixes the internal reserve ratio with an external
oracle price through a single parameter z in [0, 1]; z = 0 recovers the
constant-product AMM and z = 1 pegs the pool to the oracle.  This package
provides the curve algebra, an exact swap engine, closed-form and simulated
impermanent-loss and slippage analytics, deterministic price-path generation,
a scenario simulator, and a CLI (``hybridamm``).
"""

from .analytics import (
    ILReport,
    SlippageEstimate,
    il_closed_form,
    il_simulated,
    il_standard_amm,
    normalized_taylor_coefficient,
    rebalance_to_oracle,
    slippage_exact,
    slippage_taylor,
)
from .core import (
    PoolState,
    anchor_k,
    d2y_dx2,
    dy_dx,
    max_x_bound,
    reserve_y,
    spot_price,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    HybridAmmError,
    InfeasibleTradeError,
    InsolvencyError,
    UnsupportedConfigurationError,
)
from .oracle import (
    GbmParams,
    PricePath,
    apply_oracle_update,
    constant_path,
    dump_price_csv,
    gbm_path,
    load_price_csv,
    schedule_path,
)
from .simulator import (
    METRICS_HEADER,
    NoiseParams,
    ScenarioConfig,
    ScenarioRun,
    load_scenario,
    run_scenario,
    sweep_reserve_curve,
)
from .swap import SwapResult, TradeDirection, swap_exact_in, swap_exact_out

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HybridAmmError", "DomainError", "InsolvencyError", "InfeasibleTradeError",
    "UnsupportedConfigurationError", "ConvergenceError", "ConfigError",
    # core
    "PoolState", "anchor_k", "reserve_y", "dy_dx", "d2y_dx2", "spot_price", "max_x_bound",
    # swap
    "TradeDirection", "SwapResult", "swap_exact_in", "swap_exact_out",
    # analytics
    "ILReport", "SlippageEstimate", "il_closed_form", "il_standard_amm", "il_simulated",
    "rebalance_to_oracle", "slippage_taylor", "slippage_exact", "normalized_taylor_coefficient",
    # oracle
    "PricePath", "GbmParams", "constant_path", "schedule_path", "gbm_path",
    "apply_oracle_update", "load_price_csv", "dump_price_csv",
    # simulator
    "NoiseParams", "ScenarioConfig", "ScenarioRun", "load_scenario",
    "run_scenario", "sweep_reserve_curve", "METRICS_HEADER",
]
