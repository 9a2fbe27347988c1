"""Impermanent-loss and slippage analytics.

Valuation convention: asset X is the numeraire, so a position (x, y) at
oracle price p (Y per X... p is the price of X in Y) is worth x + y/p units
of X.  Impermanent loss compares a pool rebalanced to a new oracle price
against simply holding the initial reserves.

With rho = p0/p1 and a pool balanced at p0 with x0 = y0/p0:

    v_pool = 2 * rho**(1/(2-z))          (per unit x0)
    v_hold = 1 + rho
    il_paper = v_hold - v_pool = 1 + rho - 2*rho**(1/(2-z))

Slippage for an infinitesimal trade dx is 1/2 * y''(x) * dx (trader cost,
nonnegative); the tests cross-check it against the algebraically expanded
form 1/2 * dx*(z-2)/x * (dy/dx + z*p/(2-z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .core import (PoolState, _check_finite_positive, _check_mix, _check_residual,
                   _check_solvent, _new, _past_range, reserve_y)
from .errors import DomainError, UnsupportedConfigurationError
from .swap import _SELL_Y, SwapResult, TradeDirection, swap_exact_in

__all__ = [
    "ILReport",
    "SlippageEstimate",
    "il_closed_form",
    "il_simulated",
    "rebalance_to_oracle",
    "slippage_taylor",
    "slippage_exact",
]


def _rho_power(rho: float, z: float) -> float:
    # rho**(1/(2-z)); exp/log keeps rho = 1 exact so IL vanishes identically
    return math.exp(math.log(rho) / (2.0 - z))


@dataclass(frozen=True)
class ILReport:
    """Impermanent loss of one price move, in X-units per unit of initial x.

    ``il_paper`` is v_hold - v_pool (positive means the LP underperforms
    holding); ``il_relative`` normalizes by v_hold.  Near z = 1 with rho
    past about 9e307, 2*rho**(1/(2-z)) overflows: ``v_pool`` is then inf,
    while ``il_paper`` and ``il_relative`` stay finite.
    """

    z: float
    rho: float
    v_pool: float
    v_hold: float
    il_paper: float
    il_relative: float


def il_closed_form(z: float, rho: float) -> ILReport:
    """Closed-form impermanent loss for a pool balanced at p0, moved to p1 = p0/rho."""
    z = _check_mix(z)
    rho = _check_finite_positive(rho, "rho")
    power = _rho_power(rho, z)
    v_pool = 2.0 * power
    v_hold = 1.0 + rho
    # near z = 1, 2*power overflows for rho past about 9e307, while power and the loss do not
    il = v_hold - v_pool if v_pool < math.inf else (1.0 - power) + (rho - power)
    return _il_report(z, rho, v_pool, v_hold, il)


def _il_report(z: float, rho: float, v_pool: float, v_hold: float, il: float) -> ILReport:
    """The report, built in place as ``core.PoolState.anchored`` builds a state."""
    report = _new(ILReport)
    fields = report.__dict__
    fields["z"] = z
    fields["rho"] = rho
    fields["v_pool"] = v_pool
    fields["v_hold"] = v_hold
    fields["il_paper"] = il
    fields["il_relative"] = il / v_hold
    return report


def rebalance_to_oracle(state: PoolState, p_new: float) -> PoolState:
    """Move along the pool's existing curve to the point where spot == p_new.

    The curve constant is kept fixed; only the oracle input to the blend
    changes.  Undefined at z = 1, where the quoted price is p everywhere on
    the line and no finite rebalancing point exists.
    """
    p_new = _check_finite_positive(p_new, "p_new")
    x, y = _rebalance(state.x, state.y, state.p, state.z, p_new)
    rebalanced = _new(PoolState)
    fields = rebalanced.__dict__
    fields["x"] = x
    fields["y"] = y
    fields["p"] = p_new
    fields["z"] = state.z
    fields["k"] = state.k
    return rebalanced


def _rebalance(x: float, y: float, p: float, z: float, p_new: float) -> tuple[float, float]:
    """Checked reserves where the spot price is p_new, on the curve through (x, y) at
    oracle price p with its k kept: x* from ``_kernels.arb_target_x``, and y* = p_new*x*."""
    if z == 1.0:
        raise UnsupportedConfigurationError(
            "rebalance_to_oracle is undefined at z = 1: the curve quotes the oracle "
            "price at every point"
        )
    x_star = _check_finite_positive(_kernels.arb_target_x(x, y, p, z, p_new), "x")
    return x_star, _check_finite_positive(p_new * x_star, "y")


def il_simulated(x0: float, p0: float, p1: float, z: float) -> ILReport:
    """Impermanent loss measured by actually rebalancing a balanced pool.

    Builds the pool with y0 = p0*x0, rebalances its curve to p1, and values
    both the pool and the held reserves at p1.  Agrees with
    :func:`il_closed_form` at rho = p0/p1 up to rounding.
    """
    x0 = _check_finite_positive(x0, "x0")
    p0 = _check_finite_positive(p0, "p0")
    p1 = _check_finite_positive(p1, "p1")
    z = _check_mix(z)
    y0 = _check_finite_positive(p0 * x0, "y")
    # as PoolState.anchored, with no state built
    power = _kernels.pow_zm1(x0, z)
    linear = z * p0 * x0 / (2.0 - z)
    k = (y0 + linear) / power
    if k == 0.0 and power == math.inf:
        raise _past_range(x0, z)
    _check_residual(x0, y0, p0, z, _check_finite_positive(k, "k"), power, linear)
    x1, y1 = _rebalance(x0, y0, p0, z, p1)
    v_pool = (x1 + y1 / p1) / x0
    v_hold = (x0 + y0 / p1) / x0
    return _il_report(z, p0 / p1, v_pool, v_hold, v_hold - v_pool)


@dataclass(frozen=True)
class SlippageEstimate:
    """First-order slippage prediction for a trade of ``trade_size`` X.

    ``taylor_second_derivative_form`` is 1/2*y''(x)*dx; ``exact`` (when
    present) is the realized slippage of the full swap.  Both are
    nonnegative trader costs.
    """

    trade_size: float
    taylor_second_derivative_form: float
    exact: float | None = None


def _estimate(dx: float, taylor: float, exact: float | None) -> SlippageEstimate:
    """The estimate, built in place as ``core.PoolState.anchored`` builds a state."""
    estimate = _new(SlippageEstimate)
    fields = estimate.__dict__
    fields["trade_size"] = dx
    fields["taylor_second_derivative_form"] = taylor
    fields["exact"] = exact
    return estimate


def _taylor(state: PoolState, dx: float) -> float:
    # 1/2*y''*dx at the pool's x, y'' = (1-z)*(2-z)*((y + c*x)/x)/x: times dx/x, no x*x
    x, y, z = state.x, state.y, state.z
    c = z * state.p / (2.0 - z)
    return 0.5 * (1.0 - z) * (2.0 - z) * ((y + c * x) / x) * (dx / x)


def slippage_taylor(state: PoolState, dx: float) -> SlippageEstimate:
    """Second-order Taylor prediction of trader slippage for buying with dx of X."""
    dx = _check_finite_positive(dx, "dx")
    x_new = state.x + dx
    if x_new == math.inf:
        raise DomainError(f"x + dx overflows: {state.x} + {dx} is past double range")
    reserve_y(state, x_new)   # insolvency check of x + dx >= x
    return _estimate(dx, _taylor(state, dx), None)


def slippage_exact(state: PoolState, direction: TradeDirection,
                   amount_in: float) -> SlippageEstimate:
    """Taylor prediction alongside the realized slippage of the actual swap.

    The Taylor expansion works in X displacement, so for SELL_Y trades the
    prediction is evaluated at the realized X output.
    """
    result: SwapResult = swap_exact_in(state, direction, amount_in)
    if result.direction is _SELL_Y:
        _check_solvent(state, state.x)   # a SELL_X swap has checked x + dx < bound
        dx = result.amount_out
    else:
        dx = amount_in
    return _estimate(dx, _taylor(state, dx), result.slippage_cost)

