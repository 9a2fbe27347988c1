"""Swap execution against a hybrid AMM pool.

Directions are named from the trader's side: SELL_X pays X into the pool and
receives Y, SELL_Y the reverse.  Exact-in fixes the paid amount, exact-out the
received amount.  Reserve changes come from the trade itself, not from
differences of curve points: Y moves by ``_kernels.delta_y`` and X by
``_kernels.solve_delta_x``, so both keep their accuracy relative to the
trade.  A trade that takes more than half of the reserve it is paid from
reads the new state from the curve instead.

Exact-in trades run through ``_kernels.trade_in``, which also runs the
simulator's noise trades; its reason codes ``DUST`` and ``NO_MOVE`` become a
``DomainError`` and ``NO_ROOT`` a ``ConvergenceError``.  The trader-specified
amount is conserved exactly in the resulting state; the other amount is the
difference of the stored reserves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _kernels
from .core import PoolState, _check_finite_positive
from .errors import (
    ConvergenceError,
    DomainError,
    InfeasibleTradeError,
    InsolvencyError,
)

__all__ = ["TradeDirection", "SwapResult", "swap_exact_in", "swap_exact_out"]

# exact-out must leave strictly positive reserves; margin keeps the inversion bracketable
_EXACT_OUT_MARGIN = 1.0 - 1e-12


class TradeDirection(enum.Enum):
    """Trader's action: which asset is paid into the pool."""

    SELL_X = "sell-x"
    SELL_Y = "sell-y"


@dataclass(frozen=True)
class SwapResult:
    """Outcome of one swap: amounts, realized pricing, and the post-trade state.

    ``exec_price`` is the average Y-per-X price actually paid;
    ``slippage_cost`` is the trader's cost against the pre-trade marginal
    price (spot_before - exec_price when selling X, exec_price - spot_before
    when selling Y) and is never negative.
    """

    direction: TradeDirection
    amount_in: float
    amount_out: float
    exec_price: float
    spot_before: float
    spot_after: float
    slippage_cost: float
    new_state: PoolState

    def __post_init__(self):
        for name in ("amount_in", "amount_out", "exec_price", "spot_before"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"swap produced non-finite or non-positive {name}: {value!r}")
        # near the solvency bound at subnormal z the true spot_after can lie
        # below the smallest subnormal and round to 0
        if not (math.isfinite(self.spot_after) and self.spot_after >= 0.0):
            raise DomainError(f"swap produced non-finite or negative spot_after: {self.spot_after!r}")
        if not (math.isfinite(self.slippage_cost) and self.slippage_cost >= 0.0):
            raise DomainError(f"swap produced invalid slippage_cost: {self.slippage_cost!r}")


def _inversion_failed(state: PoolState, y_target: float, lo: float, hi: float) -> ConvergenceError:
    return ConvergenceError(
        f"curve inversion failed for y={y_target} on (k={state.k}, p={state.p}, "
        f"z={state.z}) over [{lo}, {hi}]"
    )


def swap_exact_in(state: PoolState, direction: TradeDirection, amount_in: float) -> SwapResult:
    """Execute a swap paying exactly ``amount_in`` of the sold asset.

    Raises InsolvencyError (with the maximum feasible input attached) when the
    trade would exhaust the output reserve, and DomainError for dust inputs
    below 1e-15 of the input-side reserve.
    """
    direction = TradeDirection(direction)
    amount_in = _check_finite_positive(amount_in, "amount_in")
    x, y, k, p, z = state.x, state.y, state.k, state.p, state.z
    sell_y = direction is TradeDirection.SELL_Y
    sold, other = ("Y", "X") if sell_y else ("X", "Y")
    x_new, y_new, amount_out, slippage, reason = _kernels.trade_in(x, y, p, z, k, sell_y, amount_in)
    # dust is reported before insolvency; an insolvent trade's result is discarded
    if reason == _kernels.DUST:
        raise DomainError(f"amount_in={amount_in} is dust below 1e-15 of the {sold} reserve")
    if sell_y:
        bound = None
        max_in = _kernels.headroom(x, y, p, z, k, True)
        insolvent = amount_in >= max_in
    else:
        bound = _kernels.solvency_bound(k, p, z)
        max_in = bound - x
        insolvent = x + amount_in >= bound
    if insolvent:
        raise InsolvencyError(
            f"selling {amount_in} {sold} would exhaust the {other} reserve "
            f"(max feasible amount_in {max_in})",
            bound=bound,
            max_amount_in=max_in,
        )
    if reason == _kernels.NO_MOVE:
        raise DomainError(f"amount_in={amount_in} is too small to move the curve")
    if reason == _kernels.NO_ROOT:
        raise _inversion_failed(state, y + amount_in, _kernels.X_FLOOR_REL * x, x)

    return SwapResult(
        direction=direction,
        amount_in=amount_in,
        amount_out=amount_out,
        exec_price=amount_in / amount_out if sell_y else amount_out / amount_in,
        spot_before=_kernels.blend_spot(x, y, p, z),
        spot_after=_kernels.blend_spot(x_new, y_new, p, z),
        slippage_cost=slippage,
        new_state=PoolState(x_new, y_new, p, z, k),
    )


def swap_exact_out(state: PoolState, direction: TradeDirection, amount_out: float) -> SwapResult:
    """Execute a swap receiving exactly ``amount_out`` of the bought asset.

    The returned ``amount_in`` is the unique input for which
    :func:`swap_exact_in` reproduces ``amount_out``.  Raises
    InfeasibleTradeError (with the maximum payable amount attached) when the
    request reaches or exceeds the available reserve.
    """
    direction = TradeDirection(direction)
    amount_out = _check_finite_positive(amount_out, "amount_out")
    k, p, z = state.k, state.p, state.z
    spot_before = _kernels.blend_spot(state.x, state.y, p, z)

    if direction is TradeDirection.SELL_X:
        # trader receives Y
        if amount_out >= state.y * _EXACT_OUT_MARGIN:
            raise InfeasibleTradeError(
                f"cannot pay out {amount_out} Y from a reserve of {state.y}",
                max_amount_out=state.y * _EXACT_OUT_MARGIN,
            )
        y_new = state.y - amount_out
        if amount_out <= 0.5 * state.y or z == 0.0 or z == 1.0:
            dx = _kernels.solve_delta_x(state.x, state.y, p, z, -amount_out)
        else:
            dx = math.nan
        if not math.isnan(dx):
            x_new = state.x + dx
        else:
            # past half of Y the solver meets the delta, not the small y_new,
            # to its rounding, so x_new is read from the curve
            hi = _kernels.solvency_bound(k, p, z) * (1.0 - 1e-15)
            if _kernels.curve_y(k, hi, p, z) > y_new:
                raise InfeasibleTradeError(
                    f"paying out {amount_out} Y would land beyond numerical resolution "
                    f"of the solvency bound",
                    max_amount_out=state.y - _kernels.curve_y(k, hi, p, z),
                )
            x_new = _kernels.invert_curve(k, p, z, y_new, state.x, hi)
            if math.isnan(x_new):
                raise _inversion_failed(state, y_new, state.x, hi)
        amount_in = x_new - state.x
        if amount_in <= 0.0:
            raise DomainError(f"amount_out={amount_out} is too small to move the curve")
        exec_price = amount_out / amount_in
        slippage = max(spot_before - exec_price, 0.0)
    else:
        # trader receives X
        if amount_out >= state.x * _EXACT_OUT_MARGIN:
            raise InfeasibleTradeError(
                f"cannot pay out {amount_out} X from a reserve of {state.x}",
                max_amount_out=state.x * _EXACT_OUT_MARGIN,
            )
        x_new = state.x - amount_out
        y_new = state.y + _kernels.delta_y(state.x, state.y, p, z, -amount_out)
        amount_in = y_new - state.y
        if amount_in <= 0.0:
            raise DomainError(f"amount_out={amount_out} is too small to move the curve")
        exec_price = amount_in / amount_out
        slippage = max(exec_price - spot_before, 0.0)

    new_state = PoolState(x_new, y_new, p, z, k)
    return SwapResult(
        direction=direction,
        amount_in=amount_in,
        amount_out=amount_out,
        exec_price=exec_price,
        spot_before=spot_before,
        spot_after=_kernels.blend_spot(x_new, y_new, p, z),
        slippage_cost=slippage,
        new_state=new_state,
    )

