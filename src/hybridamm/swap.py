"""Swap execution against a hybrid AMM pool.

Directions are named from the trader's side: SELL_X pays X into the pool and
receives Y, SELL_Y the reverse.  Exact-in fixes the paid amount, exact-out the
received amount.  The reserve change on the other side is computed directly
from the trade, not as a difference of two points on the curve: Y moves by
``_kernels.delta_y``, and X moves by ``_kernels.solve_delta_x``, closed-form
at z = 0 and z = 1 and by Newton otherwise, so both keep their accuracy
relative to the trade itself.  Once a trade takes more than half of the
reserve it is paid from, what is left of that reserve is small next to the
delta and its rounding, so the new state is read from the curve instead:
the Y left at the new X for SELL_X exact-in, and the X at the new Y, by
bracketed bisection with a Newton polish, for SELL_Y exact-in and for
SELL_X exact-out with 0 < z < 1.  Exact-in trades go through
``_kernels.sell_x``/``sell_y``, the kernels the simulator's noise trades
use.  The trader-specified amount is conserved exactly in the resulting
state; the other amount is the difference of the stored reserves.
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
    k, p, z = state.k, state.p, state.z
    spot_before = _kernels.blend_spot(state.x, state.y, p, z)

    if direction is TradeDirection.SELL_X:
        if amount_in < _kernels.DUST_REL * state.x:
            raise DomainError(f"amount_in={amount_in} is dust below 1e-15 of the X reserve")
        bound = _kernels.solvency_bound(k, p, z)
        x_new = state.x + amount_in
        if x_new >= bound:
            raise InsolvencyError(
                f"selling {amount_in} X would exhaust the Y reserve "
                f"(max feasible amount_in {bound - state.x})",
                bound=bound,
                max_amount_in=bound - state.x,
            )
        y_new = _kernels.sell_x(state.x, state.y, p, z, k, amount_in)
        amount_out = state.y - y_new
        if amount_out <= 0.0:
            raise DomainError(f"amount_in={amount_in} is too small to move the curve")
        exec_price = amount_out / amount_in
        slippage = max(spot_before - exec_price, 0.0)
    else:
        if amount_in < _kernels.DUST_REL * state.y:
            raise DomainError(f"amount_in={amount_in} is dust below 1e-15 of the Y reserve")
        x_floor, capacity = _kernels.sell_y_capacity(state.x, state.y, p, z, k)
        if amount_in >= capacity:
            raise InsolvencyError(
                f"selling {amount_in} Y would exhaust the X reserve "
                f"(max feasible amount_in {capacity})",
                max_amount_in=capacity,
            )
        y_new = state.y + amount_in
        x_new = _kernels.sell_y(state.x, state.y, p, z, k, amount_in, x_floor)
        if math.isnan(x_new):
            raise _inversion_failed(state, y_new, x_floor, state.x)
        amount_out = state.x - x_new
        if amount_out <= 0.0:
            raise DomainError(f"amount_in={amount_in} is too small to move the curve")
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

