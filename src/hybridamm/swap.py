"""Swap execution against a hybrid AMM pool.

Directions are named from the trader's side: SELL_X pays X into the pool and
receives Y, SELL_Y the reverse.  Exact-in fixes the paid amount, exact-out the
received amount.  Both run one body around ``_kernels.trade``, which also
runs every trade of the simulator.  Reserve changes come from the trade
itself, not from differences of curve points: Y moves by ``_kernels.delta_y``
and X by ``_kernels.solve_delta_x``, so both keep their accuracy relative to
the trade.  A trade that takes more than half of the reserve it is paid from
reads the new state from the curve instead.

Who checks what: ``_swap`` checks the amount, the new reserves and that
they lie on the curve.  It then builds the new state and the result in
place, as ``PoolState.anchored`` builds a state: ``core._new``, then one
store per field into the instance ``__dict__``, in declaration order, with
no ``__init__``.  Last it runs ``SwapResult._check`` on the result, the field
check that the public ``SwapResult(...)`` runs from ``__post_init__``.  The
pool's own fields were checked when it was built and are not checked again.

The reason codes of ``trade`` become exceptions: ``DUST`` and ``NO_MOVE`` a
``DomainError``, ``PAST_BOUND`` an ``InfeasibleTradeError`` and ``NO_ROOT`` a
``ConvergenceError``.  Exact-in also raises ``InsolvencyError`` at or past
``_kernels.headroom``, and exact-out ``InfeasibleTradeError`` for a request
that reaches ``_EXACT_OUT_MARGIN`` of the reserve it is paid from, before
pricing.  The trader-specified amount is conserved exactly in the resulting
state; the other amount is the difference of the stored reserves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _kernels
from .core import PoolState, _check_finite_positive, _check_residual, _new
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


# a module global is read faster than an enum member through its class
_SELL_Y = TradeDirection.SELL_Y


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

    def _check(self):
        # spot_after may round to 0 near the solvency bound at subnormal z
        if not (0.0 < self.amount_in < math.inf and 0.0 < self.amount_out < math.inf
                and 0.0 < self.exec_price < math.inf and 0.0 < self.spot_before < math.inf
                and 0.0 <= self.spot_after < math.inf and 0.0 <= self.slippage_cost < math.inf):
            for name in ("amount_in", "amount_out", "exec_price", "spot_before"):
                value = getattr(self, name)
                if not 0.0 < value < math.inf:
                    raise DomainError(f"swap produced non-finite or non-positive {name}: {value!r}")
            if not 0.0 <= self.spot_after < math.inf:
                raise DomainError(f"swap produced non-finite or negative spot_after: {self.spot_after!r}")
            raise DomainError(f"swap produced invalid slippage_cost: {self.slippage_cost!r}")
        return self

    __post_init__ = _check


def swap_exact_in(state: PoolState, direction: TradeDirection, amount_in: float) -> SwapResult:
    """Execute a swap paying exactly ``amount_in`` of the sold asset.

    Raises InsolvencyError (with the maximum feasible input attached) when the
    trade would exhaust the output reserve, and DomainError for dust inputs
    below 1e-15 of the input-side reserve, or where x + amount_in overflows
    on a curve whose solvency bound is past double range (the z = 0 hyperbola
    has none).
    """
    return _swap(state, direction, amount_in, False)


def swap_exact_out(state: PoolState, direction: TradeDirection, amount_out: float) -> SwapResult:
    """Execute a swap receiving exactly ``amount_out`` of the bought asset.

    The returned ``amount_in`` is the unique input for which
    :func:`swap_exact_in` reproduces ``amount_out``.  Raises
    InfeasibleTradeError (with the maximum payable amount attached) when the
    request reaches or exceeds the available reserve.
    """
    return _swap(state, direction, amount_out, True)


def _swap(state: PoolState, direction: TradeDirection, amount: float, exact_out: bool) -> SwapResult:
    if direction.__class__ is not TradeDirection:   # a wire name such as "sell-x"
        direction = TradeDirection(direction)
    amount = _check_finite_positive(amount, "amount_out" if exact_out else "amount_in")
    x, y, k, p, z = state.x, state.y, state.k, state.p, state.z
    sell_y = direction is _SELL_Y
    if exact_out:
        reserve = x if sell_y else y
        if amount >= reserve * _EXACT_OUT_MARGIN:
            raise InfeasibleTradeError(
                f"cannot pay out {amount} {'X' if sell_y else 'Y'} from a reserve of {reserve}",
                max_amount_out=reserve * _EXACT_OUT_MARGIN,
            )
    x_new, y_new, amount_in, amount_out, slippage, reason = _kernels.trade(
        x, y, p, z, k, sell_y, amount, exact_out)
    # dust is reported before insolvency; an insolvent trade's result is discarded
    if reason == _kernels.DUST:
        raise DomainError(f"amount_in={amount} is dust below 1e-15 of the "
                          f"{'Y' if sell_y else 'X'} reserve")
    if not exact_out:
        if sell_y:
            bound = None
            max_in = _kernels.headroom(x, y, p, z, k, True)
            insolvent = amount >= max_in
        else:
            bound = _kernels.solvency_bound(k, p, z)
            max_in = bound - x
            insolvent = x + amount >= bound
        if insolvent:
            if bound == math.inf:   # no bound in double range: x + amount overflows
                raise DomainError(f"x + amount_in overflows: {x} + {amount} is past double range")
            sold, bought = ("Y", "X") if sell_y else ("X", "Y")
            raise InsolvencyError(
                f"selling {amount} {sold} would exhaust the {bought} reserve "
                f"(max feasible amount_in {max_in})",
                bound=bound,
                max_amount_in=max_in,
            )
    if reason == _kernels.NO_MOVE:
        raise DomainError(f"{'amount_out' if exact_out else 'amount_in'}={amount} "
                          f"is too small to move the curve")
    if reason != _kernels.EXECUTED:
        # only the Y-fixed trades invert the curve: SELL_Y in, SELL_X out
        lo, hi = ((_kernels.X_FLOOR_REL * x, x) if sell_y
                  else (x, _kernels.solvency_bound(k, p, z) * _kernels.BOUND_REL))
        if reason == _kernels.PAST_BOUND:
            raise InfeasibleTradeError(
                f"paying out {amount} Y would land beyond numerical resolution "
                f"of the solvency bound",
                max_amount_out=y - _kernels.curve_y(k, hi, p, z),
            )
        raise ConvergenceError(
            f"curve inversion failed for y={y + amount if sell_y else y - amount} on "
            f"(k={k}, p={p}, z={z}) over [{lo}, {hi}]"
        )

    x_new, y_new = _check_finite_positive(x_new, "x"), _check_finite_positive(y_new, "y")
    # where k or the spot price is subnormal, the trade and the curve round apart
    _check_residual(x_new, y_new, p, z, k, _kernels.pow_zm1(x_new, z), z * p * x_new / (2.0 - z))
    new_state = _new(PoolState)
    fields = new_state.__dict__
    fields["x"] = x_new
    fields["y"] = y_new
    fields["p"] = p
    fields["z"] = z
    fields["k"] = k
    # built without __init__, then checked as the public constructor checks it;
    # the spot prices are _kernels.blend_spot, inlined
    result = _new(SwapResult)
    fields = result.__dict__
    fields["direction"] = direction
    fields["amount_in"] = amount_in
    fields["amount_out"] = amount_out
    fields["exec_price"] = amount_in / amount_out if sell_y else amount_out / amount_in
    fields["spot_before"] = (1.0 - z) * (y / x) + z * p
    fields["spot_after"] = (1.0 - z) * (y_new / x_new) + z * p
    fields["slippage_cost"] = slippage
    fields["new_state"] = new_state
    return result._check()
