"""Swap engine: exact-in, exact-out, quoting, conservation, solvency."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hybridamm as ha
from hybridamm import _kernels
from hybridamm.swap import TradeDirection

SELL_X = TradeDirection.SELL_X
SELL_Y = TradeDirection.SELL_Y

# mpmath (50 digits): unit pool, z=0.5, k=4/3, SellX dx=0.1
OUT_REF = 0.095383214339210246071
EXEC_REF = 0.95383214339210246071
SLIP_REF = 0.04616785660789753929

reserves = st.floats(min_value=0.1, max_value=10.0)
prices = st.floats(min_value=0.1, max_value=10.0)
mixes = st.floats(min_value=0.0, max_value=1.0)
# dx as a fraction of x: the closed-form comparisons lose ~eps*x/dx to
# cancellation, so dust-sized fractions cannot meet tight tolerances
fractions = st.floats(min_value=1e-3, max_value=0.5)


def unit_pool(z: float, p: float = 1.0) -> ha.PoolState:
    return ha.PoolState.anchored(1.0, 1.0, p, z)


def max_amount_in(state: ha.PoolState, direction: TradeDirection) -> float:
    """Largest input the tests may draw: capped by reserve and solvency headroom."""
    if direction is SELL_X:
        bound = _kernels.solvency_bound(state.k, state.p, state.z)
        if math.isinf(bound):
            return state.x
        return min(state.x, 0.9 * (bound - state.x))
    y_cap = _kernels.curve_y(state.k, _kernels.X_FLOOR_REL * state.x, state.p, state.z)
    return min(state.y, 0.9 * (y_cap - state.y))


def test_constant_product_sell_x():
    result = ha.swap_exact_in(unit_pool(0.0), SELL_X, 1.0)
    assert result.amount_out == pytest.approx(0.5, rel=1e-15)
    assert result.exec_price == pytest.approx(0.5, rel=1e-15)
    assert result.spot_before == 1.0
    assert result.new_state.x == 2.0


def test_oracle_pegged_trade_has_zero_slippage():
    result = ha.swap_exact_in(unit_pool(1.0), SELL_X, 0.5)
    assert result.amount_out == pytest.approx(0.5, rel=1e-13)
    assert result.exec_price == pytest.approx(1.0, rel=1e-13)
    assert result.slippage_cost <= 1e-12


def test_half_mix_sell_x_reference():
    result = ha.swap_exact_in(unit_pool(0.5), SELL_X, 0.1)
    assert result.amount_out == pytest.approx(OUT_REF, rel=1e-12)
    assert result.exec_price == pytest.approx(EXEC_REF, rel=1e-12)
    assert result.slippage_cost == pytest.approx(SLIP_REF, rel=1e-12)


def test_exact_out_inverts_reference_trades():
    assert ha.swap_exact_out(unit_pool(0.0), SELL_X, 0.5).amount_in == pytest.approx(1.0, rel=1e-10)
    assert ha.swap_exact_out(unit_pool(1.0), SELL_X, 0.25).amount_in == pytest.approx(0.25, rel=1e-10)
    assert ha.swap_exact_out(unit_pool(0.5), SELL_X, OUT_REF).amount_in == pytest.approx(0.1, rel=1e-10)


@given(x=reserves, y=reserves, p=prices, z=mixes, frac=fractions,
       direction=st.sampled_from([SELL_X, SELL_Y]))
# z -> 1: an amount_out taken as y - curve_y(x + dx) cancels and misses the peg
@example(x=3.0, y=1.0, p=6.0, z=1.0, frac=0.001, direction=SELL_X)
@example(x=3.0, y=1.0, p=3.0, z=0.9999999999999999, frac=0.001, direction=SELL_X)
@example(x=3.0, y=1.0, p=3.0, z=1.0, frac=0.001, direction=SELL_X)
# a large output reserve next to the trade: only the resolution term admits these
@example(x=0.1, y=9.0, p=2.875, z=1.0, frac=0.001953125, direction=SELL_X)
@example(x=1.0, y=0.125, p=3.0, z=1.0, frac=0.001, direction=SELL_Y)
@example(x=3.0, y=1.0, p=6.0, z=1.0, frac=0.001, direction=SELL_Y)
def test_exact_in_accounting(x, y, p, z, frac, direction):
    state = ha.PoolState.anchored(x, y, p, z)
    amount_in = frac * max_amount_in(state, direction)
    result = ha.swap_exact_in(state, direction, amount_in)

    # conservation is bitwise: the trader-fixed side is stored unchanged and
    # amounts are differences of stored reserves.  A difference of stored
    # reserves resolves amount_out only to half an ulp of the output reserve,
    # so the price bound admits that on top of 1e-12.
    if direction is SELL_X:
        assert result.new_state.x == x + amount_in
        assert result.amount_out == y - result.new_state.y
        resolution = 0.5 * math.ulp(y) / result.amount_out
        assert result.exec_price <= result.spot_before * (1.0 + 1e-12 + resolution)
    else:
        assert result.new_state.y == y + amount_in
        assert result.amount_out == x - result.new_state.x
        resolution = 0.5 * math.ulp(x) / result.amount_out
        assert result.exec_price >= result.spot_before * (1.0 - 1e-12 - resolution)

    assert result.amount_out > 0.0
    assert result.slippage_cost >= 0.0
    assert (result.new_state.k, result.new_state.p, result.new_state.z) == (state.k, p, z)


@given(x=st.floats(0.5, 2.0), y=st.floats(0.5, 2.0), p=st.floats(0.5, 2.0),
       frac=st.floats(0.05, 0.5), direction=st.sampled_from([SELL_X, SELL_Y]))
def test_pegged_pool_executes_at_oracle(x, y, p, frac, direction):
    # z=1: linear curve, execution price is the oracle price for any size
    state = ha.PoolState.anchored(x, y, p, 1.0)
    amount_in = frac * max_amount_in(state, direction)
    result = ha.swap_exact_in(state, direction, amount_in)
    assert result.slippage_cost <= 1e-12
    assert result.exec_price == pytest.approx(p, rel=1e-12)


@given(x=reserves, y=reserves, p=prices, frac=fractions)
def test_z0_matches_constant_product_closed_form(x, y, p, frac):
    dx = frac * x
    result = ha.swap_exact_in(ha.PoolState.anchored(x, y, p, 0.0), SELL_X, dx)
    assert result.amount_out == pytest.approx(y * dx / (x + dx), rel=1e-12)


@given(x=reserves, y=reserves, p=prices, z=mixes, frac=fractions,
       split=st.floats(min_value=0.1, max_value=0.9))
def test_path_independence(x, y, p, z, frac, split):
    state = ha.PoolState.anchored(x, y, p, z)
    dx = frac * max_amount_in(state, SELL_X)
    whole = ha.swap_exact_in(state, SELL_X, dx).new_state
    first = ha.swap_exact_in(state, SELL_X, dx * split).new_state
    second = ha.swap_exact_in(first, SELL_X, dx * (1.0 - split)).new_state
    assert second.x == pytest.approx(whole.x, rel=1e-10)
    assert second.y == pytest.approx(whole.y, rel=1e-10)


@given(x=reserves, y=reserves, p=prices, z=mixes, frac=fractions)
def test_round_trip_returns_reserves(x, y, p, z, frac):
    state = ha.PoolState.anchored(x, y, p, z)
    out_leg = ha.swap_exact_in(state, SELL_X, frac * max_amount_in(state, SELL_X))
    back_leg = ha.swap_exact_in(out_leg.new_state, SELL_Y, out_leg.amount_out)
    assert back_leg.new_state.x == pytest.approx(x, rel=1e-9)
    assert back_leg.new_state.y == pytest.approx(y, rel=1e-9)


@given(x=reserves, y=reserves, p=prices, z=mixes, frac=fractions,
       direction=st.sampled_from([SELL_X, SELL_Y]))
# subnormal z: (2-z)k/(zp) overflows, and a solvency bound taken from it is inf
@example(x=1.0, y=1.0, p=0.5, z=5e-324, frac=0.5, direction=SELL_X)
@example(x=1.0, y=1.0, p=1.0, z=5e-324, frac=0.5, direction=SELL_X)
@example(x=1.0, y=1.0, p=2.0, z=5e-324, frac=0.5, direction=SELL_X)
@example(x=1.0, y=1.0, p=0.5, z=2.2e-308, frac=0.5, direction=SELL_X)
# X paid out down to 1e-6 of the reserve: log1p(dx/x) magnifies the rounding of dx/x
@example(x=1.087979246554811, y=4.0, p=0.125, z=0.97265625, frac=0.5, direction=SELL_Y)
def test_exact_out_reproduces_exact_in(x, y, p, z, frac, direction):
    state = ha.PoolState.anchored(x, y, p, z)
    amount_in = frac * max_amount_in(state, direction)
    forward = ha.swap_exact_in(state, direction, amount_in)
    inverse = ha.swap_exact_out(state, direction, forward.amount_out)
    assert inverse.amount_in == pytest.approx(amount_in, rel=1e-9)
    replay = ha.swap_exact_in(state, direction, inverse.amount_in)
    assert replay.amount_out == pytest.approx(forward.amount_out, rel=1e-10)


def test_spot_after_below_double_range_is_admitted():
    # at subnormal z the bound lies near 6e162, where the true spot (~5e-332)
    # is below the smallest subnormal and rounds to 0
    state = ha.PoolState.anchored(1.0, 1.0, 0.01, 5e-324)
    amount_in = 0.999999 * (ha.max_x_bound(state.k, state.p, state.z) - 1.0)
    result = ha.swap_exact_in(state, SELL_X, amount_in)
    assert result.spot_after == 0.0
    assert result.amount_in == amount_in
    assert result.new_state.x == 1.0 + amount_in
    assert result.new_state.y > 0.0
    assert result.amount_out == 1.0 - result.new_state.y
    assert result.slippage_cost >= 0.0


def test_sell_x_insolvency_reports_max_feasible():
    state = unit_pool(0.5)
    bound = ha.max_x_bound(state.k, state.p, state.z)
    with pytest.raises(ha.InsolvencyError) as exc_info:
        ha.swap_exact_in(state, SELL_X, bound)  # x + bound > bound
    assert exc_info.value.max_amount_in == pytest.approx(bound - 1.0, rel=1e-12)
    ha.swap_exact_in(state, SELL_X, (bound - 1.0) * 0.999)  # just inside: fine


def test_sell_x_at_z0_never_exhausts():
    result = ha.swap_exact_in(unit_pool(0.0), SELL_X, 1e9)
    assert result.new_state.y > 0.0


def test_sell_y_insolvency_reports_max_feasible():
    state = unit_pool(1.0)
    with pytest.raises(ha.InsolvencyError) as exc_info:
        ha.swap_exact_in(state, SELL_Y, 1.01)   # capacity is p*x = 1
    assert exc_info.value.max_amount_in == pytest.approx(1.0, rel=1e-9)


def test_exact_out_infeasible_requests():
    state = unit_pool(0.5)
    with pytest.raises(ha.InfeasibleTradeError) as exc_info:
        ha.swap_exact_out(state, SELL_X, 1.0)   # wants the whole Y reserve
    assert exc_info.value.max_amount_out <= 1.0
    with pytest.raises(ha.InfeasibleTradeError):
        ha.swap_exact_out(state, SELL_Y, 1.5)


def test_dust_trades_rejected(monkeypatch):
    state = unit_pool(0.5)
    for direction in (SELL_X, SELL_Y):
        with pytest.raises(ha.DomainError):
            ha.swap_exact_in(state, direction, 1e-17)
    with pytest.raises(ha.DomainError):
        ha.swap_exact_in(state, SELL_X, -0.5)
    with pytest.raises(ha.DomainError):
        ha.swap_exact_in(state, SELL_X, math.nan)

    # each reason code of trade_in is one exception in swap_exact_in and one
    # skipped trade in run_steps; on this pool 2e-15 X is not dust, but
    # 1e20 - 2e-15 rounds back to 1e20
    lopsided = ha.PoolState.anchored(1.0, 1e20, 1.0, 1.0)
    cases = [
        (lopsided, SELL_X, 5e-16, _kernels.DUST, ha.DomainError, "dust below 1e-15 of the X"),
        (lopsided, SELL_X, 2e-15, _kernels.NO_MOVE, ha.DomainError, "too small to move the curve"),
        (state, SELL_Y, 1e-17, _kernels.DUST, ha.DomainError, "dust below 1e-15 of the Y"),
        (state, SELL_Y, 5.0, _kernels.NO_ROOT, ha.ConvergenceError, "curve inversion failed"),
    ]
    # past half of X a SELL_Y trade inverts the curve; make that inversion fail
    monkeypatch.setattr(_kernels, "invert_curve", lambda *args: math.nan)
    for pool, direction, amount, reason, error, message in cases:
        sell_y = direction is SELL_Y
        got = _kernels.trade_in(pool.x, pool.y, pool.p, pool.z, pool.k, sell_y, amount)
        assert got == (pool.x, pool.y, 0.0, 0.0, reason)
        with pytest.raises(error, match=message):
            ha.swap_exact_in(pool, direction, amount)
        frac = amount / (pool.y if sell_y else pool.x)
        result = _kernels.run_steps(pool.x, pool.y, pool.z, np.full(1, pool.p), False,
                                    np.full(1, frac), np.full(1, int(sell_y), dtype=np.int8),
                                    1, 10.0)
        assert (result[1][0], result[2][0], result[8], result[9]) == (pool.x, pool.y, 0, 1)


def test_direction_accepts_wire_names():
    result = ha.swap_exact_in(unit_pool(0.0), "sell-x", 1.0)
    assert result.direction is SELL_X
