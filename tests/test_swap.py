"""Swap engine: exact-in, exact-out, quoting, conservation, solvency."""

import math

import mpmath
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
    amount_in = 0.999999 * (ha.max_x_bound(state) - 1.0)
    result = ha.swap_exact_in(state, SELL_X, amount_in)
    assert result.spot_after == 0.0
    assert result.amount_in == amount_in
    assert result.new_state.x == 1.0 + amount_in
    assert result.new_state.y > 0.0
    assert result.amount_out == 1.0 - result.new_state.y
    assert result.slippage_cost >= 0.0


def test_sell_x_insolvency_reports_max_feasible():
    state = unit_pool(0.5)
    bound = ha.max_x_bound(state)
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


@pytest.mark.xfail(strict=True, raises=ha.ConvergenceError,
                   reason="no Newton start at spot 0, and no finite bracket past the bound")
def test_exact_out_sell_x_at_zero_spot_with_bound_past_double_range():
    # the spot price underflows to 0 and the solvency bound lies past double
    # range; at z ~ 0 the new X is about k/(y - amount_out), 6.77e297
    state = ha.PoolState.anchored(6.682657679610221e297, 4.5808224041753917e-153,
                                  1.017025970803945e-294, 2.2e-308)
    amount_out = 6.007286758215366e-155
    result = ha.swap_exact_out(state, SELL_X, amount_out)
    assert result.new_state.x == pytest.approx(state.k / (state.y - amount_out), rel=1e-12)


def test_exact_out_sell_x_where_newtons_slope_underflows():
    # c = z*p/(2-z) underflows to 0 at this subnormal z, and so does the power
    # term's slope (1-z)*a*(em+1)/(x+u): solve_delta_x has no Newton step, and
    # trade inverts the curve instead
    state = ha.PoolState.anchored(1.793556418786901e244, 9.241120189569264e-80,
                                  1.2958283247692273e-69, 5e-324)
    amount_out = 3.247378115279142e-80
    assert math.isnan(_kernels.solve_delta_x(state.x, state.y, state.p, state.z, -amount_out))
    result = ha.swap_exact_out(state, SELL_X, amount_out)
    with mpmath.workdps(60):
        x, y, p, z = (mpmath.mpf(v) for v in (state.x, state.y, state.p, state.z))
        c = z * p / (2 - z)
        y_new = y - amount_out
        # the new X on the curve through (x, y): (y + c*x) * (x/x1)**(1-z) - c*x1 = y_new
        x_new = mpmath.findroot(lambda x1: ((y + c * x) * (x / x1) ** (1 - z) - c * x1) / y_new - 1,
                                (x, 2 * x * y / y_new), solver="anderson")
        assert abs(result.amount_in - (x_new - x)) <= 1e-12 * (x_new - x)


def test_dust_trades_rejected(monkeypatch):
    state = unit_pool(0.5)
    for direction in (SELL_X, SELL_Y):
        with pytest.raises(ha.DomainError):
            ha.swap_exact_in(state, direction, 1e-17)
    with pytest.raises(ha.DomainError):
        ha.swap_exact_in(state, SELL_X, -0.5)
    with pytest.raises(ha.DomainError):
        ha.swap_exact_in(state, SELL_X, math.nan)

    # each reason code of trade is one exception in swap_exact_in or
    # swap_exact_out, and one skipped trade in run_steps; on this pool 2e-15 X
    # is not dust, but 1e20 - 2e-15 rounds back to 1e20
    lopsided = ha.PoolState.anchored(1.0, 1e20, 1.0, 1.0)
    # past half of Y this pool's X move rounds away, so the inversion that
    # reads x from the curve has no root to find
    fine_x = ha.PoolState.anchored(313712079.96682334, 1.6737245634894265e-08,
                                   63.11089448371312, 0.3)
    steep = ha.PoolState.anchored(2.065616501414323, 1.6311924165368586e-18,
                                  0.03645492685389293, 0.568859738231471)
    cases = [
        (lopsided, SELL_X, False, 5e-16, _kernels.DUST, ha.DomainError,
         "dust below 1e-15 of the X"),
        (lopsided, SELL_X, False, 2e-15, _kernels.NO_MOVE, ha.DomainError,
         "amount_in=2e-15 is too small to move the curve"),
        (state, SELL_Y, False, 1e-17, _kernels.DUST, ha.DomainError, "dust below 1e-15 of the Y"),
        (ha.PoolState.anchored(1e20, 1.0, 1.0, 1.0), SELL_X, True, 1e-3, _kernels.NO_MOVE,
         ha.DomainError, "amount_out=0.001 is too small to move the curve"),
        (lopsided, SELL_Y, True, 2e-15, _kernels.NO_MOVE, ha.DomainError,
         "amount_out=2e-15 is too small to move the curve"),
        (steep, SELL_X, True, 8.967967195644817e-19, _kernels.PAST_BOUND,
         ha.InfeasibleTradeError, "beyond numerical resolution of the solvency bound"),
        (fine_x, SELL_X, True, 8.368622834184378e-09, _kernels.NO_MOVE, ha.DomainError,
         "too small to move the curve"),
    ]
    # past half of X a SELL_Y trade inverts the curve, and so does SELL_X
    # exact-out past half of Y; make that inversion fail
    failed_inversions = [
        (state, SELL_Y, False, 5.0, _kernels.NO_ROOT, ha.ConvergenceError,
         "curve inversion failed"),
        (state, SELL_X, True, 0.6, _kernels.NO_ROOT, ha.ConvergenceError,
         "curve inversion failed"),
    ]
    for patch_inversion, checked in ((False, cases), (True, failed_inversions)):
        if patch_inversion:
            monkeypatch.setattr(_kernels, "invert_curve", lambda *args: math.nan)
        for pool, direction, exact_out, amount, reason, error, message in checked:
            sell_y = direction is SELL_Y
            got = _kernels.trade(pool.x, pool.y, pool.p, pool.z, pool.k, sell_y, amount,
                                 exact_out)
            assert got == (pool.x, pool.y, 0.0, 0.0, 0.0, reason)
            swap = ha.swap_exact_out if exact_out else ha.swap_exact_in
            with pytest.raises(error, match=message):
                swap(pool, direction, amount)
            if exact_out:
                continue
            run_steps_skips(pool, amount / (pool.y if sell_y else pool.x), sell_y)
    # run_steps skips a fraction that is not finite and > 0, and a trade into a
    # pool without headroom, before it calls trade: this pool's bound k/p is x
    no_headroom = ha.PoolState.anchored(1.0, 1e-17, 1.0, 1.0)
    for pool, frac, sell_y in [(state, math.inf, False), (state, 0.0, True),
                               (state, math.nan, False), (no_headroom, 0.5, False)]:
        run_steps_skips(pool, frac, sell_y)


def run_steps_skips(pool, frac, sell_y):
    """One noise trade of ``frac`` in run_steps is skipped and leaves the reserves."""
    result = _kernels.run_steps(pool.x, pool.y, pool.z, np.full(1, pool.p), False,
                                np.full(1, frac), np.full(1, int(sell_y), dtype=np.int8), 1, 10.0)
    assert (result[1][0], result[2][0], result[8], result[9]) == (pool.x, pool.y, 0, 1)


def test_direction_accepts_wire_names():
    result = ha.swap_exact_in(unit_pool(0.0), "sell-x", 1.0)
    assert result.direction is SELL_X
    result = ha.swap_exact_out(unit_pool(0.5), "sell-y", 0.1)
    assert result.direction is SELL_Y
    assert result == ha.swap_exact_out(unit_pool(0.5), SELL_Y, 0.1)
    estimate = ha.slippage_exact(unit_pool(0.5), "sell-x", 0.1)
    assert estimate == ha.slippage_exact(unit_pool(0.5), SELL_X, 0.1)
    with pytest.raises(ValueError, match="'buy-x' is not a valid TradeDirection"):
        ha.swap_exact_in(unit_pool(0.5), "buy-x", 0.1)
