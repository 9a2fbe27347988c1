"""Swap engine: exact-in, exact-out, quoting, conservation, solvency."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, reject, settings
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
        bound = _kernels.solvency_bound(state.x, state.y, state.p, state.z)
        if math.isinf(bound):
            return state.x
        return min(state.x, 0.9 * (bound - state.x))
    y_cap = _kernels.curve_y(state.x, state.y, state.p, state.z, _kernels.X_FLOOR_REL * state.x)
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
    # past half of Y this pool's X move rounds away: with the bound read from the
    # pool's point, x*(1 + y/(c*x))**(1/(2-z)), it lies within an ulp of x, so
    # the trade lands beyond its resolution (once NO_MOVE from a failed inversion)
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
        (fine_x, SELL_X, True, 8.368622834184378e-09, _kernels.PAST_BOUND,
         ha.InfeasibleTradeError, "beyond numerical resolution of the solvency bound"),
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
            got = _kernels.trade(pool.x, pool.y, pool.p, pool.z, sell_y, amount, exact_out)
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


def test_room_past_the_bound_is_never_negative():
    # golden request wide-566: x lies within rounding of the bound of its rounded k, which
    # once gave a "max feasible amount_in" of -8.9e-239.  From the pool's point the bound is
    # x*(1 + r)**(1/(2-z)) with r = y/(c*x) = 2.4e-116, above x for every y > 0, and the
    # room x*((1 + r)**(1/(2-z)) - 1) = 6e-341 rounds to 0
    x, y, p, z = 3.696743151929897e-225, 4.1719265582171364e-100, 1.1152126746686491e+241, 0.6
    with pytest.raises(ha.InsolvencyError) as info:
        ha.swap_exact_in(ha.PoolState.anchored(x, y, p, z), SELL_X, 9.084736598143786e-236)
    with mpmath.workdps(50):
        xm, zm = mpmath.mpf(x), mpmath.mpf(z)
        c = zm * p / (2 - zm)
        room = xm * mpmath.expm1(mpmath.log1p(y / (c * xm)) / (2 - zm))
    assert 0 < room < mpmath.mpf(5e-324) / 2   # below half the smallest subnormal
    assert info.value.max_amount_in == float(room) == 0.0
    assert info.value.bound == x


# ------------------------------------------------------------- scale invariance


def rescaled_swaps(x, y, p, z, sell_y, exact_out, frac, a, b):
    """The swap on (x, y, p), and on (x*2**a, y*2**b, p*2**(b-a)) with the amount scaled
    alike, each a ``SwapResult`` or the error it raised, and which branch of
    ``_kernels.trade`` the first took, or its error type.  Rejects a draw whose pool
    does not anchor at either scale."""
    try:
        pools = [ha.PoolState.anchored(x, y, p, z),
                 ha.PoolState.anchored(math.ldexp(x, a), math.ldexp(y, b), math.ldexp(p, b - a), z)]
    except ha.DomainError:
        reject()
    paid_in_x = sell_y == exact_out
    amount = frac * (x if paid_in_x else y)
    swap = ha.swap_exact_out if exact_out else ha.swap_exact_in
    direction = SELL_Y if sell_y else SELL_X
    outcomes = []
    for pool, amount in zip(pools, (amount, math.ldexp(amount, a if paid_in_x else b))):
        try:
            outcomes.append(swap(pool, direction, amount))
        except ha.HybridAmmError as err:
            outcomes.append(err)
    name = f"{'exact-out' if exact_out else 'exact-in'} {direction.name}"
    if isinstance(outcomes[0], Exception):
        return outcomes, f"{name}: {type(outcomes[0]).__name__}"
    # the trade rules: past half of the reserve paid out, Y is read from the curve
    # (X fixed) or X is found by invert_curve (Y fixed; SELL_X out only at 0 < z < 1)
    past_half = outcomes[0].amount_out > 0.5 * (x if sell_y else y)
    if sell_y == exact_out:
        return outcomes, f"{name}: {'Y read from the curve' if past_half else 'Y by delta_y'}"
    inverted = past_half and (sell_y or 0.0 < z < 1.0)
    return outcomes, f"{name}: {'X by invert_curve' if inverted else 'X by solve_delta_x'}"


def assert_rescaled_swap(outcomes, sell_y, a, b):
    """The same error type, or every field of the second result the first's times its power
    of two, to 4 ulps.  k is left out: the anchoring derives it through x**(z-1), whose
    exp/log rounding does not scale."""
    want, got = outcomes
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(want) is type(got), outcomes
        return
    a_in, a_out = (b, a) if sell_y else (a, b)
    for field, power in (("amount_in", a_in), ("amount_out", a_out), ("exec_price", b - a),
                         ("spot_before", b - a), ("spot_after", b - a),
                         ("slippage_cost", b - a)):
        expected = math.ldexp(getattr(want, field), power)
        assert abs(getattr(got, field) - expected) <= 4 * math.ulp(expected), field
    for field, power in (("x", a), ("y", b), ("p", b - a)):
        expected = math.ldexp(getattr(want.new_state, field), power)
        assert abs(getattr(got.new_state, field) - expected) <= 4 * math.ulp(expected), field


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(x=log_uniform(1e-30, 1e30), y=log_uniform(1e-30, 1e30), p=log_uniform(1e-30, 1e30),
       z=st.sampled_from([0.0, 5e-324, 2.2e-308, 0.3, 0.6, 0.9, 1.0 - 1e-16, 1.0])
       | st.floats(0.0, 1.0),
       sell_y=st.booleans(), exact_out=st.booleans(),
       frac=log_uniform(1e-6, 1.0) | st.floats(0.45, 1.0),
       a=st.integers(-300, 300), b=st.integers(-300, 300))
def test_swaps_commute_with_rescaling(x, y, p, z, sell_y, exact_out, frac, a, b):
    """ROADMAP item 15's scale property: every curve kernel works from the pool's point,
    and each of its operations commutes with powers of two, so a swap on the rescaled pool
    is the swap, rescaled, every field to 4 ulps, with the same error type.  The inverting
    branch's geometric midpoint breaks it at odd a (the strict xfail below), so that
    branch is compared at even a only."""
    outcomes, branch = rescaled_swaps(x, y, p, z, sell_y, exact_out, frac, a, b)
    if "invert_curve" in branch and a % 2:
        event(f"{branch}, odd a: not compared")
        return
    event(branch)
    assert_rescaled_swap(outcomes, sell_y, a, b)


# Inverted trades at odd a that the property above drew, before it left them out:
# (x, y, p, z, sell_y, exact_out, frac, a, b)
INVERTED_AT_ODD_A = {
    "exact-out-sell-x": (1.531095241948935e-26, 617912.8391113222, 8.222458117344327e+22, 0.6,
                         False, True, 0.9227684666363423, 71, -4),
    "exact-in-sell-y": (0.0008512669767565653, 9.768882249352342e-12, 8.2819778730891e-09,
                        1.0 - 1e-16, True, False, 0.49099202329759656, -203, 128),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="invert_curve's geometric midpoint sqrt(lo)*sqrt(hi) does not commute "
                          "with 2**a at odd a, as sqrt(2**a) is not a power of two, so the "
                          "bisection's brackets and its Newton polish round apart: by 6 ulps "
                          "of exec_price for the exact-out SELL_X, and by 1 ulp of amount_out "
                          "for the SELL_Y, which the slippage cancellation at z = 1 - 1e-16 "
                          "turns into 2e15 ulps.  With sqrt(lo*hi), which commutes, both agree "
                          "bit for bit, but that moves the stepped z = 1 pools' simulate bytes")
@pytest.mark.parametrize("case", sorted(INVERTED_AT_ODD_A))
def test_inverted_swaps_at_odd_a_commute_with_rescaling(case):
    x, y, p, z, sell_y, exact_out, frac, a, b = INVERTED_AT_ODD_A[case]
    outcomes, branch = rescaled_swaps(x, y, p, z, sell_y, exact_out, frac, a, b)
    assert "invert_curve" in branch and a % 2
    assert_rescaled_swap(outcomes, sell_y, a, b)
