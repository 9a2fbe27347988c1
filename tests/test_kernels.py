"""Kernel contract: flags, nan sentinels, mpmath references, and one trade engine.

The kernels are plain Python.  Inversion and the delta kernels are checked
against mpmath or exact curve points, and ``run_steps`` is replayed step by
step through the public API (``PoolState.anchored``, ``rebalance_to_oracle``
for the arbitrage target only, ``swap_exact_in`` and ``swap_exact_out``),
which must give bit-identical metric columns, clamp counts and skip counts
because every trade runs through ``trade`` and noise trades are
clamped to ``headroom``.  How each ``trade`` reason code maps to an exception
and to a skipped trade is checked in ``test_swap.py::test_dust_trades_rejected``.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridamm import (
    PoolState,
    TradeDirection,
    _kernels,
    max_x_bound,
    rebalance_to_oracle,
    spot_price,
    swap_exact_in,
    swap_exact_out,
)
from hybridamm.errors import HybridAmmError


def sample_states(n=250, seed=17):
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = rng.uniform(0.1, 10.0, n)
    ys = rng.uniform(0.1, 10.0, n)
    ps = rng.uniform(0.1, 10.0, n)
    zs = np.concatenate([rng.uniform(0.0, 1.0, n - 3), [0.0, 0.5, 1.0]])
    return xs, ys, ps, zs


# ------------------------------------------------------------------ contract


def test_module_flags():
    assert _kernels.NUMBA_ENABLED is False
    assert _kernels.DUST_REL == 1e-15
    assert _kernels.ARB_BAND_REL == 1e-12
    assert _kernels.X_FLOOR_REL == 1e-12
    assert _kernels.HEADROOM_SHARE == 0.999
    reasons = (_kernels.EXECUTED, _kernels.DUST, _kernels.NO_MOVE, _kernels.NO_ROOT,
               _kernels.PAST_BOUND)
    assert len(set(reasons)) == 5


def test_invert_accuracy():
    xs, ys, ps, zs = sample_states(n=120, seed=23)
    rng = np.random.Generator(np.random.PCG64(99))
    for x, y, p, z in zip(xs, ys, ps, zs):
        k = _kernels.curve_anchor(x, y, p, z)
        x_true = x * rng.uniform(0.2, 0.95)
        y_target = _kernels.curve_y(k, x_true, p, z)
        got = _kernels.invert_curve(k, p, z, y_target, x * 1e-12, x)
        assert got == pytest.approx(x_true, rel=1e-12)


def test_invert_returns_nan_outside_bracket():
    k = _kernels.curve_anchor(1.0, 1.0, 1.0, 0.5)
    y_above_range = _kernels.curve_y(k, 0.05, 1.0, 0.5)
    assert math.isnan(_kernels.invert_curve(k, 1.0, 0.5, y_above_range, 0.5, 1.0))


# ------------------------------------------------------------- nan sentinels


def test_sentinels():
    assert math.isnan(_kernels.arb_target_x(2.0, 1.0, 1.0))
    assert math.isinf(_kernels.solvency_bound(1.0, 1.0, 0.0))
    assert _kernels.solvency_bound(2.0, 1.0, 1.0) == 2.0
    # a trade that emptied Y re-anchors k to 0 or below, where no curve has a
    # bound; k = -6.2e-12 once raised "must be real number, not complex"
    for k in (-6.18e-12, 0.0, -math.inf, math.nan):
        assert math.isnan(_kernels.solvency_bound(k, 12.772475197631874, 0.5124919555126976))


def test_underflows_give_nan_not_raw_errors():
    # the spot price underflows to 0, so Newton has no start; trade inverts the curve
    x, y, p, z = 1e200, 1e-200, 0.5, 5e-324
    assert _kernels.blend_spot(x, y, p, z) == 0.0
    assert math.isnan(_kernels.solve_delta_x(x, y, p, z, 1e-201))
    # (2-z)*k/(2p) underflows to 0, where its log would raise
    assert math.isnan(_kernels.arb_target_x(1e-226, 1e100, 0.5))
    # run_steps skips such an arbitrage, as it skips one inside the dead band
    prices = np.full(2, 1e100)
    result = _kernels.run_steps(1e-217, 1e-200, 0.5, prices, True, np.zeros(0), np.zeros(0),
                                0, 1.0)
    assert result[1].tolist() == [1e-217] * 2 and result[2].tolist() == [1e-200] * 2


@pytest.mark.parametrize("z", [0.0, 5e-324, 0.5, 0.999, 1.0 - 2.0 ** -52])
def test_pow_zm1_at_zero_is_inf(z):
    # x**(z-1) at x = 0, where 1/x and log(x) would raise
    assert _kernels.pow_zm1(0.0, z) == math.inf
    assert _kernels.pow_zm1(-0.0, z) == math.inf
    assert _kernels.pow_zm1(0.0, 1.0) == 1.0


@pytest.mark.parametrize("z", [0.5, 0.9999, 1.0 - 1e-8])
def test_headroom_at_subnormal_x(z):
    # the SELL_Y floor X_FLOOR_REL * x underflows to 0, where the curve's y is inf
    x, y, p = 5e-324, 2.0, 1.0
    k = _kernels.curve_anchor(x, y, p, z)
    assert _kernels.X_FLOOR_REL * x == 0.0
    assert _kernels.headroom(x, y, p, z, k, True) == math.inf
    assert _kernels.headroom(x, y, p, z, k, False) == _kernels.solvency_bound(k, p, z) - x


def test_invert_returns_nan_for_infinite_bracket():
    # the stopping test b - a <= 1e-13*mid holds at mid = inf, which once
    # "converged" to x = inf
    assert math.isnan(_kernels.invert_curve(1.0, 1.0, 0.0, 0.5, 1.0, math.inf))
    k = _kernels.curve_anchor(1.0, 1.0, 1.0, 0.5)
    assert math.isnan(_kernels.invert_curve(k, 1.0, 0.5, 0.5, 1.0, math.inf))


# ------------------------------------------------------------ mpmath references

# x, y, p of the reference pool, and the mixes that exercise the exact cases
# (0, 1), subnormal z, and z one ulp below 1
REF_POOL = (1.7, 0.7, 1.3)
REF_Z = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0]


def mp_delta_y(x, y, p, z, dx):
    x, y, p, z, dx = map(mpmath.mpf, (x, y, p, z, dx))
    c = z * p / (2 - z)
    return (y + c * x) * ((1 + dx / x) ** (z - 1) - 1) - c * dx


def ulps(got, ref):
    return float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref))


@pytest.mark.parametrize("z", [5e-324, 2.2e-308])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_solvency_bound_at_subnormal_z(z, p):
    # (2-z)k/(zp) overflows, and zp may underflow, but the bound is finite
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        ref = ((2 - zm) / (zm * p)) ** (1 / (2 - zm))
        assert ulps(_kernels.solvency_bound(1.0, p, z), ref) <= 2.0


@pytest.mark.parametrize("k, p, z", [
    # z*p underflows to 0 at a subnormal p
    (1.0, 5e-324, 0.4), (2.5, 5e-324, 3 * 2.0 ** -53), (1.0, 1e-323, 0.24),
    (1e-300, 5e-324, 0.4999), (1e150, 2e-323, 0.1), (7.0, 5e-324, 1e-10),
    # z*p > 0, but (2-z)k/(zp) overflows, or underflows to 0
    (1.0, 1e-310, 0.4), (1e10, 1e-300, 0.3), (1e200, 1e-200, 0.2), (1e-180, 1e300, 0.4),
    # z < 2**-53, where z*2**1000*p underflows, or 2k/(z*2**1000*p) does
    (1e-100, 1e-305, 5e-324), (1e-300, 1e300, 5e-324)])
def test_solvency_bound_where_zp_leaves_double_range(k, p, z):
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        ref = ((2 - zm) * k / (zm * p)) ** (1 / (2 - zm))
        assert abs(_kernels.solvency_bound(k, p, z) - ref) <= 1e-14 * ref


def test_solvency_bound_past_double_range_is_inf():
    # z*p underflows as above, and the bound, about 2**1311, overflows
    assert _kernels.solvency_bound(1e308, 5e-324, 0.4) == math.inf


@settings(max_examples=500, deadline=None)
@given(k=st.floats(5e-324, sys.float_info.max), p=st.floats(5e-324, sys.float_info.max),
       z=st.floats(5e-324, 1.0))
# the quotient (2-z)k/(zp) is subnormal, and on the z < 2**-53 path so is
# 2k/(z*2**1000*p); each once read 34% and 3.9% high
@example(k=4.2263703131397034e-153, p=7.992081751075584e+174, z=0.00038335633511092827)
@example(k=1.9225009346584343e-88, p=102424.39986408065, z=7.659241325484843e-71)
def test_solvency_bound_matches_mpmath_across_double_range(k, p, z):
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        ref = ((2 - zm) * k / (zm * p)) ** (1 / (2 - zm))
        assume(2.0 ** -1022 <= ref <= sys.float_info.max)
        assert abs(_kernels.solvency_bound(k, p, z) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("z", REF_Z)
@pytest.mark.parametrize("dx", [1e-12, 0.25, 3.0, -1e-12, -0.25, -1.5, -1.69])
def test_delta_y_matches_mpmath(z, dx):
    with mpmath.workdps(40):
        assert ulps(_kernels.delta_y(*REF_POOL, z, dx), mp_delta_y(*REF_POOL, z, dx)) <= 4.0


@pytest.mark.parametrize("z", REF_Z)
@pytest.mark.parametrize("dy", [-1e-12, -0.1, -0.35, 1e-12, 0.5, 2.0])
def test_solve_delta_x_matches_mpmath(z, dy):
    x = REF_POOL[0]
    got = _kernels.solve_delta_x(*REF_POOL, z, dy)
    with mpmath.workdps(40):
        # bisection: delta_y falls as dx rises, from +inf at dx = -x
        lo, hi = -x * (1 - mpmath.mpf(10) ** -30), mpmath.mpf(x)
        while mp_delta_y(*REF_POOL, z, hi) > dy:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp_delta_y(*REF_POOL, z, mid) > dy:
                lo = mid
            else:
                hi = mid
        assert ulps(got, lo) <= 4.0


# ------------------------------------------------------ trade's rarest branches


def test_exact_out_sell_x_can_land_on_the_last_x_it_may_reach():
    # more than half of Y paid out at 0 < z < 1 inverts the curve over
    # [x, bound*BOUND_REL]; a Y target the curve meets exactly at that end is its root
    k = _kernels.curve_anchor(1.0, 1.0, 1.0, 0.5)
    hi = _kernels.solvency_bound(k, 1.0, 0.5) * _kernels.BOUND_REL
    y_hi = _kernels.curve_y(k, hi, 1.0, 0.5)
    amount = 1.0 - y_hi
    assert amount > 0.5 and 1.0 - amount == y_hi
    result = _kernels.trade(1.0, 1.0, 1.0, 0.5, k, False, amount, True)
    assert result[:4] == (hi, y_hi, hi - 1.0, amount) and result[5] == _kernels.EXECUTED


def test_sell_y_of_nearly_all_x_lies_on_the_curve():
    # at z = 0.999 a SELL_Y of about all of Y pays out more than half of X, so trade
    # inverts the curve.  Near x = 0.01 the curve's rounding, an ulp of y, exceeds its
    # change across the bisection's 1e-13 bracket, and on some of these amounts the Newton
    # polish steps out of the bracket and stops.  Either way Y is on the curve at the new X.
    z = 0.999
    k = _kernels.curve_anchor(1.0, 1.0, 1.0, z)
    with mpmath.workdps(30):
        c = mpmath.mpf(z) / (2 - mpmath.mpf(z))
        for amount in np.linspace(0.98, 1.02, 41).tolist():
            x_new, y_new, *_, reason = _kernels.trade(1.0, 1.0, 1.0, z, k, True, amount, False)
            assert reason == _kernels.EXECUTED and x_new < 0.03 and y_new == 1.0 + amount
            residual = (1 + c) * mpmath.mpf(x_new) ** (z - 1) - c * x_new - y_new
            assert abs(residual) <= 1e-15 * y_new, amount


def test_exact_out_sell_x_where_newton_does_not_settle():
    # at p = 1e-300 the curve's linear term is tiny, so paying 0.001 Y out takes X past
    # 1e296: solve_delta_x's Newton does not settle within its 100 steps and gives nan,
    # and trade inverts the curve, whose bisection holds x to 1e-13
    x, y, p, z, amount = 1.0, 1.0, 1e-300, 0.999999, 1e-3
    assert math.isnan(_kernels.solve_delta_x(x, y, p, z, -amount))
    k = _kernels.curve_anchor(x, y, p, z)
    x_new, y_new, amount_in, amount_out, _, reason = _kernels.trade(x, y, p, z, k, False,
                                                                   amount, True)
    assert reason == _kernels.EXECUTED and (y_new, amount_out) == (y - amount, amount)
    with mpmath.workdps(40):
        zm, c = mpmath.mpf(z), mpmath.mpf(z) * p / (2 - mpmath.mpf(z))
        root = mpmath.findroot(lambda u: (1 + c) * u ** (zm - 1) - c * u - y_new,
                               (0.99 * x_new, 1.01 * x_new), solver="anderson")
        assert abs(x_new - root) <= 1e-13 * root


def test_sell_y_that_would_empty_a_subnormal_x():
    # the X paid out rounds to all of x = 5e-320, so solve_delta_x gives nan; the
    # inversion's floor X_FLOOR_REL*x underflows to 0, where the curve has no finite
    # point, so it finds no root either
    x, y, p, z = 5e-320, 1e-100, 1.0, 0.5
    assert math.isnan(_kernels.solve_delta_x(x, y, p, z, 1000.0 * y))
    k = _kernels.curve_anchor(x, y, p, z)
    assert _kernels.trade(x, y, p, z, k, True, 1000.0 * y, False) == (
        x, y, 0.0, 0.0, 0.0, _kernels.NO_ROOT)


def test_exact_out_sell_y_of_all_of_x_is_past_the_bound():
    # a payout of all of X leaves no point on the curve; delta_y once took log(0) here
    k = _kernels.curve_anchor(1.0, 1.0, 1.0, 0.5)
    for amount in (1.0, 2.0):
        assert _kernels.trade(1.0, 1.0, 1.0, 0.5, k, True, amount, True) == (
            1.0, 1.0, 0.0, 0.0, 0.0, _kernels.PAST_BOUND)
    # the arbitrage's target x* = 31.6 lies below half an ulp of x, so its payout is x
    x, y, p, z = 1e150, 1e-150, 0.001, 0.0
    k = _kernels.curve_anchor(x, y, p, z)
    size = x - _kernels.arb_target_x(k, p, z)
    assert size == x
    assert _kernels.trade(x, y, p, z, k, True, size, True) == (
        x, y, 0.0, 0.0, 0.0, _kernels.PAST_BOUND)
    assert _kernels.arbitrage_step(x, y, p, z, k) == (x, y, 0.0, 0.0)


def test_a_sell_y_that_would_empty_x_has_no_root():
    # the SELL_Y floor X_FLOOR_REL*x underflows to 0 at x = 1.6e-312, so the curve was once
    # inverted down to x = 0, and the pool's next trade divided by it
    x, y, p = 1.56218721116e-312, 3.1689395230926763e-127, 7.197406650055293e170
    k = _kernels.curve_anchor(x, y, p, 1.0)
    amount = _kernels.HEADROOM_SHARE * _kernels.headroom(x, y, p, 1.0, k, True)
    assert _kernels.trade(x, y, p, 1.0, k, True, amount, False) == (
        x, y, 0.0, 0.0, 0.0, _kernels.NO_ROOT)


# ------------------------------------------------------------ one trade engine


def replay_step(x, y, p, z, fractions, directions, max_fraction):
    """One run_steps step through the public API.

    Returns the state after it, its clamp and skip counts, and the executed
    SwapResults in order.
    """
    state = PoolState.anchored(x, y, p, z)
    trades = []
    if z < 1.0:
        # rebalance_to_oracle supplies only the target; the swaps move the pool
        x_star = rebalance_to_oracle(state, p).x
        if abs(x_star - state.x) > _kernels.ARB_BAND_REL * state.x:
            if x_star > state.x:
                trades.append(swap_exact_in(state, TradeDirection.SELL_X, x_star - state.x))
            else:
                trades.append(swap_exact_out(state, TradeDirection.SELL_Y, state.x - x_star))
            state = trades[-1].new_state
    clamped = skipped = 0
    for frac, direction in zip(fractions, directions):
        if frac > max_fraction:
            frac = max_fraction
            clamped += 1
        # the 0.999 headroom clamps, written out independently of
        # _kernels.headroom
        if direction == 0:
            direction, amount = TradeDirection.SELL_X, frac * state.x
            cap = 0.999 * (max_x_bound(state) - state.x)
        else:
            direction, amount = TradeDirection.SELL_Y, frac * state.y
            x_floor = _kernels.X_FLOOR_REL * state.x
            cap = 0.999 * (_kernels.curve_y(state.k, x_floor, p, z) - state.y)
        if amount > cap > 0.0:
            amount = cap
            clamped += 1
        try:
            trades.append(swap_exact_in(state, direction, amount))
        except HybridAmmError:
            skipped += 1
            continue
        state = trades[-1].new_state
    return state, clamped, skipped, trades


# only at z = 0.3 is 1 - z not a power of two, so the spot formula's rounding shows
@pytest.mark.parametrize("z", [0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0 ** -52, 1.0])
def test_run_steps_replays_through_swap_exact_in(z):
    # noise large enough to hit both clamps; the z = 1 pool has no
    # arbitrage, drains, and then skips most of its trades
    steps, per_step, max_fraction = 1000, 2, 0.25
    rng = np.random.Generator(np.random.PCG64(11))
    prices = np.exp(np.cumsum(0.03 * rng.standard_normal(steps)))
    fractions = np.exp(-2.5 + 1.5 * rng.standard_normal(steps * per_step))
    directions = rng.integers(0, 2, size=steps * per_step, dtype=np.int8)
    result = _kernels.run_steps(1.0, 1.0, z, prices, True, fractions, directions,
                                per_step, max_fraction)
    spots, xs, ys, pools, holds, ils, slips, volumes = (result[i].tolist() for i in range(8))
    x, y = 1.0, 1.0
    clamped = skipped = 0
    volume = 0.0
    for t in range(steps):
        trades = slice(t * per_step, (t + 1) * per_step)
        state, c, s, executed = replay_step(x, y, float(prices[t]), z,
                                            fractions[trades].tolist(),
                                            directions[trades].tolist(), max_fraction)
        x, y = state.x, state.y
        for trade in executed:   # volume counts X traded
            volume += trade.amount_out if trade.direction is TradeDirection.SELL_Y else trade.amount_in
        slip = executed[-1].slippage_cost if executed else 0.0
        assert (x, y, slip, volume) == (xs[t], ys[t], slips[t], volumes[t]), f"step {t}"
        # the derived columns, bitwise as the scalar formulas give them
        p = float(prices[t])
        pool, hold = x + y / p, 1.0 + 1.0 / p
        assert (spot_price(state), pool, hold, (hold - pool) / hold) == \
            (spots[t], pools[t], holds[t], ils[t]), f"step {t}"
        clamped += c
        skipped += s
    assert (clamped, skipped) == (result[8], result[9])
