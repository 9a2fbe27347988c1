"""Impermanent loss, rebalancing, and Taylor-slippage analytics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridamm as ha
from hybridamm import _kernels
from hybridamm.swap import TradeDirection

# mpmath (50 digits)
IL_Z09_RHO4 = -2.0527300399681695336      # 5 - 2*4**(1/1.1)
IL_Z06_RHO2 = -0.28134142403055172468     # 3 - 2*2**(1/1.4)
X_STAR_Z06 = 1.6406707120152758623        # 2**(1/1.4)
EXACT_Z0_DX001 = 0.0099009900990099009901  # 1 - 1/1.01
EXACT_Z05_DX01 = 0.046167856607897539290

reserves = st.floats(min_value=0.1, max_value=10.0)
prices = st.floats(min_value=0.1, max_value=10.0)
mixes_open = st.floats(min_value=0.0, max_value=0.99)
ratios = st.floats(min_value=0.1, max_value=10.0)


# ---------------------------------------------------------------- closed form


def test_il_vanishes_without_price_move():
    for z in (0.0, 0.3, 0.7, 1.0):
        report = ha.il_closed_form(z, 1.0)
        assert report.il_paper == 0.0
        assert report.il_relative == 0.0
        assert report.v_pool == 2.0
        assert report.v_hold == 2.0


def test_il_constant_product_quadrupling():
    report = ha.il_closed_form(0.0, 4.0)
    assert report.il_paper == pytest.approx(1.0, rel=1e-12)
    assert report.v_pool == pytest.approx(4.0, rel=1e-12)
    assert report.v_hold == 5.0
    assert report.il_relative == pytest.approx(0.2, rel=1e-12)


def test_il_reference_values():
    assert ha.il_closed_form(0.9, 4.0).il_paper == pytest.approx(IL_Z09_RHO4, rel=1e-12)
    assert ha.il_closed_form(0.6, 2.0).il_paper == pytest.approx(IL_Z06_RHO2, rel=1e-12)


def test_il_rejects_bad_ratio():
    for rho in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ha.DomainError):
            ha.il_closed_form(0.5, rho)
    with pytest.raises(ha.DomainError):
        ha.il_closed_form(1.5, 2.0)


@given(z=st.floats(0.0, 1.0), rho=ratios)
def test_il_relative_is_paper_over_hold(z, rho):
    report = ha.il_closed_form(z, rho)
    assert report.il_relative == report.il_paper / (1.0 + rho)
    assert report.v_hold == 1.0 + rho
    assert report.il_paper == pytest.approx(report.v_hold - report.v_pool, abs=1e-15)


def test_il_where_the_pool_value_overflows():
    # 2*rho**(1/(2-z)) is past double range, and il_paper = 1 - rho is not
    for rho in (8.99e307, 1e308, 1.7976931348623157e308):
        report = ha.il_closed_form(1.0, rho)
        assert report.v_pool == math.inf
        assert report.v_hold == 1.0 + rho
        assert report.il_paper == pytest.approx(1.0 - rho, rel=1e-13)
        assert report.il_relative == pytest.approx(-1.0, rel=1e-13)
    # just below the overflow, il_paper is still v_hold - v_pool
    report = ha.il_closed_form(1.0, 8.98e307)
    assert report.v_pool < math.inf
    assert report.il_paper == report.v_hold - report.v_pool


def test_il_z_monotonicity_both_regimes():
    grid = [round(0.1 * i, 1) for i in range(11)]
    rising = [ha.il_closed_form(z, 4.0).il_paper for z in grid]    # price fell, rho > 1
    falling = [ha.il_closed_form(z, 0.25).il_paper for z in grid]  # price rose, rho < 1
    assert all(a > b for a, b in zip(rising, rising[1:]))
    assert all(a < b for a, b in zip(falling, falling[1:]))


# ---------------------------------------------------- standard-AMM comparison


@given(r=ratios)
def test_standard_amm_is_negated_z0_closed_form(r):
    # the classic constant-product IL curve, nonpositive and 0 at r = 1
    classic = 2.0 * math.sqrt(r) - r - 1.0
    assert abs(classic + ha.il_closed_form(0.0, r).il_paper) <= 1e-12


# ----------------------------------------------------------------- rebalance


def test_rebalance_constant_product_quadrupling():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.0)
    moved = ha.rebalance_to_oracle(state, 4.0)
    assert moved.x == pytest.approx(0.5, rel=1e-14)
    assert moved.y == pytest.approx(2.0, rel=1e-14)
    assert moved.k == state.k


def test_rebalance_reference_point():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.6)
    moved = ha.rebalance_to_oracle(state, 0.5)
    assert moved.x == pytest.approx(X_STAR_Z06, rel=1e-12)
    assert moved.y == pytest.approx(0.5 * moved.x, rel=1e-9)
    assert ha.spot_price(moved) == pytest.approx(0.5, rel=1e-10)


def test_rebalance_fixed_point():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    moved = ha.rebalance_to_oracle(state, 1.0)
    assert moved.x == pytest.approx(1.0, rel=1e-12)
    assert moved.y == pytest.approx(1.0, rel=1e-12)
    assert (moved.k, moved.p, moved.z) == (state.k, 1.0, 0.5)


def test_rebalance_unsupported_at_full_mix():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ha.UnsupportedConfigurationError):
        ha.rebalance_to_oracle(state, 2.0)


@given(x0=reserves, p0=prices, p1=prices, z=mixes_open)
def test_rebalance_matches_reserve_adjustment_closed_form(x0, p0, p1, z):
    # balanced start: x1 = x0*rho**(1/(2-z)) and y1 = p1*x1
    state = ha.PoolState.anchored(x0, p0 * x0, p0, z)
    moved = ha.rebalance_to_oracle(state, p1)
    rho = p0 / p1
    assert moved.x == pytest.approx(x0 * rho ** (1.0 / (2.0 - z)), rel=1e-9)
    assert moved.y == pytest.approx(p1 * moved.x, rel=1e-9)
    assert ha.spot_price(moved) == pytest.approx(p1, rel=1e-10)


# ------------------------------------------------------------- IL by pipeline


def test_il_simulated_fixed_point_is_exactly_zero():
    report = ha.il_simulated(1.0, 1.0, 1.0, 0.5)
    assert report.il_paper == 0.0
    assert report.il_relative == 0.0


def test_il_simulated_reference_values():
    assert ha.il_simulated(1.0, 1.0, 0.25, 0.0).il_paper == pytest.approx(1.0, rel=1e-9)
    assert ha.il_simulated(2.0, 3.0, 1.5, 0.6).il_paper == pytest.approx(IL_Z06_RHO2, rel=1e-9)


def test_il_simulated_unsupported_at_full_mix():
    with pytest.raises(ha.UnsupportedConfigurationError):
        ha.il_simulated(1.0, 1.0, 2.0, 1.0)


@given(x0=reserves, p0=prices, p1=prices, z=mixes_open)
def test_il_pipeline_matches_closed_form(x0, p0, p1, z):
    rho = p0 / p1
    closed = ha.il_closed_form(z, rho)
    simulated = ha.il_simulated(x0, p0, p1, z)
    # absolute at the portfolio scale: near rho = 1 the IL crosses zero and a
    # relative comparison is meaningless
    assert abs(simulated.il_paper - closed.il_paper) <= 1e-12 * max(1.0, simulated.v_hold)
    assert simulated.il_paper == pytest.approx(closed.il_paper,
                                               rel=1e-9, abs=1e-12 * closed.v_hold)
    assert simulated.v_pool == pytest.approx(closed.v_pool, rel=1e-9)
    assert simulated.v_hold == pytest.approx(closed.v_hold, rel=1e-12)


# ------------------------------------------------------------ Taylor slippage


def unit_coefficient(z):
    """Slippage per unit trade size, dx -> 0, on the unit pool: y''(1) / 2, or 1 - z."""
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, z)
    return 0.5 * ha.d2y_dx2(state, state.x)


def test_concentration_coefficients_from_worked_example():
    assert abs(unit_coefficient(0.1) - 0.9) <= 1e-13
    assert abs(unit_coefficient(0.9) - 0.1) <= 1e-13
    assert unit_coefficient(0.0) == 1.0
    assert unit_coefficient(1.0) == 0.0


def test_concentration_coefficient_strictly_decreasing():
    grid = [round(0.1 * i, 1) for i in range(11)]
    values = [unit_coefficient(z) for z in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_slippage_taylor_scales_with_trade_size():
    for z, coefficient in ((0.1, 0.9), (0.9, 0.1)):
        state = ha.PoolState.anchored(1.0, 1.0, 1.0, z)
        estimate = ha.slippage_taylor(state, 0.01)
        assert estimate.taylor_second_derivative_form == pytest.approx(
            coefficient * 0.01, rel=1e-12)
        assert estimate.trade_size == 0.01
        assert estimate.exact is None


def test_slippage_taylor_zero_at_full_mix():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 1.0)
    estimate = ha.slippage_taylor(state, 0.5)
    assert estimate.taylor_second_derivative_form == 0.0
    # the expanded form's slope excess y' + z*p/(2-z) is exactly 0 here too
    assert ha.dy_dx(state, state.x) + state.p == 0.0


def test_slippage_taylor_rejects_insolvent_size():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    bound = ha.max_x_bound(state)
    with pytest.raises(ha.InsolvencyError):
        ha.slippage_taylor(state, bound)
    with pytest.raises(ha.DomainError):
        ha.slippage_taylor(state, 0.0)


@given(x=reserves, y=reserves, p=prices, z=st.floats(0.0, 1.0),
       frac=st.floats(1e-3, 0.5))
def test_taylor_forms_agree(x, y, p, z, frac):
    state = ha.PoolState.anchored(x, y, p, z)
    bound = _kernels.solvency_bound(state.k, p, z)
    cap = x if math.isinf(bound) else min(x, 0.9 * (bound - x))
    dx = frac * cap
    estimate = ha.slippage_taylor(state, dx)
    expected = 0.5 * ha.d2y_dx2(state, x) * dx
    assert estimate.taylor_second_derivative_form == expected
    assert estimate.taylor_second_derivative_form >= 0.0
    # the expanded form 1/2*dx*(z-2)/x*(y' + z*p/(2-z)) cancels to 0 as z -> 1,
    # leaving ~eps*p of absolute noise: hence the floor at the terms' scale
    slope = ha.dy_dx(state, x)
    expanded = 0.5 * (dx * (z - 2.0) / x) * (slope + z * p / (2.0 - z))
    scale = abs(0.5 * dx * (z - 2.0) / x) * (abs(slope) + z * p / (2.0 - z))
    assert abs(expected - expanded) <= 1e-10 * max(abs(expected), abs(expanded)) + 1e-13 * scale


def test_slippage_exact_constant_product_reference():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.0)
    estimate = ha.slippage_exact(state, TradeDirection.SELL_X, 0.01)
    assert estimate.exact == pytest.approx(EXACT_Z0_DX001, rel=1e-12)
    assert estimate.taylor_second_derivative_form == pytest.approx(0.01, rel=1e-12)


def test_slippage_exact_half_mix_reference():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    estimate = ha.slippage_exact(state, TradeDirection.SELL_X, 0.1)
    assert estimate.exact == pytest.approx(EXACT_Z05_DX01, rel=1e-12)
    assert estimate.taylor_second_derivative_form == pytest.approx(0.05, rel=1e-12)


def test_slippage_exact_zero_at_full_mix():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 1.0)
    estimate = ha.slippage_exact(state, TradeDirection.SELL_X, 0.5)
    assert estimate.exact == 0.0
    assert estimate.taylor_second_derivative_form == 0.0


@given(x=st.floats(0.5, 2.0), y=st.floats(0.5, 2.0), p=st.floats(0.5, 2.0),
       z=mixes_open, frac=st.floats(2e-3, 0.01))
def test_taylor_truncation_error_within_bound(x, y, p, z, frac):
    # dx/x <= 0.01 keeps the third-order residual below 5% of the estimate
    state = ha.PoolState.anchored(x, y, p, z)
    estimate = ha.slippage_exact(state, TradeDirection.SELL_X, frac * x)
    assert estimate.exact > 0.0
    relative_gap = abs(estimate.exact - estimate.taylor_second_derivative_form) / estimate.exact
    assert relative_gap <= 0.05


def test_slippage_exact_sell_y_uses_realized_displacement():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    result = ha.swap_exact_in(state, TradeDirection.SELL_Y, 0.1)
    estimate = ha.slippage_exact(state, TradeDirection.SELL_Y, 0.1)
    assert estimate.trade_size == result.amount_out
    assert estimate.exact == result.slippage_cost
