"""The closed-form arbitrage-only pool against a 50-digit reference and ``run_steps``.

``_kernels.arbitrage_path`` computes every noise-free pool of a z sweep at
once.  The reference here runs the simulator's event order step by step
instead, with none of the closed form's log1p ratios, compensated sums or
slippage series: it re-anchors k at the fixed reserves, k = (y + c*x) *
x**(1-z) with c = z*p/(2-z), moves x to the point of that curve where the
marginal price is p, and puts y on the curve there, where y = p*x.  It runs
on mpmath's raw number format, whose calls cost a fraction of the ``mpf``
objects', so its 89k steps take a few seconds.
"""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from mpmath import libmp

import hybridamm as ha
from hybridamm import _kernels
from hybridamm.simulator import METRICS_HEADER, ScenarioConfig

PREC = 170   # bits: 51 digits
# libmp's functions on raw (sign, mantissa, exponent, bits) tuples, rounded to nearest
add, sub, mul, div = (partial(fn, prec=PREC, rnd="n") for fn in (
    libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div))
log, exp = (partial(fn, prec=PREC, rnd="n") for fn in (libmp.mpf_log, libmp.mpf_exp))


def reference_path(x0, y0, z, prices):
    """Each step's x, y and slippage at 51 digits.

    ``prices`` are raw mpmath numbers.  x comes back as a float pair (hi, lo)
    whose sum is the 51-digit value, y as the exact y = p*x (see
    ``rel_err_y``), and the slippage rounded to a float.  The slippage is
    ``trade``'s cost against the marginal price before the trade:
    amount_in/amount_out - spot for X bought, spot - amount_out/amount_in for
    X sold, both |spot + dy/dx|.
    """
    f = libmp.from_float
    z = f(z)
    a = sub(f(1.0), z)   # 1 - z
    w = sub(f(2.0), z)   # 2 - z
    zw, inv_w = div(z, w), div(f(1.0), w)
    x, y = f(x0), f(y0)
    ratio = div(y, x)
    xs, slips = [], []
    for p in prices:
        c = mul(zw, p)
        # k = (y + c*x) * x**(1-z); where the marginal price (1-z)*k*x**(z-2) + c
        # is p, x**(2-z) = k/(p + c) = x**(2-z) * (y/x + c)/(p + c)
        x_new = mul(x, exp(mul(log(div(add(ratio, c), add(p, c))), inv_w)))
        y_new = mul(p, x_new)   # on that curve, where its marginal price is p
        dx = sub(x_new, x)
        spot = add(mul(a, ratio), mul(z, p))
        slips.append(0.0 if dx == libmp.fzero else
                     libmp.to_float(libmp.mpf_abs(add(spot, div(sub(y_new, y), dx))), rnd="n"))
        xs.append(x_new)
        x, y, ratio = x_new, y_new, p   # y/x is p to all 51 digits
    return (*split(xs), np.array(slips))


def split(values):
    """Float pairs (hi, lo) of positive raw mpmath numbers, hi + lo each number to 1e-32."""
    hi, lo = [], []
    for _, man, e, bits in values:
        cut = max(bits - 53, 0)
        top = man >> cut
        hi.append(math.ldexp(top, e + cut))
        lo.append(math.ldexp(man - (top << cut), e))
    return np.array(hi), np.array(lo)


def mp_prices(prices):
    return [libmp.from_float(p) for p in prices.tolist()]


def two_product(a, b):
    """(p, e) with p + e == a*b exactly: Dekker's product, as numpy has no fma."""
    def halves(v):
        t = v * 134217729.0   # 2**27 + 1
        high = t - (t - v)
        return high, v - high
    p = a * b
    (ah, al), (bh, bl) = halves(a), halves(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def rel_err(got, hi, lo):
    # got - hi is exact wherever got lies within a factor 2 of hi
    return np.abs((got - hi) - lo) / hi


def rel_err_y(got, prices, hi, lo):
    """Error of got against the reference's y = p*x, with x = hi + lo."""
    ph, pl = two_product(prices, hi)
    return rel_err(got, ph, pl + prices * lo)


def kernel_columns(x0, y0, z, prices):
    """x, y and slippage of one noise-free pool from run_steps."""
    result = _kernels.run_steps(x0, y0, z, prices, True, np.zeros(0), np.zeros(0), 0, 0.0)
    return result[1], result[2], result[6]


JUDGE_Z = [i / 20 for i in range(20)] + [1.0 - 2.0 ** -52, 5e-324]


@pytest.mark.parametrize("steps, sigma", [(40, 0.01), (2000, 0.01), (2000, 0.1)])
def test_closed_form_is_as_accurate_as_run_steps(steps, sigma):
    prices = ha.gbm_path(p0=1.0, mu=0.0, sigma=sigma, steps=steps, seed=7).prices
    closed = _kernels.arbitrage_path(1000.0, 1000.0, JUDGE_Z, prices, True)
    exact = mp_prices(prices)
    worst = np.zeros((2, 2))   # [closed form, run_steps] x [x, y]
    for i, z in enumerate(JUDGE_Z):
        hi, lo, slip = reference_path(1000.0, 1000.0, z, exact)
        kernel = kernel_columns(1000.0, 1000.0, z, prices)
        for row, (x, y) in enumerate(((closed[0][i], closed[1][i]), kernel[:2])):
            errors = rel_err(x, hi, lo).max(), rel_err_y(y, prices, hi, lo).max()
            worst[row] = np.maximum(worst[row], errors)
        # run_steps' slippage is off by up to 1e-4 on small moves (see the
        # strict xfail below); the closed form's has no cancellation
        assert np.all(np.abs(closed[2][i] - slip) <= 1e-14 * slip), z
    assert np.all(worst[0] <= worst[1]), worst
    assert np.all(worst[0] < 2e-15), worst


def found_slippage():
    """The benchmark's arbitrage-only scenario 4, whose price moves by 1.2e-6 at step 7,
    and its slippage there at z = 0 by mpmath."""
    prices = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.01, steps=8, seed=1004).prices
    assert abs(prices[7] / prices[6] - 1.0) < 1.3e-6
    slip = reference_path(1000.0, 1000.0, 0.0, mp_prices(prices))[2][7]
    assert slip == pytest.approx(6.26170438397e-7, rel=1e-11)
    return prices, slip


def test_closed_form_slippage_of_a_small_move_matches_mpmath():
    prices, want = found_slippage()
    got = _kernels.arbitrage_path(1000.0, 1000.0, [0.0], prices, True)[2][0, 7]
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_steps takes the arbitrage's Y move from the rounded stored Y, "
                          "so a small move's slippage is off by 1.3e-4; ROADMAP item 1, "
                          "delta-based slippage")
def test_run_steps_slippage_of_a_small_move_matches_mpmath():
    prices, want = found_slippage()
    got = kernel_columns(1000.0, 1000.0, 0.0, prices)[2][7]
    assert abs(got - want) <= 1e-12 * want


def test_closed_form_agrees_with_run_steps_over_20k_steps():
    prices = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.01, steps=20_000, seed=11).prices
    zs = [0.0, 5e-324, 0.3, 0.6, 0.99, 1.0 - 2.0 ** -52, 1.0]
    x, y, slip, volume = _kernels.arbitrage_path(1000.0, 1000.0, zs, prices, True)
    for i, z in enumerate(zs):
        result = _kernels.run_steps(1000.0, 1000.0, z, prices, True, np.zeros(0),
                                    np.zeros(0), 0, 0.0)
        for got, want in ((x[i], result[1]), (y[i], result[2])):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)
        # run_steps' trade sizes are differences of the stored X, whose rounding
        # is 9.4e-12 of the 0.146 traded at step 1 at z = 0.6
        np.testing.assert_allclose(volume[i], result[7], rtol=1e-11, atol=1e-11 * 1000.0)
        # run_steps' own slippage is off by up to 1.5e-10 of the price here,
        # on moves of 5e-7, so it is held to the benchmark's 1e-9 of the price
        assert np.all(np.abs(slip[i] - result[6]) <= 1e-9 * prices), z


def test_repeated_prices_leave_the_pool_alone():
    # no dead band after step 0: an unchanged price is no trade, bit for bit,
    # and a move of one ulp trades, though x may not resolve it
    prices = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.5, math.nextafter(0.5, 1.0)])
    zs = [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -52, 1.0]
    x, y, slip, volume = _kernels.arbitrage_path(1.0, 1.0, zs, prices, True)
    for t in (1, 3, 4, 6):
        assert np.array_equal(x[:, t], x[:, t - 1]) and np.array_equal(y[:, t], y[:, t - 1])
        assert np.array_equal(volume[:, t], volume[:, t - 1])
        assert not slip[:, t].any()
    assert np.all(volume[:4, 7] > volume[:4, 6]) and np.all(slip[:4, 7] > 0.0)
    # z = 1 has no arbitrage: the reserves stay as they start
    assert not np.any(x[4] - 1.0) and not np.any(y[4] - 1.0) and not volume[4].any()
    without = _kernels.arbitrage_path(3.0, 0.7, zs, prices, False)
    for column, value in zip(without, (3.0, 0.7, 0.0, 0.0)):
        assert np.all(column == value)


def test_a_pool_the_closed_form_leaves_out_steps_through_run_steps():
    # (2-z)*k/(2p) underflows at z = 0.5, so step 0 has no target
    x0, y0, p = 1e-217, 1e-200, 1e100
    assert math.isnan(_kernels.arb_target_x(_kernels.curve_anchor(x0, y0, p, 0.5), p, 0.5))
    prices = np.full(3, p)
    zs = (0.5, 0.99, 1.0)
    closed = _kernels.arbitrage_path(x0, y0, zs, prices, True)
    assert [bool(np.isnan(column[0]).all()) for column in closed] == [True] * 4
    assert not np.isnan(closed[0][1:]).any()
    config = ScenarioConfig(x0=x0, y0=y0, z_values=zs, path=ha.PricePath(prices))
    run = ha.run_scenario(config)[0]
    result = _kernels.run_steps(x0, y0, 0.5, prices, True, np.zeros(0), np.zeros(0), 0, 0.0)
    for name, column in (("reserve_x", 1), ("reserve_y", 2), ("slippage_cost", 6),
                         ("cum_volume", 7)):
        assert run.table[:, METRICS_HEADER.index(name)].tolist() == result[column].tolist()


@pytest.mark.parametrize("u", [0.0, 1e-300, -1e-20, 1e-8, -3e-5, 0.1, -0.3, 0.49, -0.5, 0.5,
                               -0.51, 0.7, 3.0, -20.0, 50.0])
def test_expm1_minus(u):
    with mpmath.workdps(50):
        want = mpmath.expm1(u) - u
        got = float(_kernels._expm1_minus(np.array([u]))[0])
        assert abs(got - want) <= 4e-16 * abs(want)
