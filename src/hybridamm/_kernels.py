"""Numerical kernels shared by the scalar API and the simulator loop.

Kernels are plain Python on floats.  They never raise: an infeasible request
returns ``nan`` or ``inf``, and a trade returns a reason code.  All randomness
stays outside this module; stochastic kernels receive pre-drawn arrays.

One exact-in trade kernel, ``trade_in``, decides whether a trade executes
and what it costs, for ``swap_exact_in`` and for the noise trades of
``run_steps`` alike.  It returns ``EXECUTED``, or why it did not execute:
``DUST`` (below ``DUST_REL`` of the input-side reserve), ``NO_MOVE`` (the
trade pays out nothing) or ``NO_ROOT`` (the new X was not found).
``headroom`` is the largest input the pool can take.  ``swap_exact_in``
turns the reasons into typed exceptions; ``run_steps`` counts them as
skipped trades.

Curve family (mix parameter z in [0, 1], oracle price p, constant k):

    y(x)  = k * x**(z-1) - z*p*x / (2-z)
    y'(x) = k * (z-1) * x**(z-2) - z*p / (2-z)
    y''(x)= k * (z-1) * (z-2) * x**(z-3)

z = 0 is the constant-product curve x*y = k; z = 1 is the line y = k - p*x.
"""

from __future__ import annotations

import math

import numpy as np

# Kernels are never compiled; perfbench/probe.py reads this to name the backend.
NUMBA_ENABLED = False

# Trades moving less than this fraction of the input-side reserve are dust.
DUST_REL = 1e-15
# SellY feasibility floor: the pool never quotes below this fraction of current x.
X_FLOOR_REL = 1e-12

# trade_in reason codes
EXECUTED, DUST, NO_MOVE, NO_ROOT = 0, 1, 2, 3


def pow_zm1(x, z):
    """x**(z-1) with the curve-limit cases exact."""
    if z == 0.0:
        return 1.0 / x
    if z == 1.0:
        return 1.0
    try:
        return math.exp((z - 1.0) * math.log(x))
    except OverflowError:   # tiny x with small z: past double range
        return math.inf


def curve_anchor(x, y, p, z):
    """Constant k of the curve through (x, y) at oracle price p."""
    # k = (y + z*p*x/(2-z)) * x**(1-z); dividing by pow_zm1 keeps the
    # anchoring round trip exact apart from two rounding steps.
    return (y + z * p * x / (2.0 - z)) / pow_zm1(x, z)


def curve_y(k, x, p, z):
    return k * pow_zm1(x, z) - z * p * x / (2.0 - z)


def curve_dy(k, x, p, z):
    return k * (z - 1.0) * (pow_zm1(x, z) / x) - z * p / (2.0 - z)


def curve_d2y(k, x, p, z):
    xx = x * x
    if xx < 2.0 ** -1022:
        # x*x underflows below x ~ 1.5e-154 and reaches 0 below ~ 1.5e-162;
        # dividing by x twice gives inf (or -0.0 at z = 1), never 1/0 or nan
        return k * (z - 1.0) * (z - 2.0) * pow_zm1(x, z) / x / x
    return k * (z - 1.0) * (z - 2.0) * (pow_zm1(x, z) / xx)


def blend_spot(x, y, p, z):
    """Marginal price (1-z)*y/x + z*p; equals -curve_dy on the curve."""
    return (1.0 - z) * (y / x) + z * p


def solvency_bound(k, p, z):
    """x where the Y reserve hits zero; +inf only for the z = 0 hyperbola."""
    if z == 0.0:
        return math.inf
    if z == 1.0:
        return k / p
    if z < 2.0 ** -53:
        # 2 - z rounds to 2, so the bound is sqrt(2k/(zp)).  Here zp can
        # underflow and 2k/(zp) overflow although the bound itself lies well
        # inside double range (about 6.4e161 at z = 5e-324, k = p = 1);
        # scaling z by 2**1000, which is exact, keeps every factor in range.
        return math.sqrt(2.0 * k / (z * 2.0 ** 1000 * p)) * 2.0 ** 500
    return math.exp(math.log((2.0 - z) * k / (z * p)) / (2.0 - z))


def arb_target_x(k, p, z):
    """x on the (k, p, z) curve where the marginal price equals p.

    Undefined at z = 1 (price is p everywhere); returns nan.
    """
    if z == 1.0:
        return math.nan
    return math.exp(math.log((2.0 - z) * k / (2.0 * p)) / (2.0 - z))


def invert_curve(k, p, z, y_target, lo, hi):
    """Solve curve_y(k, x, p, z) == y_target for x in [lo, hi].

    Requires a valid, finite bracket: curve_y(lo) >= y_target >= curve_y(hi)
    (the curve is strictly decreasing).  Bisection to a 1e-13 relative
    bracket, then Newton polish clamped inside it.  Returns nan when the
    bracket is invalid or the tolerance is not reached within 200 rounds.

    Wide brackets (near-zero z puts the solvency bound at ~1e161) are
    split geometrically so the round budget holds for any double inputs.
    """
    if not lo <= hi < math.inf:
        return math.nan
    f_lo = curve_y(k, lo, p, z) - y_target
    f_hi = curve_y(k, hi, p, z) - y_target
    if f_lo < 0.0 or f_hi > 0.0:
        return math.nan
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    a = lo
    b = hi
    converged = False
    for _ in range(200):
        if b > 4.0 * a:
            mid = math.sqrt(a) * math.sqrt(b)
        else:
            mid = 0.5 * (a + b)
        # tight enough that even without the Newton polish the y-residual
        # stays below the PoolState on-curve tolerance
        if b - a <= 1e-13 * mid:
            converged = True
            break
        f_mid = curve_y(k, mid, p, z) - y_target
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            a = mid
        else:
            b = mid
    if not converged:
        return math.nan
    x = 0.5 * (a + b)
    for _ in range(3):
        d = curve_dy(k, x, p, z)
        if d == 0.0 or not math.isfinite(d):
            break
        x_next = x - (curve_y(k, x, p, z) - y_target) / d
        if x_next <= a or x_next >= b:
            break
        x = x_next
    return x


def delta_y(x, y, p, z, dx):
    """Change of the Y reserve when X moves by dx (dx > -x) along the curve.

    Computed as (y + c*x) * expm1((z-1) * log1p(dx/x)) - c*dx with
    c = z*p/(2-z), where y + c*x = k*x**(z-1) on the curve.  Both terms have
    the sign of -dx, so nothing cancels and the result keeps its relative
    accuracy for any trade, dust included; at z = 1 it is exactly -p*dx.
    """
    c = z * p / (2.0 - z)
    if dx > -0.5 * x:
        log_ratio = math.log1p(dx / x)
    else:
        # 1 + dx/x is small here and would carry the rounding of dx/x,
        # magnified x/(x + dx) times; x + dx itself is exact
        log_ratio = math.log((x + dx) / x)
    return (y + c * x) * math.expm1((z - 1.0) * log_ratio) - c * dx


def _power_term_size(x, a, z, s, t):
    """Size u at which the power term of delta_y, a*expm1((z-1)*log1p(s*u/x)), is -s*t."""
    v = math.log1p(-s * t / a) / (z - 1.0)
    if v > 709.0:   # expm1 overflows
        return math.inf
    return s * x * math.expm1(v)


def solve_delta_x(x, y, p, z, dy):
    """dx with delta_y(x, y, p, z, dx) == dy: the X move that shifts Y by dy.

    Requires dy > -y, and for dy > 0 a root with dx > -x*(1 - 2**-52).
    Closed forms at z = 0 and z = 1; otherwise Newton on the trade size
    u = |dx|, whose Y move |delta_y| is concave in u when X is paid in
    (dy < 0) and convex when X is paid out (dy > 0).  The start lies on the
    side from which Newton's iterates approach the root monotonically, below
    it for X paid in and above it for X paid out, so no bracket is needed.
    Returns nan when 100 steps do not converge.
    """
    if z == 1.0:
        return -dy / p
    if z == 0.0:
        return -dy * x / (y + dy)
    s = 1.0 if dy < 0.0 else -1.0   # sign of dx
    t = abs(dy)
    c = z * p / (2.0 - z)
    a = y + c * x
    spot = (1.0 - z) * (y / x) + z * p
    # The power term alone, and the linear term c*u alone, move Y by t at
    # sizes beyond the root; the tangent at u = 0 reaches t below the root
    # for X paid in and beyond it for X paid out.
    if s < 0.0:
        u = min(t / spot, _power_term_size(x, a, z, s, t), x * (1.0 - 2.0 ** -52))
        if not u < x:
            return math.nan
    else:
        hi = _power_term_size(x, a, z, s, t)
        if c > 0.0:
            hi = min(hi, t / c)
        # up to the root the linear term moves Y by at most c*hi, so the
        # power term by at least t - c*hi
        u = max(t / spot, _power_term_size(x, a, z, s, t - c * hi))
    for _ in range(100):
        em = math.expm1((z - 1.0) * math.log1p(s * u / x))
        f = s * (c * s * u - a * em) - t
        step = f / ((1.0 - z) * a * (em + 1.0) / (x + s * u) + c)
        u -= step
        # a step away from the start side means rounding noise at the root
        if s * step >= 0.0 or abs(step) <= 4e-16 * u:
            return s * u
    return math.nan


def headroom(x, y, p, z, k, sell_y):
    """Largest input the pool can take.

    X up to the solvency bound, or Y until X falls to X_FLOOR_REL of x.
    """
    if sell_y:
        return curve_y(k, X_FLOOR_REL * x, p, z) - y
    return solvency_bound(k, p, z) - x


def trade_in(x, y, p, z, k, sell_y, amount):
    """Pay ``amount`` of X (or of Y, if ``sell_y``) into the pool on the (k, p, z) curve.

    Returns ``(x_new, y_new, amount_out, slippage, reason)``.  Unless
    ``reason`` is ``EXECUTED`` the trade did not happen and the reserves come
    back unchanged.  An ``amount`` at or past ``headroom`` gives a
    meaningless result, which callers discard or avoid.

    The reserve paid out moves by ``delta_y`` (SELL_X) or ``solve_delta_x``
    (SELL_Y) of the trade, unless the trade takes more than half of it: what
    is left is then small next to the delta and its rounding, so it is read
    from the curve at the new input-side reserve instead (by ``invert_curve``
    over [X_FLOOR_REL*x, x] for SELL_Y, which is also the fallback when the
    solver fails).  ``slippage`` is the trader's cost against the pre-trade
    marginal price, never negative.

    Known gap: a SELL_X trade whose Y read from the curve lies at or below 0
    still executes.
    """
    if amount < DUST_REL * (y if sell_y else x):
        return x, y, 0.0, 0.0, DUST
    spot0 = blend_spot(x, y, p, z)
    if sell_y:
        dx = solve_delta_x(x, y, p, z, amount)
        if -dx <= 0.5 * x:
            x_new = x + dx
        else:
            x_new = invert_curve(k, p, z, y + amount, X_FLOOR_REL * x, x)
        if math.isnan(x_new):
            return x, y, 0.0, 0.0, NO_ROOT
        y_new = y + amount
        out = x - x_new
    else:
        paid = -delta_y(x, y, p, z, amount)
        if paid <= 0.5 * y:
            y_new = y - paid
        else:
            y_new = curve_y(k, x + amount, p, z)
        x_new = x + amount
        out = y - y_new
    if out <= 0.0:
        return x, y, 0.0, 0.0, NO_MOVE
    slip = amount / out - spot0 if sell_y else spot0 - out / amount
    return x_new, y_new, out, 0.0 if slip < 0.0 else slip, EXECUTED


def run_steps(x0, y0, z, prices, do_arb, noise_frac, noise_dir, trades_per_step,
              max_fraction):
    """Advance one pool through the full scenario; returns per-step metric arrays.

    Per step: oracle update (re-anchor k at fixed reserves), arbitrage to the
    oracle price (skipped at z = 1), then ``trades_per_step`` noise trades.
    ``noise_frac`` holds pre-drawn lognormal size fractions laid out step-major,
    ``noise_dir`` the matching directions (0 sells X, 1 sells Y).  Trades are
    clamped to ``max_fraction`` of the input-side reserve and to 99.9% of
    ``headroom``, then executed by ``trade_in`` as ``swap_exact_in`` executes
    them; a trade whose reason is not ``EXECUTED`` is skipped.  Counters for
    clamped and skipped trades come back with the metric arrays.
    """
    n = prices.shape[0]
    spot_a = np.empty(n)
    x_a = np.empty(n)
    y_a = np.empty(n)
    pool_a = np.empty(n)
    hold_a = np.empty(n)
    il_a = np.empty(n)
    slip_a = np.empty(n)
    vol_a = np.empty(n)

    x = x0
    y = y0
    volume = 0.0
    clamped = 0
    skipped = 0

    for t in range(n):
        p = prices[t]
        k = curve_anchor(x, y, p, z)
        last_slip = 0.0

        if do_arb and z < 1.0:
            x_star = arb_target_x(k, p, z)
            # dead-band absorbs exp/log rounding so already-balanced pools
            # do not trade; a skipped arb leaves |spot - p| ~ 1e-12 * p at worst
            if abs(x_star - x) > 1e-12 * x:
                spot0 = blend_spot(x, y, p, z)
                y_star = curve_y(k, x_star, p, z)
                dx = x_star - x
                dy = y_star - y
                exec_price = abs(dy / dx)
                if dx > 0.0:
                    slip = spot0 - exec_price
                else:
                    slip = exec_price - spot0
                if slip < 0.0:  # rounding guard, trader cost is nonnegative
                    slip = 0.0
                last_slip = slip
                volume += abs(dx)
                x = x_star
                y = y_star

        for j in range(trades_per_step):
            frac = noise_frac[t * trades_per_step + j]
            sell_y = noise_dir[t * trades_per_step + j] != 0
            if not math.isfinite(frac) or frac <= 0.0:
                skipped += 1
                continue
            if frac > max_fraction:
                frac = max_fraction
                clamped += 1
            amount_in = frac * (y if sell_y else x)
            cap = 0.999 * headroom(x, y, p, z, k, sell_y)
            if cap <= 0.0:
                skipped += 1
                continue
            if amount_in > cap:
                amount_in = cap
                clamped += 1
            x_new, y_new, out, slip, reason = trade_in(x, y, p, z, k, sell_y, amount_in)
            if reason != EXECUTED:
                skipped += 1
                continue
            last_slip = slip
            volume += out if sell_y else amount_in   # volume counts X traded
            x = x_new
            y = y_new

        spot_a[t] = blend_spot(x, y, p, z)
        x_a[t] = x
        y_a[t] = y
        pool_a[t] = x + y / p
        hold_a[t] = x0 + y0 / p
        il_a[t] = (hold_a[t] - pool_a[t]) / hold_a[t]
        slip_a[t] = last_slip
        vol_a[t] = volume

    return spot_a, x_a, y_a, pool_a, hold_a, il_a, slip_a, vol_a, clamped, skipped
