"""Numerical kernels shared by the scalar API and the simulator loop.

The scalar kernels, ``trade`` and ``run_steps`` among them, are plain Python
on floats.  ``arbitrage_path`` computes whole arbitraged pools, one per z, as
numpy arrays with numpy's elementwise functions, and its noise trades
(``_unit_trades``, ``_sell_y_moves``) follow ``trade``'s rules elementwise.
Kernels never raise: an infeasible request returns ``nan`` or ``inf``, and a
trade returns a reason code.  All randomness stays outside this module;
stochastic kernels receive pre-drawn arrays.

One trade kernel, ``trade``, decides whether a trade executes and what it
costs, for ``swap_exact_in``, ``swap_exact_out`` and every trade of
``run_steps``, the arbitrage included.  It returns ``EXECUTED``, or why it
did not execute: ``DUST`` (an exact-in amount below ``DUST_REL`` of the
input-side reserve), ``NO_MOVE`` (the amount that follows is not positive),
``NO_ROOT`` (the new X was not found) or ``PAST_BOUND`` (an exact-out SELL_X
lands closer to the solvency bound than doubles resolve, or an exact-out
SELL_Y pays out all of X or more).  ``headroom`` is the largest input the
pool can take.  The swaps turn the reasons into typed exceptions;
``run_steps`` counts a noise trade that did not execute as skipped.

Curve family (mix parameter z in [0, 1], oracle price p): every kernel takes
the point the pool is at, (x, y, p, z), and with c = z*p/(2-z), a = y + c*x,

    y(x')  = a * (x'/x)**(z-1) - c*x'
    y'(x') = a * (z-1) * (x'/x)**(z-1) / x' - c
    y''(x')= a * (1-z) * (2-z) * (x'/x)**(z-1) / x'**2

z = 0 is the hyperbola x'*y' = x*y, z = 1 the line y' = y + p*(x - x').  The
constant k = a * x**(1-z), which may leave double range where x, y and p do
not, is no kernel's input.
"""

from __future__ import annotations

import math

import numpy as np

# Kernels are never compiled; perfbench/probe.py reads this to name the backend.
NUMBA_ENABLED = False

# Trades moving less than this fraction of the input-side reserve are dust.
DUST_REL = 1e-15
# Noise trades are clamped to this share of ``headroom``.
HEADROOM_SHARE = 0.999
# No arbitrage within this fraction of x of its target: the band absorbs exp/log
# rounding, so a balanced pool stays put, and leaves |spot - p| ~ 1e-12 * p at worst.
ARB_BAND_REL = 1e-12
# SellY feasibility floor: the pool never quotes below this fraction of current x.
X_FLOOR_REL = 1e-12

# exact-out SELL_X inverts the curve no further than this fraction of the solvency bound
BOUND_REL = 1.0 - 1e-15

# trade reason codes
EXECUTED, DUST, NO_MOVE, NO_ROOT, PAST_BOUND = 0, 1, 2, 3, 4

# run_steps' and arbitrage_path's noise arguments (fractions, directions, trades per
# step, max fraction) for a run without noise trades
NO_NOISE = (np.empty(0), np.empty(0, dtype=np.int8), 0, 0.0)


def pow_zm1(x, z):
    """x**(z-1) with the curve-limit cases exact; +inf at x = 0 for z < 1."""
    try:
        if z == 0.0:
            return 1.0 / x
        if z == 1.0:
            return 1.0
        return math.exp((z - 1.0) * math.log(x))
    except OverflowError:   # tiny x with small z: past double range
        return math.inf
    except (ZeroDivisionError, ValueError):   # 1/0 and log(0); log(x < 0) has no real value
        return math.inf if x == 0.0 else math.nan


def pow_ratio(x_at, x, z):
    """(x_at/x)**(z-1), by logs where x_at/x leaves double range although x_at does not."""
    ratio = x_at / x
    if not 2.0 ** -1022 <= ratio < math.inf and 0.0 < x_at < math.inf:
        try:
            return math.exp((z - 1.0) * (math.log(x_at) - math.log(x)))
        except OverflowError:
            return math.inf
    return pow_zm1(ratio, z)


def curve_y(x, y, p, z, x_at):
    c = z * p / (2.0 - z)
    return (y + c * x) * pow_ratio(x_at, x, z) - c * x_at


def curve_dy(x, y, p, z, x_at):
    c = z * p / (2.0 - z)
    return (y + c * x) * (z - 1.0) * (pow_ratio(x_at, x, z) / x_at) - c


def curve_d2y(x, y, p, z, x_at):
    c = z * p / (2.0 - z)
    return (1.0 - z) * (2.0 - z) * (y + c * x) * (pow_ratio(x_at, x, z) / x_at) / x_at


def blend_spot(x, y, p, z):
    """Marginal price (1-z)*y/x + z*p; equals -curve_dy on the curve."""
    return (1.0 - z) * (y / x) + z * p


def solvency_bound(x, y, p, z):
    """x where Y hits zero on the curve through (x, y): x * (1 + y/(c*x))**(1/(2-z)),
    above x for every y > 0, and +inf only at z = 0."""
    if z == 0.0:
        return math.inf
    c = z * p / (2.0 - z)
    if z == 1.0:
        return (y + c * x) / c
    if not y > -c * x:   # y + c*x <= 0, which a trade that emptied Y may leave: no curve
        return math.nan
    # r = y/(c*x) directly only from a normal c and c*x: subnormal ones keep few bits
    cx = c * x
    r = y / cx if c >= 2.0 ** -1022 and 2.0 ** -1022 <= cx < math.inf else math.nan
    if not r < math.inf:
        # r = m * 2**e, m in (0.5, 16), formed exactly; past 2**60, where 1 + r is r,
        # e/(2-z) is split exactly into an integer q and a fraction, e/2 below z = 2**-53
        # (a float quotient would move the bound by up to 1e-13 of itself)
        (mx, ex), (my, ey), (mz, ez), (mp, ep) = map(math.frexp, (x, y, z, p))
        m = (2.0 - z) * my / (mz * mp * mx)
        e = ey - ez - ep - ex
        if e >= 60 and y != 0.0:   # frexp(0) gives no exponent
            n, d = (0, 1) if 2.0 - z == 2.0 else z.as_integer_ratio()
            q, rem = divmod(e * d, 2 * d - n)
            try:
                return math.ldexp(mx * 2.0 ** (rem / (2 * d - n)) * m ** (1.0 / (2.0 - z)), q + ex)
            except OverflowError:
                return math.inf
        r = math.ldexp(m, e)
    return x * math.exp(math.log1p(r) / (2.0 - z))


def arb_target_x(x, y, p, z, p_new):
    """x * r**(1/(2-z)), r = ((2-z)*y/x + z*p) / (2*p_new): where the spot price is p_new
    on the curve through (x, y) at price p, its k kept (``arbitrage_step``: p_new = p).
    nan at z = 1, where the price is p everywhere."""
    if z == 1.0:
        return math.nan
    w = 2.0 - z
    ratio = (w * (y / x) + z * p) / (2.0 * p_new)
    if 2.0 ** -1022 <= ratio < math.inf:
        return x * math.exp(math.log(ratio) / w)
    # y/x, z*p or r left double range, although x* may lie inside it: r in logs
    u = math.log(w) + math.log(y) - math.log(x)
    v = math.log(z) + math.log(p) if z > 0.0 else -math.inf
    log_ratio = max(u, v) + math.log1p(math.exp(-abs(u - v))) - math.log(2.0) - math.log(p_new)
    try:
        return math.exp(math.log(x) + log_ratio / w)
    except OverflowError:
        return math.inf


def invert_curve(x, y, p, z, y_target, lo, hi):
    """Solve curve_y(x, y, p, z, x_at) == y_target for x_at in [lo, hi].

    Requires a valid, finite bracket: curve_y(lo) >= y_target >= curve_y(hi)
    (the curve is strictly decreasing).  Bisection to a 1e-13 relative
    bracket, then Newton polish clamped inside it.  Returns nan when the
    bracket is invalid or the tolerance is not reached within 200 rounds.

    Wide brackets (near-zero z puts the solvency bound at ~1e161) are
    split geometrically so the round budget holds for any double inputs.
    """
    if not lo <= hi < math.inf:
        return math.nan
    f_lo = curve_y(x, y, p, z, lo) - y_target
    f_hi = curve_y(x, y, p, z, hi) - y_target
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
        f_mid = curve_y(x, y, p, z, mid) - y_target
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            a = mid
        else:
            b = mid
    if not converged:
        return math.nan
    root = 0.5 * (a + b)
    for _ in range(3):
        d = curve_dy(x, y, p, z, root)
        if d == 0.0 or not math.isfinite(d):
            break
        root_next = root - (curve_y(x, y, p, z, root) - y_target) / d
        if root_next <= a or root_next >= b:
            break
        root = root_next
    return root


def delta_y(x, y, p, z, dx):
    """Change of the Y reserve when X moves by dx (dx > -x) along the curve.

    Computed as (y + c*x) * expm1((z-1) * log1p(dx/x)) - c*dx with
    c = z*p/(2-z), the curve family's terms.  Both terms have the sign of
    -dx, so nothing cancels and the result keeps its relative accuracy for
    any trade, dust included; at z = 1 it is exactly -p*dx.
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
    Returns nan when 100 steps do not converge, or when the spot price or
    Newton's slope underflows to 0.
    """
    if z == 1.0:
        return -dy / p
    if z == 0.0:
        return -dy * x / (y + dy)
    s = 1.0 if dy < 0.0 else -1.0   # sign of dx
    t = abs(dy)
    c = z * p / (2.0 - z)
    a = y + c * x
    spot = (1.0 - z) * (y / x) + z * p   # blend_spot, inlined
    if spot == 0.0:   # underflowed: no start for Newton, so trade inverts the curve
        return math.nan
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
        slope = (1.0 - z) * a * (em + 1.0) / (x + s * u) + c
        if not slope > 0.0:   # underflowed: no Newton step, so trade inverts the curve
            return math.nan
        step = f / slope
        u -= step
        # a step away from the start side means rounding noise at the root
        if s * step >= 0.0 or abs(step) <= 4e-16 * u:
            return s * u
    return math.nan


def headroom(x, y, p, z, sell_y):
    """Largest input the pool can take.

    X up to the solvency bound, or Y until X falls to X_FLOOR_REL of x.
    """
    if sell_y:
        c = z * p / (2.0 - z)
        return (y + c * x) * pow_zm1(X_FLOOR_REL, z) - c * (X_FLOOR_REL * x) - y
    return solvency_bound(x, y, p, z) - x


def trade(x, y, p, z, sell_y, amount, exact_out):
    """Trade X for Y (or Y for X, if ``sell_y``) on the curve through (x, y) at price p.

    ``amount`` is what the trader pays in, or with ``exact_out`` what they
    receive.  Returns ``(x_new, y_new, amount_in, amount_out, slippage,
    reason)``.  Unless ``reason`` is ``EXECUTED`` the trade did not happen and
    the reserves come back unchanged.  An exact-in ``amount`` at or past
    ``headroom`` gives a meaningless result, which callers discard or avoid.

    The trader fixes one reserve's move and the other follows from it:
    - X fixed (SELL_X in, SELL_Y out): Y moves by ``delta_y``, unless more
      than half of Y is paid out; what is left is then small next to the
      delta and its rounding, so it is read from the curve at the new X.
    - Y fixed (SELL_Y in, SELL_X out): X moves by ``solve_delta_x``, unless
      more than half of X is paid out, more than half of Y is paid out at
      0 < z < 1, or the solver fails.  Then ``invert_curve`` finds the new X
      over [X_FLOOR_REL*x, x] (X paid out) or [x, bound*BOUND_REL] (X paid
      in; a Y target the curve only reaches past that is ``PAST_BOUND``).
    The amount that follows is a difference of the stored reserves, and a
    trade where it is not positive is ``NO_MOVE``.  ``slippage`` is the
    trader's cost against the pre-trade marginal price, never negative.

    Known gap: a SELL_X trade whose Y read from the curve lies at or below 0
    still executes.
    """
    if not exact_out and amount < DUST_REL * (y if sell_y else x):
        return x, y, 0.0, 0.0, 0.0, DUST
    spot0 = (1.0 - z) * (y / x) + z * p   # blend_spot, inlined
    if exact_out == sell_y:
        dx = -amount if sell_y else amount
        x_new = x + dx
        if x_new <= 0.0:   # an exact-out SELL_Y that pays out all of X
            return x, y, 0.0, 0.0, 0.0, PAST_BOUND
        dy = delta_y(x, y, p, z, dx)
        y_new = y + dy if -dy <= 0.5 * y else curve_y(x, y, p, z, x_new)
        moved = y_new - y if sell_y else y - y_new
    else:
        dy = amount if sell_y else -amount
        y_new = y + dy
        dx = math.nan
        # past half of Y the solver meets dy, not the small y_new, to its
        # rounding; the closed forms at z = 0 and z = 1 do not
        if -dy <= 0.5 * y or z == 0.0 or z == 1.0:
            dx = solve_delta_x(x, y, p, z, dy)
        if -dx <= 0.5 * x:
            x_new = x + dx
        elif sell_y:
            x_new = invert_curve(x, y, p, z, y_new, X_FLOOR_REL * x, x)
        else:
            hi = solvency_bound(x, y, p, z) * BOUND_REL
            if curve_y(x, y, p, z, hi) > y_new:
                return x, y, 0.0, 0.0, 0.0, PAST_BOUND
            x_new = invert_curve(x, y, p, z, y_new, x, hi)
        if not x_new > 0.0:   # nan, or 0 from a SELL_Y floor X_FLOOR_REL*x that underflows
            return x, y, 0.0, 0.0, 0.0, NO_ROOT
        moved = x - x_new if sell_y else x_new - x
    if moved <= 0.0:
        return x, y, 0.0, 0.0, 0.0, NO_MOVE
    amount_in, amount_out = (moved, amount) if exact_out else (amount, moved)
    slip = amount_in / amount_out - spot0 if sell_y else spot0 - amount_out / amount_in
    return x_new, y_new, amount_in, amount_out, 0.0 if slip < 0.0 else slip, EXECUTED


def arbitrage_step(x, y, p, z):
    """The arbitrageur's ``trade`` to x* = ``arb_target_x``, where the spot price is p.

    X out of the pool is an exact-out SELL_Y of |x* - x|, X in an exact-in
    SELL_X.  Returns ``(x_new, y_new, slippage, volume)``; the X volume is
    |x* - x| if ``trade`` executes, else 0.  There is no trade where x* is nan
    (z = 1) or inf, or within ``ARB_BAND_REL`` of x.
    """
    x_star = arb_target_x(x, y, p, z, p)
    size = abs(x_star - x)
    if not ARB_BAND_REL * x < size < math.inf:
        return x, y, 0.0, 0.0
    sell_y = x_star < x
    x_new, y_new, _, _, slip, reason = trade(x, y, p, z, sell_y, size, sell_y)
    return x_new, y_new, slip, size if reason == EXECUTED else 0.0


def derived_columns(x0, y0, x, y, prices, z):
    """Spot, pool value, hold value (of x0, y0) and il_relative, in X at each price.

    Overflow gives inf or nan silently, as in float arithmetic; ``run_scenario``
    rejects it.  The spot at z = 1 is p, where (1-z)*(y/x) may be 0*inf.
    """
    with np.errstate(all="ignore"):
        pool = x + y / prices
        hold = x0 + y0 / prices
        spot = np.where(z == 1.0, prices, blend_spot(x, y, prices, z))
        return spot, pool, hold, (hold - pool) / hold


def run_steps(x0, y0, z, prices, do_arb, noise_frac, noise_dir, trades_per_step,
              max_fraction):
    """Advance one pool through the full scenario; returns per-step metric arrays.

    Per step: oracle update (the curve through the current reserves at the new
    price), arbitrage to the oracle price (none at z = 1), then
    ``trades_per_step`` noise trades.  ``noise_frac`` holds pre-drawn lognormal
    size fractions laid out step-major, ``noise_dir`` the matching directions
    (0 sells X, 1 sells Y).  Trades are clamped to ``max_fraction`` of the
    input-side reserve and to ``HEADROOM_SHARE`` of ``headroom``.  Every trade,
    the arbitrage included, is executed by ``trade`` as ``swap_exact_in`` and
    ``swap_exact_out`` execute it; a trade whose reason is not ``EXECUTED`` is
    skipped; the arbitrage is ``arbitrage_step``.

    The loop records x, y, the last trade's slippage and the cumulative X
    volume per step, and ``derived_columns`` adds the rest.  Returns ``(spot,
    x, y, pool, hold, il, slippage, volume, clamped, skipped)``, the counts of
    noise trades.
    """
    # Python floats: arithmetic on numpy scalars costs several times as much
    noise_frac = noise_frac.tolist()
    noise_dir = noise_dir.tolist()
    rows = []

    x = x0
    y = y0
    volume = 0.0
    clamped = 0
    skipped = 0

    for t, p in enumerate(prices.tolist()):
        last_slip = 0.0

        if do_arb:
            x, y, last_slip, traded = arbitrage_step(x, y, p, z)
            volume += traded

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
            cap = HEADROOM_SHARE * headroom(x, y, p, z, sell_y)
            if cap <= 0.0:
                skipped += 1
                continue
            if amount_in > cap:
                amount_in = cap
                clamped += 1
            x_new, y_new, amount_in, amount_out, slip, reason = trade(
                x, y, p, z, sell_y, amount_in, False)
            if reason != EXECUTED:
                skipped += 1
                continue
            last_slip = slip
            volume += amount_out if sell_y else amount_in
            x = x_new
            y = y_new

        rows.append((x, y, last_slip, volume))

    x_a, y_a, slip_a, vol_a = np.array(rows).T
    spot_a, pool_a, hold_a, il_a = derived_columns(x0, y0, x_a, y_a, prices, z)
    return spot_a, x_a, y_a, pool_a, hold_a, il_a, slip_a, vol_a, clamped, skipped


def _expm1_minus(u):
    """expm1(u) - u, elementwise, without the cancellation of the subtraction near 0."""
    # below |u| = 0.5 by its Taylor series, whose terms past u**17/17! are
    # under 1e-20 of the sum; above it the subtraction loses under 2 bits
    series = 1.0 / math.factorial(17)
    for n in range(16, 1, -1):
        series = series * u + 1.0 / math.factorial(n)
    return np.where(np.abs(u) < 0.5, series * u * u, np.expm1(u) - u)


def _cumsum2(v):
    """Cumulative sums along axis 1, each as accurate as a twice-as-precise running sum.

    Every rounding error of ``np.cumsum``, whose sums are sequential, is
    recovered exactly by TwoSum and added back through its own running sum
    (Ogita, Rump and Oishi's Sum2, on every prefix).
    """
    s = np.cumsum(v, axis=1)
    prev = np.zeros_like(s)
    prev[:, 1:] = s[:, :-1]
    b = s - prev
    return s + np.cumsum((prev - (s - b)) + (v - b), axis=1)


def _sell_y_moves(x, y, z, t, tried):
    """``solve_delta_x(x, y, 1, z, t)`` elementwise where ``tried``, for Y paid in (t > 0).

    The same closed form at z = 0, and elsewhere the same start and Newton
    steps, each element stopping where ``solve_delta_x`` stops.  An element
    that does not stop within 100 steps, or whose spot price is 0, is nan.
    Elements outside ``tried`` take no Newton step and hold no meaningful move.
    """
    c = z / (2.0 - z)
    a = y + c * x
    spot = blend_spot(x, y, 1.0, z)
    # the starts of solve_delta_x for X paid out, from _power_term_size's sizes
    hi = np.minimum(-x * np.expm1(np.log1p(t / a) / (z - 1.0)), t / c)
    u = np.maximum(t / spot, -x * np.expm1(np.log1p((t - c * hi) / a) / (z - 1.0)))
    active = tried & (z != 0.0) & (spot != 0.0)
    slope = (1.0 - z) * a
    for _ in range(100):
        if not active.any():
            break
        em = np.expm1((z - 1.0) * np.log1p(-u / x))
        step = (c * u + a * em - t) / (slope * (em + 1.0) / (x - u) + c)
        u_next = u - step
        u = np.where(active, u_next, u)
        # stop at a step away from the start side, which means rounding noise
        # at the root, at a step below 4e-16 of u, or at nan; u_next > 0
        # wherever step <= 0
        active &= step > 4e-16 * u_next
    dx = np.where(active | (spot == 0.0), math.nan, -u)
    return np.where(z == 0.0, -t * x / (y + t), dx)


def _unit_trades(z, steps, fractions, directions, trades_per_step, max_fraction):
    """Every step's noise trades on the unit pool (1, 1) at price 1, per pool and step.

    ``z`` is a column with one mix parameter per pool.  Each trade slot is one
    pass over every pool and step, a step's direction being the same in every
    pool.  The trades follow ``run_steps``: clamps to ``max_fraction`` and to
    ``HEADROOM_SHARE`` of ``headroom``, the skips, and ``trade``'s amounts and
    slippage, with the X move of a SELL_Y from ``solve_delta_x``'s Newton.  An
    element that needs one of ``trade``'s other branches (more than half of a
    reserve paid out, or no root) goes through scalar ``trade`` on its own
    unit pool, and takes its reserves from it.

    Returns ``((gx, gx_lo), (gy, gy_lo), slip, volume, clamped, skipped)``:
    each reserve after the step's trades as a float and the rounding error of
    its running sum of moves (Fast2Sum: no move exceeds its reserve), 0 after
    ``trade`` or past 2**-26 of the reserve; the last executed trade's
    slippage, nan where none executed; the X traded; and the counts per pool.
    """
    shape = (len(z), steps)
    gx, gy = np.ones(shape), np.ones(shape)
    gx_lo, gy_lo, volume = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    slip = np.full(shape, math.nan)
    clamped, skipped = np.zeros((2, len(z)), dtype=np.int64)
    c = z / (2.0 - z)
    floor_power = np.exp((z - 1.0) * math.log(X_FLOOR_REL))   # X_FLOOR_REL**(z-1)
    for j in range(trades_per_step):
        frac = fractions[j::trades_per_step]
        sell_y = directions[j::trades_per_step] != 0
        live = np.isfinite(frac) & (frac > 0.0)
        clamped += np.count_nonzero(live & (frac > max_fraction))
        x, y = gx, gy
        reserve = np.where(sell_y, y, x)
        amount = np.minimum(frac, max_fraction) * reserve
        # headroom, written elementwise
        cap = HEADROOM_SHARE * np.where(
            sell_y, (y + c * x) * floor_power - c * (X_FLOOR_REL * x) - y,
            x * np.power(1.0 + y / (c * x), 1.0 / (2.0 - z)) - x)
        room = live & ~(cap <= 0.0)
        capped = room & (amount > cap)
        amount = np.where(capped, cap, amount)
        clamped += capped.sum(axis=1)
        tried = room & ~(amount < DUST_REL * reserve)
        # the amount paid out: X by solve_delta_x's Newton, Y by delta_y's formula
        out = np.where(sell_y, -_sell_y_moves(x, y, z, amount, tried & sell_y),
                       -((y + c * x) * np.expm1((z - 1.0) * np.log1p(amount / x)) - c * amount))
        spot0 = blend_spot(x, y, 1.0, z)
        s = np.where(sell_y, amount / out - spot0, spot0 - out / amount)
        executed = tried & (out > 0.0)   # else NO_MOVE
        rare = tried & ~(out <= 0.5 * np.where(sell_y, x, y))
        x_rare, y_rare = np.empty_like(x), np.empty_like(y)
        for i, t in np.argwhere(rare).tolist():
            x_rare[i, t], y_rare[i, t], _, out[i, t], s[i, t], reason = trade(
                x[i, t].item(), y[i, t].item(), 1.0, z[i, 0].item(), bool(sell_y[t]),
                amount[i, t].item(), False)
            executed[i, t] = reason == EXECUTED
        out = np.where(executed, out, 0.0)
        amount = np.where(executed, amount, 0.0)
        dx, dy = np.where(sell_y, -out, amount), np.where(sell_y, amount, -out)
        # trade finds the reserve left to 1e-13 of itself, x - out to the rounding of x
        reread = rare & executed
        gx, gy = np.where(reread, x_rare, x + dx), np.where(reread, y_rare, y + dy)
        for g, lo, r, dr in ((gx, gx_lo, x, dx), (gy, gy_lo, y, dy)):
            lo += dr - (g - r)
            # an error term large next to its reserve sums roundings from before it drained
            lo[reread | (np.abs(lo) >= 2.0 ** -26 * g)] = 0.0
        volume += np.where(sell_y, out, amount)   # volume counts X traded
        slip = np.where(executed, np.maximum(s, 0.0), slip)
        skipped += (~executed).sum(axis=1)
    return (gx, gx_lo), (gy, gy_lo), slip, volume, clamped, skipped


def arbitrage_path(x0, y0, z_values, prices, *noise):
    """The arbitraged pools of ``run_steps``, one per z < 1, in closed form.

    Takes ``run_steps``' arguments, with one pool per z and the arbitrageur
    on; without the noise arguments it runs ``NO_NOISE``.  Returns ``(x, y,
    slippage, volume, clamped, skipped)``: ``run_steps``' columns of those
    names, each shaped (len(z_values), len(prices)), and its noise-trade
    counts per pool.  A value past double range comes back inf or nan.

    Each arbitrage moves x by exp(l_t) to x*_t, where the spot price is p_t:
    with w = 2 - z and r = y / (p_t*x) before it, l_t = log((w*r + z)/2) / w.
    At step 0, log r comes from exact mantissas and exponents, so r may lie
    past double range, and l_0 = 0 within ``ARB_BAND_REL`` of x_0, the dead
    band.  After each arbitrage the pool is balanced, y = p*x, so the curve,
    the trade rules and the noise sizes, which are all relative, make step
    t's noise trades those of the unit pool (1, 1) at price 1
    (``_unit_trades``), scaled: x and y become x*_t * gx_t and p_t * x*_t *
    gy_t.  So r = p_{t-1}*gy_{t-1} / (p_t*gx_{t-1}) at step t > 0, and l_t =
    log1p(w*(r - 1)/2) / w keeps the digits of a small move.  Then x*_t = x_0
    * exp(l_0) * exp(L_t), where L is a compensated cumulative sum of
    log(gx_{t-1}) + l_t (with l_0 in it, its rounding would grow with |l_0|).
    Without noise gx = gy = 1, and y_t = p_t * x*_t, or y_0 * (p_t/p_0) *
    exp(L_t) within the dead band; both repeat y_{t-1} bit for bit when the
    price does.  Each arbitrage comes from its own l_t, not from differences
    of stored reserves: X moves by x_{t-1} * expm1(l_t), and the slippage,
    ``trade``'s cost against the marginal price before the trade, is
    (y_{t-1}/x_{t-1} + c) * N / |expm1(l_t)| with c = z*p_t/(2-z), a = 1 - z
    and the cancellation-free N = a*(expm1(l) - l) + (expm1(-a*l) + a*l).
    exp(l_0) may leave double range where x*_0 does not, so step 0's expm1
    and N take l_0 clipped to [-700, 700] and x*_0 and its volume the rest of
    the move as a factor; there N / |expm1| comes first, as y_0/x_0 * N can
    overflow, and below the clip it grows by that factor to the power -a.
    A step's slippage is that of its last executed noise trade, the unit
    pool's times p_t, or the arbitrage's if none executed; its volume adds
    x*_t times the unit pool's.  There is no dead band after step 0: a
    balanced pool at an unchanged price has l = 0, so its reserves stay
    exactly as they were and the step reports no arbitrage.
    """
    p0 = float(prices[0])
    # log r from exact mantissas and exponents, so r may lie past double range
    (mx, ex), (my, ey), (mp, ep) = math.frexp(x0), math.frexp(y0), math.frexp(p0)
    log_r = math.log(my / (mx * mp)) + (ey - ex - ep) * math.log(2.0)

    z = np.asarray(z_values, dtype=np.float64)[:, None]
    w, a = 2.0 - z, 1.0 - z

    def after(first, rest):   # step 0's value, then each later step's
        return np.concatenate((np.broadcast_to(first, (len(z), 1)), rest), axis=1)

    # overflow gives inf or nan silently, which run_scenario rejects
    with np.errstate(all="ignore"):
        (gx, gx_lo), (gy, gy_lo), unit_slip, unit_volume, clamped, skipped = _unit_trades(
            z, len(prices), *(noise or NO_NOISE))
        # log((w*r + z)/2), where z/2 would underflow at z = 5e-324
        l0 = (np.logaddexp(np.log(w) + log_r, np.log(z)) - math.log(2.0)) / w
        band = np.abs(np.expm1(l0)) <= ARB_BAND_REL
        l0[band] = 0.0
        clipped = np.clip(l0, -700.0, 700.0)
        beyond = np.exp(l0 - clipped)   # the move beyond the clip, exactly 1 within it
        # gy/gx - 1 before each arbitrage
        gap = (((gy - gx) + (gy_lo - gx_lo)) / (gx + gx_lo))[:, :-1]
        # p_{t-1} - p_t is exact within a factor of 2, so a small move keeps its digits
        move = (prices[:-1] - prices[1:]) / prices[1:]
        move = move + gap + move * gap
        ell = np.log1p(w * move / 2.0) / w
        log_gx = (np.log(gx) + gx_lo / gx)[:, :-1]
        # log(gx_{t-1}) + l_t cancels where the unit X moved by e**4 or more: (a*log(gx) + log h)/w
        h = (z * (gx + gx_lo)[:, :-1] + w * (gy + gy_lo)[:, :-1] * prices[:-1] / prices[1:]) / 2.0
        d = np.where(np.abs(log_gx) > 4.0, (a * log_gx + np.log(h)) / w, log_gx + ell)
        growth = after(1.0, np.exp(_cumsum2(d)))
        xt = x0 * np.exp(clipped) * beyond * growth
        ell = after(clipped, ell)
        yt = np.where(band, y0 * (prices / p0 * growth), prices * xt)
        x, y = xt * gx + xt * gx_lo, yt * gy + yt * gy_lo
        em = np.expm1(ell)
        ea, eb = _expm1_minus(np.stack((ell, -a * ell)))
        n = a * ea + eb
        size = np.abs(em)
        # y/x before each arbitrage, plus c
        spot = after(y0 / x0, prices[:-1] + prices[:-1] * gap) + z * prices / w
        slip = np.where(size > 0.0, spot * n / size, 0.0)
        slip[:, :1] = np.where(band, 0.0, spot[:, :1] * (n[:, :1] / size[:, :1])
                               * np.minimum(beyond, 1.0) ** -a)
        slip = np.where(np.isnan(unit_slip), slip, unit_slip * prices)
        volume = np.cumsum(np.abs(after(x0 * np.maximum(beyond, 1.0), x[:, :-1]) * em)
                           + xt * unit_volume, axis=1)
    return x, y, slip, volume, clamped, skipped
