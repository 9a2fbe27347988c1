"""The closed-form arbitraged pools against a 50-digit reference and ``run_steps``.

``_kernels.arbitrage_path`` computes every arbitraged pool of a z sweep at
once, with noise trades or without.  The reference here runs the simulator's
event order step by step instead, with none of the closed form's log1p
ratios, compensated sums, slippage series or unit pools: it re-anchors k at
the fixed reserves, k = (y + c*x) * x**(1-z) with c = z*p/(2-z), moves x to
the point of that curve where the marginal price is p, and puts y on the
curve there, where y = p*x; then it runs the step's noise trades under
``run_steps``' clamps and skips, moving along the curve, with each X move
paid out found by Newton's method at 51 digits.  It shares no code with the
kernels.  It runs on mpmath's raw number format, whose calls cost a fraction
of the ``mpf`` objects', so its 100k steps take a few seconds.
"""

import functools
import importlib.util
import math
import pathlib
from functools import partial

import mpmath
import numpy as np
import pytest
from mpmath import libmp

import hybridamm as ha
from hybridamm import _kernels
from hybridamm.simulator import METRICS_HEADER, ScenarioConfig

PREC = 170   # bits: 51 digits


def arithmetic(prec):
    """libmp's add, sub, mul, div, log and exp on raw (sign, mantissa, exponent, bits)
    tuples, rounded to nearest at ``prec`` bits."""
    return tuple(partial(fn, prec=prec, rnd="n") for fn in (
        libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div, libmp.mpf_log,
        libmp.mpf_exp))


f = libmp.from_float
ONE, ZERO = f(1.0), libmp.fzero
# run_steps' noise rules: the SELL_Y floor, the share of headroom a trade may
# take, and dust, each as a fraction of a reserve
X_FLOOR, CAP, DUST = f(1e-12), f(0.999), f(1e-15)
BAND = f(_kernels.ARB_BAND_REL)   # the dead band around the arbitrage target, as a fraction of x
NEAR = f(2.0 ** -52)   # a move below this share of its reserve is within the rounding of it


def reference_path(x0, y0, z, prices, noise=None, prec=PREC):
    """Each step's reserves and slippage at ``prec`` bits, and the noise trades' decisions.

    ``prices`` are raw mpmath numbers; ``noise`` is None or ``run_steps``'
    ``(noise_frac, noise_dir, trades_per_step, max_fraction)``.  Per step, the
    arbitrage re-anchors k at the fixed reserves, k = (y + c*x) * x**(1-z)
    with c = z*p/(2-z), moves x to the point of that curve where the marginal
    price is p, and puts y on the curve there, where y = p*x.  It is skipped
    at z = 1, and at step 0 within 1e-12 of x (the dead band).  Then each
    noise trade is clamped to ``max_fraction`` and to 99.9% of the headroom,
    skipped as dust below 1e-15 of its reserve, and moves the pool along the
    curve: Y follows an X paid in from the curve's formula, and X paid out
    for Y paid in is found by Newton's method (``curve_root``).

    Returns x and y as float pairs (hi, lo) whose sums are the computed
    values to 1e-32, the slippage rounded to a float, and the decisions: trades
    clamped and skipped; ``near``, the trades whose headroom or move lies
    within the rounding of the reserves it is read from, which this run
    skips, as a float run may or may not; and ``band``, the arbitrages after
    step 0 that lie within the dead band, where ``run_steps`` skips what the
    closed form does.
    The slippage is ``trade``'s cost against the marginal price before the
    trade: amount_in/amount_out - spot for X bought, spot - amount_out/amount_in
    for X sold, both |spot + dy/dx|, of the step's last trade.
    """
    add, sub, mul, div, log, exp = arithmetic(prec)
    fractions, directions, per_step, max_fraction = noise or ([], [], 0, 0.0)
    fractions, directions = list(fractions), list(directions)
    arbitrage = z < 1.0
    z = f(z)
    a = sub(ONE, z)   # 1 - z
    w = sub(f(2.0), z)   # 2 - z
    zw, inv_w = div(z, w), div(ONE, w)
    floor_power = exp(mul(sub(z, ONE), log(X_FLOOR)))   # X_FLOOR**(z-1)
    x, y = f(x0), f(y0)
    xs, ys, slips = [], [], []
    decisions = dict(clamped=0, skipped=0, near=0, band=0)
    for t, p in enumerate(prices):
        c = mul(zw, p)
        slip = 0.0
        if arbitrage:
            ratio = div(y, x)
            # where the marginal price (1-z)*k*x**(z-2) + c is p,
            # x**(2-z) = k/(p + c) = x**(2-z) * (y/x + c)/(p + c)
            x_new = mul(x, exp(mul(log(div(add(ratio, c), add(p, c))), inv_w)))
            dx = sub(x_new, x)
            within = libmp.mpf_le(libmp.mpf_abs(dx), mul(BAND, x))
            decisions["band"] += within and t > 0
            if not (within and t == 0):
                y_new = mul(p, x_new)   # on that curve, where its marginal price is p
                spot = add(mul(a, ratio), mul(z, p))
                slip = (0.0 if dx == ZERO else
                        libmp.to_float(libmp.mpf_abs(add(spot, div(sub(y_new, y), dx))), rnd="n"))
                x, y = x_new, y_new
        for frac, sell_y in zip(fractions[t * per_step:(t + 1) * per_step],
                                directions[t * per_step:(t + 1) * per_step]):
            if not math.isfinite(frac) or frac <= 0.0:
                decisions["skipped"] += 1
                continue
            if frac > max_fraction:
                frac = max_fraction
                decisions["clamped"] += 1
            reserve = y if sell_y else x
            amount = mul(f(frac), reserve)
            total = add(y, mul(c, x))   # y + c*x: the curve is total*(x'/x)**(z-1) - c*x'
            if sell_y:   # Y in, until X falls to X_FLOOR of x
                room = sub(sub(mul(total, floor_power), mul(c, mul(X_FLOOR, x))), y)
                scale = total
            elif c == ZERO:   # the z = 0 hyperbola takes any X
                room = None
            else:   # X in, up to the solvency bound x*(1 + y/(c*x))**(1/(2-z))
                room = sub(mul(x, exp(mul(log(add(ONE, div(y, mul(c, x)))), inv_w))), x)
                scale = add(x, room)
            if room is not None:
                # the headroom is a difference of curve values, and a float run finds
                # none, or some, where it lies within their rounding; it is positive here
                if libmp.mpf_lt(room, mul(NEAR, scale)):
                    decisions["near"] += 1
                    decisions["skipped"] += 1
                    continue
                cap = mul(CAP, room)
                if libmp.mpf_gt(amount, cap):
                    amount = cap
                    decisions["clamped"] += 1
            if libmp.mpf_lt(amount, mul(DUST, reserve)):
                decisions["skipped"] += 1
                continue
            spot = add(mul(a, div(y, x)), mul(z, p))
            if sell_y:
                y_new = add(y, amount)
                x_new = curve_root(x, total, c, z, y_new, sub(x, div(amount, spot)), prec)
                moved, out_reserve = sub(x, x_new), x
                cost = sub(div(amount, moved), spot)
            else:
                x_new = add(x, amount)
                y_new = sub(mul(total, exp(mul(sub(z, ONE), log(div(x_new, x))))), mul(c, x_new))
                moved, out_reserve = sub(y, y_new), y
                cost = sub(spot, div(moved, amount))
            if libmp.mpf_lt(moved, mul(NEAR, out_reserve)):
                decisions["near"] += 1
                decisions["skipped"] += 1
                continue
            x, y = x_new, y_new
            slip = libmp.to_float(cost, rnd="n")
        xs.append(x)
        ys.append(y)
        slips.append(slip)
    return (*split(xs), *split(ys), np.array(slips), decisions)


def curve_root(x, total, c, z, y_target, start, prec):
    """x' < x on the curve total*(x'/x)**(z-1) - c*x' = y_target, by Newton's method at
    ``prec`` bits.

    The curve is decreasing and convex in x', so from a start left of the
    root (the tangent at x lands there) the iterates rise to it monotonically.
    """
    _, sub, mul, div, log, exp = arithmetic(prec)
    zm1 = sub(z, ONE)

    def curve(u):
        return mul(total, exp(mul(zm1, log(div(u, x)))))   # the power term at u

    u = start
    if not libmp.mpf_gt(u, ZERO):   # the tangent left the domain: halve x until left of the root
        u = div(x, f(2.0))
        while libmp.mpf_le(sub(sub(curve(u), mul(c, u)), y_target), ZERO):
            u = div(u, f(2.0))
    for _ in range(100):
        power = curve(u)
        step = div(sub(sub(power, mul(c, u)), y_target), sub(div(mul(zm1, power), u), c))
        u = sub(u, step)
        if libmp.mpf_le(libmp.mpf_abs(step), mul(f(2.0 ** (10 - prec)), u)):
            return u
    raise AssertionError("no root")


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


def rel_err(got, hi, lo):
    # got - hi is exact wherever got lies within a factor 2 of hi
    return np.abs((got - hi) - lo) / hi


def kernel_columns(x0, y0, z, prices, noise=(np.zeros(0), np.zeros(0), 0, 0.0)):
    """x, y, slippage and the noise-trade counts of one pool from run_steps."""
    result = _kernels.run_steps(x0, y0, z, prices, True, *noise)
    return result[1], result[2], result[6], result[8], result[9]


JUDGE_Z = [i / 20 for i in range(20)] + [1.0 - 2.0 ** -52, 5e-324]


@pytest.mark.parametrize("steps, sigma", [(40, 0.01), (2000, 0.01), (2000, 0.1)])
def test_closed_form_is_as_accurate_as_run_steps(steps, sigma):
    prices = ha.gbm_path(p0=1.0, mu=0.0, sigma=sigma, steps=steps, seed=7).prices
    closed = _kernels.arbitrage_path(1000.0, 1000.0, JUDGE_Z, prices, True)
    exact = mp_prices(prices)
    worst = np.zeros((2, 2))   # [closed form, run_steps] x [x, y]
    for i, z in enumerate(JUDGE_Z):
        x_hi, x_lo, y_hi, y_lo, slip, _ = reference_path(1000.0, 1000.0, z, exact)
        kernel = kernel_columns(1000.0, 1000.0, z, prices)
        for row, (x, y) in enumerate(((closed[0][i], closed[1][i]), kernel[:2])):
            errors = rel_err(x, x_hi, x_lo).max(), rel_err(y, y_hi, y_lo).max()
            worst[row] = np.maximum(worst[row], errors)
        # run_steps' slippage is off by up to 1e-4 on small moves (see the
        # strict xfail below); the closed form's has no cancellation
        assert np.all(np.abs(closed[2][i] - slip) <= 1e-14 * slip), z
    assert np.all(worst[0] <= worst[1]), worst
    assert np.all(worst[0] < 2e-15), worst


def load_perfbench_scenarios():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def noise_draws(config):
    """The noise arrays ``run_scenario`` draws for a config, as ``run_steps`` takes them."""
    noise = config.noise
    rng = np.random.Generator(np.random.PCG64(noise.seed))
    total = len(config.path) * noise.trades_per_step
    fractions = np.exp(noise.size_mu + noise.size_sigma * rng.standard_normal(total))
    directions = rng.integers(0, 2, size=total, dtype=np.int8)
    return fractions, directions, noise.trades_per_step, noise.max_fraction


NOISE_JUDGE = {
    # 200 steps with the noise of the README's re-anchor workload
    "gbm-200": {"x0": 1000.0, "y0": 1000.0, "p0": 1.0, "steps": 200,
                "z_values": [0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0 ** -52],
                "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.01, "seed": 7},
                "noise": {"size_mu": -3.5, "size_sigma": 0.8, "seed": 7, "trades_per_step": 2,
                          "max_fraction": 0.25}},
    # large trades: clamps to the headroom, and trades past half of a reserve
    "heavy-60": {"x0": 3.0, "y0": 700.0, "p0": 50.0, "steps": 60,
                 "z_values": [0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0 ** -52],
                 "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.2, "seed": 3},
                 "noise": {"size_mu": -0.5, "size_sigma": 1.0, "seed": 5, "trades_per_step": 3,
                           "max_fraction": 0.9}},
}
_perfbench = load_perfbench_scenarios()
NOISE_JUDGE.update({f"sim-noise-{ref}": _perfbench.scenario("sim-noise", ref) for ref in range(8)})


@functools.cache
def judged(case):
    """The case's config and noise, the closed form, and per pool run_steps and the reference."""
    config = ScenarioConfig.from_dict(NOISE_JUDGE[case])
    prices = config.path.prices
    noise = noise_draws(config)
    closed = _kernels.arbitrage_path(config.x0, config.y0, config.z_values, prices, True, *noise)
    exact = mp_prices(prices)
    pools = [(kernel_columns(config.x0, config.y0, z, prices, noise),
              reference_path(config.x0, config.y0, z, exact, noise)) for z in config.z_values]
    return config, closed, pools


def reserve_errors(x, y, reference, prices):
    """Largest distance of x and of y/p from the reference, per step, in units of its pool value."""
    x_hi, x_lo, y_hi, y_lo = reference[:4]
    value = x_hi + y_hi / prices
    return ((np.abs((x - x_hi) - x_lo) / value).max(),
            (np.abs((y - y_hi) - y_lo) / prices / value).max())


@pytest.mark.parametrize("case", sorted(NOISE_JUDGE))
def test_noise_pools_match_the_reference(case):
    """Both routes agree with the reference on every step's reserves, to 1e-12 of the pool
    value, and on every decision; the closed form is at least as accurate as run_steps.

    Not so on ``heavy-60``, which is here for its clamps and past-half trades: there a
    step can shrink a reserve tenfold, so each step's rounding is magnified in the
    smaller reserve's relative error, and both routes end within 3.1e-15 of the pool
    value, the closed form at up to 1.5 times run_steps' error.
    """
    config, closed, pools = judged(case)
    prices = config.path.prices
    worst = np.zeros((2, 2))   # [closed form, run_steps] x [x, y]
    for i, (z, (kernel, reference)) in enumerate(zip(config.z_values, pools)):
        decisions = reference[5]
        # no arbitrage after step 0 lies in the dead band, where the two routes' rules differ
        assert decisions["band"] == 0, (z, decisions)
        routes = [("run_steps", kernel[0], kernel[1], kernel[3], kernel[4])]
        if z < 1.0:
            assert decisions["near"] == 0, (z, decisions)
            routes.append(("closed form", closed[0][i], closed[1][i], closed[4][i], closed[5][i]))
        for name, x, y, clamped, skipped in routes:
            errors = reserve_errors(x, y, reference, prices)
            assert max(errors) <= 1e-12, (name, z, errors)
            # each decision within rounding of its boundary may go either way
            for got, want in ((clamped, decisions["clamped"]), (skipped, decisions["skipped"])):
                assert abs(got - want) <= decisions["near"], (name, z, clamped, skipped, decisions)
            if z < 1.0:
                row = int(name == "run_steps")
                worst[row] = np.maximum(worst[row], errors)
    assert np.all(worst[0] <= worst[1]) or case == "heavy-60", worst


def test_the_closed_form_runs_no_scalar_kernel(monkeypatch):
    """An unbalanced start with noise trades, none of which pays out half of a reserve,
    runs without ``arbitrage_step``, ``curve_anchor``, ``trade`` or ``run_steps``."""
    config = ScenarioConfig.from_dict(dict(NOISE_JUDGE["gbm-200"], x0=3.0, y0=0.7))

    def scalar(*args):
        raise AssertionError("a scalar kernel ran")

    for name in ("arbitrage_step", "curve_anchor", "trade", "run_steps"):
        monkeypatch.setattr(_kernels, name, scalar)
    closed = _kernels.arbitrage_path(config.x0, config.y0, config.z_values, config.path.prices,
                                     True, *noise_draws(config))
    assert all(np.isfinite(column).all() for column in closed[:4])


def test_reference_holds_its_digits_over_the_noise_path():
    """The reference's reserves at 50 and at 80 digits agree to 1e-30 on the 200-step noise
    path at z = 0.3, with the same decisions, so its own rounding lies far below the
    errors it judges."""
    config = ScenarioConfig.from_dict(NOISE_JUDGE["gbm-200"])
    exact, noise = mp_prices(config.path.prices), noise_draws(config)
    low, high = (reference_path(config.x0, config.y0, 0.3, exact, noise, libmp.dps_to_prec(dps))
                 for dps in (50, 80))
    for i in (0, 2):   # x, then y, each a float pair (hi, lo)
        gap = (low[i] - high[i]) + (low[i + 1] - high[i + 1])
        assert np.all(np.abs(gap) <= 1e-30 * high[i]), i
    assert low[5] == high[5]


@pytest.mark.parametrize("case", sorted(NOISE_JUDGE))
def test_noise_pool_slippage_matches_the_reference(case):
    """The closed form's slippage is no further off than run_steps', which reads each
    trade's amounts off the stored reserves, and within 1e-11 of the price.

    That bound is for heavy-60, where both routes follow ``trade``: a SELL_Y past half
    of X finds the new X by bisection to 1e-13 of itself, and at z = 1 - 2**-52 the
    slippage amount_in/amount_out - spot of a trade of 90% of Y, about 2e-9 of the
    price, is then off by 1.2e-12 of the price in the closed form and 2.6e-12 in
    run_steps.  Elsewhere the closed form is within 6e-16 of the price.
    """
    config, closed, pools = judged(case)
    prices = config.path.prices
    for i, (z, (kernel, reference)) in enumerate(zip(config.z_values, pools)):
        if z < 1.0:
            closed_error, kernel_error = ((np.abs(slip - reference[4]) / prices).max()
                                          for slip in (closed[2][i], kernel[2]))
            assert closed_error <= 1e-11, (z, closed_error)
            # on heavy-60 at z = 0.3 and 0.5 the closed form is off by up to 1.4 times
            # run_steps' 1.6e-13 and 2.4e-13, on trades past half a reserve
            assert closed_error <= kernel_error or case == "heavy-60", (z, closed_error,
                                                                        kernel_error)


@pytest.mark.parametrize("case", ["gbm-200", "heavy-60"])
def test_unit_trades_are_run_steps_on_the_unit_pool(case):
    """Each step's noise trades on the unit pool are run_steps' single step from (1, 1) at
    price 1, where the arbitrage lies in the dead band: the reserves and volume to 1e-13,
    the slippage to 1e-10 of the price, and the counts exactly.

    The slippage bound is for trades past half of a reserve, which both routes take
    through ``trade`` from reserves a few ulps apart: the new X is found to 1e-13 of
    itself, and amount_in/amount_out - spot magnifies that to 2e-11 on heavy-60.
    """
    config = ScenarioConfig.from_dict(NOISE_JUDGE[case])
    fractions, directions, per_step, max_fraction = noise_draws(config)
    zs = [0.0, 5e-324, 0.3, 0.5, 0.9, 1.0 - 2.0 ** -52]
    steps = len(config.path)
    with np.errstate(all="ignore"):
        (gx, gx_lo), (gy, gy_lo), slip, volume, clamped, skipped = _kernels._unit_trades(
            np.array(zs)[:, None], steps, fractions, directions, per_step, max_fraction)
    for i, z in enumerate(zs):
        counts = np.zeros(2, dtype=np.int64)
        for t in range(steps):
            draws = slice(t * per_step, (t + 1) * per_step)
            want = _kernels.run_steps(1.0, 1.0, z, np.ones(1), True, fractions[draws],
                                      directions[draws], per_step, max_fraction)
            # a step with no executed trade reports the arbitrage's slippage, 0 here
            got = (gx[i, t] + gx_lo[i, t], gy[i, t] + gy_lo[i, t],
                   0.0 if np.isnan(slip[i, t]) else slip[i, t], volume[i, t])
            for g, w, bound in zip(got, (want[1][0], want[2][0], want[6][0], want[7][0]),
                                   (1e-13, 1e-13, 1e-10, 1e-13)):
                assert abs(g - w) <= bound, (z, t, got, want)
            counts += want[8:]
        assert (clamped[i], skipped[i]) == tuple(counts), z


def test_sell_y_moves_are_the_same_on_the_tried_elements():
    """Newton on the tried elements alone gives each of them the bits it gets when every
    element is tried."""
    rng = np.random.default_rng(5)
    z = np.array([0.0, 5e-324, 0.3, 1.0 - 2.0 ** -52])[:, None]
    shape = (len(z), 500)
    # unit pools a few trades away from (1, 1), and SELL_Y amounts of up to a few times y
    x, y = np.exp(rng.normal(0.0, 0.5, shape)), np.exp(rng.normal(0.0, 0.5, shape))
    t = y * np.exp(rng.normal(-2.0, 1.5, shape))
    tried = rng.random(shape) < 0.5
    with np.errstate(all="ignore"):
        want = _kernels._sell_y_moves(x, y, z, t, np.ones(shape, dtype=bool))
        got = _kernels._sell_y_moves(x, y, z, t, tried)
    assert (got.view(np.int64) == want.view(np.int64))[tried].all()


def test_noise_counts_match_run_steps_on_every_sim_noise_reference():
    """The closed form's clamped and skipped counts are run_steps', pool by pool."""
    for ref in range(_perfbench.REFERENCE_SEEDS):
        config = ScenarioConfig.from_dict(_perfbench.scenario("sim-noise", ref))
        prices, noise = config.path.prices, noise_draws(config)
        closed = _kernels.arbitrage_path(config.x0, config.y0, config.z_values, prices, True,
                                         *noise)
        for i, z in enumerate(config.z_values):
            if z < 1.0:
                counts = kernel_columns(config.x0, config.y0, z, prices, noise)[3:]
                assert (closed[4][i], closed[5][i]) == counts, (ref, z)


def test_reanchor_workload_counts():
    # the README's re-anchor workload with noise: only the max_fraction clamp fires
    # below z = 1; the z = 1 pool steps, drains and skips nearly every trade
    config = ScenarioConfig.from_dict({
        "x0": 1000.0, "y0": 1000.0, "p0": 1.0, "z_values": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        "steps": 20_000, "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.01, "seed": 42},
        "noise": {"size_mu": -3.5, "size_sigma": 0.8, "seed": 7, "trades_per_step": 2,
                  "max_fraction": 0.25}})
    counts = [(run.clamped_trades, run.skipped_trades) for run in ha.run_scenario(config)]
    assert counts == [(145, 0)] * 5 + [(150, 39_899)]


Z1_CASES = [case for case in sorted(NOISE_JUDGE) if 1.0 in NOISE_JUDGE[case]["z_values"]]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at z = 1, run_steps reads a trade's Y move from the rounded stored "
                          "reserves and reports slippage up to 0.095 where the curve has none; "
                          "ROADMAP item 1, delta-based slippage")
def test_run_steps_slippage_at_z1_matches_the_reference():
    for case in Z1_CASES:
        config, _, pools = judged(case)
        kernel, reference = pools[config.z_values.index(1.0)]
        error = (np.abs(kernel[2] - reference[4]) / config.path.prices).max()
        assert error <= 1e-12, (case, error)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at z = 1, run_steps keeps SELL_X trades that leave reserve_y <= 0, "
                          "where the reference's Y stays positive; ROADMAP item 1, "
                          "no trade that empties Y")
def test_run_steps_keeps_y_positive_at_z1():
    for case in Z1_CASES:
        config, _, pools = judged(case)
        kernel, reference = pools[config.z_values.index(1.0)]
        assert np.all(reference[2] > 0.0)
        assert np.all(kernel[1] > 0.0), case


def found_slippage():
    """The benchmark's arbitrage-only scenario 4, whose price moves by 1.2e-6 at step 7,
    and its slippage there at z = 0 by mpmath."""
    prices = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.01, steps=8, seed=1004).prices
    assert abs(prices[7] / prices[6] - 1.0) < 1.3e-6
    slip = reference_path(1000.0, 1000.0, 0.0, mp_prices(prices))[4][7]
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


# run_steps' columns, in the order it returns them
STEPPED_COLUMNS = ("spot_price", "reserve_x", "reserve_y", "pool_value", "hold_value",
                   "il_relative", "slippage_cost", "cum_volume")


def assert_stepped(run, x0, y0, prices, arbitrageur=True):
    """A run_scenario pool's columns and counts are run_steps', bit for bit."""
    result = _kernels.run_steps(x0, y0, run.z, prices, arbitrageur, np.zeros(0), np.zeros(0),
                                0, 0.0)
    for name, column in zip(STEPPED_COLUMNS, result):
        assert run.table[:, METRICS_HEADER.index(name)].tobytes() == column.tobytes(), name
    assert (run.clamped_trades, run.skipped_trades) == result[8:]


def test_closed_form_agrees_with_run_steps_over_20k_steps():
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.01, steps=20_000, seed=11)
    prices = path.prices
    zs = [0.0, 5e-324, 0.3, 0.6, 0.99, 1.0 - 2.0 ** -52]
    x, y, slip, volume, _, _ = _kernels.arbitrage_path(1000.0, 1000.0, zs + [1.0], prices, True)
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
    # the z = 1 pool is left to run_steps
    assert all(np.isnan(column[-1]).all() for column in (x, y, slip, volume))
    config = ScenarioConfig(x0=1000.0, y0=1000.0, z_values=(1.0,), path=path)
    assert_stepped(ha.run_scenario(config)[0], 1000.0, 1000.0, prices)


def test_repeated_prices_leave_the_pool_alone():
    # no dead band after step 0: an unchanged price is no trade, bit for bit,
    # and a move of one ulp trades, though x may not resolve it
    prices = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.5, math.nextafter(0.5, 1.0)])
    zs = (0.0, 5e-324, 0.5, 1.0 - 2.0 ** -52, 1.0)
    x, y, slip, volume, _, _ = _kernels.arbitrage_path(1.0, 1.0, zs, prices, True)
    for t in (1, 3, 4, 6):
        assert np.array_equal(x[:4, t], x[:4, t - 1]) and np.array_equal(y[:4, t], y[:4, t - 1])
        assert np.array_equal(volume[:4, t], volume[:4, t - 1])
        assert not slip[:4, t].any()
    assert np.all(volume[:4, 7] > volume[:4, 6]) and np.all(slip[:4, 7] > 0.0)
    # the closed form leaves the z = 1 pool and the pools without the arbitrageur to
    # run_steps, where nothing trades and the reserves stay as they start
    without = _kernels.arbitrage_path(3.0, 0.7, zs, prices, False)
    assert all(np.isnan(column[4]).all() for column in (x, y, slip, volume))
    assert all(np.isnan(column).all() for column in without[:4])
    runs = [(1.0, 1.0, True, ha.run_scenario(ScenarioConfig(
        x0=1.0, y0=1.0, z_values=zs, path=ha.PricePath(prices)))[4])]
    runs += [(3.0, 0.7, False, run) for run in ha.run_scenario(ScenarioConfig(
        x0=3.0, y0=0.7, z_values=zs, path=ha.PricePath(prices), arbitrageur=False))]
    for x0, y0, arbitrageur, run in runs:
        assert_stepped(run, x0, y0, prices, arbitrageur)
        for name, value in (("reserve_x", x0), ("reserve_y", y0), ("slippage_cost", 0.0),
                            ("cum_volume", 0.0)):
            assert np.all(run.table[:, METRICS_HEADER.index(name)] == value), (run.z, name)


def test_a_pool_the_closed_form_leaves_out_steps_through_run_steps():
    # (2-z)*k/(2p) underflows at z = 0.5, so the re-anchored curve has no target; the
    # closed form needs no k and moves the pool to x* = 3.97e-218
    x0, y0, p = 1e-217, 1e-200, 1e100
    assert math.isnan(_kernels.arb_target_x(_kernels.curve_anchor(x0, y0, p, 0.5), p, 0.5))
    prices = np.full(3, p)
    zs = (0.5, 0.99, 1.0)
    closed = _kernels.arbitrage_path(x0, y0, zs, prices, True)
    assert closed[0][0, 0] == pytest.approx(3.97e-218, rel=1e-3)
    for i, z in enumerate(zs[:2]):
        x_hi, x_lo, y_hi, y_lo, slip, _ = reference_path(x0, y0, z, mp_prices(prices))
        assert rel_err(closed[0][i], x_hi, x_lo).max() <= 2.5e-15, z
        assert rel_err(closed[1][i], y_hi, y_lo).max() <= 2.5e-15, z
        assert np.all(np.abs(closed[2][i] - slip) <= 1e-15 * slip), z
    # the z = 1 pool has no arbitrage, so it is left out
    assert [bool(np.isnan(column[2]).all()) for column in closed[:4]] == [True] * 4
    config = ScenarioConfig(x0=x0, y0=y0, z_values=zs, path=ha.PricePath(prices))
    assert_stepped(ha.run_scenario(config)[2], x0, y0, prices)


UNBALANCED_STARTS = [(1.0, 2.0, 1.0), (3.0, 0.7, 1.0), (3.0, 700.0, 50.0), (1e-3, 500.0, 7.0),
                     (1e6, 1e-3, 1e-2)]


@pytest.mark.parametrize("x0, y0, p0", UNBALANCED_STARTS)
def test_closed_form_from_an_unbalanced_start_matches_the_reference(x0, y0, p0):
    """Step 0's arbitrage comes from the closed form's own log formula, so an unbalanced
    start is as accurate as a balanced one: x and y within 2.5e-15 of the reference on
    200 GBM steps, and the slippage within 1e-15 of itself."""
    prices = ha.gbm_path(p0=p0, mu=0.0, sigma=0.01, steps=200, seed=3).prices
    closed = _kernels.arbitrage_path(x0, y0, JUDGE_Z, prices, True)
    exact = mp_prices(prices)
    for i, z in enumerate(JUDGE_Z):
        x_hi, x_lo, y_hi, y_lo, slip, _ = reference_path(x0, y0, z, exact)
        errors = rel_err(closed[0][i], x_hi, x_lo).max(), rel_err(closed[1][i], y_hi, y_lo).max()
        assert max(errors) <= 2.5e-15, (z, errors)
        assert np.all(np.abs(closed[2][i] - slip) <= 1e-15 * slip), z


def test_step_zero_keeps_the_z_term_at_subnormal_z():
    """r = y0/(p0*x0) = 4e-398 lies past double range, so z/2 = 2.5e-324 outweighs w*r/2 at
    z = 5e-324, although z/2 rounds to 0: the pool moves to x* = 8.9e-181, not 8.9e-183.
    l_0 = -373 there, and a half ulp of it is 2.8e-14 of x*."""
    x0, y0, p0 = 5.65436523868885e-19, 9.696905985201018e-84, 4.238979148115741e296
    prices = ha.gbm_path(p0=p0, mu=0.0, sigma=0.03, steps=20, seed=1).prices
    closed = _kernels.arbitrage_path(x0, y0, [5e-324], prices, True)
    x_hi, x_lo, y_hi, y_lo, slip, _ = reference_path(x0, y0, 5e-324, mp_prices(prices))
    assert rel_err(closed[0][0], x_hi, x_lo).max() <= 1e-13
    assert rel_err(closed[1][0], y_hi, y_lo).max() <= 1e-13
    assert np.all(np.abs(closed[2][0] - slip) <= 1e-13 * slip)


# ------------------------------------------------------------------ arbitrage_step


@pytest.mark.parametrize("z", [0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0 ** -52])
def test_arbitrage_dead_band_on_a_balanced_start(z):
    # y = p*x puts the target within rounding of x; a start whose target lies 5e-13 of x
    # away stays in the band, and one 2e-12 away trades
    for x, p in ((1.0, 1.0), (1000.0, 1.7), (3e-5, 2e4), (2.5, 0.01)):
        for gap, in_band in ((0.0, True), (1e-12, True), (4e-12, False)):
            y = p * x * (1.0 + gap)
            step = _kernels.arbitrage_step(x, y, p, z, _kernels.curve_anchor(x, y, p, z))
            if in_band:
                assert step == (x, y, 0.0, 0.0), (x, p, gap)
            else:
                assert step[3] > 0.0, (x, p, gap)
    # so run_steps leaves a balanced pool alone at step 0
    result = _kernels.run_steps(1000.0, 1700.0, z, np.full(2, 1.7), True, np.zeros(0),
                                np.zeros(0), 0, 0.0)
    assert result[1].tolist() == [1000.0] * 2 and result[7].tolist() == [0.0] * 2


def test_arbitrage_step_without_a_target():
    # (2-z)*k/(2p) underflows at z = 0.5, and z = 1 has no target at all
    x, y, p = 1e-217, 1e-200, 1e100
    for z in (0.5, 1.0):
        k = _kernels.curve_anchor(x, y, p, z)
        assert _kernels.arbitrage_step(x, y, p, z, k) == (x, y, 0.0, 0.0)


@pytest.mark.parametrize("z", [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -52])
def test_arbitrage_volume_is_the_requested_size(z):
    # X out of the pool (an exact-out SELL_Y) and X in (an exact-in SELL_X)
    for x0, y0 in ((1000.0, 1300.0), (1000.0, 700.0), (2.0, 0.5)):
        k = _kernels.curve_anchor(x0, y0, 1.0, z)
        size = abs(_kernels.arb_target_x(k, 1.0, z) - x0)
        *_, volume = _kernels.arbitrage_step(x0, y0, 1.0, z, k)
        result = _kernels.run_steps(x0, y0, z, np.ones(1), True, np.zeros(0), np.zeros(0),
                                    0, 0.0)
        assert size > 0.0 and volume == size == result[7][0], (x0, y0)


@pytest.mark.parametrize("u", [0.0, 1e-300, -1e-20, 1e-8, -3e-5, 0.1, -0.3, 0.49, -0.5, 0.5,
                               -0.51, 0.7, 3.0, -20.0, 50.0])
def test_expm1_minus(u):
    with mpmath.workdps(50):
        want = mpmath.expm1(u) - u
        got = float(_kernels._expm1_minus(np.array([u]))[0])
        assert abs(got - want) <= 4e-16 * abs(want)
