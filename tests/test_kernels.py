"""Kernel contract: flags, nan sentinels, mpmath references, and one trade engine.

The kernels are plain Python.  Inversion and the delta kernels are checked
against mpmath or exact curve points, and ``run_steps`` is replayed step by
step through the public API (``PoolState.anchored``, ``rebalance_to_oracle``,
``swap_exact_in``), which must give bit-identical reserves, clamp counts and
skip counts because both execute trades through ``trade_in`` and clamp them
to ``headroom``.  How each ``trade_in`` reason code maps to an exception and
to a skipped trade is checked in ``test_swap.py::test_dust_trades_rejected``.
"""

import math

import mpmath
import numpy as np
import pytest

from hybridamm import (
    PoolState,
    TradeDirection,
    _kernels,
    max_x_bound,
    rebalance_to_oracle,
    swap_exact_in,
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
    assert _kernels.X_FLOOR_REL == 1e-12
    reasons = (_kernels.EXECUTED, _kernels.DUST, _kernels.NO_MOVE, _kernels.NO_ROOT)
    assert len(set(reasons)) == 4


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
        assert ulps(max_x_bound(1.0, p, z), ref) <= 2.0


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


# ------------------------------------------------------------ one trade engine


def replay_step(x, y, p, z, fractions, directions, max_fraction):
    """One run_steps step through the public API: (x, y, clamped, skipped) after it."""
    state = PoolState.anchored(x, y, p, z)
    if z < 1.0:
        moved = rebalance_to_oracle(state, p)
        if abs(moved.x - state.x) > 1e-12 * state.x:   # run_steps' dead band
            state = moved
    clamped = skipped = 0
    for frac, direction in zip(fractions, directions):
        if frac > max_fraction:
            frac = max_fraction
            clamped += 1
        # the 0.999 headroom clamps, written out independently of
        # _kernels.headroom
        if direction == 0:
            direction, amount = TradeDirection.SELL_X, frac * state.x
            cap = 0.999 * (max_x_bound(state.k, p, z) - state.x)
        else:
            direction, amount = TradeDirection.SELL_Y, frac * state.y
            x_floor = _kernels.X_FLOOR_REL * state.x
            cap = 0.999 * (_kernels.curve_y(state.k, x_floor, p, z) - state.y)
        if amount > cap > 0.0:
            amount = cap
            clamped += 1
        try:
            state = swap_exact_in(state, direction, amount).new_state
        except HybridAmmError:
            skipped += 1
    return state.x, state.y, clamped, skipped


@pytest.mark.parametrize("z", [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -52, 1.0])
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
    xs, ys = result[1].tolist(), result[2].tolist()
    x, y = 1.0, 1.0
    clamped = skipped = 0
    for t in range(steps):
        trades = slice(t * per_step, (t + 1) * per_step)
        x, y, c, s = replay_step(x, y, float(prices[t]), z, fractions[trades].tolist(),
                                 directions[trades].tolist(), max_fraction)
        assert (x, y) == (xs[t], ys[t]), f"step {t}"
        clamped += c
        skipped += s
    assert (clamped, skipped) == (result[8], result[9])
