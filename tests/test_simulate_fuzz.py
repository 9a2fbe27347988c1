"""`hybridamm simulate` never ends in a traceback, and commutes with rescaling.

Every raw error `simulate` has shown (``ZeroDivisionError``, ``ValueError``
from ``log``, ``OverflowError``, a complex ``TypeError``) came from a corner of
the scenario space.  Here Hypothesis draws whole configs, with starts across
the double range, some of them balanced (y0 = p0*x0), and across the routes
of ``run_scenario``: the noise-free closed form, the closed form with noise,
and ``run_steps``, which keeps z = 1 pools and pools without the arbitrageur.

The same configs, scaled to (x0*2**a, y0*2**b, prices*2**(b-a)), must give
the unscaled tables times each column's power of two, bit for bit, wherever
those cells are normal: a judge of every route that needs no mpmath.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st
import pytest

from hybridamm import (DomainError, PoolState, PricePath, ScenarioConfig, _kernels, cli,
                       run_scenario)
from hybridamm.simulator import METRICS_HEADER
from test_arbitrage_path import mp_prices, reference_path, reserve_errors

EDGE_Z = [0.0, 5e-324, 0.3, 0.9, 0.999, 0.9999, 1.0 - 2.0 ** -52, 1.0]
# columns a pool without the arbitrageur may write as inf or nan once noise
# has drained x: tests/test_cli.py's strict xfail of FOUND 46
DRAINED = ("spot_price", "slippage_cost")
# an arbitraged pool whose start spot (1-z)*y0/x0 + z*p0 overflows prices its step-0
# arbitrage against that inf spot: tests/test_cli.py's strict xfail of FOUND 69


def noise(size_mu, size_sigma, max_fraction, trades_per_step, seed=7):
    return {"size_mu": size_mu, "size_sigma": size_sigma, "seed": seed,
            "max_fraction": max_fraction, "trades_per_step": trades_per_step}


def scenario(z_values, steps, sigma, arbitrageur, noise, x0=1.0, y0=1.0, p0=1.0, seed=42):
    config = {"x0": x0, "y0": y0, "p0": p0, "z_values": z_values, "steps": steps,
              "path": {"kind": "gbm", "mu": 0.0, "sigma": sigma, "seed": seed},
              "arbitrageur": arbitrageur}
    if noise is not None:
        config["noise"] = noise
    return config


# one config per route
ROUTE_EXAMPLES = {
    "noise-free closed form": scenario([0.0, 0.3], 200, 0.1, True, None),
    "noise closed form": scenario([0.5, 0.9], 200, 0.1, True, noise(-3.0, 1.0, 0.25, 2)),
    "run_steps": scenario([1.0], 200, 0.1, True, noise(-3.0, 1.0, 0.25, 2)),
}
# starts whose closed-form columns once overflowed, so run_scenario recomputed the pool with
# run_steps: y0/x0 * N overflowed at step 0, where l_0 = 307, and exp(l_0) leaves double
# range at l_0 = 837, although x*_0 = 2.5e163 does not
FAR_STARTS = [scenario([0.0], 200, 0.1, True, None, x0=1.12e-267),
              scenario([0.9], 200, 0.1, True, None, x0=1e-200, y0=1e100, p0=1e-100)]
# once a raw TypeError: a SELL_X trade left y < 0, and the solvency bound of
# the curve re-anchored there took a root of a negative number
TYPE_ERROR = scenario(
    [0.5124919555126976], 293, 0.4968958368576199, False,
    noise(-1.4514595909840216, 1.9067374694029193, 0.606138894260195, 3, seed=52),
    x0=919.5901717135855, y0=0.07821897313333037, p0=12.772475197631874, seed=36)
# once a raw ZeroDivisionError: k overflows at this start, which PoolState.anchored rejects
K_INF = scenario([0.5], 20, 0.1, True, None, x0=1e300, y0=1e300, seed=2)
# once a raw ValueError from log(0): the arbitrage's exact-out SELL_Y paid out all of x
ALL_OF_X = [scenario([0.0], 20, 0.1, True, None, x0=1e150, y0=1e-150, p0=0.001, seed=2),
            scenario([1e-300], 20, 0.1, True, None, x0=1.0, y0=1e-300, p0=1e300, seed=2)]


# once a raw ZeroDivisionError: the arbitrage target of the re-anchored curve is inf, and
# step 1 anchored a curve at x = inf; the hold value y0/p0 = 4e381 overflows
TARGET_INF = scenario([0.5], 24, 0.14619002982048895, True, None, x0=1e20,
                      y0=4.083307274826564e231, p0=1e-150, seed=1340138202)

# once a raw ValueError from log in arb_target_x, and at the second z a raw
# ZeroDivisionError from curve_anchor: the closed form's columns overflowed, and
# run_scenario recomputed the pools with run_steps; both now leave double range at step 142
FAR_NOISE = scenario([0.6384333733145956, 1.0 - 2.0 ** -52], 339, 0.4247068050813691, True,
                     noise(-0.17833909107172552, 1.3069836196189755, 0.7776123389176486, 2,
                           seed=1234521329),
                     x0=1.0577103519649293e+298, y0=4.449861660019503e+142,
                     p0=4.2070701603259415e-156, seed=601374498)

# once a raw ZeroDivisionError: a SELL_Y at z = 1 paid out all of a subnormal x, whose
# floor X_FLOOR_REL*x underflows, and the next trade divided by x = 0
X_TO_ZERO = scenario([1.0], 251, 1.3400766688630845e-46, False,
                     noise(-5e-324, 1.1222183043650646, 0.25, 2, seed=4422517), x0=1e-300,
                     y0=3.161742116442632e-127, p0=7.197406650055293e170, seed=445325987)


def positive():
    return st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def start(x0, y0, p0, balanced):
    """A config's x0, y0 and p0; a balanced start has y0 = p0*x0, where that is normal."""
    if balanced and 1e-300 < p0 * x0 < 1e300:
        y0 = p0 * x0
    return {"x0": x0, "y0": y0, "p0": p0}


def scenarios(steps=st.integers(1, 1000)):
    return st.builds(
        lambda start, **fields: scenario(**fields, **start),
        start=st.builds(start, positive(), positive(), positive(), st.booleans()),
        z_values=st.lists(st.sampled_from(EDGE_Z) | st.floats(0.0, 1.0), min_size=1,
                          max_size=3, unique_by=lambda z: "%.12g" % z),
        steps=steps,
        sigma=st.floats(0.0, 0.5),
        arbitrageur=st.booleans(),
        noise=st.builds(noise, size_mu=st.floats(-8.0, 0.0), size_sigma=st.floats(0.0, 2.0),
                        max_fraction=st.floats(0.01, 0.99), trades_per_step=st.integers(1, 4),
                        seed=st.integers(0, 2 ** 32 - 1)) | st.none(),
        seed=st.integers(0, 2 ** 32 - 1),
    )


def route(config, z):
    """The route of a scenario dict's pool of this z, which the config alone sets."""
    return ("run_steps" if z == 1.0 or not config["arbitrageur"] else
            "noise closed form" if "noise" in config else "noise-free closed form")


def routes(config):
    return {route(config, z) for z in config["z_values"]}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=scenarios())
@example(config=TYPE_ERROR)
@example(config=K_INF)
@example(config=TARGET_INF)
@example(config=X_TO_ZERO)
@example(config=FAR_NOISE)
@example(config=ALL_OF_X[0])
@example(config=ALL_OF_X[1])
@example(config=ROUTE_EXAMPLES["noise-free closed form"])
@example(config=ROUTE_EXAMPLES["noise closed form"])
@example(config=ROUTE_EXAMPLES["run_steps"])
def test_simulate_exits_cleanly_with_finite_numbers(config):
    for name in sorted(routes(config)):
        event(name)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(_kernels, "run_steps", wraps=_kernels.run_steps) as steps:
            code = cli.main(["simulate", "--config", path, "--out", os.path.join(work, "out")])
        event(f"exit {code}")
        # exactly the pools of the run_steps route step; a config rejected before its pools
        # run steps none
        stepped = [call.args[2] for call in steps.call_args_list]
        want = [z for z in config["z_values"] if route(config, z) == "run_steps"]
        assert stepped == want or (code == 1 and stepped == [])
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert (code, err.getvalue()) == (0, "")
        for line in out.getvalue().splitlines():
            il = float(line.split()[1].removeprefix("final_il_relative="))
            assert math.isfinite(il), line
        for z in config["z_values"]:
            name = os.path.join(work, "out", f"metrics_z{z:.12g}.csv")
            with open(name, encoding="utf-8") as handle:
                header, *rows = handle.read().splitlines()
            columns = header.split(",")
            table = np.array([row.split(",") for row in rows], dtype=float)
            assert len(table) == config["steps"]
            spot_overflows = (config["arbitrageur"] and z < 1.0
                              and config["y0"] / config["x0"] == math.inf)
            for name, column in zip(columns, table.T):
                if name in DRAINED and not config["arbitrageur"]:
                    continue
                if name == "slippage_cost" and spot_overflows:
                    column = column[1:]
                assert np.isfinite(column).all(), (z, name)


def test_route_examples_take_their_routes(monkeypatch):
    stepped = []
    real_steps = _kernels.run_steps
    monkeypatch.setattr(_kernels, "run_steps", lambda *args: stepped.append(args[2])
                        or real_steps(*args))
    for name, config in ROUTE_EXAMPLES.items():
        assert routes(config) == {name}
        stepped.clear()
        run_scenario(ScenarioConfig.from_dict(config))
        assert stepped == (config["z_values"] if name == "run_steps" else []), name
    # the far starts take the closed form, and match the reference to 1e-13 of the pool value
    for config in FAR_STARTS:
        assert routes(config) == {"noise-free closed form"}
        stepped.clear()
        base = ScenarioConfig.from_dict(config)
        (run,) = run_scenario(base)
        assert stepped == []
        prices = base.path.prices
        reference = reference_path(base.x0, base.y0, run.z, mp_prices(prices))
        x, y = (run.table[:, METRICS_HEADER.index(c)] for c in ("reserve_x", "reserve_y"))
        assert max(reserve_errors(x, y, reference, prices)) <= 1e-13, config


def test_simulate_never_calls_arbitrage_step(monkeypatch):
    # the closed form has its own arbitrage, and a stepped pool has none: it has no
    # arbitrageur, or z = 1, where there is no target
    def refuse(*args):
        raise AssertionError(f"arbitrage_step{args}")

    monkeypatch.setattr(_kernels, "arbitrage_step", refuse)
    for config in [*ROUTE_EXAMPLES.values(),
                   scenario([0.3, 1.0], 50, 0.05, True, noise(-3.0, 1.0, 0.25, 2))]:
        run_scenario(ScenarioConfig.from_dict(config))


def powers(a, b):
    """Each column's power of two, in table order, under the scaling (x0*2**a, y0*2**b,
    prices*2**(b-a)): X amounts scale by 2**a, Y amounts by 2**b, prices by 2**(b-a)."""
    units = {"step": 0, "oracle_price": b - a, "spot_price": b - a, "reserve_x": a,
             "reserve_y": b, "pool_value": a, "hold_value": a, "il_relative": 0,
             "slippage_cost": b - a, "cum_volume": a}
    return np.array([units[name] for name in METRICS_HEADER])


def normal(values):
    """Zeros and normal doubles, whose products with a power of two are exact."""
    magnitude = np.abs(values)
    return (magnitude == 0.0) | ((magnitude >= 2.0 ** -1022) & (magnitude < math.inf))


def stepped_run(config, z):
    """run_scenario's pool of this z, and whether it stepped through ``run_steps``."""
    with mock.patch.object(_kernels, "run_steps", wraps=_kernels.run_steps) as steps:
        (run,) = run_scenario(dataclasses.replace(config, z_values=(z,)))
    return run, steps.called


def rescaled_pools(config, a, b, k_stepped):
    """Each pool of the config, run on its own, with its z, the unscaled run's table times
    each column's power of two, and the run of the rescaled config.

    Only the pools whose route re-anchors k if ``k_stepped``, else only the others: those
    that step through ``run_steps`` and trade, which there only noise trades do (z = 1
    has no arbitrage).  Both scales take the same route.  A config whose scaled start or
    prices are not normal is rejected.  A pool is left out where
    ``PoolState.anchored`` rejects its start at either scale (P15: k leaves double range),
    where the unscaled run raises ``DomainError``, or where a cell, or y/x at the start or
    after a step, is not normal, unscaled or scaled (FOUND 46: the spot price is derived
    from y/x).
    """
    base = ScenarioConfig.from_dict(config)
    with np.errstate(over="ignore", under="ignore"):
        x0, y0 = np.ldexp([base.x0, base.y0], [a, b]).tolist()
        prices = np.ldexp(base.path.prices, b - a)
        starts = np.array([x0, y0, *prices])
        assume(normal(starts).all() and starts.all())
        scaled = dataclasses.replace(base, x0=x0, y0=y0, path=PricePath(prices))
        for z in base.z_values:
            try:
                for start in (base, scaled):
                    PoolState.anchored(start.x0, start.y0, start.path.prices[0], z)
                run, stepped = stepped_run(base, z)
            except DomainError:
                event("pool left out: a start is not anchorable, or the run raises")
                continue
            ratios = np.append(run.table[:, 4] / run.table[:, 3], base.y0 / base.x0)
            if not (normal(run.table).all() and normal(np.ldexp(run.table, powers(a, b))).all()
                    and ratios.all() and normal(ratios).all()
                    and normal(np.ldexp(ratios, b - a)).all()):
                continue
            got, scaled_stepped = stepped_run(scaled, z)
            assert scaled_stepped == stepped, z
            if (stepped and base.noise is not None) == k_stepped:
                event("stepped" if stepped else "closed form")
                yield z, run, np.ldexp(run.table, powers(a, b)), got


def assert_rescaled(z, run, want, got):
    differ = np.argwhere(got.table.view(np.uint64) != want.view(np.uint64))
    if len(differ):
        step, column = differ[0]
        raise AssertionError(f"z={z}: {len(differ)} cells differ, the first at step {step}, "
                             f"{METRICS_HEADER[column]}: {got.table[step, column]!r} against "
                             f"{want[step, column]!r}")
    assert (got.clamped_trades, got.skipped_trades) == (run.clamped_trades, run.skipped_trades)


scalings = st.integers(-900, 900)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(config=scenarios(steps=st.integers(1, 300)), a=scalings, b=scalings)
def test_simulate_commutes_with_rescaling(config, a, b):
    """Every closed-form pool, and every stepped pool that does not trade, bit for bit."""
    for z, run, want, got in rescaled_pools(config, a, b, k_stepped=False):
        assert_rescaled(z, run, want, got)


# P17's chaotic stepped pool: an unbalanced start without the arbitrageur, with noise trades
STEPPED_NOISE = scenario([0.5], 120, 0.01, False, noise(-3.5, 0.8, 0.25, 2), x0=3.0, y0=0.7)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_steps re-anchors k every step, whose rounding depends on the "
                          "scale, so a stepped pool's trades move by other ulps, and with noise "
                          "its skip decisions diverge (P17: chaotic skip decisions); ROADMAP "
                          "item 15, kernels without k")
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(config=scenarios(steps=st.integers(1, 300)), a=scalings, b=scalings)
@example(config=STEPPED_NOISE, a=10, b=0)
def test_stepped_pools_that_trade_commute_with_rescaling(config, a, b):
    for z, run, want, got in rescaled_pools(config, a, b, k_stepped=True):
        assert_rescaled(z, run, want, got)
