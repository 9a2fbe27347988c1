"""`hybridamm simulate` never ends in a traceback: a fuzzer over scenario configs.

Every raw error `simulate` has shown (``ZeroDivisionError``, ``ValueError``
from ``log``, ``OverflowError``, a complex ``TypeError``) came from a corner of
the scenario space.  Here Hypothesis draws whole configs, across the routes of
``run_scenario``: the noise-free closed form, the closed form with noise, and
``run_steps``, which keeps z = 1 pools and pools without the arbitrageur.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hybridamm import ScenarioConfig, _kernels, cli, run_scenario

EDGE_Z = [0.0, 5e-324, 0.3, 0.9, 0.999, 0.9999, 1.0 - 2.0 ** -52, 1.0]
# columns a pool without the arbitrageur may write as inf or nan once noise
# has drained x: tests/test_cli.py's strict xfail of FOUND 46
DRAINED = ("spot_price", "slippage_cost")


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


def positive():
    return st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


scenarios = st.builds(
    scenario,
    z_values=st.lists(st.sampled_from(EDGE_Z) | st.floats(0.0, 1.0), min_size=1, max_size=3,
                      unique_by=lambda z: "%.12g" % z),
    steps=st.integers(1, 1000),
    sigma=st.floats(0.0, 0.5),
    arbitrageur=st.booleans(),
    noise=st.builds(noise, size_mu=st.floats(-8.0, 0.0), size_sigma=st.floats(0.0, 2.0),
                    max_fraction=st.floats(0.01, 0.99), trades_per_step=st.integers(1, 4),
                    seed=st.integers(0, 2 ** 32 - 1)) | st.none(),
    x0=positive(), y0=positive(), p0=positive(), seed=st.integers(0, 2 ** 32 - 1),
)


def routes(config):
    """The route of each pool of a scenario dict, as ``run_scenario`` picks it."""
    return {("run_steps" if z == 1.0 or not config["arbitrageur"] else
             "noise closed form" if "noise" in config else "noise-free closed form")
            for z in config["z_values"]}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=scenarios)
@example(config=TYPE_ERROR)
@example(config=K_INF)
@example(config=ALL_OF_X[0])
@example(config=ALL_OF_X[1])
@example(config=ROUTE_EXAMPLES["noise-free closed form"])
@example(config=ROUTE_EXAMPLES["noise closed form"])
@example(config=ROUTE_EXAMPLES["run_steps"])
def test_simulate_exits_cleanly_with_finite_numbers(config):
    for route in sorted(routes(config)):
        event(route)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", path, "--out", os.path.join(work, "out")])
        event(f"exit {code}")
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
            for name, column in zip(columns, table.T):
                if name in DRAINED and not config["arbitrageur"]:
                    continue
                assert np.isfinite(column).all(), (z, name)


def test_route_examples_take_their_routes(monkeypatch):
    stepped = []
    real_steps = _kernels.run_steps
    monkeypatch.setattr(_kernels, "run_steps", lambda *args: stepped.append(args[2])
                        or real_steps(*args))
    for route, config in ROUTE_EXAMPLES.items():
        assert routes(config) == {route}
        stepped.clear()
        run_scenario(ScenarioConfig.from_dict(config))
        assert stepped == (config["z_values"] if route == "run_steps" else []), route
