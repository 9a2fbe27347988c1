"""Acceptance gate: the package's headline guarantees, one test per claim.

Each test prints a PASS/FAIL checklist line straight to the terminal
(bypassing pytest capture) so a full run doubles as a report.  Tolerances
are pinned inline; loosening one is an API change, not a test tweak.
"""

import contextlib
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import hybridamm as ha
from hybridamm import TradeDirection
from hybridamm.cli import main as cli_main

SEED = 20260815
SELL_X = TradeDirection.SELL_X
SELL_Y = TradeDirection.SELL_Y


@pytest.fixture
def report(capfd):
    @contextlib.contextmanager
    def lines(name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\nACCEPT FAIL  {name}", flush=True)
            raise
        with capfd.disabled():
            print(f"\nACCEPT PASS  {name}", flush=True)

    return lines


def log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_unit_pool_anchors_and_coefficients(report):
    with report("unit-pool anchors 20/19 and 20/11; Taylor coefficients 0.9 and 0.1, ninefold"):
        low = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.1)
        high = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.9)
        assert abs(low.k - 20.0 / 19.0) <= 1e-12
        assert abs(high.k - 20.0 / 11.0) <= 1e-12
        # slippage per unit trade size, dx -> 0, on the unit pool: y''(1) / 2
        c_low = 0.5 * ha.d2y_dx2(low, 1.0)
        c_high = 0.5 * ha.d2y_dx2(high, 1.0)
        assert abs(c_low - 0.9) <= 1e-12
        assert abs(c_high - 0.1) <= 1e-12
        assert abs(c_low / c_high - 9.0) <= 1e-12
        # the full estimator reproduces coefficient * dx at unit scale
        for z, coefficient in ((0.1, c_low), (0.9, c_high)):
            state = ha.PoolState.anchored(1.0, 1.0, 1.0, z)
            estimate = ha.slippage_taylor(state, 1e-6)
            assert abs(estimate.taylor_second_derivative_form - coefficient * 1e-6) <= 1e-12


def test_constant_product_equivalence(report):
    with report("z=0 swaps match dy = y*dx/(x+dx) (1000 trades, rel 1e-12)"):
        rng = np.random.Generator(np.random.PCG64(SEED))
        xs = log_uniform(rng, 0.05, 50.0, 1000)
        ys = log_uniform(rng, 0.05, 50.0, 1000)
        ps = log_uniform(rng, 0.1, 10.0, 1000)
        fracs = rng.uniform(0.01, 0.5, 1000)
        worst = 0.0
        for x, y, p, frac in zip(xs, ys, ps, fracs):
            state = ha.PoolState.anchored(x, y, p, 0.0)
            dx = frac * x
            result = ha.swap_exact_in(state, SELL_X, dx)
            closed = y * dx / (x + dx)
            worst = max(worst, abs(result.amount_out - closed) / closed)
        assert worst <= 1e-12


def test_zero_slippage_limit(report):
    with report("z=1 swaps execute with zero slippage (100 pools, both directions, abs 1e-12)"):
        rng = np.random.Generator(np.random.PCG64(SEED + 1))
        xs = rng.uniform(0.5, 2.0, 100)
        ys = rng.uniform(0.5, 2.0, 100)
        ps = rng.uniform(0.5, 2.0, 100)
        fracs = rng.uniform(0.05, 0.5, 100)
        worst = 0.0
        for x, y, p, frac in zip(xs, ys, ps, fracs):
            state = ha.PoolState.anchored(x, y, p, 1.0)
            sell_x = ha.swap_exact_in(state, SELL_X, frac * 0.9 * y / p)
            sell_y = ha.swap_exact_in(state, SELL_Y, frac * 0.9 * p * x)
            worst = max(worst, sell_x.slippage_cost, sell_y.slippage_cost)
        assert worst <= 1e-12


def test_spot_price_solves_blend_equation(report):
    with report("-dy/dx equals (1-z)*y/x + z*p (1000 states, rel 1e-10)"):
        rng = np.random.Generator(np.random.PCG64(SEED + 2))
        xs = log_uniform(rng, 0.1, 10.0, 1000)
        ys = log_uniform(rng, 0.1, 10.0, 1000)
        ps = log_uniform(rng, 0.1, 10.0, 1000)
        zs = rng.uniform(0.0, 1.0, 1000)
        zs[0], zs[1] = 0.0, 1.0
        worst = 0.0
        for x, y, p, z in zip(xs, ys, ps, zs):
            state = ha.PoolState.anchored(x, y, p, z)
            y_curve = ha.reserve_y(state, x)
            blend = (1.0 - z) * y_curve / x + z * p
            worst = max(worst, abs(-ha.dy_dx(state, x) - blend) / blend)
        assert worst <= 1e-10


def test_rebalance_closed_form(report):
    with report("rebalance lands on x0*rho^(1/(2-z)) with y = p1*x (500 pools, rel 1e-9)"):
        rng = np.random.Generator(np.random.PCG64(SEED + 3))
        xs = log_uniform(rng, 0.1, 10.0, 500)
        ps = log_uniform(rng, 0.1, 10.0, 500)
        rhos = log_uniform(rng, 0.1, 10.0, 500)
        zs = rng.uniform(0.0, 0.999, 500)
        zs[0] = 0.0
        for x0, p0, rho, z in zip(xs, ps, rhos, zs):
            state = ha.PoolState.anchored(x0, p0 * x0, p0, z)
            p1 = p0 / rho
            moved = ha.rebalance_to_oracle(state, p1)
            x_star = x0 * math.exp(math.log(rho) / (2.0 - z))
            assert abs(moved.x - x_star) <= 1e-9 * x_star
            assert abs(moved.y - p1 * moved.x) <= 1e-9 * (p1 * moved.x)


def test_il_pipeline_equivalence(report):
    with report("simulated IL equals closed-form IL on a shared grid (rel 1e-9)"):
        z_grid = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
        rho_grid = (0.1, 0.25, 0.5, 2.0, 4.0, 10.0)
        for z in z_grid:
            for rho in rho_grid:
                closed = ha.il_closed_form(z, rho)
                simulated = ha.il_simulated(1.0, rho, 1.0, z)
                assert abs(simulated.il_paper - closed.il_paper) <= 1e-9 * abs(closed.il_paper)
            # rho = 1 is a shared exact zero, not a relative comparison
            assert ha.il_closed_form(z, 1.0).il_paper == 0.0
            assert ha.il_simulated(1.0, 1.0, 1.0, z).il_paper == 0.0
        for r in np.geomspace(0.1, 10.0, 21):
            # the classic constant-product IL curve
            gap = (2.0 * math.sqrt(r) - r - 1.0) + ha.il_closed_form(0.0, r).il_paper
            assert abs(gap) <= 1e-12


def test_taylor_convergence_order(report):
    with report("Taylor error shrinks ~4x per halving of dx (ratios in [3, 5])"):
        for z in (0.1, 0.5, 0.9):
            state = ha.PoolState.anchored(1.0, 1.0, 1.0, z)
            errors = []
            for dx in (0.02, 0.01, 0.005, 0.0025):
                estimate = ha.slippage_exact(state, SELL_X, dx)
                errors.append(abs(estimate.exact - estimate.taylor_second_derivative_form))
            for coarse, fine in zip(errors, errors[1:]):
                assert 3.0 <= coarse / fine <= 5.0, (z, errors)


def test_cli_regenerates_figure_data(report, tmp_path):
    with report("CLI figure data: shared anchor point, slippage falling in z, z=1 tracks oracle"):
        curves = tmp_path / "curves.csv"
        assert cli_main(["curve", "--z", "0,0.5,0.9,1", "--anchor", "1,1,1",
                         "--x-grid", "0.5:1.5:5", "--out", str(curves)]) == 0
        rows = read_csv(curves)
        at_anchor = [row for row in rows if float(row["x"]) == 1.0]
        assert len(at_anchor) == 4
        for row in at_anchor:
            assert abs(float(row["y"]) - 1.0) <= 1e-12

        slippage = tmp_path / "slippage.csv"
        assert cli_main(["slippage", "--z", "0,0.25,0.5,0.75,1", "--anchor", "1,1,1",
                         "--dx-grid", "0.005:0.02:4", "--out", str(slippage)]) == 0
        by_dx = {}
        for row in read_csv(slippage):
            by_dx.setdefault(row["dx"], []).append((float(row["z"]), float(row["taylor"])))
        assert len(by_dx) == 4
        for column in by_dx.values():
            values = [taylor for _, taylor in sorted(column)]
            assert all(a > b for a, b in zip(values, values[1:]))

        il = tmp_path / "il.csv"
        assert cli_main(["il", "--z", "0,0.3,0.6,0.9", "--prices", "4,1",
                         "--out", str(il)]) == 0
        losses = [float(row["il_paper"]) for row in read_csv(il)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "x0": 1.0, "y0": 1.0, "p0": 1.0, "z_values": [0.5, 1.0], "steps": 25,
            "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.4, "seed": 11},
        }), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert cli_main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        pegged = read_csv(out_dir / "metrics_z1.csv")
        assert len(pegged) == 25
        # byte-equal fields: the pegged pool quotes the oracle price exactly
        assert all(row["spot_price"] == row["oracle_price"] for row in pegged)
        assert len(read_csv(out_dir / "metrics_z0.5.csv")) == 25


def test_simulate_determinism(report, tmp_path):
    with report("simulate writes byte-identical files across reruns of one config"):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "x0": 2.0, "y0": 3.0, "p0": 1.5, "z_values": [0.0, 0.4, 0.8], "steps": 40,
            "path": {"kind": "gbm", "mu": 0.05, "sigma": 0.3, "seed": 42},
            "noise": {"size_mu": -3.0, "size_sigma": 0.8, "seed": 7, "trades_per_step": 2},
        }), encoding="utf-8")
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            assert cli_main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())})
        first, second = outputs
        assert first.keys() == second.keys()
        assert set(first) == {"path.csv", "metrics_z0.csv", "metrics_z0.4.csv", "metrics_z0.8.csv"}
        assert first == second
