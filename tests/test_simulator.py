"""Scenario runner: event order, determinism, agents, and curve sweeps."""

import json
import math
import pathlib

import mpmath
import numpy as np
import pytest

import hybridamm as ha
from hybridamm import _kernels
from hybridamm.simulator import METRICS_HEADER, NoiseParams, ScenarioConfig


def make_config(**overrides) -> ScenarioConfig:
    base = dict(x0=1.0, y0=1.0, z_values=(0.0, 0.5, 1.0),
                path=ha.PricePath([1.0] * 4), arbitrageur=True, noise=None)
    base.update(overrides)
    return ScenarioConfig(**base)


def steps(run) -> list[dict]:
    """One dict per step of a run's metric table, keyed by METRICS_HEADER."""
    return [dict(zip(METRICS_HEADER, row)) for row in run.rows()]


def same_run(a, b) -> bool:
    return (a.z, a.rows(), a.clamped_trades, a.skipped_trades) == \
        (b.z, b.rows(), b.clamped_trades, b.skipped_trades)


def balanced_jump_config(p0: float, p1: float, z_values) -> ScenarioConfig:
    path = ha.PricePath([p0, p1])
    return ScenarioConfig(x0=1.0, y0=p0, z_values=tuple(z_values),
                          path=path, arbitrageur=True, noise=None)


# -------------------------------------------------------------------- running


def test_constant_balanced_scenario_is_flat():
    runs = ha.run_scenario(make_config())
    for run in runs:
        for m in steps(run):
            assert m["il_relative"] == 0.0
            assert (m["reserve_x"], m["reserve_y"]) == (1.0, 1.0)
            assert m["cum_volume"] == 0.0
            assert m["slippage_cost"] == 0.0


def test_constant_unbalanced_scenario_without_arbitrage_is_flat():
    config = make_config(x0=3.0, y0=0.7, path=ha.PricePath([2.0] * 4),
                         arbitrageur=False)
    for run in ha.run_scenario(config):
        for m in steps(run):
            assert m["il_relative"] == 0.0
            assert (m["reserve_x"], m["reserve_y"]) == (3.0, 0.7)


def test_single_jump_constant_product_halves_x():
    runs = ha.run_scenario(balanced_jump_config(1.0, 4.0, [0.0]))
    first, last = steps(runs[0])
    assert first["il_relative"] == 0.0
    assert last["reserve_x"] == pytest.approx(0.5, rel=1e-12)
    assert last["reserve_y"] == pytest.approx(2.0, rel=1e-12)
    assert last["spot_price"] == pytest.approx(4.0, rel=1e-10)
    # closed form at rho = 1/4: il_paper = 0.25 per unit x0, hold = 1.25
    assert last["il_relative"] == pytest.approx(0.2, rel=1e-12)
    assert last["cum_volume"] == pytest.approx(0.5, rel=1e-12)
    assert last["hold_value"] == pytest.approx(1.25, rel=1e-12)
    assert last["pool_value"] == pytest.approx(1.0, rel=1e-12)


def test_final_il_decreases_in_z_when_price_falls():
    runs = ha.run_scenario(balanced_jump_config(4.0, 1.0, [0.0, 0.3, 0.6, 0.9]))
    finals = [steps(run)[-1]["il_relative"] for run in runs]
    assert finals[0] == pytest.approx(0.2, rel=1e-12)
    assert all(a > b for a, b in zip(finals, finals[1:]))
    assert all(f > 0.0 for f in finals)


@pytest.mark.parametrize("p0, p1", [(1.0, 1.1), (1.0, 0.5), (2.0, 8.0), (3.0, 2.9999),
                                    (1.0, 1.0 + 1e-9)])
def test_one_tick_il_is_the_reanchored_closed_form(p0, p1):
    # the re-anchored curve through a balanced pool puts spot = p1 at
    # x1 = x0 * (((2-z)*p0/p1 + z)/2)**(1/(2-z)), where y1 = p1*x1
    zs = (0.0, 5e-324, 0.3, 0.5, 0.9, 0.99, 1.0 - 2.0 ** -52)
    for run in ha.run_scenario(balanced_jump_config(p0, p1, zs)):
        with mpmath.workdps(50):
            z, p0_, p1_ = mpmath.mpf(run.z), mpmath.mpf(p0), mpmath.mpf(p1)
            x1 = (((2 - z) * p0_ / p1_ + z) / 2) ** (1 / (2 - z))
            hold = 1 + p0_ / p1_
            il = (hold - 2 * x1) / hold
            assert abs(steps(run)[1]["il_relative"] - il) <= 1e-12, run.z


def test_readme_one_tick_il_figures():
    # README, "Two oracle-tick models": fixed k against re-anchored k, to the digits it prints
    figures = {}
    for z in (0.3, 0.9):
        simulated = steps(ha.run_scenario(balanced_jump_config(1.0, 1.1, [z]))[0])[1]
        figures[z] = (f"{ha.il_closed_form(z, 1.0 / 1.1).il_relative:.2g}",
                      f"{simulated['il_relative']:.2g}")
    assert figures == {0.3: ("0.0095", "0.00079"), 0.9: ("0.039", "0.00011")}
    readme = " ".join((pathlib.Path(__file__).resolve().parents[1] / "README.md")
                      .read_text(encoding="utf-8").split())
    assert ("`il_relative` is 0.0095 (fixed k) against 0.00079 (re-anchored k) at z = 0.3, "
            "and 0.039 against 0.00011 at z = 0.9.") in readme


def test_pools_that_share_a_file_name_run_in_one_config():
    # simulate names its files by %.12g of z, so it refuses these; the library runs them
    zs = (1.0 - 2.0 ** -52, 1.0)
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.05, steps=50, seed=3)
    runs = ha.run_scenario(make_config(z_values=zs, path=path))
    assert [run.z for run in runs] == list(zs)
    for run in runs:
        assert same_run(run, ha.run_scenario(make_config(z_values=(run.z,), path=path))[0])
    # the z < 1 pool arbitrages, and the z = 1 pool has no arbitrage
    assert steps(runs[0])[-1]["cum_volume"] > 0.0
    assert steps(runs[1])[-1]["cum_volume"] == 0.0


def test_arbitrage_tracks_oracle_for_partial_mixes():
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.3, steps=50, seed=11)
    config = ScenarioConfig(x0=1.0, y0=1.0, z_values=(0.0, 0.25, 0.5, 0.75, 0.99),
                            path=path, arbitrageur=True, noise=None)
    for run in ha.run_scenario(config):
        for m in steps(run):
            assert abs(m["spot_price"] - m["oracle_price"]) / m["oracle_price"] <= 1e-9


def test_full_mix_pool_quotes_oracle_even_without_arbitrage():
    path = ha.gbm_path(p0=2.0, mu=0.0, sigma=0.2, steps=30, seed=4)
    config = ScenarioConfig(x0=1.0, y0=2.0, z_values=(1.0,),
                            path=path, arbitrageur=True, noise=None)
    run = ha.run_scenario(config)[0]
    for m in steps(run):
        assert m["spot_price"] == m["oracle_price"]
        assert (m["reserve_x"], m["reserve_y"]) == (1.0, 2.0)   # arb skipped at z=1


def test_full_mix_pool_drained_by_noise_quotes_oracle():
    # noise drains x to 4.8e-27 while y = 2e282, so y/x overflows: (1-z)*(y/x) was
    # 0*inf, and spot_price was written as nan with exit 0
    noise = NoiseParams(size_mu=0.0, size_sigma=0.0, seed=0, max_fraction=0.5,
                        trades_per_step=1)
    config = ScenarioConfig(x0=1.0, y0=1e282, z_values=(1.0,), path=ha.PricePath([1e282] * 66),
                            arbitrageur=True, noise=noise)
    run = ha.run_scenario(config)[0]
    assert steps(run)[-1]["reserve_x"] < 1e-26
    for m in steps(run):
        assert m["spot_price"] == m["oracle_price"]


def test_arbitrage_moves_stay_on_the_reanchored_curve():
    path = ha.PricePath([1.0, 1.3, 0.8, 2.2, 1.0])
    config = ScenarioConfig(x0=1.0, y0=1.0, z_values=(0.4,),
                            path=path, arbitrageur=True, noise=None)
    run = ha.run_scenario(config)[0]
    x_prev, y_prev = 1.0, 1.0
    for m in steps(run):
        k = ha.PoolState.anchored(x_prev, y_prev, m["oracle_price"], 0.4).k
        assert m["reserve_y"] == pytest.approx(
            _kernels.curve_y(k, m["reserve_x"], m["oracle_price"], 0.4), rel=1e-12)
        x_prev, y_prev = m["reserve_x"], m["reserve_y"]


def test_noise_trading_at_full_mix_never_loses_value():
    noise = NoiseParams(size_mu=-2.5, size_sigma=1.0, seed=21, trades_per_step=3)
    config = make_config(z_values=(1.0,), noise=noise)
    run = ha.run_scenario(config)[0]
    assert steps(run)[-1]["cum_volume"] > 0.0
    for m in steps(run):
        assert abs(m["il_relative"]) <= 1e-12
        assert m["slippage_cost"] <= 1e-12


def test_identical_scenarios_share_noise_draws():
    # a pool run second in a sweep sees the same draws as the same pool alone
    noise = NoiseParams(size_mu=-2.0, size_sigma=0.7, seed=5)
    swept = make_config(z_values=(0.6, 0.5), path=ha.PricePath([1.0] * 6), noise=noise)
    alone = make_config(z_values=(0.5,), path=ha.PricePath([1.0] * 6), noise=noise)
    assert same_run(ha.run_scenario(swept)[1], ha.run_scenario(alone)[0])


def test_run_scenario_is_deterministic():
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.2, steps=25, seed=13)
    noise = NoiseParams(size_mu=-2.0, size_sigma=0.9, seed=31, trades_per_step=2)
    config = ScenarioConfig(x0=2.0, y0=3.0, z_values=(0.0, 0.5, 0.9),
                            path=path, arbitrageur=True, noise=noise)
    assert all(same_run(a, b) for a, b in zip(ha.run_scenario(config),
                                              ha.run_scenario(config)))


@pytest.mark.parametrize("arbitrageur, z_values, noise", [
    # the z = 1 pool has no arbitrage, drains, and skips 1,945 of its 2,000 trades
    (True, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
     NoiseParams(size_mu=-4.0, size_sigma=1.0, seed=2000, trades_per_step=2)),
    # without arbitrage x falls subnormal, and spot_price and slippage_cost read inf
    (False, (0.999, 0.9999, 1.0 - 1e-8),
     NoiseParams(size_mu=-3.5, size_sigma=0.8, seed=7, trades_per_step=2)),
])
def test_z_independent_columns_are_equal_in_every_pool(arbitrageur, z_values, noise):
    # `hybridamm simulate` formats these columns for the first pool's file only
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.01, steps=1000, seed=42)
    config = ScenarioConfig(x0=1.0, y0=1.0, z_values=z_values, path=path,
                            arbitrageur=arbitrageur, noise=noise)
    columns = [METRICS_HEADER.index(name) for name in ("step", "oracle_price", "hold_value")]
    first, *others = [run.table[:, columns].tobytes() for run in ha.run_scenario(config)]
    assert others == [first] * (len(z_values) - 1)


def test_oversized_noise_is_clamped_and_dust_skipped():
    loud = make_config(z_values=(0.5,), noise=NoiseParams(size_mu=5.0, size_sigma=0.0, seed=1))
    run = ha.run_scenario(loud)[0]
    assert run.clamped_trades >= 4          # every attempt exceeds max_fraction
    assert steps(run)[-1]["cum_volume"] > 0.0
    quiet = make_config(z_values=(0.5,), noise=NoiseParams(size_mu=-50.0, size_sigma=0.0, seed=1))
    run = ha.run_scenario(quiet)[0]
    assert run.skipped_trades == 4          # below the dust threshold
    assert steps(run)[-1]["cum_volume"] == 0.0


def test_noise_trades_respect_solvency():
    # tiny Y reserve: SellX headroom is scarce, trades clamp instead of failing
    noise = NoiseParams(size_mu=0.0, size_sigma=0.0, seed=2,
                        max_fraction=0.9, trades_per_step=5)
    config = make_config(x0=1.0, y0=0.05, z_values=(0.8,),
                         path=ha.PricePath([1.0] * 10), arbitrageur=False, noise=noise)
    run = ha.run_scenario(config)[0]
    for m in steps(run):
        assert m["reserve_y"] > 0.0
        assert m["pool_value"] > 0.0


# ---------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ha.DomainError):
        make_config(x0=0.0)
    with pytest.raises(ha.DomainError):
        make_config(z_values=())
    with pytest.raises(ha.DomainError):
        make_config(z_values=(0.5, 1.5))
    # steps is stated once, in the JSON config, and checked against the path
    with pytest.raises(ha.DomainError, match=r"one price per step 0\.\.2, got 4 entries"):
        ScenarioConfig.from_dict(scenario_dict(path={"kind": "schedule",
                                                     "prices": [1.0, 2.0, 1.5, 1.0]}))
    with pytest.raises(ha.DomainError, match="steps must be an integer >= 1"):
        ScenarioConfig.from_dict(scenario_dict(steps=0))
    for bad_steps in (4.5, True):
        with pytest.raises(ha.ConfigError):
            ScenarioConfig.from_dict(scenario_dict(steps=bad_steps))
    with pytest.raises(ha.DomainError):
        make_config(path=(1.0, 1.0, 1.0, 1.0))            # not a PricePath
    with pytest.raises(ha.DomainError):
        make_config(noise={"seed": 1})


def test_noise_params_validation():
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=math.nan, size_sigma=0.1, seed=1)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=-0.1, seed=1)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=1.5)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=-1)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=True)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=1, max_fraction=1.0)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=1, trades_per_step=0)
    with pytest.raises(ha.DomainError):
        NoiseParams(size_mu=0.0, size_sigma=0.1, seed=1, trades_per_step=1.5)


def test_step_metrics_validation(monkeypatch):
    # each route's pool, with its reserves at step 2 set to these, is rejected
    cases = ((0.0, 0.0, "pool value 0 must be > 0 and il_relative 1 finite"),
             (1e308, 1e308, "pool value inf must be > 0 and il_relative -inf finite"),
             (math.nan, 1.0, "pool value nan must be > 0 and il_relative nan finite"))
    real_path, real_steps = _kernels.arbitrage_path, _kernels.run_steps
    # a noise trade of e**-40 of a reserve is dust, so a noise pool stays put too
    dust = NoiseParams(size_mu=-40.0, size_sigma=0.0, seed=1)
    routes = {   # route: noise, arbitrageur, and whether the pool steps through run_steps
        "closed form": (None, True, False),
        "noise closed form": (dust, True, False),
        "noise run_steps": (dust, False, True),
    }
    for route, (noise, arbitrageur, steps_through) in routes.items():
        config = make_config(z_values=(0.5,), noise=noise, arbitrageur=arbitrageur)
        assert steps(ha.run_scenario(config)[0])[2]["pool_value"] == 2.0
        for x, y, message in cases:
            stepped = []

            def broken_path(*args, x=x, y=y):
                columns = real_path(*args)
                columns[0][:, 2], columns[1][:, 2] = x, y
                return columns

            def broken_steps(*args, x=x, y=y, stepped=stepped):
                stepped.append(args[2])
                result = list(real_steps(*args))
                result[1], result[2] = result[1].copy(), result[2].copy()
                result[1][2], result[2][2] = x, y
                return tuple(result)

            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "arbitrage_path", broken_path)
                patch.setattr(_kernels, "run_steps", broken_steps)
                with pytest.raises(ha.DomainError) as raised:
                    ha.run_scenario(config)
            assert str(raised.value) == "z=0.5, step 2: " + message, route
            assert stepped == ([0.5] if steps_through else []), route


def test_metrics_header_order():
    assert METRICS_HEADER == ("step", "oracle_price", "spot_price", "reserve_x",
                              "reserve_y", "pool_value", "hold_value",
                              "il_relative", "slippage_cost", "cum_volume")


# -------------------------------------------------------------- config files


def scenario_dict(**overrides):
    base = {"x0": 1.0, "y0": 1.0, "p0": 1.0, "z_values": [0.0, 0.5],
            "steps": 3, "path": {"kind": "constant"}}
    base.update(overrides)
    return base


def test_from_dict_inherits_scenario_price_and_steps():
    config = ScenarioConfig.from_dict(scenario_dict(p0=2.5))
    assert config.path.prices.tolist() == [2.5, 2.5, 2.5]
    config = ScenarioConfig.from_dict(
        scenario_dict(path={"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": 7}))
    assert np.array_equal(config.path.prices,
                          ha.gbm_path(p0=1.0, mu=0.0, sigma=0.1, steps=3, seed=7).prices)


def test_from_dict_builds_noise():
    config = ScenarioConfig.from_dict(scenario_dict(
        noise={"size_mu": -2.0, "size_sigma": 0.5, "seed": 9, "max_fraction": 0.1}))
    assert config.noise == NoiseParams(size_mu=-2.0, size_sigma=0.5, seed=9,
                                       max_fraction=0.1)


def test_from_dict_rejects_unknown_and_missing_fields():
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(turbo=True))
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(noise={"size_mu": 0.0, "size_sigma": 0.1,
                                                      "seed": 1, "flavor": "salty"}))
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(path={"kind": "constant", "bogus": 1}))
    missing = scenario_dict()
    del missing["x0"]
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(missing)
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(steps="three"))
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(kind="constant"))    # only paths have a kind
    with pytest.raises(ha.ConfigError):
        ScenarioConfig.from_dict(scenario_dict(path={"kind": "replay", "file": 5}))
    # integers past double range are config errors, not OverflowError
    with pytest.raises(ha.ConfigError, match=r"config\.x0"):
        ScenarioConfig.from_dict(scenario_dict(x0=10 ** 400))
    with pytest.raises(ha.ConfigError, match=r"config\.path\.prices"):
        ScenarioConfig.from_dict(scenario_dict(path={"kind": "schedule",
                                                     "prices": [1.0, 10 ** 400, 1.0]}))


def test_load_scenario_round_trip(tmp_path):
    prices = tmp_path / "prices.csv"
    ha.dump_price_csv(ha.PricePath([1.0, 2.0, 1.5]), prices)
    config_file = tmp_path / "scenario.json"
    config_file.write_text(json.dumps(scenario_dict(path={"kind": "replay",
                                                          "file": "prices.csv"})),
                           encoding="utf-8")
    config = ha.load_scenario(config_file)
    assert config.path.prices.tolist() == [1.0, 2.0, 1.5]


def test_path_must_start_at_p0(tmp_path):
    # the start price is stated once: a schedule or replay path that starts
    # elsewhere is an error naming both values, as a wrong length is
    with pytest.raises(ha.DomainError, match=r"^path must start at p0=5\.0, got 1\.0$"):
        ScenarioConfig.from_dict(scenario_dict(p0=5, steps=2,
                                               path={"kind": "schedule", "prices": [1, 2]}))
    ha.dump_price_csv(ha.PricePath([1.5, 2.0, 1.0]), tmp_path / "prices.csv")
    config_file = tmp_path / "scenario.json"
    config_file.write_text(json.dumps(scenario_dict(path={"kind": "replay",
                                                          "file": "prices.csv"})),
                           encoding="utf-8")
    with pytest.raises(ha.DomainError, match=r"^path must start at p0=1\.0, got 1\.5$"):
        ha.load_scenario(config_file)


def test_load_scenario_reports_json_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"x0": 1.0,\n  "y0": }\n', encoding="utf-8")
    with pytest.raises(ha.ConfigError) as exc_info:
        ha.load_scenario(bad)
    assert ":2:" in str(exc_info.value)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ha.ConfigError):
        ha.load_scenario(array)


# ------------------------------------------------------------- curve sweeps


def test_sweep_constant_product_rows():
    rows = ha.sweep_reserve_curve((1.0, 2.0, 1.0), [0.0], np.linspace(0.5, 4.0, 8))
    for z, x, y in rows:
        assert z == 0.0
        assert x * y == pytest.approx(2.0, rel=1e-12)


def test_sweep_full_mix_rows_are_collinear():
    # at z = 1 the curve through (0.5, 2) at p = 2 is y = 3 - 2x, through (1, 2) at p = 1 y = 3 - x
    rows = ha.sweep_reserve_curve((0.5, 2.0, 2.0), [1.0], [0.5, 1.0, 1.4])
    for _, x, y in rows:
        assert y == pytest.approx(3.0 - 2.0 * x, rel=1e-12)
    for _, x, y in ha.sweep_reserve_curve((1.0, 2.0, 1.0), [1.0], [0.5, 1.0, 2.5]):
        assert y == pytest.approx(3.0 - x, rel=1e-12)


def test_sweep_anchored_curves_share_the_anchor_point():
    rows = ha.sweep_reserve_curve((1.0, 1.0, 1.0), [0.0, 0.3, 0.6, 1.0], [0.5, 1.0, 2.0])
    at_anchor = [y for _, x, y in rows if x == 1.0]
    assert len(at_anchor) == 4
    for y in at_anchor:
        assert y == pytest.approx(1.0, rel=1e-12)


def test_sweep_marks_out_of_domain_points():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    bound = ha.max_x_bound(state.k, 1.0, 0.5)
    rows = ha.sweep_reserve_curve((1.0, 1.0, 1.0), [0.5], [1.0, bound * 1.5])
    assert rows[0][2] == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(rows[1][2])


@pytest.mark.parametrize("z", [0.0, 1e-300, 0.5, 1.0])
def test_sweep_nan_markers_at_domain_edges(z):
    p = 1.0
    k = ha.PoolState.anchored(1.0, 1.0, p, z).k
    bound = ha.max_x_bound(k, p, z)
    # subnormal x overflows x**(z-1) for small z, which gives inf, not an error
    xs = [-1.0, -5e-324, 0.0, 5e-324, 1e-310, 1e-200, 0.1, 1.0, 1.5]
    if math.isfinite(bound):
        xs += [math.nextafter(bound, 0.0), bound, bound * 1.2]
    rows = ha.sweep_reserve_curve((1.0, 1.0, p), [z], xs)
    assert [x for _, x, _ in rows] == xs
    for _, x, y in rows:
        if x <= 0.0 or x >= bound:
            assert math.isnan(y)
        else:
            assert y == ha.reserve_y(k, x, p, z)


def test_sweep_validation():
    unit = (1.0, 1.0, 1.0)
    with pytest.raises(TypeError):
        ha.sweep_reserve_curve(unit, [0.5], [1.0], p=2.0)   # the oracle price is the anchor's
    with pytest.raises(ha.DomainError):
        ha.sweep_reserve_curve(unit, [], [1.0])
    with pytest.raises(ha.DomainError):
        ha.sweep_reserve_curve(unit, [2.0], [1.0])
    with pytest.raises(ha.DomainError):
        ha.sweep_reserve_curve(unit, [0.5], [])
    with pytest.raises(ha.DomainError):
        ha.sweep_reserve_curve(unit, [0.5], [math.inf])
    with pytest.raises(ha.DomainError):
        ha.sweep_reserve_curve((-1.0, 1.0, 1.0), [0.5], [1.0])
    # a curve is drawn through an anchor point only, never from a raw k or a state
    with pytest.raises(TypeError):
        ha.sweep_reserve_curve(2.0, [0.5], [1.0])
    with pytest.raises(TypeError):
        ha.sweep_reserve_curve(ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5), [0.5], [1.0])
    # each z's curve is checked, whatever the order of z: k = 1e400 at z = 0
    for zs in ([0.0, 0.5], [0.5, 0.0]):
        with pytest.raises(ha.DomainError, match=r"^k must be finite and > 0, got inf$"):
            ha.sweep_reserve_curve((1e200, 1e200, 1.0), zs, [1.0])
