"""End-to-end CLI behavior: commands, formats, files, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import mpmath
import pytest

import hybridamm as ha
from hybridamm import cli
from hybridamm.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_REF = 0.095383214339210246071


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return [
        {key: float(value) for key, value in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


# ---------------------------------------------------------------------- curve


def test_curve_constant_product(capsys):
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,1",
                           "--x-grid", "0.5:2:4")
    assert code == 0
    rows = csv_rows(out)
    assert out.splitlines()[0] == "z,x,y"
    assert len(rows) == 4
    for row in rows:
        assert row["x"] * row["y"] == pytest.approx(1.0, rel=1e-12)


def test_curve_full_mix_is_collinear(capsys):
    code, out, _ = run_cli(capsys, "curve", "--z", "1", "--anchor", "1,1,1",
                           "--x-grid", "0.5:1.5:3")
    assert code == 0
    for row in csv_rows(out):
        assert row["y"] == pytest.approx(2.0 - row["x"], rel=1e-12)


def test_curve_anchored_reference_point(capsys):
    code, out, _ = run_cli(capsys, "curve", "--z", "0.5", "--anchor", "1,1,1",
                           "--x-grid", "1.1:1.1:1")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["y"] == pytest.approx(0.90461678566078975, rel=1e-12)


def test_curve_marks_out_of_domain_as_nan(capsys):
    # the z = 1 line through (0.5, 0.5) at p = 1 is y = 1 - x
    code, out, _ = run_cli(capsys, "curve", "--z", "1", "--anchor", "0.5,0.5,1",
                           "--x-grid", "0.5:2:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["y"]) == 0.5
    assert rows[1]["y"] == "nan"


def test_curve_flag_validation(capsys):
    assert run_cli(capsys, "curve", "--z", "0", "--x-grid", "1:2:2")[0] == 2
    assert run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,1", "--x-grid", "1:2")[0] == 2
    code, _, err = run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,-1", "--x-grid", "1:2:2")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("z_list", ["0,0.5", "0.5,0"])
@pytest.mark.parametrize("anchor, x_grid, message", [
    # k = 1e400 at z = 0
    pytest.param("1e200,1e200,1", "1:2:2", "k must be finite and > 0, got inf", id="k-inf"),
    # k = 1e-320 at z = 0 is too coarse for the curve to pass through its anchor
    pytest.param("1e-160,1e-160,1", "1e-160:1e-160:1",
                 "reserves (1e-160, 1e-160) do not lie on the (k=1e-320, p=1.0, z=0.0) curve: "
                 "residual -1.113e-165; k=1e-320 is subnormal", id="k-subnormal"),
])
def test_curve_checks_the_anchor_at_every_z(capsys, z_list, anchor, x_grid, message):
    # the curve of every z is anchored and checked, whatever the order of --z
    code, out, err = run_cli(capsys, "curve", "--z", z_list, "--anchor", anchor,
                             "--x-grid", x_grid)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# ----------------------------------------------------------------------- swap


def swap_row(capsys, *extra):
    code, out, err = run_cli(capsys, "swap", *extra)
    assert code == 0, err
    row = next(csv.DictReader(io.StringIO(out)))
    return {k: (v if k == "direction" else float(v)) for k, v in row.items()}


def test_swap_constant_product(capsys):
    row = swap_row(capsys, "--z", "0", "--anchor", "1,1,1",
                   "--direction", "sell-x", "--amount-in", "1")
    assert row["direction"] == "sell-x"
    assert row["amount_out"] == pytest.approx(0.5, rel=1e-15)
    assert row["new_x"] == 2.0


def test_swap_full_mix_zero_slippage(capsys):
    row = swap_row(capsys, "--z", "1", "--anchor", "1,1,1",
                   "--direction", "sell-x", "--amount-in", "0.5")
    assert row["slippage_cost"] == 0.0
    assert row["exec_price"] == pytest.approx(1.0, rel=1e-13)


def test_swap_half_mix_reference(capsys):
    row = swap_row(capsys, "--z", "0.5", "--anchor", "1,1,1",
                   "--direction", "sell-x", "--amount-in", "0.1")
    assert row["amount_out"] == pytest.approx(OUT_REF, rel=1e-12)


def test_swap_exact_out(capsys):
    row = swap_row(capsys, "--z", "0", "--anchor", "1,1,1",
                   "--direction", "sell-x", "--amount-out", "0.5")
    assert row["amount_in"] == pytest.approx(1.0, rel=1e-10)


def test_swap_insolvency_reports_max_feasible(capsys):
    code, _, err = run_cli(capsys, "swap", "--z", "0.5", "--anchor", "1,1,1",
                           "--direction", "sell-x", "--amount-in", "10")
    assert code == 1
    assert err.startswith("error:")
    assert "max feasible amount_in 1.519842099789746" in err


def test_swap_whose_new_x_overflows(capsys):
    # the z = 0 hyperbola has no solvency bound: the error is the overflow, not insolvency
    code, out, err = run_cli(capsys, "swap", "--z", "0", "--anchor", "1e308,1,1",
                             "--direction", "sell-x", "--amount-in", "1e308")
    assert (code, out) == (1, "")
    assert err == "error: x + amount_in overflows: 1e+308 + 1e+308 is past double range\n"


def test_swap_usage_errors(capsys):
    assert run_cli(capsys, "swap", "--z", "0", "--anchor", "1,1,1",
                   "--direction", "sell-x")[0] == 2
    assert run_cli(capsys, "swap", "--z", "0", "--anchor", "1,1,1",
                   "--direction", "both", "--amount-in", "1")[0] == 2


# ------------------------------------------------------------------------- il


def test_il_zero_at_unit_ratio(capsys):
    code, out, _ = run_cli(capsys, "il", "--z", "0,0.5,1", "--rho-grid", "1:1:1")
    assert code == 0
    for row in csv_rows(out):
        assert row["il_paper"] == 0.0
        assert row["il_relative"] == 0.0


def test_il_forced_arithmetic(capsys):
    code, out, _ = run_cli(capsys, "il", "--z", "0", "--prices", "4,1")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["rho"] == 4.0
    assert row["il_paper"] == pytest.approx(1.0, rel=1e-12)


def test_il_monotone_in_z(capsys):
    code, out, _ = run_cli(capsys, "il", "--z", "0,0.3,0.6,0.9",
                           "--rho-grid", "4:4:1")
    assert code == 0
    values = [row["il_paper"] for row in csv_rows(out)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_il_where_the_pool_value_overflows(capsys):
    code, out, _ = run_cli(capsys, "il", "--z", "1", "--prices", "1e308,1")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["il_paper"] == pytest.approx(-1e308, rel=1e-13)
    assert row["il_relative"] == pytest.approx(-1.0, rel=1e-13)


def test_il_has_no_simulate_flag(capsys):
    # il reports the closed form only; il_simulated is the library's rebalancing check
    code, out, err = run_cli(capsys, "il", "--z", "0.6", "--prices", "3,1.5", "--simulate")
    assert (code, out) == (2, "")
    assert err.startswith("usage: hybridamm")


def test_il_price_flag_coupling(capsys):
    assert run_cli(capsys, "il", "--z", "0", "--prices", "4")[0] == 2
    assert run_cli(capsys, "il", "--z", "0", "--rho-grid", "1:1:1",
                   "--prices", "4,1")[0] == 2
    code, _, err = run_cli(capsys, "il", "--z", "0", "--prices", "0,1")
    assert code == 1
    assert err == "error: p0 must be finite and > 0, got 0.0\n"


# ------------------------------------------------------------------- slippage


def test_slippage_worked_example_coefficients(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z", "0.1,0.9",
                           "--dx-grid", "0.01:0.01:1", "--anchor", "1,1,1")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0]["taylor"] / rows[0]["dx"] == pytest.approx(0.9, rel=1e-12)
    assert rows[1]["taylor"] / rows[1]["dx"] == pytest.approx(0.1, rel=1e-12)
    assert rows[0]["exact"] > 0.0


def test_slippage_full_mix_is_zero(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z", "1",
                           "--dx-grid", "0.5:0.5:1", "--anchor", "1,1,1")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["taylor"] == 0.0
    assert row["exact"] == 0.0


def test_slippage_full_mix_taylor_is_plus_zero(capsys):
    # (1-z)*(2-z)*((y + c*x)/x)*(dx/x) is +0 at z = 1; k*(z-1)*(z-2)*x**(z-3) was -0
    code, out, _ = run_cli(capsys, "slippage", "--z", "1", "--anchor", "1,1,1",
                           "--dx-grid", "0.1:0.1:1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,dx,taylor,exact" and lines[1].split(",")[2] == "0"


def test_slippage_marks_infeasible_rows(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z", "0.5",
                           "--dx-grid", "5:5:1", "--anchor", "1,1,1")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["taylor"] == "nan"
    assert row["exact"] == "nan"


def test_slippage_explicit_pool(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z", "0", "--dx-grid",
                           "0.02:0.02:1", "--anchor", "2,2,1")
    assert code == 0
    (row,) = csv_rows(out)
    # k = x*y = 4, y'' = 2k/x^3 = 1, so the prediction is dx/2
    assert row["taylor"] == pytest.approx(0.01, rel=1e-12)


def test_slippage_requires_anchor(capsys):
    assert run_cli(capsys, "slippage", "--z", "0",
                   "--dx-grid", "0.1:0.1:1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("slippage", "--z", "0", "--dx-grid", "0.1:0.1:1", "--normalized"),
    ("slippage", "--z", "0", "--dx-grid", "0.1:0.1:1", "--x", "1", "--y", "1", "--p", "1"),
    ("swap", "--z", "0", "--x", "1", "--y", "1", "--p", "1", "--direction", "sell-x",
     "--amount-in", "0.1"),
    ("il", "--z-list", "0", "--rho-grid", "1:1:1"),
    ("slippage", "--z-list", "0", "--dx-grid", "0.1:0.1:1", "--anchor", "1,1,1"),
    ("il", "--z", "0", "--p0", "4", "--p1", "1"),
    ("curve", "--z", "0", "--k", "1", "--p", "2", "--x-grid", "1:2:2"),
    ("il", "--z", "0", "--pr", "4,1"),
    ("swap", "--z", "0.6", "--anch", "1,1,1", "--dir", "sell-x", "--amount-i", "0.1"),
    ("curve", "--z", "0", "--k", "1", "--x-grid", "1:2:2"),
])
def test_one_spelling_per_input(capsys, argv):
    # a pool is --anchor X,Y,P, a z list is --z and a price move is --prices
    # P0,P1, each under its full name only
    assert run_cli(capsys, *argv)[0] == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--x-grid", "1:2", "grid '1:2' must be start:stop:count"),
    ("--x-grid", "1:2:x", "grid '1:2:x' must be start:stop:count"),
    ("--x-grid", "nan:1:2", "grid 'nan:1:2' needs finite endpoints and count >= 1"),
    ("--x-grid", "1:2:0", "grid '1:2:0' needs finite endpoints and count >= 1"),
    ("--z", "0,a", "'0,a' must be comma-separated numbers"),
    ("--anchor", "1,1", "'1,1' must be exactly x,y,p"),
])
def test_malformed_values_are_usage_errors(capsys, flag, value, message):
    argv = {"--z": "0", "--anchor": "1,1,1", "--x-grid": "1:2:2", flag: value}
    code, out, err = run_cli(capsys, "curve", *(item for pair in argv.items() for item in pair))
    assert (code, out) == (2, "")
    assert err.startswith("usage: hybridamm curve")
    assert err.endswith(f"error: argument {flag}: {message}\n")


def _long_flags():
    """(subcommand, flag) for every long flag of every parser; () is the top level."""
    parser = cli._build_parser()
    (subs,) = (action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    parsers = [((), parser)] + [((name,), sub) for name, sub in subs.choices.items()]
    return [(command, flag) for command, sub in parsers for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")]


# commands that exit 0, spelled in full; together they use every long flag
FULL_NAMES = [
    ("--help",),
    ("curve", "--help"),
    ("curve", "--z", "0", "--anchor", "1,1,1", "--x-grid", "1:2:2", "--format", "json",
     "--out", "{tmp}/curve.json"),
    ("swap", "--help"),
    ("swap", "--z", "0.6", "--anchor", "1,1,1", "--direction", "sell-x", "--amount-in", "0.1",
     "--format", "table", "--out", "{tmp}/swap.txt"),
    ("swap", "--z", "0.6", "--anchor", "1,1,1", "--direction", "sell-x", "--amount-out", "0.01"),
    ("il", "--help"),
    ("il", "--z", "0", "--prices", "4,1", "--format", "csv", "--out", "{tmp}/il.csv"),
    ("il", "--z", "0", "--rho-grid", "4:4:1"),
    ("slippage", "--help"),
    ("slippage", "--z", "0.5", "--dx-grid", "0.01:0.02:2", "--anchor", "1,1,1",
     "--format", "json", "--out", "{tmp}/slippage.json"),
    ("simulate", "--help"),
    ("simulate", "--config", "{tmp}/scenario.json", "--out", "{tmp}/out", "--format", "table"),
]


@pytest.mark.parametrize("command, flag", _long_flags(),
                         ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_flag_prefixes_are_usage_errors(capsys, tmp_path, command, flag):
    # a flag is accepted under its full name only: one character short exits 2
    write_scenario(tmp_path)
    argv = next([arg.format(tmp=tmp_path) for arg in argv] for argv in FULL_NAMES
                if argv[:len(command)] == command and flag in argv[len(command):])
    assert run_cli(capsys, *argv)[0] == 0
    argv[argv.index(flag, len(command))] = flag[:-1]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: hybridamm")


# ------------------------------------------------------------------- simulate


def write_scenario(tmp_path, **overrides):
    config = {"x0": 1.0, "y0": 1.0, "p0": 1.0, "z_values": [0.0, 0.5, 1.0],
              "steps": 3, "path": {"kind": "constant"}}
    config.update(overrides)
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(config), encoding="utf-8")
    return target


def test_simulate_constant_scenario(capsys, tmp_path):
    config = write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z=0 final_il_relative=0 clamped_trades=0 skipped_trades=0"
    assert lines[1].startswith("z=0.5 ")
    assert lines[2].startswith("z=1 ")
    for name in ("metrics_z0.csv", "metrics_z0.5.csv", "metrics_z1.csv", "path.csv"):
        assert (out_dir / name).exists()
    replayed = ha.load_price_csv(out_dir / "path.csv")
    assert replayed.prices.tolist() == [1.0, 1.0, 1.0]
    rows = csv_rows((out_dir / "metrics_z0.csv").read_text(encoding="utf-8"))
    assert len(rows) == 3
    assert all(row["il_relative"] == 0.0 for row in rows)


def test_simulate_single_jump_halves_x(capsys, tmp_path):
    config = write_scenario(tmp_path, z_values=[0.0], steps=2,
                            path={"kind": "schedule", "prices": [1.0, 4.0]})
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir))
    assert code == 0
    rows = csv_rows((out_dir / "metrics_z0.csv").read_text(encoding="utf-8"))
    assert rows[-1]["reserve_x"] == pytest.approx(0.5, rel=1e-12)


def test_simulate_is_byte_identical_across_runs(capsys, tmp_path):
    config = write_scenario(
        tmp_path, z_values=[0.0, 0.1, 0.5, 0.9], steps=20,
        path={"kind": "gbm", "mu": 0.0, "sigma": 0.2, "seed": 42},
        noise={"size_mu": -2.5, "size_sigma": 0.8, "seed": 7})
    names = ["metrics_z0.csv", "metrics_z0.1.csv", "metrics_z0.5.csv",
             "metrics_z0.9.csv", "path.csv"]
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                               "--out", str(out_dir))
        assert code == 0
        assert len(out.splitlines()) == 4
        outputs.append({name: (out_dir / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


# sha256 of stdout, then of each output file (name, NUL, bytes) in name order,
# for one arbitrage-plus-noise scenario; guarded here against any drift in the
# bytes `simulate` writes.  Re-pinned once when noise trades moved onto the
# swap kernels, after tests/test_kernels.py's replay through swap_exact_in held,
# and once (csv and json; the 10-digit table did not move) when the z < 1 pools
# moved to the closed form, after tests/test_arbitrage_path.py's noise judge held
SIMULATE_DIGESTS = {
    "csv": "f849c0dbac5f9bf556c723caee77e887047833a06f1b9dc383437db833a5ca8a",
    "json": "32d1e2509c10b41d1375177eae90eee36c9d7c3689cab9643abf2a301a456d8a",
    "table": "7926ceb053e4a55b915484d4c9cb3b329509642df088c49d25f14fbc812baa5f",
}


@pytest.mark.parametrize("output_format", sorted(SIMULATE_DIGESTS))
def test_simulate_golden_digest(capsys, tmp_path, output_format):
    config = write_scenario(
        tmp_path, steps=30, path={"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": 42},
        noise={"size_mu": -3.0, "size_sigma": 1.0, "seed": 7, "trades_per_step": 2})
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir), "--format", output_format)
    assert code == 0
    digest = hashlib.sha256(out.encode())
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SIMULATE_DIGESTS[output_format]


def write_no_arbitrage_scenario(tmp_path, z):
    """1,000 GBM steps with noise trades and no arbitrageur: x falls subnormal."""
    return write_scenario(
        tmp_path, z_values=[z], steps=1000, arbitrageur=False,
        path={"kind": "gbm", "mu": 0.0, "sigma": 0.01, "seed": 42},
        noise={"size_mu": -3.5, "size_sigma": 0.8, "seed": 7, "trades_per_step": 2,
               "max_fraction": 0.25})


@pytest.mark.parametrize("z", [0.999, 0.9999, 1.0 - 1e-8])
def test_no_arbitrage_scenario_runs_to_subnormal_x(capsys, tmp_path, z):
    # without arbitrage, noise trades drive x subnormal; there the SELL_Y
    # floor X_FLOOR_REL * x underflows to 0, where x**(z-1) must be inf, not log(0)'s error
    config = write_no_arbitrage_scenario(tmp_path, z)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert out.startswith(f"z={z:.12g} ")
    (name,) = [path.name for path in out_dir.iterdir() if path.name.startswith("metrics_z")]
    final = csv_rows((out_dir / name).read_text(encoding="utf-8"))[-1]
    assert 0.0 < final["reserve_x"] < sys.float_info.min


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="(1-z)*y/x overflows once x is tiny, so spot_price and slippage_cost "
                          "are written as inf; ROADMAP items 5 and 12")
def test_no_arbitrage_scenario_writes_finite_numbers(capsys, tmp_path):
    config = write_no_arbitrage_scenario(tmp_path, 0.999)
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))[0] == 0
    rows = csv_rows((out_dir / "metrics_z0.999.csv").read_text(encoding="utf-8"))
    assert len(rows) == 1000
    assert [row for row in rows if not all(map(math.isfinite, row.values()))] == []


def test_a_trade_that_empties_y_is_not_a_traceback(capsys, tmp_path):
    # a SELL_X trade leaves y = -2.7e-12, so k re-anchors to -6.2e-12, and the
    # solvency bound of that curve once took a root of a negative number
    config = write_scenario(
        tmp_path, x0=919.5901717135855, y0=0.07821897313333037, p0=12.772475197631874,
        z_values=[0.5124919555126976], steps=293, arbitrageur=False,
        path={"kind": "gbm", "mu": 0.0, "sigma": 0.4968958368576199, "seed": 36},
        noise={"size_mu": -1.4514595909840216, "size_sigma": 1.9067374694029193, "seed": 52,
               "max_fraction": 0.606138894260195, "trades_per_step": 3})
    code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                             "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert out.startswith("z=0.512491955513 ")


def test_starts_at_the_edge_of_the_double_range_are_not_tracebacks(capsys, tmp_path):
    path = {"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": 2}
    # k overflows at this start, which PoolState.anchored rejects; it once ended in a
    # raw ZeroDivisionError at step 1
    config = write_scenario(tmp_path, x0=1e300, y0=1e300, z_values=[0.5], steps=20, path=path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, out, err) == (1, "", "error: z=0.5: k must be finite and > 0, got inf\n")
    assert not out_dir.exists()
    # the stepped arbitrage's payout rounds to all of x, which once took log(0) in
    # delta_y; the closed form moves x to x* = sqrt(1000), within |log r| * 2**-53 of it
    config = write_scenario(tmp_path, x0=1e150, y0=1e-150, p0=0.001, z_values=[0.0], steps=20,
                            path=path)
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert out == "z=0 final_il_relative=1 clamped_trades=0 skipped_trades=0\n"
    first = csv_rows((out_dir / "metrics_z0.csv").read_text(encoding="utf-8"))[0]
    assert first["reserve_x"] == pytest.approx(math.sqrt(1000.0), rel=1e-14)


def test_an_arbitrage_target_past_double_range_is_an_error_not_a_traceback(capsys, tmp_path):
    # x* of the re-anchored curve is inf: the arbitrage once traded the pool to (inf, -inf)
    # and step 1 anchored a curve at x = inf, a raw ZeroDivisionError; the closed form
    # moves the pool to a finite value, but the hold value y0/p0 = 4e381 overflows
    config = write_scenario(
        tmp_path, x0=1e20, y0=4.083307274826564e231, p0=1e-150, z_values=[0.5], steps=24,
        path={"kind": "gbm", "mu": 0.0, "sigma": 0.14619002982048895, "seed": 1340138202})
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == ("error: z=0.5, step 0: pool value 1.9576973196727605e+261 must be > 0 and "
                   "il_relative nan finite\n")
    assert not out_dir.exists()


# a start whose closed-form pool leaves double range at step 142; run_steps ran such a
# pool once, and ended in a raw ValueError from log in arb_target_x, or at
# z = 1 - 2**-52 in a raw ZeroDivisionError from curve_anchor
FAR_NOISE = {
    "x0": 1.0577103519649293e+298, "y0": 4.449861660019503e+142, "p0": 4.2070701603259415e-156,
    "steps": 339, "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.4247068050813691,
                           "seed": 601374498},
    "noise": {"size_mu": -0.17833909107172552, "size_sigma": 1.3069836196189755,
              "seed": 1234521329, "max_fraction": 0.7776123389176486, "trades_per_step": 2}}


@pytest.mark.parametrize("z", [0.6384333733145956, 1.0 - 2.0 ** -52])
def test_a_closed_form_pool_past_double_range_is_an_error_not_a_traceback(capsys, tmp_path, z):
    config = write_scenario(tmp_path, **FAR_NOISE, z_values=[z])
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: z={z}, step 142: pool value ") and err.count("\n") == 1, err
    assert not out_dir.exists()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the step-0 arbitrage's slippage is priced against the start's spot "
                          "y0/x0 = 1e309, which overflows, and is written as inf; ROADMAP "
                          "items 5 and 17")
def test_an_arbitrage_from_a_spot_past_double_range_writes_finite_numbers(capsys, tmp_path):
    config = write_scenario(tmp_path, x0=1e-176, y0=1e133, z_values=[0.0], steps=1)
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))[0] == 0
    (row,) = csv_rows((out_dir / "metrics_z0.csv").read_text(encoding="utf-8"))
    assert all(map(math.isfinite, row.values())), row


def test_simulate_json_format(capsys, tmp_path):
    config = write_scenario(tmp_path, z_values=[0.5])
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir), "--format", "json")
    assert code == 0
    data = json.loads((out_dir / "metrics_z0.5.json").read_text(encoding="utf-8"))
    assert len(data) == 3
    assert data[0]["step"] == 0
    assert data[0]["pool_value"] == 2.0


def test_simulate_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"x0": }', encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:")
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "simulate", "--config", str(missing),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    # numpy's PCG64 raises its own ValueError on a negative seed
    for overrides in ({"path": {"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": -1}},
                      {"noise": {"size_mu": -3.0, "size_sigma": 1.0, "seed": -1}}):
        config = write_scenario(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:") and "seed must be an integer >= 0" in err
    # json reads 1 followed by 400 zeros as an int that no double holds
    bad.write_text('{"x0": 1' + "0" * 400 + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(bad),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and ".x0: expected float" in err
    # past Python's 4,300-digit limit for int parsing, json.load itself fails
    bad.write_text('{"x0": 1' + "0" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(bad),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ") and "digits" in err
    bad.write_bytes(b'{"x0": "\xe9"}')
    code, out, err = run_cli(capsys, "simulate", "--config", str(bad),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    # numpy refuses these step counts before allocating; counts from about 1e8
    # up to its dimension limit would try to allocate, so none is tried here
    for steps, path in ((1e300, {"kind": "constant"}), (10 ** 400, {"kind": "constant"}),
                        (1e300, {"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": 1})):
        config = write_scenario(tmp_path, steps=steps, path=path)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {config}.steps: too many steps for a price path: ")


@pytest.mark.parametrize("z_values", [[0.5, 0.5000000000001], [1.0 - 2.0 ** -52, 1.0]])
def test_simulate_refuses_z_values_that_share_a_file_name(capsys, tmp_path, z_values):
    # both pools would write metrics_z0.5 (or metrics_z1); the library runs them
    out_dir = tmp_path / "out"
    config = write_scenario(tmp_path, z_values=z_values)
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"error: z_values must differ at 12 significant digits, got {z_values}\n"
    assert not out_dir.exists()


def test_simulate_refuses_stale_metrics_files(capsys, tmp_path):
    out_dir = tmp_path / "out"
    config = write_scenario(tmp_path, z_values=[0.0, 0.9])
    assert run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))[0] == 0
    # a rerun with the same z values and format overwrites its own files
    assert run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))[0] == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    config = write_scenario(tmp_path, z_values=[0.5])
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "metrics_z0.csv" in err and "metrics_z0.9.csv" in err
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_unwritable_output_is_an_error_not_a_traceback(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    config = write_scenario(tmp_path)
    code, _, err = run_cli(capsys, "simulate", "--config", str(config), "--out", str(taken))
    assert code == 1
    assert err == f"error: {taken}: File exists\n"
    target = tmp_path / "nodir" / "x.csv"
    code, _, err = run_cli(capsys, "swap", "--z", "0.5", "--anchor", "1,1,1",
                           "--direction", "sell-x", "--amount-in", "0.1", "--out", str(target))
    assert code == 1
    assert err == f"error: {target}: No such file or directory\n"


def test_subnormal_reserves_are_not_tracebacks(capsys):
    # x**(z-1) overflows at x = 1e-310, z = 1e-300, and x*x underflows to 0
    # at x = 1e-200; both once ended in tracebacks
    code, out, _ = run_cli(capsys, "curve", "--z", "1e-300", "--anchor", "1,1,1",
                           "--x-grid", "0:1e-310:3")
    assert code == 0
    ys = [row["y"] for row in csv_rows(out)]
    assert math.isnan(ys[0]) and ys[1:] == [math.inf, math.inf]
    # 1/x overflows at x = 1e-310, so the anchor is not checked at z = 0
    code, out, _ = run_cli(capsys, "curve", "--anchor", "1e-310,1,1", "--z", "0.5",
                           "--x-grid", "1e-310:1:2")
    assert code == 0
    anchor, past_bound = csv_rows(out)
    assert anchor["y"] == pytest.approx(1.0, rel=1e-12) and math.isnan(past_bound["y"])
    code, out, err = run_cli(capsys, "curve", "--anchor", "1e-310,1,1", "--z", "0.5,0",
                             "--x-grid", "1:2:2")
    assert (code, out) == (1, "")
    assert err.startswith("error: x**(z-1) is past double range") and "z=0.0" in err
    # x**(z-3) overflows at x = 1e-200, but 0.5*k*(z-1)*(z-2)*x**(z-3)*dx does not
    code, out, _ = run_cli(capsys, "slippage", "--z", "0.99", "--anchor", "1e-200,1,1",
                           "--dx-grid", "1e-201:1e-201:1")
    assert code == 0
    with mpmath.workdps(50):
        x, z, dx = mpmath.mpf(1e-200), mpmath.mpf(0.99), mpmath.mpf(1e-201)
        k = (1 + z * x / (2 - z)) * x ** (1 - z)
        taylor = float(k * (z - 1) * (z - 2) * x ** (z - 3) * dx / 2)
    assert csv_rows(out)[0]["taylor"] == pytest.approx(taylor, rel=1e-12)
    code, out, err = run_cli(capsys, "swap", "--anchor", "1e-310,1,1", "--z", "1e-300",
                             "--direction", "sell-x", "--amount-in", "0.1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: x**(z-1) is past double range")


# ------------------------------------------------------------ formats & misc


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "il", "--z", "0", "--rho-grid", "4:4:1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["rho"] == 4.0
    assert data[0]["il_paper"] == pytest.approx(1.0, rel=1e-12)


def test_json_renders_nonfinite_as_null(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z", "0.5",
                           "--dx-grid", "5:5:1", "--anchor", "1,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["taylor"] is None
    assert data[0]["exact"] is None


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,1",
                           "--x-grid", "1:2:2", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["z", "x", "y"]
    assert set(lines[1]) == {"-", " "}


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,1",
                           "--x-grid", "1:2:2", "--out", str(target))
    assert code == 0
    assert out == ""
    rows = csv_rows(target.read_text(encoding="utf-8"))
    assert len(rows) == 2


class ClosedPipe(io.StringIO):
    """Standard output whose reader has gone, as under ``hybridamm ... | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_exit_codes(capsys, monkeypatch):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "teleport")[0] == 2
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run_cli(capsys, "curve", "--z", "0", "--anchor", "1,1,1",
                   "--x-grid", "1:2:2") == (1, "", "")


def test_the_shared_parser_keeps_no_state(capsys, monkeypatch):
    # main builds its parser once per process; each command must run as it
    # would on a parser built for it alone
    commands = [("curve", "--z", "0"),                                   # usage error
                ("--help",),
                ("curve", "--z", "0", "--anchor", "1,1,-1", "--x-grid", "1:2:2"),  # DomainError
                ("curve", "--z", "0,0.5", "--anchor", "1,1,1", "--x-grid", "1:2:2")]
    shared = [run_cli(capsys, *argv) for argv in commands * 2]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in commands]
    assert shared == fresh * 2
    assert [code for code, _, _ in fresh] == [2, 0, 1, 0]


def test_module_entry_point_exit_codes():
    # python -m hybridamm.cli exits with main's code, through the module's __main__ guard
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    for argv, code, first_line in [
        ("curve --z 0,0.5,1 --anchor 1,1,1 --x-grid 0.5:1.5:101", 0, "z,x,y"),
        ("il --z 0 --prices 0,1", 1, "error: p0 must be finite and > 0, got 0.0"),
        ("curve --z 0 --k 1 --x-grid 1:2:2", 2,
         "usage: hybridamm curve [-h] --z Z --anchor X,Y,P --x-grid START:STOP:COUNT"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "hybridamm.cli", *argv.split()],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, argv
        assert (proc.stdout + proc.stderr).splitlines()[0] == first_line, argv


def test_entry_point_is_installed():
    exe = shutil.which("hybridamm")
    if exe is not None:
        command, env = [exe], None
    else:
        # not installed: the declared script must name cli.main, and the
        # module it names runs from the source tree
        tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"hybridamm": "hybridamm.cli:main"}
        command = [sys.executable, "-m", "hybridamm.cli"]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([*command, "il", "--z", "0", "--rho-grid", "4:4:1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "1," in proc.stdout or "1\n" in proc.stdout
