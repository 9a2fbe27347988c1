"""End-to-end CLI behavior: commands, formats, files, exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

import hybridamm as ha
from hybridamm.cli import main

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
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--k", "1",
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
    code, out, _ = run_cli(capsys, "curve", "--z", "1", "--k", "1",
                           "--x-grid", "0.5:2:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["y"]) == 0.5
    assert rows[1]["y"] == "nan"


def test_curve_flag_validation(capsys):
    assert run_cli(capsys, "curve", "--z", "0", "--x-grid", "1:2:2")[0] == 2
    assert run_cli(capsys, "curve", "--z", "0", "--k", "1", "--anchor", "1,1,1",
                   "--x-grid", "1:2:2")[0] == 2
    assert run_cli(capsys, "curve", "--z", "0", "--k", "1", "--x-grid", "1:2")[0] == 2
    code, _, err = run_cli(capsys, "curve", "--z", "0", "--k", "-1", "--x-grid", "1:2:2")
    assert code == 1
    assert err.startswith("error:")


# ----------------------------------------------------------------------- swap


def swap_row(capsys, *extra):
    code, out, err = run_cli(capsys, "swap", *extra)
    assert code == 0, err
    row = next(csv.DictReader(io.StringIO(out)))
    return {k: (v if k == "direction" else float(v)) for k, v in row.items()}


def test_swap_constant_product(capsys):
    row = swap_row(capsys, "--z", "0", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "sell-x", "--amount-in", "1")
    assert row["direction"] == "sell-x"
    assert row["amount_out"] == pytest.approx(0.5, rel=1e-15)
    assert row["new_x"] == 2.0


def test_swap_full_mix_zero_slippage(capsys):
    row = swap_row(capsys, "--z", "1", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "sell-x", "--amount-in", "0.5")
    assert row["slippage_cost"] == 0.0
    assert row["exec_price"] == pytest.approx(1.0, rel=1e-13)


def test_swap_half_mix_reference(capsys):
    row = swap_row(capsys, "--z", "0.5", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "sell-x", "--amount-in", "0.1")
    assert row["amount_out"] == pytest.approx(OUT_REF, rel=1e-12)


def test_swap_exact_out(capsys):
    row = swap_row(capsys, "--z", "0", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "sell-x", "--amount-out", "0.5")
    assert row["amount_in"] == pytest.approx(1.0, rel=1e-10)


def test_swap_insolvency_reports_max_feasible(capsys):
    code, _, err = run_cli(capsys, "swap", "--z", "0.5", "--x", "1", "--y", "1",
                           "--p", "1", "--direction", "sell-x", "--amount-in", "10")
    assert code == 1
    assert err.startswith("error:")
    assert "max feasible amount_in 1.519842099789746" in err


def test_swap_usage_errors(capsys):
    assert run_cli(capsys, "swap", "--z", "0", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "sell-x")[0] == 2
    assert run_cli(capsys, "swap", "--z", "0", "--x", "1", "--y", "1", "--p", "1",
                   "--direction", "both", "--amount-in", "1")[0] == 2


# ------------------------------------------------------------------------- il


def test_il_zero_at_unit_ratio(capsys):
    code, out, _ = run_cli(capsys, "il", "--z-list", "0,0.5,1", "--rho-grid", "1:1:1")
    assert code == 0
    for row in csv_rows(out):
        assert row["il_paper"] == 0.0
        assert row["il_relative"] == 0.0


def test_il_forced_arithmetic(capsys):
    code, out, _ = run_cli(capsys, "il", "--z-list", "0", "--p0", "4", "--p1", "1")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["rho"] == 4.0
    assert row["il_paper"] == pytest.approx(1.0, rel=1e-12)


def test_il_monotone_in_z(capsys):
    code, out, _ = run_cli(capsys, "il", "--z-list", "0,0.3,0.6,0.9",
                           "--rho-grid", "4:4:1")
    assert code == 0
    values = [row["il_paper"] for row in csv_rows(out)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_il_simulate_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "il", "--z-list", "0.6", "--p0", "3",
                           "--p1", "1.5", "--simulate")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["il_paper"] == pytest.approx(-0.28134142403055172, rel=1e-9)
    code, out, _ = run_cli(capsys, "il", "--z-list", "0.6", "--rho-grid", "2:2:1",
                           "--simulate")
    (grid_row,) = csv_rows(out)
    assert grid_row["il_paper"] == pytest.approx(row["il_paper"], rel=1e-12)


def test_il_simulate_rejects_full_mix(capsys):
    code, _, err = run_cli(capsys, "il", "--z-list", "1", "--rho-grid", "2:2:1",
                           "--simulate")
    assert code == 1
    assert err.startswith("error:")
    assert "z = 1" in err


def test_il_price_flag_coupling(capsys):
    assert run_cli(capsys, "il", "--z-list", "0", "--p0", "2")[0] == 2
    assert run_cli(capsys, "il", "--z-list", "0", "--rho-grid", "1:1:1",
                   "--p1", "2")[0] == 2
    code, _, err = run_cli(capsys, "il", "--z-list", "0", "--p0", "0", "--p1", "1")
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------- slippage


def test_slippage_worked_example_coefficients(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "0.1,0.9",
                           "--dx-grid", "0.01:0.01:1", "--normalized")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0]["taylor"] / rows[0]["dx"] == pytest.approx(0.9, rel=1e-12)
    assert rows[1]["taylor"] / rows[1]["dx"] == pytest.approx(0.1, rel=1e-12)
    assert rows[0]["exact"] > 0.0


def test_slippage_full_mix_is_zero(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "1",
                           "--dx-grid", "0.5:0.5:1", "--normalized")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["taylor"] == 0.0
    assert row["exact"] == 0.0


def test_slippage_marks_infeasible_rows(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "0.5",
                           "--dx-grid", "5:5:1", "--normalized")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["taylor"] == "nan"
    assert row["exact"] == "nan"


def test_slippage_explicit_pool(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "0", "--dx-grid",
                           "0.02:0.02:1", "--x", "2", "--y", "2", "--p", "1")
    assert code == 0
    (row,) = csv_rows(out)
    # k = x*y = 4, y'' = 2k/x^3 = 1, so the prediction is dx/2
    assert row["taylor"] == pytest.approx(0.01, rel=1e-12)


def test_slippage_requires_pool_or_normalized(capsys):
    assert run_cli(capsys, "slippage", "--z-list", "0",
                   "--dx-grid", "0.1:0.1:1")[0] == 2


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
# swap kernels, after tests/test_kernels.py's replay through swap_exact_in held
SIMULATE_DIGESTS = {
    "csv": "e678053ea32f359e771939e13af490cd11cea19e5eecb92d215d8fb2eff610a0",
    "json": "c1d4703dbc3fd6cb7d340639f27a38e16620fe82731a12d64656c0e24873a36c",
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
    code, _, err = run_cli(capsys, "swap", "--z", "0.5", "--x", "1", "--y", "1", "--p", "1",
                           "--direction", "sell-x", "--amount-in", "0.1", "--out", str(target))
    assert code == 1
    assert err == f"error: {target}: No such file or directory\n"


def test_subnormal_reserves_are_not_tracebacks(capsys):
    # x**(z-1) overflows at x = 1e-310, z = 1e-300, and x*x underflows to 0
    # at x = 1e-200; both once ended in tracebacks
    code, out, _ = run_cli(capsys, "curve", "--z", "1e-300", "--k", "1",
                           "--x-grid", "0:1e-310:3")
    assert code == 0
    ys = [row["y"] for row in csv_rows(out)]
    assert math.isnan(ys[0]) and ys[1:] == [math.inf, math.inf]
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "0.99", "--x", "1e-200", "--y", "1",
                           "--p", "1", "--dx-grid", "1e-201:1e-201:1")
    assert code == 0
    assert csv_rows(out)[0]["taylor"] == math.inf
    code, out, err = run_cli(capsys, "swap", "--x", "1e-310", "--z", "1e-300", "--y", "1",
                             "--p", "1", "--direction", "sell-x", "--amount-in", "0.1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# ------------------------------------------------------------ formats & misc


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "il", "--z-list", "0", "--rho-grid", "4:4:1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["rho"] == 4.0
    assert data[0]["il_paper"] == pytest.approx(1.0, rel=1e-12)


def test_json_renders_nonfinite_as_null(capsys):
    code, out, _ = run_cli(capsys, "slippage", "--z-list", "0.5",
                           "--dx-grid", "5:5:1", "--normalized", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["taylor"] is None
    assert data[0]["exact"] is None


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--k", "1",
                           "--x-grid", "1:2:2", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["z", "x", "y"]
    assert set(lines[1]) == {"-", " "}


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "curve", "--z", "0", "--k", "1",
                           "--x-grid", "1:2:2", "--out", str(target))
    assert code == 0
    assert out == ""
    rows = csv_rows(target.read_text(encoding="utf-8"))
    assert len(rows) == 2


def test_main_exit_codes(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "teleport")[0] == 2


def test_entry_point_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("hybridamm")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "il", "--z-list", "0", "--rho-grid", "4:4:1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1," in proc.stdout or "1\n" in proc.stdout
