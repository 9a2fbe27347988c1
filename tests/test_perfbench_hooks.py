"""The benchmark's set-up probe and span hooks still find every name they use.

``perfbench/probe.py`` runs before every workload, and a failing probe stops
them all.  ``perfbench/sim_child.py`` wraps CLI, simulator, oracle and kernel
entry points by name in every simulate command it runs, traced or not, so a
rename there would stop the benchmark; these tests fail first.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from hybridamm import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = {"simulator.load_scenario", "oracle.gbm_path", "simulator.run_scenario",
         "kernels.run_steps", "simulator.rows", "oracle.dump_price_csv", "serialize.write_rows"}


def test_every_benchmark_span_fires(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # sim_child imports its sibling modules
    spec = importlib.util.spec_from_file_location("sim_child", PERFBENCH / "sim_child.py")
    sim_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sim_child)
    import scenarios

    config = {**scenarios.scenario("sim-noise", 0), "steps": 12}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    tracer = sim_child.make_tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {span[0] for span in tracer.spans} == SPANS
    rows = sum(span[4]["rows"] for span in tracer.spans if span[0] == "serialize.write_rows")
    assert rows == 12 * len(config["z_values"])


def test_setup_probe_runs_on_this_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(PERFBENCH / "probe.py")], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["backend"] == "pure"
    assert pathlib.Path(probe["module"]).resolve().is_relative_to(ROOT / "src")
