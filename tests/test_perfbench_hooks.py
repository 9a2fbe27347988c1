"""The benchmark's set-up probe and span hooks still find every name they use,
and its correctness gate still passes.

``perfbench/probe.py`` runs before every workload, and a failing probe stops
them all.  ``perfbench/sim_child.py`` wraps CLI, simulator, oracle and kernel
entry points by name in every simulate command it runs, traced or not, so a
rename there would stop the benchmark; these tests fail first.  The gate
checks each simulate command's final rows against ``sim_reference.json``,
but runs only a few scenarios per workload; the last test checks all of them.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

from hybridamm import METRICS_HEADER, ScenarioConfig, cli, run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = {"simulator.load_scenario", "oracle.gbm_path", "simulator.run_scenario",
         "kernels.run_steps", "simulator.rows", "oracle.dump_price_csv", "serialize.write_rows"}


def load(monkeypatch, name):
    """A perfbench script as a module; it imports its sibling modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_fires(monkeypatch, tmp_path):
    sim_child = load(monkeypatch, "sim_child")
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


def test_every_reference_scenario_passes_the_benchmark_gate(monkeypatch):
    bench = load(monkeypatch, "run")
    import scenarios

    reference = json.loads((PERFBENCH / "sim_reference.json").read_text(encoding="utf-8"))
    columns = reference["columns"]
    assert columns == list(METRICS_HEADER)
    worst = (0.0, None)   # the largest share of the gate's tolerance, and where
    for workload in scenarios.SIM_WORKLOADS:
        assert len(reference[workload]) == scenarios.REFERENCE_SEEDS
        for ref, table in reference[workload].items():
            config = ScenarioConfig.from_dict(scenarios.scenario(workload, int(ref)))
            runs = {"%.12g" % run.z: run for run in run_scenario(config)}
            assert sorted(runs) == sorted(table)
            for z, want in table.items():
                got = runs[z].table[-1].tolist()
                for name, g, r, s in zip(columns, got, want, bench.row_scales(want, columns)):
                    tolerance = bench.SIM_RTOL * abs(r) + bench.SIM_ATOL * s
                    share = abs(g - r) / tolerance if tolerance else float(g != r) * math.inf
                    worst = max(worst, (share, (workload, ref, z, name)), key=lambda w: w[0])
    print(f"benchmark gate: worst share {worst[0]:.3g} of the tolerance, at {worst[1]}")
    assert worst[0] <= 1.0, worst
