"""The benchmark's span hooks still find every name they wrap.

``perfbench/sim_child.py`` wraps CLI, simulator, oracle and kernel entry
points by name in every simulate command it runs, traced or not, so a rename
there would stop the benchmark; this test fails first.
"""

import importlib.util
import json
import pathlib

from hybridamm import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
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
