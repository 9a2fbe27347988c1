"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that BENCHMARK.json lists exactly
the metrics in catalogue.py, then runs every workload for one second,
untraced and traced, and checks that:

- each run prints every metric of its kind with its unit, and passes its
  correctness gate;
- every end-to-end metric is non-zero;
- on the sim workloads the traced layer self times add up to the traced wall;
- a wrong reference value makes each workload's correctness gate fail.

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

import catalogue
import scenarios

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = tuple(scenarios.SIM_WORKLOADS) + ("quotes",)
SELF_TIMES = ("cli.self_s", "simulator.load_scenario_s", "oracle.gbm_path_s",
              "simulator.materialise_s", "kernels.run_steps_s", "oracle.dump_price_csv_s",
              "serialize.write_s")


def bench(workload, trace, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def check_manifest(errors):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    end_to_end = [{"name": n, "unit": u, "better": b, "bound": x}
                  for n, u, b, x in catalogue.END_TO_END]
    per_layer = [{"name": n, "unit": u, "better": b} for n, u, b in catalogue.PER_LAYER]
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from the benchmark's")
    if manifest["end_to_end"] != end_to_end:
        errors.append("BENCHMARK.json end_to_end differs from catalogue.END_TO_END")
    if manifest["per_layer"] != per_layer:
        errors.append("BENCHMARK.json per_layer differs from catalogue.PER_LAYER")


def check_metrics(workload, result, expected, errors):
    units = {m[0]: m[1] for m in expected}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != units:
        errors.append(f"{workload}: metric names or units differ: "
                      f"{sorted(set(got.items()) ^ set(units.items()))}")
    if not result["correct"]:
        errors.append(f"{workload}: correctness gate failed on the true reference")


def main():
    errors = []
    check_manifest(errors)
    for workload in WORKLOADS:
        plain = bench(workload, 0)
        check_metrics(workload, plain, catalogue.END_TO_END, errors)
        for name, value in plain["metrics"].items():
            if not value["value"] > 0:
                errors.append(f"{workload}: end-to-end metric {name} is {value['value']}")

        traced = bench(workload, 1)
        check_metrics(workload, traced, catalogue.PER_LAYER, errors)
        layers = {name: value["value"] for name, value in traced["metrics"].items()}
        if workload != "quotes":
            gap = abs(sum(layers[name] for name in SELF_TIMES) - layers["trace.wall_s"])
            if gap > 1e-6:
                errors.append(f"{workload}: layer self times miss the traced wall by {gap} s")

        if bench(workload, 0, "--corrupt-reference")["correct"]:
            errors.append(f"{workload}: a wrong reference did not fail the correctness gate")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
