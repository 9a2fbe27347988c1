"""Regenerate `sim_reference.json`: each pool's final metrics row per sim workload and seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout.  The benchmark checks every simulate run's
final rows against this file, so regenerate it only when a change is meant
to alter simulation results, and say so in that change.
"""

import json
import os
from dataclasses import astuple

from hybridamm import METRICS_HEADER, ScenarioConfig, run_scenario

from scenarios import REFERENCE_SEEDS, SIM_WORKLOADS, scenario

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_reference.json")


def final_rows(workload, seed):
    runs = run_scenario(ScenarioConfig.from_dict(scenario(workload, seed)))
    return {"%.12g" % run.z: list(astuple(run.metrics[-1])) for run in runs}


def main():
    table = {"columns": list(METRICS_HEADER)}
    for workload in SIM_WORKLOADS:
        table[workload] = {str(seed): final_rows(workload, seed) for seed in range(REFERENCE_SEEDS)}
    # one line per scenario keeps the file short and its diffs readable
    lines = [f' "columns": {json.dumps(table.pop("columns"))}']
    for workload, scenarios in sorted(table.items()):
        rows = ",\n".join(f'  "{seed}": {json.dumps(rows, sort_keys=True)}'
                          for seed, rows in scenarios.items())
        lines.append(f' "{workload}": {{\n{rows}\n }}')
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
