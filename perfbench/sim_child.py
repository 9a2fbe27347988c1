"""A closed loop of `hybridamm simulate` commands in one fresh interpreter.

    python3 perfbench/sim_child.py --config C [--config C ...] --format F
                                   --work DIR --seconds S --trace 0|1
                                   --result RESULT_JSON

Imports the CLI once, then runs ``hybridamm.cli.main(["simulate", ...])``
in rounds of one command per config, each command starting when the last
has ended, until S seconds are up (and at least one untraced round, plus one
traced round with --trace 1, has run).  The first command of config i writes
to DIR/first{i}, which is kept for the caller's checks; later ones write to
DIR/out, which is removed after each.  With --trace 1, odd rounds run with
span wrappers on each layer entry point, installed where its caller looks
the name up, and even rounds without.  Writes one JSON object to
RESULT_JSON: each command's config, wall time, exit code and output digest
(taken outside the timed window), the spans of each traced command, and the
time the CLI import took.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
from time import perf_counter

from spans import Tracer  # this file's directory is sys.path[0]

started = perf_counter()
import hybridamm.cli as cli  # noqa: E402
from hybridamm import _kernels, oracle, simulator  # noqa: E402
import_s = perf_counter() - started


def _kernel_counts(result, args):
    steps, trades_per_step = len(args[3]), args[7]
    return {"z": args[2], "steps": steps, "attempted": steps * trades_per_step,
            "clamped": int(result[8]), "skipped": int(result[9])}


def make_tracer():
    tracer = Tracer()
    # cli imported these names with `from ... import`, so they are patched on
    # cli; simulator reads run_steps as an attribute of _kernels, and oracle
    # resolves gbm_path as its own global.
    tracer.wrap(cli, "load_scenario", "simulator.load_scenario")
    tracer.wrap(oracle, "gbm_path", "oracle.gbm_path")
    tracer.wrap(cli, "run_scenario", "simulator.run_scenario")
    tracer.wrap(_kernels, "run_steps", "kernels.run_steps", count=_kernel_counts)
    tracer.wrap(simulator.ScenarioRun, "rows", "simulator.rows")
    tracer.wrap(cli, "dump_price_csv", "oracle.dump_price_csv")
    tracer.wrap(cli, "write_rows", "serialize.write_rows",
                count=lambda result, args: {"rows": len(args[3])})
    return tracer


def digest_dir(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def run_one(argv, tracer):
    """(exit code or the type of the error raised, wall seconds) of one command."""
    if tracer is not None:
        tracer.spans = []
        tracer.install()
        root = tracer.begin("cli.main")
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception as err:
        code = type(err).__name__
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
            # the root span is the command, so the layer self times add up to it
            wall = tracer.spans[root][2] - tracer.spans[root][1]
    return code, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", action="append", required=True)
    parser.add_argument("--format", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = make_tracer()
    requests = []
    loop_started = perf_counter()
    configs = args.config
    while True:
        index = len(requests)
        config = index % len(configs)
        traced = bool(args.trace) and index // len(configs) % 2 == 1
        first = index < len(configs)
        out_dir = os.path.join(args.work, f"first{config}" if first else "out")
        argv = ["simulate", "--config", configs[config], "--out", out_dir,
                "--format", args.format]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code, wall = run_one(argv, tracer if traced else None)
        request = {"config": config, "traced": traced, "wall": wall, "code": code}
        if traced:
            request["spans"] = tracer.spans
        if code == 0:
            request["digest"] = digest_dir(out_dir)
        else:
            request["stdout"] = printed.getvalue()[-2000:]
        if not first and os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        requests.append(request)

        rounds, partial = divmod(len(requests), len(configs))
        enough = not partial and rounds >= 1 + args.trace
        elapsed = perf_counter() - loop_started
        round_s = len(configs) * statistics.median(r["wall"] for r in requests)
        if enough and elapsed + round_s > args.seconds:
            break

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "requests": requests}, handle)


if __name__ == "__main__":
    main()
