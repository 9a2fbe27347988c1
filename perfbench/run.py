"""Benchmark of hybridamm: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports hybridamm from ./src only.
Workloads (all closed loop, one client: a request starts when the last ends):

  sim-noise     `hybridamm simulate`, CSV, 6 pools z = 0..1, GBM path, the
                arbitrageur and 2 lognormal noise trades per step
  sim-arb-json  `hybridamm simulate`, JSON, 20 pools z = 0..0.95, arbitrage only
  quotes        single library calls from a seeded mix (see quotes.py)

A sim request is one `hybridamm simulate` command, run by a fresh interpreter
that imports the CLI once and then runs commands in a loop (sim_child.py); a
quotes request is one library call, in batches of 240 (quotes.py).  Each
workload runs in fresh interpreters started one at a time from this process.  The last line of
stdout is one JSON object with keys correct, attempted, failed and metrics;
the line before it holds the environment and run details.  README.md
defines every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import catalogue
import scenarios
from spans import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "sim_reference.json")
SETUP_PROBES = 12
# final rows may move by this much before a change in results is called wrong
SIM_RTOL = 1e-9
SIM_ATOL = 1e-9


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # imports read cached bytecode, as an installed package's would, whatever
    # the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(argv, stdout_path):
    """Run one fresh interpreter to completion, its stderr going to stdout_path + ".err".

    Returns (exit code, peak RSS in KB).
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss of this child alone; RUSAGE_CHILDREN would keep the maximum
    # over every child so far
    return proc.returncode, usage.ru_maxrss


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def setup_probes(work, count):
    probes = []
    for i in range(count):
        out = os.path.join(work, f"probe{i}.out")
        code, _ = spawn([os.path.join(HERE, "probe.py")], out)
        if code != 0:
            raise SystemExit(f"set-up probe failed ({code}): {read_text(out + '.err')}")
        probes.append(json.loads(read_text(out)))
    module = os.path.realpath(probes[0]["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"hybridamm was imported from {module}, not from {SRC}")
    return probes


def environment(probe):
    env = {key: probe[key] for key in ("backend", "python", "numpy", "hybridamm")}
    env["nproc"] = len(os.sched_getaffinity(0))
    env["backends_available"] = ["pure", "numba"] if probe["numba_importable"] else ["pure"]
    if not probe["numba_importable"]:
        env["backend_comparison"] = "none: numba is not importable, so only the pure backend ran"
    env["git_sha"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True)
        env["git_sha"] = found.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "hybridamm")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    env["src_sha256"] = digest.hexdigest()
    return env


# ---------------------------------------------------------------- sim workloads


def final_row(path, fmt, columns):
    """(data rows, final row as floats) of one metrics file."""
    if fmt == "csv":
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if lines[0].split(",") != columns:
            raise ValueError("header")
        return len(lines) - 1, [float(v) for v in lines[-1].split(",")]
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)
    return len(rows), [float(rows[-1][name]) for name in columns]


def row_scales(row, columns):
    """Size of each column's quantity in the final state, for its absolute tolerance."""
    col = dict(zip(columns, row))
    value_x = col["hold_value"]
    scale = {"step": 0.0, "il_relative": 1.0, "reserve_y": value_x * col["oracle_price"]}
    for name in ("oracle_price", "spot_price", "slippage_cost"):
        scale[name] = col["oracle_price"]
    for name in ("reserve_x", "pool_value", "hold_value", "cum_volume"):
        scale[name] = value_x
    return [scale[name] for name in columns]


def check_outputs(out_dir, workload, ref, reference, corrupt):
    """Names of the failed checks of one command's outputs, and the total metrics bytes."""
    spec = scenarios.SIM_WORKLOADS[workload]
    fmt, steps = spec["format"], spec["steps"]
    columns = reference["columns"]
    expected = {f"metrics_z{z:.12g}.{fmt}": "%.12g" % z for z in spec["z_values"]}
    present = set(os.listdir(out_dir)) - {"path.csv"}
    failures = []
    if present != set(expected):
        failures.append("files")
    table = reference.get(workload, {}).get(str(ref))
    if table is None:
        failures.append("no_reference")
    total = 0
    for name in sorted(present & set(expected)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        try:
            rows, got = final_row(path, fmt, columns)
        except (ValueError, KeyError, IndexError):
            failures.append(f"parse.{name}")
            continue
        if rows != steps:
            failures.append(f"rows.{name}")
        if table is None:
            continue
        ref = table[expected[name]]
        for g, r, s in zip(got, ref, row_scales(ref, columns)):
            if corrupt:
                r = r * (1 + 1e-6) + 1e-6 * s
            if not abs(g - r) <= SIM_RTOL * abs(r) + SIM_ATOL * s:
                failures.append(f"final_row.{name}")
                break
    return failures, total


def layer_metrics(commands):
    """Per-layer self times and counts of a round of traced simulate commands.

    ``commands`` holds each command's spans; the first span of each is the
    command itself, so the self times add up to the round's wall time.
    """
    spans = []
    for command in commands:
        offset = len(spans)
        spans += [[n, s, e, p + offset if p >= 0 else -1, a] for n, s, e, p, a in command]
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_of(name):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name)

    kernel = [s[4] for s in spans if s[0] == "kernels.run_steps"]
    rows = sum(s[4]["rows"] for s in spans if s[0] == "serialize.write_rows")
    run_steps_s = total("kernels.run_steps")
    materialise_s = self_of("simulator.run_scenario") + total("simulator.rows")
    write_s = total("serialize.write_rows")
    attempted = sum(k["attempted"] for k in kernel)
    skipped = sum(k["skipped"] for k in kernel)
    pool_steps = sum(k["steps"] for k in kernel)
    m = {
        "kernels.run_steps_s": run_steps_s,
        "kernels.ns_per_pool_step": run_steps_s / pool_steps * 1e9 if pool_steps else 0.0,
        "kernels.pool_steps": pool_steps,
        "kernels.trades_attempted": attempted,
        "kernels.trades_clamped": sum(k["clamped"] for k in kernel),
        "kernels.trades_skipped": skipped,
        "kernels.trade_exec_ratio": (attempted - skipped) / attempted if attempted else 0.0,
        "simulator.load_scenario_s": self_of("simulator.load_scenario"),
        "simulator.run_scenario_s": total("simulator.run_scenario"),
        "simulator.materialise_s": materialise_s,
        "simulator.materialise_ns_per_row": materialise_s / rows * 1e9 if rows else 0.0,
        "serialize.write_s": write_s,
        "serialize.ns_per_row": write_s / rows * 1e9 if rows else 0.0,
        "oracle.gbm_path_s": total("oracle.gbm_path"),
        "oracle.dump_price_csv_s": total("oracle.dump_price_csv"),
        # the command outside every named span: argument parsing, opening
        # files, printing, and the tracing itself
        "cli.self_s": sum(own[i] for i in roots),
        "trace.wall_s": sum(spans[i][2] - spans[i][1] for i in roots),
    }
    for z in scenarios.NOISE_Z:
        pool = [k for k in kernel if k["z"] == z and k["attempted"]]
        tried = sum(k["attempted"] for k in pool)
        missed = sum(k["skipped"] for k in pool)
        m[f"kernels.trades_skipped.{catalogue.z_label(z)}"] = missed
        m[f"kernels.trade_exec_ratio.{catalogue.z_label(z)}"] = (tried - missed) / tried if tried else 0.0
    return m


def run_sim(args, work, details):
    spec = scenarios.SIM_WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    refs = scenarios.scenario_seeds(args.seed)
    argv = [os.path.join(HERE, "sim_child.py")]
    for i, ref in enumerate(refs):
        config_path = os.path.join(work, f"config{i}.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(scenarios.scenario(args.workload, ref), handle)
        argv += ["--config", config_path]
    result_path = os.path.join(work, "sim.json")
    argv += ["--format", spec["format"], "--work", work, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", result_path]
    out = os.path.join(work, "sim.out")
    code, rss_kb = spawn(argv, out)
    if code != 0:
        raise SystemExit(f"simulate child failed ({code}): {read_text(out + '.err')}")
    with open(result_path, encoding="utf-8") as handle:
        child = json.load(handle)
    reqs = child["requests"]

    failures = []
    first = {}
    details["metrics_bytes"] = 0
    for req in reqs:
        req["failed"] = []
        config = req["config"]
        if req["code"] != 0:
            req["failed"].append(f"exit_code.{req['code']}")
        elif config not in first:
            checks, size = check_outputs(os.path.join(work, f"first{config}"), args.workload,
                                         refs[config], reference, args.corrupt_reference)
            req["failed"] += checks
            details["metrics_bytes"] += size
        elif req["digest"] != first[config]:
            req["failed"].append("rerun_not_identical")
        first.setdefault(config, req.get("digest"))
        failures += req["failed"]
    details["scenarios"] = refs
    details["requests"] = {"count": len(reqs), "traced": sum(r["traced"] for r in reqs)}
    details["failed_requests"] = [{k: v for k, v in r.items() if k != "spans"}
                                  for r in reqs if r["failed"]][:20]
    details["checks_failed"] = sorted(set(failures))

    def fastest(traced):
        """The fastest command of each scenario, traced or not."""
        return [min((r for r in reqs if r["config"] == i and r["traced"] == traced),
                    key=lambda r: r["wall"]) for i in range(len(refs))]

    # contention on a shared host only adds time, so the fastest of many short
    # commands is the steadiest estimate of the program's own speed; a round
    # is one command of each scenario
    wall = sum(r["wall"] for r in fastest(False))
    details["fastest_walls"] = [r["wall"] for r in fastest(False)]
    failed = sum(1 for r in reqs if r["failed"])
    if not args.trace:
        metrics = {
            "wall_s": wall,
            "ops_per_s": len(refs) * len(spec["z_values"]) * spec["steps"] / wall,
            "peak_rss_mb": rss_kb * 1024 / 1e6,
        }
    else:
        metrics = layer_metrics([r["spans"] for r in fastest(True)])
        metrics["cli.import_s"] = child["import_s"]
        metrics["serialize.bytes"] = details["metrics_bytes"]
        metrics["fail_frac"] = failed / len(reqs)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    return not failures, len(reqs), failed, metrics


# ---------------------------------------------------------------- quotes


def run_quotes(args, work, details):
    argv = [os.path.join(HERE, "quotes.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_reference:
        argv.append("--corrupt-reference")
    out = os.path.join(work, "quotes.out")
    code, _ = spawn(argv, out)
    if code != 0:
        raise SystemExit(f"quotes child failed ({code}): {read_text(out + '.err')}")
    result = json.loads(read_text(out))
    details.update({k: result[k] for k in ("checked", "check_failures", "reruns_differ",
                                           "failures", "batches", "runs", "capacity_reached",
                                           "batch_walls")})
    failed = result["failed"]
    if not args.trace:
        metrics = {"wall_s": result["wall_s"],
                   "ops_per_s": result["attempted"] / result["wall_s"],
                   "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6}
    else:
        metrics = {"fail_frac": failed / result["attempted"],
                   "op_p99_us": result["op_p99_us"],
                   "swap.amount_max_rel_err": result["amount_max_rel_err"],
                   "trace.wall_s": result["trace_wall_s"],
                   "trace.overhead_s": result["trace_overhead_s"]}
        for op, (p50, p99) in result["latency_us"].items():
            layer = catalogue.LATENCY_LAYER.get(op, "swap")
            metrics[f"{layer}.{op}_us_p50"] = p50
            metrics[f"{layer}.{op}_us_p99"] = p99
        for op in catalogue.QUOTE_OPS:
            for kind in catalogue.fail_types(op):
                metrics[f"swap.fail.{op}.{kind}"] = 0
        for key, count in result["failures"].items():
            op, kind = key.split(".", 1)
            if kind not in catalogue.QUOTE_OPS[op]:
                kind = "other"
            metrics[f"swap.fail.{op}.{kind}"] += count
        for op, count in result["check_failures"].items():
            metrics[f"swap.fail.{op}.check"] += count
    correct = not result["check_failures"] and not result["reruns_differ"]
    return correct, result["attempted"], failed, metrics


# ---------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(scenarios.SIM_WORKLOADS) + ["quotes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for selftest.py: references made wrong on purpose
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "hybridamm", "__init__.py")):
        print(f"error: no hybridamm sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind as on an error: kill the running child and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        # half the set-up probes run before the workload and half after, so
        # that one slow spell of the host does not set the whole median
        probes = setup_probes(work, SETUP_PROBES // 2)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": environment(probes[0])}
        runner = run_quotes if args.workload == "quotes" else run_sim
        correct, attempted, failed, metrics = runner(args, work, details)
        probes += setup_probes(work, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    if not args.trace:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        names = catalogue.END_TO_END
    else:
        names = catalogue.PER_LAYER
    units = {entry[0]: entry[1] for entry in names}
    # a layer the workload does not exercise reads 0
    metrics = {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
