"""Names and units of every metric the benchmark prints.

`BENCHMARK.json` lists exactly these; `selftest.py` checks that it does.  This
module imports nothing from hybridamm, so the parent process stays light.
"""

from scenarios import NOISE_Z

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  The
# time bounds are wide because on the shared 2-CPU host the benchmark was
# built on, whole runs of 36-40 seconds ran up to 1.6x slower than others:
# over ten seeds, the quartiles of wall_s lay 0.04-0.22 of the median apart
# in calm spells and up to 0.40 in a busy one.  setup_s keeps the largest
# bound.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# The calls of the quotes mix, and the error types each can raise on a
# feasible request; any other type counts as "other", and a returned value
# that fails its mpmath check as "check".
QUOTE_OPS = {
    "anchored": ("DomainError",),
    "exact_in_sell_x": ("DomainError", "InsolvencyError"),
    "exact_in_sell_y": ("DomainError", "InsolvencyError", "ConvergenceError"),
    "exact_out_sell_x": ("DomainError", "InfeasibleTradeError", "ConvergenceError"),
    "exact_out_sell_y": ("DomainError", "InfeasibleTradeError"),
    "slippage_exact": ("DomainError", "InsolvencyError", "ConvergenceError"),
    "il_simulated": ("DomainError", "UnsupportedConfigurationError"),
}
CALL_KINDS = tuple(op for op in QUOTE_OPS if op != "anchored")
LATENCY_LAYER = {"anchored": "core", "slippage_exact": "analytics", "il_simulated": "analytics"}


def fail_types(op):
    return QUOTE_OPS[op] + ("other", "check")


def z_label(z):
    return "z%g" % z


def _per_layer():
    out = [
        ("kernels.run_steps_s", "s"),
        ("kernels.ns_per_pool_step", "ns"),
        ("kernels.pool_steps", "count"),
        ("kernels.trades_attempted", "count"),
        ("kernels.trades_clamped", "count"),
        ("kernels.trades_skipped", "count"),
        ("kernels.trade_exec_ratio", "ratio"),
    ]
    for z in NOISE_Z:
        out.append((f"kernels.trades_skipped.{z_label(z)}", "count"))
        out.append((f"kernels.trade_exec_ratio.{z_label(z)}", "ratio"))
    out += [
        ("simulator.load_scenario_s", "s"),
        ("simulator.run_scenario_s", "s"),
        ("simulator.materialise_s", "s"),
        ("simulator.materialise_ns_per_row", "ns"),
        ("serialize.write_s", "s"),
        ("serialize.ns_per_row", "ns"),
        ("serialize.bytes", "bytes"),
        ("oracle.gbm_path_s", "s"),
        ("oracle.dump_price_csv_s", "s"),
        ("cli.import_s", "s"),
        ("cli.self_s", "s"),
    ]
    for op in QUOTE_OPS:
        layer = LATENCY_LAYER.get(op, "swap")
        out.append((f"{layer}.{op}_us_p50", "us"))
        out.append((f"{layer}.{op}_us_p99", "us"))
    for op in QUOTE_OPS:
        out += [(f"swap.fail.{op}.{kind}", "count") for kind in fail_types(op)]
    out += [
        ("op_p99_us", "us"),
        ("swap.amount_max_rel_err", "ratio"),
        ("fail_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    # (name, unit, better): the share of trades executed is the one that should rise
    return tuple((name, unit, "higher" if "exec_ratio" in name else "lower")
                 for name, unit in out)


PER_LAYER = _per_layer()
