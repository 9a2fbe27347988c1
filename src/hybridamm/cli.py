"""Command-line interface: curve tables, swap quotes, IL/slippage analytics, simulation.

Exit codes are a stable scripting contract: 0 success, 1 domain or runtime
error (reported as ``error: ...`` on stderr), 2 usage error (argparse text),
a prefix of a flag's name included.
All tabular output honors --format csv|json|table and --out.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .analytics import il_closed_form, slippage_exact
from .core import PoolState, _check_finite_positive
from .errors import DomainError, HybridAmmError
from .oracle import dump_price_csv
from .serialize import FORMATS, write_rows
from .simulator import METRICS_HEADER, load_scenario, run_scenario, sweep_reserve_curve
from .swap import TradeDirection, swap_exact_in, swap_exact_out

__all__ = ["main"]


def _grid(text: str) -> np.ndarray:
    """start:stop:count -> inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid {text!r} must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid {text!r} must be start:stop:count") from None
    if not (math.isfinite(start) and math.isfinite(stop)) or count < 1:
        raise argparse.ArgumentTypeError(f"grid {text!r} needs finite endpoints and count >= 1")
    return np.linspace(start, stop, count)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} must be comma-separated numbers") from None


def _exactly(*names: str):
    """Argument type for a fixed list such as X,Y,P: one number per name."""
    def parse(text: str) -> tuple[float, ...]:
        values = _float_list(text)
        if len(values) != len(names):
            raise argparse.ArgumentTypeError(f"{text!r} must be exactly {','.join(names)}")
        return tuple(values)
    return parse


def _emit(args, header, rows) -> None:
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            write_rows(handle, args.format, header, rows)
    else:
        write_rows(sys.stdout, args.format, header, rows)


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=FORMATS, default="csv", help="output format (default csv)")
    sub.add_argument("--out", help="write to this file instead of stdout")


def cmd_curve(args) -> int:
    _emit(args, ("z", "x", "y"), sweep_reserve_curve(args.anchor, args.z, args.x_grid))
    return 0


def cmd_swap(args) -> int:
    state = PoolState.anchored(*args.anchor, args.z)
    direction = TradeDirection(args.direction)
    if args.amount_in is not None:
        result = swap_exact_in(state, direction, args.amount_in)
    else:
        result = swap_exact_out(state, direction, args.amount_out)
    header = ("direction", "amount_in", "amount_out", "exec_price", "spot_before",
              "spot_after", "slippage_cost", "new_x", "new_y")
    row = (result.direction.value, result.amount_in, result.amount_out, result.exec_price,
           result.spot_before, result.spot_after, result.slippage_cost,
           result.new_state.x, result.new_state.y)
    _emit(args, header, [row])
    return 0


def cmd_il(args) -> int:
    if args.prices is not None:
        p0, p1 = args.prices
        rhos = [_check_finite_positive(p0, "p0") / _check_finite_positive(p1, "p1")]
    else:
        rhos = args.rho_grid.tolist()
    rows = []
    for z in args.z:
        for rho in rhos:
            report = il_closed_form(z, rho)
            rows.append((z, report.rho, report.il_paper, report.il_relative))
    _emit(args, ("z", "rho", "il_paper", "il_relative"), rows)
    return 0


def cmd_slippage(args) -> int:
    rows = []
    for z in args.z:
        state = PoolState.anchored(*args.anchor, z)
        for dx in args.dx_grid:
            try:
                estimate = slippage_exact(state, TradeDirection.SELL_X, float(dx))
                taylor, exact = estimate.taylor_second_derivative_form, estimate.exact
            except DomainError:   # InsolvencyError included
                taylor = exact = math.nan  # beyond solvency: row kept, marked infeasible
            rows.append((z, float(dx), taylor, exact))
    _emit(args, ("z", "dx", "taylor", "exact"), rows)
    return 0


def cmd_simulate(args) -> int:
    config = load_scenario(args.config)
    extension = {"csv": "csv", "json": "json", "table": "txt"}[args.format]
    names = [f"metrics_z{z:.12g}.{extension}" for z in config.z_values]
    if len(set(names)) != len(names):
        raise DomainError("z_values must differ at 12 significant digits, "
                          f"got {list(config.z_values)}")
    # metrics of an earlier run would leave a directory that no longer
    # describes one run, so refuse before doing any work
    if os.path.isdir(args.out):
        stale = sorted(name for name in os.listdir(args.out)
                       if name.startswith("metrics_z") and name.endswith((".csv", ".json", ".txt"))
                       and name not in names)
        if stale:
            raise DomainError(f"{args.out} holds metrics files this run would not write: "
                              f"{', '.join(stale)}")
    runs = run_scenario(config)
    os.makedirs(args.out, exist_ok=True)
    # the resolved oracle path is written in replay format for reproduction
    dump_price_csv(config.path, os.path.join(args.out, "path.csv"))
    # every pool sees the same steps and prices, and hold = x0 + y0/price, so
    # these columns are equal bit for bit in every file: they are formatted once
    shared = dict.fromkeys(("step", "oracle_price", "hold_value"))
    for name, run in zip(names, runs):
        with open(os.path.join(args.out, name), "w", newline="", encoding="utf-8") as handle:
            write_rows(handle, args.format, METRICS_HEADER, run.rows(), shared)
        final_il = run.table[-1, METRICS_HEADER.index("il_relative")]
        print(f"z={run.z:.12g} final_il_relative={final_il:.10g} "
              f"clamped_trades={run.clamped_trades} skipped_trades={run.skipped_trades}")
    return 0


@functools.cache   # parsing leaves no state in the parser, so every command shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridamm", allow_abbrev=False,
        description="Hybrid AMM curve inspection, swap quoting, IL/slippage analytics, "
                    "and deterministic market simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # every parser takes a flag under its full name only, never a prefix of it
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    z_list = dict(type=_float_list, required=True,
                  help="comma-separated mix parameters, e.g. 0,0.5,1")
    anchor = dict(type=_exactly("x", "y", "p"), metavar="X,Y,P",
                  help="pool reserves (x, y) at oracle price p; the unit pool is 1,1,1")

    curve = add_parser("curve", help="tabulate reserve curves over an x grid")
    curve.add_argument("--z", **z_list)
    curve.add_argument("--anchor", required=True, **anchor)
    curve.add_argument("--x-grid", type=_grid, required=True, metavar="START:STOP:COUNT")
    _add_output_flags(curve)
    curve.set_defaults(func=cmd_curve)

    swap = add_parser("swap", help="quote one swap against an anchored pool")
    swap.add_argument("--z", type=float, required=True)
    swap.add_argument("--anchor", required=True, **anchor)
    swap.add_argument("--direction", choices=[d.value for d in TradeDirection], required=True)
    amount = swap.add_mutually_exclusive_group(required=True)
    amount.add_argument("--amount-in", type=float)
    amount.add_argument("--amount-out", type=float)
    _add_output_flags(swap)
    swap.set_defaults(func=cmd_swap)

    il = add_parser("il", help="impermanent-loss tables over z and rho")
    il.add_argument("--z", **z_list)
    move = il.add_mutually_exclusive_group(required=True)
    move.add_argument("--rho-grid", type=_grid, metavar="START:STOP:COUNT",
                      help="grid of price ratios p0/p1, each a move from p0 = rho to p1 = 1")
    move.add_argument("--prices", type=_exactly("p0", "p1"), metavar="P0,P1",
                      help="one move of the oracle price from p0 to p1")
    _add_output_flags(il)
    il.set_defaults(func=cmd_il)

    slippage = add_parser("slippage", help="Taylor vs exact slippage over trade sizes")
    slippage.add_argument("--z", **z_list)
    slippage.add_argument("--dx-grid", type=_grid, required=True, metavar="START:STOP:COUNT")
    slippage.add_argument("--anchor", required=True, **anchor)
    _add_output_flags(slippage)
    slippage.set_defaults(func=cmd_slippage)

    simulate = add_parser("simulate", help="run a scenario config, one metrics file per z")
    simulate.add_argument("--config", required=True, help="scenario JSON file")
    simulate.add_argument("--out", required=True, help="output directory for metric files")
    simulate.add_argument("--format", choices=FORMATS, default="csv",
                          help="metric file format (default csv)")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return 2 if exc.code is None else int(exc.code)
    except BrokenPipeError:
        return 1
    except OSError as err:   # an output file or directory that cannot be written
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 1
    except HybridAmmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
