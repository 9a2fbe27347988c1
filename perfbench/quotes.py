"""`quotes` workload: a closed loop of single library calls from one client.

    python3 perfbench/quotes.py --seed N --seconds S --trace 0|1 [--corrupt-reference]

Each request is ``PoolState.anchored`` on random reserves (x, y, p) at one of
eight z values, then one call drawn from a seeded mix: an exact-in or
exact-out swap in either direction, ``slippage_exact``, or ``il_simulated``
(``il_closed_form`` at z = 1, where rebalancing is undefined).  Trade sizes
are fractions of what the pool can take, so every request is feasible: a
request that raises is a defect, and it is counted, not skipped.

The seed draws 64 distinct batches of 240 requests, 5 of each (call, z)
pair in a shuffled order, before any clock starts.  The timed loop runs them
in rounds, each batch once a round, until the time is up; the first round
always completes.  Outcomes are counted on the first round, so `attempted`
and `failed` depend on the seed only, not on the speed of the host; a later
run of a batch must fail on the same requests as its first.  The round time
is the sum over batches of each batch's fastest run.  With --trace 1, odd
rounds also time ``anchored`` and the call apart, and even ones run as
without tracing, so their round times differ by the tracing overhead.
After the timed loop, every 11th distinct request is checked against an
mpmath reference.  Prints one JSON object.
"""

import argparse
import json
import math
import resource
from array import array
from time import perf_counter

import mpmath
import numpy as np

from hybridamm import (
    PoolState,
    TradeDirection,
    il_closed_form,
    il_simulated,
    slippage_exact,
    swap_exact_in,
    swap_exact_out,
)

from catalogue import CALL_KINDS

Z_VALUES = (0.0, 5e-324, 2.2e-308, 0.3, 0.6, 0.9, 1.0 - 1e-16, 1.0)
# 5 requests of each (call, z) pair: a batch takes about 8 ms, and on a
# shared host the fastest of many short batches is steadier than that of
# fewer long ones
BATCH = 5 * len(CALL_KINDS) * len(Z_VALUES)
DISTINCT_BATCHES = 64
# latency slots are preallocated so the child's RSS does not grow with speed
MAX_OPS_PER_S = 100_000
CHECK_EVERY = 11
# a returned value passes when |got - ref| <= RTOL*|ref| + ATOL*scale; see
# reference() for each value's scale
RTOL = 1e-12
ATOL = 1e-12
SELL_X, SELL_Y = TradeDirection.SELL_X, TradeDirection.SELL_Y


def _il(state, amount, sell_y, p1):
    if state.z == 1.0:
        return il_closed_form(1.0, state.p / p1)
    return il_simulated(state.x, state.p, p1, state.z)


CALLS = {
    "exact_in_sell_x": lambda s, a, sell_y, p1: swap_exact_in(s, SELL_X, a),
    "exact_in_sell_y": lambda s, a, sell_y, p1: swap_exact_in(s, SELL_Y, a),
    "exact_out_sell_x": lambda s, a, sell_y, p1: swap_exact_out(s, SELL_X, a),
    "exact_out_sell_y": lambda s, a, sell_y, p1: swap_exact_out(s, SELL_Y, a),
    "slippage_exact": lambda s, a, sell_y, p1: slippage_exact(s, SELL_Y if sell_y else SELL_X, a),
    "il_simulated": _il,
}
CALL_LIST = tuple(CALLS[kind] for kind in CALL_KINDS)


class Failed:
    def __init__(self, op, err):
        self.op = op
        self.err = err


def draw_batch(rng):
    """Inputs of one batch as Python lists: kind, sell_y, x, y, p, z, amount, p1.

    Every (call, z) pair appears equally often, in a shuffled order, so batches
    differ only in their pools and trade sizes.
    """
    n = BATCH
    pair = rng.permutation(np.arange(n) % (len(CALL_KINDS) * len(Z_VALUES)))
    kind = pair // len(Z_VALUES)
    z = np.array(Z_VALUES)[pair % len(Z_VALUES)]
    coin = rng.integers(0, 2, n).astype(bool)  # slippage_exact's direction
    x = 10.0 ** rng.uniform(-2.0, 4.0, n)
    y = 10.0 ** rng.uniform(-2.0, 4.0, n)
    p = 10.0 ** rng.uniform(-2.0, 2.0, n)
    frac = 10.0 ** rng.uniform(-6.0, math.log10(0.5), n)
    p1 = p * 10.0 ** rng.uniform(-1.0, 1.0, n)
    with np.errstate(all="ignore"):
        zp = z * p
        k = (y + zp * x / (2.0 - z)) * np.exp((1.0 - z) * np.log(x))
        bound = np.where(zp == 0.0, np.inf,
                         np.where(z == 1.0, k / p, np.exp(np.log((2.0 - z) * k / zp) / (2.0 - z))))
        x_floor = 1e-12 * x
        y_room = k * np.exp((z - 1.0) * np.log(x_floor)) - zp * x_floor / (2.0 - z) - y
        sell_x_in = np.minimum(x, bound - x)   # X a SELL_X trade can pay in
        sell_y_in = np.minimum(y, y_room)      # Y a SELL_Y trade can pay in
    names = np.array(CALL_KINDS)[kind]
    sell_y = np.where(names == "slippage_exact", coin,
                      (names == "exact_in_sell_y") | (names == "exact_out_sell_y"))
    # exact-out calls name what they receive, exact-in calls what they pay
    room = np.select(
        [names == "exact_out_sell_x", names == "exact_out_sell_y", sell_y],
        [y, x, sell_y_in], sell_x_in)
    amount = frac * room
    return (kind.tolist(), sell_y.tolist(), x.tolist(), y.tolist(), p.tolist(),
            z.tolist(), amount.tolist(), p1.tolist())


def run_plain(inputs, out, lat, pos):
    kind, sell_y, xs, ys, ps, zs, amount, p1 = inputs
    calls = CALL_LIST
    anchored = PoolState.anchored
    started = perf_counter()
    for i in range(len(kind)):
        t0 = perf_counter()
        try:
            state = anchored(xs[i], ys[i], ps[i], zs[i])
        except Exception as err:
            out[i] = Failed("anchored", err)
        else:
            try:
                out[i] = calls[kind[i]](state, amount[i], sell_y[i], p1[i])
            except Exception as err:
                out[i] = Failed(CALL_KINDS[kind[i]], err)
        lat[pos + i] = perf_counter() - t0
    return perf_counter() - started


def run_traced(inputs, out, lat, lat_anchor, lat_call, pos):
    kind, sell_y, xs, ys, ps, zs, amount, p1 = inputs
    calls = CALL_LIST
    anchored = PoolState.anchored
    started = perf_counter()
    for i in range(len(kind)):
        t0 = perf_counter()
        try:
            state = anchored(xs[i], ys[i], ps[i], zs[i])
        except Exception as err:
            t1 = perf_counter()
            out[i] = Failed("anchored", err)
        else:
            t1 = perf_counter()
            try:
                out[i] = calls[kind[i]](state, amount[i], sell_y[i], p1[i])
            except Exception as err:
                out[i] = Failed(CALL_KINDS[kind[i]], err)
        t2 = perf_counter()
        lat_anchor[pos + i] = t1 - t0
        lat_call[pos + i] = t2 - t1
        lat[pos + i] = t2 - t0
    return perf_counter() - started


# ---------------------------------------------------------------- mpmath reference

mpmath.mp.dps = 40
MP = mpmath.mpf


def _curve(k, x, p, z):
    return k * x ** (z - 1) - z * p * x / (2 - z)


def _slope(k, x, p, z):
    return k * (z - 1) * x ** (z - 2) - z * p / (2 - z)


def _invert(k, p, z, target, left):
    """x with curve(x) == target, by Newton from a point left of the root.

    The curve is convex and decreasing, so from the left every Newton step
    stays left of the root and the iterates rise to it.
    """
    if z == 0:
        return k / target
    if z == 1:
        return (k - target) / p
    x = left
    for _ in range(2000):
        step = (_curve(k, x, p, z) - target) / _slope(k, x, p, z)
        x -= step
        if abs(step) <= x * MP(10) ** -35:
            break
    return x


def reference(kind, sell_y, x, y, p, z, amount, p1, result):
    """[(what, got, ref, scale)] for one successful request.

    The scale of an amount is the pool's value in that asset at the spot
    price; a slippage cost, a difference of prices, gets the spot price times
    the scale of the amount it derives from over that amount.
    """
    x, y, p, z, a = MP(x), MP(y), MP(p), MP(z), MP(amount)
    k = (y + z * p * x / (2 - z)) * x ** (1 - z)
    spot = (1 - z) * y / x + z * p
    x_scale, y_scale = x + y / spot, y + spot * x
    if kind == "il_simulated":
        rho = p / MP(p1)
        il = 1 + rho - 2 * rho ** (1 / (2 - z))
        return [("il_paper", result.il_paper, il, 1 + rho)]
    if kind == "slippage_exact":
        if sell_y:
            out = x - _invert(k, p, z, y + a, x * MP("1e-12"))
            slip, scale = a / out - spot, spot * x_scale / out
        else:
            out = y - _curve(k, x + a, p, z)
            slip, scale = spot - out / a, spot * y_scale / out
        dx = MP(result.trade_size)
        taylor = k * (z - 1) * (z - 2) * x ** (z - 3) * dx / 2
        return [("exact", result.exact, max(slip, 0), scale),
                ("taylor", result.taylor_second_derivative_form, taylor, spot * dx / x)]
    if kind == "exact_in_sell_x":
        got, ref, scale = result.amount_out, y - _curve(k, x + a, p, z), y_scale
    elif kind == "exact_in_sell_y":
        got, ref, scale = result.amount_out, x - _invert(k, p, z, y + a, x * MP("1e-12")), x_scale
    elif kind == "exact_out_sell_x":
        got, ref, scale = result.amount_in, _invert(k, p, z, y - a, x) - x, x_scale
    else:
        got, ref, scale = result.amount_in, _curve(k, x - a, p, z) - y, y_scale
    return [("amount", got, ref, scale), ("anchored.k", result.new_state.k, k, k)]


def check(record, corrupt):
    """(names of the comparisons of one request that fail, relative error of its amount)."""
    bad = []
    amount_err = 0.0
    for what, got, ref, scale in reference(*record):
        if corrupt:
            ref = ref * (1 + MP("1e-6")) + MP("1e-6") * scale
        err = abs(MP(got) - ref)
        if what == "amount":
            amount_err = float(err / abs(ref))
        if not err <= RTOL * abs(ref) + ATOL * scale:
            bad.append(what)
    return bad, amount_err


# ---------------------------------------------------------------- main loop


def _percentiles_us(values):
    if len(values) == 0:
        return 0.0, 0.0
    p50, p99 = np.percentile(values.astype(np.float64), [50, 99])
    return float(p50) * 1e6, float(p99) * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    rng = np.random.Generator(np.random.PCG64(args.seed))
    distinct = [draw_batch(rng) for _ in range(DISTINCT_BATCHES)]
    capacity = max(int(args.seconds * MAX_OPS_PER_S), DISTINCT_BATCHES * BATCH) + BATCH
    lat = array("f", [0.0]) * capacity
    if args.trace:
        lat_anchor = array("f", [0.0]) * capacity
        lat_call = array("f", [0.0]) * capacity
        kinds = bytearray(capacity)
    out = [None] * BATCH
    # the fastest run of each distinct batch, untraced and traced
    fastest = {0: [math.inf] * DISTINCT_BATCHES, 1: [math.inf] * DISTINCT_BATCHES}
    slots = {0: [], 1: []}  # (start, stop) of each batch run's latency slots
    failures = {}
    failing = []  # indices of the failed requests of each distinct batch
    reruns_differ = 0
    records = []
    pos = 0
    runs = 0
    started = perf_counter()
    while runs < DISTINCT_BATCHES * (1 + args.trace) or (
            perf_counter() - started < args.seconds and pos + BATCH <= capacity):
        b = runs % DISTINCT_BATCHES
        inputs = distinct[b]
        traced = args.trace and runs // DISTINCT_BATCHES % 2 == 1
        if traced:
            wall = run_traced(inputs, out, lat, lat_anchor, lat_call, pos)
            kinds[pos:pos + BATCH] = bytes(inputs[0])
        else:
            wall = run_plain(inputs, out, lat, pos)
        fastest[traced][b] = min(fastest[traced][b], wall)
        slots[traced].append((pos, pos + BATCH))
        failed_here = [i for i, result in enumerate(out) if isinstance(result, Failed)]
        if runs < DISTINCT_BATCHES:
            failing.append(failed_here)
            for i in failed_here:
                key = (out[i].op, type(out[i].err).__name__)
                failures[key] = failures.get(key, 0) + 1
            for i, result in enumerate(out):
                if (b * BATCH + i) % CHECK_EVERY == 0 and not isinstance(result, Failed):
                    kind = CALL_KINDS[inputs[0][i]]
                    records.append((kind,) + tuple(col[i] for col in inputs[1:]) + (result,))
        elif failed_here != failing[b]:
            reruns_differ += 1
        pos += BATCH
        runs += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    check_failures = {}
    amount_max_rel_err = 0.0
    for record in records:
        bad, amount_err = check(record, args.corrupt_reference)
        amount_max_rel_err = max(amount_max_rel_err, amount_err)
        for what in bad:
            op = "anchored" if what == "anchored.k" else record[0]
            check_failures[op] = check_failures.get(op, 0) + 1

    def gather(buffer, which, dtype=np.float32):
        values = np.frombuffer(buffer, dtype=dtype)
        return np.concatenate([values[a:b] for a, b in slots[which]])

    failed = sum(failures.values()) + sum(check_failures.values())
    result = {
        "attempted": DISTINCT_BATCHES * BATCH,
        "failed": failed,
        "runs": runs,
        "reruns_differ": reruns_differ,
        "checked": len(records),
        "amount_max_rel_err": amount_max_rel_err,
        "check_failures": check_failures,
        "failures": {f"{op}.{name}": n for (op, name), n in sorted(failures.items())},
        "batches": {"plain": len(slots[0]), "traced": len(slots[1]), "size": BATCH,
                    "distinct": DISTINCT_BATCHES},
        "capacity_reached": pos + BATCH > capacity,
        "peak_rss_kb": peak_rss_kb,
        # contention on a shared host only adds time, so the fastest run of
        # each batch is the steadiest estimate of the program's own speed
        "wall_s": math.fsum(fastest[0]),
        "batch_walls": fastest[0],
        "op_p99_us": float(np.percentile(gather(lat, 0), 99)) * 1e6,
    }
    if args.trace:
        call, kind_of = gather(lat_call, 1), gather(kinds, 1, np.uint8)
        latency = {"anchored": _percentiles_us(gather(lat_anchor, 1))}
        for index, kind in enumerate(CALL_KINDS):
            latency[kind] = _percentiles_us(call[kind_of == index])
        result["latency_us"] = latency
        result["trace_wall_s"] = math.fsum(fastest[1])
        result["trace_overhead_s"] = result["trace_wall_s"] - result["wall_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
