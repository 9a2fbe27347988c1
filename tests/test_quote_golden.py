"""Golden digest of single quotes: every result field as float.hex, every error's type and message.

A fixed, seeded set of requests covers the six calls of the quotes benchmark
at its eight z values: exact-in and exact-out swaps in both directions,
``slippage_exact`` and ``il_simulated`` (``il_closed_form`` at z = 1).  Each
request anchors a pool and makes one call; the digest hashes what every
request returned or raised.  A change that moves one bit of one result, or
one character of one message, changes the digest.

Two sets of pools are drawn: the benchmark's range (reserves in [1e-2, 1e4],
prices in [1e-2, 1e2]) and the whole double range, where most requests
raise.  Trade sizes run up to the whole reserve, so both sets include
infeasible requests.
"""

import dataclasses
import hashlib
import random

import hybridamm as ha

Z_VALUES = (0.0, 5e-324, 2.2e-308, 0.3, 0.6, 0.9, 1.0 - 1e-16, 1.0)
CALLS = ("exact_in_sell_x", "exact_in_sell_y", "exact_out_sell_x", "exact_out_sell_y",
         "slippage_exact", "il_simulated")
SX, SY = ha.TradeDirection.SELL_X, ha.TradeDirection.SELL_Y
# (name, requests per (call, z) pair, log10 ranges of reserves, prices and trade fractions)
STRATA = (
    ("quotes", 64, (-2.0, 4.0), (-2.0, 2.0), (-6.0, 0.0)),
    ("wide", 16, (-300.0, 300.0), (-300.0, 300.0), (-20.0, 0.0)),
)
# Requests left out of the digest, with what an earlier version raised on
# them: a raw error where each now raises a typed error or returns a result,
# or a message that now names its cause.
EXCLUDED = {
    "wide-37": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
    "wide-57": "ValueError: the rebalancing target's log argument underflowed to 0",
    "wide-80": "the off-curve message now names the subnormal k",
    "wide-130": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
    "wide-178": "the off-curve message now names the subnormal k",
    "wide-285": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
    "wide-302": "the off-curve message now names the subnormal k",
    "wide-335": "the off-curve message now names the subnormal k",
    "wide-386": "the off-curve message now names the subnormal k",
    "wide-449": "the off-curve message now names the subnormal k",
    "wide-459": "the off-curve message now names the subnormal k",
    "wide-588": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
    "wide-663": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
    "wide-705": "ValueError: the rebalancing target's log argument underflowed to 0",
    "wide-721": "ValueError: the rebalancing target's log argument underflowed to 0",
    "wide-765": "ZeroDivisionError: the spot price underflowed to 0 before curve inversion",
}
# Re-pinned once for "wide" alone, when the solvency bound stopped taking its
# fast path at a subnormal quotient: wide-566 (exact-in SELL_X at z = 0.6,
# x 2.4e-14 of itself past the true bound) went from "DomainError: y must be
# finite and > 0" to InsolvencyError, and no other request moved.
DIGESTS = {
    "quotes": "8d4938a429fd311aa547e80fb67ab4347e7181b78d78405882f1871a38833b0a",
    "wide": "6049132fdc4d6752a7790d9d2ecce1dc38951669e2ddbd01b126754d5d9e7a4c",
}


def requests(name, per_pair, reserves, prices, fractions):
    """(id, x, y, p, z, call, amount, sell_y, p1) of one stratum, in a fixed order."""
    rng = random.Random(f"quote-golden-{name}")
    pairs = [(call, z) for call in CALLS for z in Z_VALUES] * per_pair
    rng.shuffle(pairs)
    for i, (call, z) in enumerate(pairs):
        x, y = (10.0 ** rng.uniform(*reserves) for _ in range(2))
        p = 10.0 ** rng.uniform(*prices)
        frac = 10.0 ** rng.uniform(*fractions)
        p1 = p * 10.0 ** rng.uniform(-1.0, 1.0)
        sell_y = call.endswith("sell_y") or (call == "slippage_exact" and rng.random() < 0.5)
        # exact-out calls name what they receive, the others what they pay
        paid_from_y = sell_y != call.startswith("exact_out")
        yield f"{name}-{i}", x, y, p, z, call, frac * (y if paid_from_y else x), sell_y, p1


def call(state, kind, amount, sell_y, p1):
    direction = SY if sell_y else SX
    if kind.startswith("exact_in"):
        return ha.swap_exact_in(state, direction, amount)
    if kind.startswith("exact_out"):
        return ha.swap_exact_out(state, direction, amount)
    if kind == "slippage_exact":
        return ha.slippage_exact(state, direction, amount)
    if state.z == 1.0:
        return ha.il_closed_form(1.0, state.p / p1)
    return ha.il_simulated(state.x, state.p, p1, state.z)


def encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ha.TradeDirection):
        return value.value
    if value is None:
        return "None"
    return "(" + ",".join(f"{field.name}={encode(getattr(value, field.name))}"
                          for field in dataclasses.fields(value)) + ")"


def outcome(x, y, p, z, kind, amount, sell_y, p1):
    try:
        state = ha.PoolState.anchored(x, y, p, z)
    except Exception as err:
        return f"anchored {type(err).__name__}: {err}"
    try:
        return f"{kind} {encode(call(state, kind, amount, sell_y, p1))}"
    except Exception as err:
        return f"{kind} {type(err).__name__}: {err}"


def digest(stratum):
    lines = []
    for request_id, *request in requests(*stratum):
        if request_id not in EXCLUDED:
            lines.append(f"{request_id} {outcome(*request)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


def test_quote_digests():
    got = {stratum[0]: digest(stratum) for stratum in STRATA}
    assert {name: value for name, (value, _) in got.items()} == DIGESTS
    assert sum(n for _, n in got.values()) >= 3000
