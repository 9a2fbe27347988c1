"""Input validation: exact error messages, and what checks cost when they pass."""

import dataclasses
import importlib
import math

import pytest

import hybridamm as ha

core = importlib.import_module("hybridamm.core")

NAN, INF = math.nan, math.inf
SX, SY = ha.TradeDirection.SELL_X, ha.TradeDirection.SELL_Y
S = ha.PoolState.anchored(2.0, 3.0, 1.5, 0.4)
K = S.k
LINE = ha.PoolState.anchored(1.0, 1.0, 1.0, 1.0)          # z = 1, k = 2, bound 2
AT_BOUND = ha.PoolState.anchored(1.0, 1e-17, 1.0, 1.0)    # y/p below half an ulp of x
BIG = ha.PoolState.anchored(1e200, 1.0, 1.0, 0.5)
# a SELL_X trade just short of the headroom whose new y rounds below 0
Y_GAP = ha.PoolState.anchored(26.7317089373902, 546.5168154215033, 0.05072323949998333, 0.5)


def positive(name, value):
    return f"{name} must be finite and > 0, got {value!r}"


def mix(value):
    return f"z must lie in [0, 1], got {value!r}"


def bound(x, b, k, p, z):
    return f"x={x} is at or past the solvency bound {b} of the (k={k}, p={p}, z={z}) curve"


DomainError, InsolvencyError = ha.DomainError, ha.InsolvencyError
CASES = {
    # the constructor checks x, y, p, z, k in that order, then the residual
    "state-x-nan": (lambda: ha.PoolState(NAN, 3.0, 1.5, 0.4, K), DomainError, positive("x", NAN)),
    "state-y-inf": (lambda: ha.PoolState(2.0, INF, 1.5, 0.4, K), DomainError, positive("y", INF)),
    "state-p-zero": (lambda: ha.PoolState(2.0, 3.0, 0.0, 0.4, K), DomainError, positive("p", 0.0)),
    "state-z-high": (lambda: ha.PoolState(2.0, 3.0, 1.5, 1.5, K), DomainError, mix(1.5)),
    "state-z-nan": (lambda: ha.PoolState(2.0, 3.0, 1.5, NAN, K), DomainError, mix(NAN)),
    "state-k-neg": (lambda: ha.PoolState(2.0, 3.0, 1.5, 0.4, -1.0), DomainError, positive("k", -1.0)),
    "state-x-first": (lambda: ha.PoolState(-INF, 0.0, NAN, 2.0, INF), DomainError, positive("x", -INF)),
    "state-z-before-k": (lambda: ha.PoolState(2.0, 3.0, 1.5, -0.1, NAN), DomainError, mix(-0.1)),
    "state-off-curve": (lambda: ha.PoolState(2.0, 3.0, 1.5, 0.4, 5.0), DomainError,
                        "reserves (2.0, 3.0) do not lie on the (k=5.0, p=1.5, z=0.4) curve: "
                        "residual -4.512e-01"),
    # anchored checks x, y, p, z in that order, then the k it derives
    "anchored-x-neginf": (lambda: ha.PoolState.anchored(-INF, 3.0, 1.5, 0.4), DomainError,
                          positive("x", -INF)),
    "anchored-y-zero": (lambda: ha.PoolState.anchored(2.0, 0.0, 1.5, 0.4), DomainError,
                        positive("y", 0.0)),
    "anchored-p-neg": (lambda: ha.PoolState.anchored(2.0, 3.0, -1.0, 0.4), DomainError,
                       positive("p", -1.0)),
    "anchored-z-low": (lambda: ha.PoolState.anchored(2.0, 3.0, 1.5, -1e-300), DomainError,
                       mix(-1e-300)),
    "anchored-k-inf": (lambda: ha.PoolState.anchored(1e300, 1e300, 1.0, 0.0), DomainError,
                       positive("k", INF)),
    "anchored-pow-range": (lambda: ha.PoolState.anchored(1e-310, 1.0, 1.0, 0.0), DomainError,
                           "x**(z-1) is past double range at x=1e-310, z=0.0"),
    # a subnormal k is too coarse for the curve to pass through (x, y)
    "anchored-k-subnormal": (lambda: ha.PoolState.anchored(1e-160, 1e-160, 1.0, 0.0), DomainError,
                             "reserves (1e-160, 1e-160) do not lie on the (k=1e-320, p=1.0, z=0.0) "
                             "curve: residual -1.113e-165; k=1e-320 is subnormal"),
    "anchored-x-first": (lambda: ha.PoolState.anchored(NAN, NAN, NAN, NAN), DomainError,
                         positive("x", NAN)),
    "anchored-y-before-p": (lambda: ha.PoolState.anchored(2.0, -0.0, 0.0, 2.0), DomainError,
                            positive("y", -0.0)),
    "anchored-p-before-z": (lambda: ha.PoolState.anchored(2.0, 3.0, NAN, NAN), DomainError,
                            positive("p", NAN)),
    # curve queries check x, then the solvency bound of the state's curve
    "reserve_y-x-neg": (lambda: ha.reserve_y(S, -2.0), DomainError, positive("x", -2.0)),
    "reserve_y-bound": (lambda: ha.reserve_y(LINE, 2.0), InsolvencyError,
                        bound(2.0, 2.0, 2.0, 1.0, 1.0)),
    "d2y_dx2-x-inf": (lambda: ha.d2y_dx2(S, INF), DomainError, positive("x", INF)),
    # swaps check the amount, then the two new reserves
    "in-nan": (lambda: ha.swap_exact_in(S, SX, NAN), DomainError, positive("amount_in", NAN)),
    "in-zero": (lambda: ha.swap_exact_in(S, SY, 0.0), DomainError, positive("amount_in", 0.0)),
    "in-neg": (lambda: ha.swap_exact_in(S, SX, -1.0), DomainError, positive("amount_in", -1.0)),
    "in-inf": (lambda: ha.swap_exact_in(S, SY, INF), DomainError, positive("amount_in", INF)),
    "in-new-y-rounds-below-0": (lambda: ha.swap_exact_in(Y_GAP, SX, 3008.977159479185), DomainError,
                                positive("y", -1.4210854715202004e-14)),
    # the trade executes, but a price of the result is past double range
    "in-exec-price-inf": (lambda: ha.swap_exact_in(ha.PoolState.anchored(1e-300, 1e10, 1.0, 0.0),
                                                   SX, 1e-302), DomainError,
                          "swap produced non-finite or non-positive exec_price: inf"),
    "in-spot-after-inf": (lambda: ha.swap_exact_in(ha.PoolState.anchored(1e-10, 1e298, 1.0, 0.0),
                                                   SY, 5e297), DomainError,
                          "swap produced non-finite or negative spot_after: inf"),
    # the z = 0 hyperbola has no solvency bound, but x + amount_in is past double range
    "in-new-x-overflows": (lambda: ha.swap_exact_in(ha.PoolState.anchored(1e308, 1.0, 1.0, 0.0),
                                                    SX, 1e308), DomainError,
                           "x + amount_in overflows: 1e+308 + 1e+308 is past double range"),
    # the spot price is subnormal, and the trade and the curve round apart
    "in-new-state-off-curve": (lambda: ha.swap_exact_in(ha.PoolState.anchored(5.6e253, 2e-65, 1.5e-11,
                                                                              2.2e-308), SX, 1e250),
                               DomainError, "reserves (5.601e+253, 1.999312954039508e-65) do not lie "
                               "on the (k=1.637441986384372e+189, p=1.5e-11, z=2.2e-308) curve: "
                               "residual -4.940e-74; the spot price 6.8696e-319 is subnormal"),
    # the spot price underflows to 0, so curve inversion has no start for Newton
    "in-spot-zero": (lambda: ha.swap_exact_in(ha.PoolState.anchored(1e200, 1e-200, 0.5, 5e-324),
                                              SY, 1e-201), DomainError,
                     "swap produced non-finite or non-positive exec_price: 0.0"),
    # the public constructor checks the same fields, with the same messages
    "result-amount_in-nan": (lambda: ha.SwapResult(SX, NAN, 1.0, 1.0, 1.0, 1.0, 0.0, S), DomainError,
                             "swap produced non-finite or non-positive amount_in: nan"),
    "result-spot_after-neg": (lambda: ha.SwapResult(SY, 1.0, 1.0, 1.0, 1.0, -1.0, 0.0, S),
                              DomainError, "swap produced non-finite or negative spot_after: -1.0"),
    "result-slippage-nan": (lambda: ha.SwapResult(SX, 1.0, 1.0, 1.0, 1.0, 1.0, NAN, S), DomainError,
                            "swap produced invalid slippage_cost: nan"),
    "out-nan": (lambda: ha.swap_exact_out(S, SY, NAN), DomainError, positive("amount_out", NAN)),
    "out-neginf": (lambda: ha.swap_exact_out(S, SX, -INF), DomainError,
                   positive("amount_out", -INF)),
    "out-zero": (lambda: ha.swap_exact_out(S, SX, 0.0), DomainError, positive("amount_out", 0.0)),
    # at z = 0 the X paid in is x*dy/(y - dy), past double range here
    "out-new-x-inf": (lambda: ha.swap_exact_out(ha.PoolState.anchored(1e307, 1.0, 1.0, 0.0), SX, 0.99),
                      DomainError, positive("x", INF)),
    # slippage
    "taylor-dx-zero": (lambda: ha.slippage_taylor(S, 0.0), DomainError, positive("dx", 0.0)),
    "taylor-dx-nan": (lambda: ha.slippage_taylor(S, NAN), DomainError, positive("dx", NAN)),
    # x + dx is past double range, where the z = 0 hyperbola has no bound
    "taylor-x-plus-dx-inf": (lambda: ha.slippage_taylor(ha.PoolState.anchored(1e308, 1.0, 1.0, 0.0),
                                                         1e308), DomainError,
                             "x + dx overflows: 1e+308 + 1e+308 is past double range"),
    "taylor-bound": (lambda: ha.slippage_taylor(LINE, 1.0), InsolvencyError,
                     bound(2.0, 2.0, 2.0, 1.0, 1.0)),
    "exact-neg": (lambda: ha.slippage_exact(S, SY, -1.0), DomainError, positive("amount_in", -1.0)),
    "exact-inf": (lambda: ha.slippage_exact(S, SX, INF), DomainError, positive("amount_in", INF)),
    "exact-new-x-overflows": (lambda: ha.slippage_exact(ha.PoolState.anchored(1e308, 1.0, 1.0, 0.0),
                                                        SX, 1e308), DomainError,
                              "x + amount_in overflows: 1e+308 + 1e+308 is past double range"),
    # the SELL_Y swap succeeds; the Taylor term then finds x at the bound
    "exact-sell-y-at-bound": (lambda: ha.slippage_exact(AT_BOUND, SY, 0.5), InsolvencyError,
                              bound(1.0, 1.0, 1.0, 1.0, 1.0)),
    # il_simulated checks x0, p0, p1, z, then y0 = p0*x0 and the anchored pool
    "il-x0-nan": (lambda: ha.il_simulated(NAN, 1.0, 1.0, 0.5), DomainError, positive("x0", NAN)),
    "il-p0-zero": (lambda: ha.il_simulated(1.0, 0.0, 1.0, 0.5), DomainError, positive("p0", 0.0)),
    "il-p1-neginf": (lambda: ha.il_simulated(1.0, 1.0, -INF, 0.5), DomainError,
                     positive("p1", -INF)),
    "il-z-high": (lambda: ha.il_simulated(1.0, 1.0, 1.0, 1.0000000000000002), DomainError,
                  mix(1.0000000000000002)),
    "il-x0-first": (lambda: ha.il_simulated(NAN, NAN, NAN, NAN), DomainError, positive("x0", NAN)),
    "il-p1-before-z": (lambda: ha.il_simulated(1.0, 1.0, -1.0, 2.0), DomainError,
                       positive("p1", -1.0)),
    "il-y0-overflow": (lambda: ha.il_simulated(1e300, 1e300, 1.0, 0.5), DomainError,
                       positive("y", INF)),
    "il-y0-underflow": (lambda: ha.il_simulated(1e-300, 1e-300, 1.0, 0.5), DomainError,
                        positive("y", 0.0)),
    "il-full-mix": (lambda: ha.il_simulated(1.0, 1.0, 2.0, 1.0), ha.UnsupportedConfigurationError,
                    "rebalance_to_oracle is undefined at z = 1: the curve quotes the oracle "
                    "price at every point"),
    # rebalancing checks p_new, then the new reserves
    "rebalance-nan": (lambda: ha.rebalance_to_oracle(S, NAN), DomainError, positive("p_new", NAN)),
    "rebalance-zero": (lambda: ha.rebalance_to_oracle(S, 0.0), DomainError, positive("p_new", 0.0)),
    "rebalance-new-x-inf": (lambda: ha.rebalance_to_oracle(S, 1e-320), DomainError,
                            positive("x", INF)),
    "rebalance-target-underflow": (lambda: ha.rebalance_to_oracle(
        ha.PoolState.anchored(1e-200, 1e-200, 1e100, 0.5), 1e300), DomainError,
        "cannot rebalance the (k=3.3333333333332965e-201, z=0.5) curve to p=1e+300: "
        "(2-z)*k/(2*p) underflows to 0"),
    # an oracle tick re-anchors the kept reserves at the new price
    "oracle-k-inf": (lambda: ha.PoolState.anchored(BIG.x, BIG.y, 1e308, BIG.z), DomainError,
                     positive("k", INF)),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_validator_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


class Unformattable:
    """A check name that fails the test if a message is formatted with it."""

    def __format__(self, spec):
        raise AssertionError("a check built its message although it passed")


def test_passing_checks_build_no_message():
    name = Unformattable()
    assert core._check_finite_positive(2.5, name) == 2.5
    assert core._check_finite_positive(5e-324, name) == 5e-324
    assert core._check_int(3, name, 1) == 3
    assert core._check_int(0, name, 0) == 0
    # the guard itself works: a failing check does format the name
    with pytest.raises(AssertionError, match="built its message"):
        core._check_finite_positive(0.0, name)


@pytest.fixture
def checked(monkeypatch):
    """Names of the values checked, in order, through every module's imported helpers."""
    seen = []
    finite_positive, check_mix = core._check_finite_positive, core._check_mix

    def record_positive(value, name):
        seen.append(name)
        return finite_positive(value, name)

    def record_mix(z):
        seen.append("z")
        return check_mix(z)

    for module in ("core", "swap", "analytics", "oracle"):
        module = importlib.import_module(f"hybridamm.{module}")
        if hasattr(module, "_check_finite_positive"):
            monkeypatch.setattr(module, "_check_finite_positive", record_positive)
        if hasattr(module, "_check_mix"):
            monkeypatch.setattr(module, "_check_mix", record_mix)
    return seen


@pytest.mark.parametrize("call, names", [
    (lambda: ha.PoolState.anchored(2.0, 3.0, 1.5, 0.4), ["x", "y", "p", "z", "k"]),
    (lambda: ha.swap_exact_in(S, SX, 0.1), ["amount_in", "x", "y"]),
    (lambda: ha.swap_exact_in(S, SY, 0.1), ["amount_in", "x", "y"]),
    (lambda: ha.swap_exact_out(S, SX, 0.1), ["amount_out", "x", "y"]),
    (lambda: ha.swap_exact_out(S, SY, 0.1), ["amount_out", "x", "y"]),
    (lambda: ha.slippage_exact(S, SY, 0.1), ["amount_in", "x", "y"]),
    # reserve_y's check of x + dx covers x, as x <= x + dx
    (lambda: ha.slippage_taylor(S, 0.1), ["dx", "x"]),
    (lambda: ha.rebalance_to_oracle(S, 2.0), ["p_new", "x", "y"]),
    (lambda: ha.PoolState.anchored(S.x, S.y, 2.0, S.z), ["x", "y", "p", "z", "k"]),
    (lambda: ha.il_simulated(2.0, 1.5, 2.0, 0.4), ["x0", "p0", "p1", "z", "y", "k", "x", "y"]),
], ids=["anchored", "in-sell-x", "in-sell-y", "out-sell-x", "out-sell-y", "slippage_exact",
        "slippage_taylor", "rebalance", "oracle_update", "il_simulated"])
def test_each_quote_input_is_checked_once(checked, call, names):
    call()
    assert checked == names


@pytest.fixture
def residuals(monkeypatch):
    """Points whose on-curve residual is checked, in order, through every module's import."""
    seen = []
    check_residual = core._check_residual

    def record(x, y, p, z, k, power, linear):
        seen.append((x, y))
        return check_residual(x, y, p, z, k, power, linear)

    for module in ("core", "swap", "analytics", "oracle"):
        module = importlib.import_module(f"hybridamm.{module}")
        if hasattr(module, "_check_residual"):
            monkeypatch.setattr(module, "_check_residual", record)
    return seen


@pytest.mark.parametrize("call, count", [
    (lambda: ha.PoolState.anchored(2.0, 3.0, 1.5, 0.4), 1),
    (lambda: ha.PoolState(S.x, S.y, S.p, S.z, S.k), 1),
    (lambda: ha.swap_exact_in(S, SX, 0.1), 1),
    (lambda: ha.swap_exact_in(S, SY, 0.1), 1),
    (lambda: ha.swap_exact_out(S, SX, 0.1), 1),
    (lambda: ha.swap_exact_out(S, SY, 0.1), 1),
    (lambda: ha.slippage_exact(S, SX, 0.1), 1),
    (lambda: ha.slippage_taylor(S, 0.1), 0),
    (lambda: ha.PoolState.anchored(S.x, S.y, 2.0, S.z), 1),
    (lambda: ha.rebalance_to_oracle(S, 2.0), 0),
    # the anchored pool, and not the rebalanced one
    (lambda: ha.il_simulated(2.0, 1.5, 2.0, 0.4), 1),
], ids=["anchored", "constructor", "in-sell-x", "in-sell-y", "out-sell-x", "out-sell-y",
        "slippage_exact", "slippage_taylor", "oracle_update", "rebalance", "il_simulated"])
def test_each_state_residual_is_checked_once(residuals, call, count):
    result = call()
    assert len(residuals) == count
    # the swaps check the state they return
    state = getattr(result, "new_state", result)
    if count and isinstance(state, ha.PoolState):
        assert residuals == [(state.x, state.y)]


@pytest.mark.parametrize("call", [
    lambda: ha.swap_exact_in(S, SX, 0.1),
    lambda: ha.swap_exact_in(S, SY, 0.1),
    lambda: ha.swap_exact_out(S, SX, 0.1),
    lambda: ha.swap_exact_out(S, SY, 0.1),
    lambda: ha.slippage_exact(S, SX, 0.1),
    lambda: ha.slippage_exact(S, SY, 0.1),
    lambda: ha.slippage_taylor(S, 0.1),
    lambda: ha.il_closed_form(0.4, 0.5),
    lambda: ha.il_simulated(2.0, 1.5, 2.0, 0.4),
    lambda: ha.rebalance_to_oracle(S, 2.0),
    lambda: ha.PoolState.anchored(S.x, S.y, 2.0, S.z),
], ids=["in-sell-x", "in-sell-y", "out-sell-x", "out-sell-y", "slippage_exact-sell-x",
        "slippage_exact-sell-y", "slippage_taylor", "il_closed_form", "il_simulated",
        "rebalance", "oracle_update"])
def test_results_equal_their_public_construction(call):
    """A result built without __init__ is the object its public constructor builds, checks passed."""
    result = call()
    rebuilt = type(result)(**vars(result))
    assert rebuilt == result
    assert vars(rebuilt) == vars(result)
    assert list(vars(result)) == [field.name for field in dataclasses.fields(result)]
    if isinstance(result, ha.SwapResult):
        assert ha.PoolState(**vars(result.new_state)) == result.new_state


def test_swap_on_a_pool_with_subnormal_price():
    # z*p underflows to 0, so the solvency bound cannot divide by it
    state = ha.PoolState.anchored(2.0, 3.0, 5e-324, 0.4)
    result = ha.swap_exact_in(state, SX, 0.1)
    # z*p is below every reserve's resolution, so the curve is y = k*x**(z-1)
    assert math.isclose(result.amount_out, 3.0 * (1.0 - 1.05 ** -0.6), rel_tol=1e-14)
