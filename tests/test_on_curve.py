"""Derived pool states lie on the curve, and slippage estimates are not negative.

The ``PoolState`` constructor checks the on-curve residual, since its caller
may pass any k.  ``rebalance_to_oracle`` does not check its state: its new x is
where the spot price is p_new, and its y is p_new*x, on the curve to the
rounding of x.  ``SlippageEstimate``
does not check its fields: the Taylor term is 1/2*y''*dx with y'' >= 0 on
[0, 1], and the realized cost is a ``SwapResult`` field checked to be >= 0.
``PoolState.anchored``, oracle updates and swaps keep their residual check,
which fires only where k or the spot price is subnormal; over the pools and
z values of the quotes benchmark it never does.  This test rebuilds every
derived state through the constructor, which must accept it.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridamm as ha
from hybridamm import _kernels

SX, SY = ha.TradeDirection.SELL_X, ha.TradeDirection.SELL_Y
# the z values of the quotes benchmark: both ends, the smallest subnormal and one
# just below the normal range, and the largest double below 1
Z_VALUES = [0.0, 5e-324, 2.2e-308, 0.3, 0.6, 0.9, 1 - 1e-16, 1.0]


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def room(state, sell_y):
    """What an exact-in trade may pay: up to the reserve it is paid from, and short of
    the headroom, as in the quotes benchmark."""
    headroom = _kernels.headroom(state.x, state.y, state.p, state.z, sell_y)
    return min(state.y if sell_y else state.x, headroom)


def assert_on_curve(state):
    assert ha.PoolState(state.x, state.y, state.p, state.z, state.k) == state


# Examples, each a pool and a trade, for reserve branches that fractions up to
# 0.5 of the room reach seldom or never: Y paid out just past half of y, read
# from the curve (SELL_X in) or inverted for (SELL_X out, 0 < z < 1); X paid out
# just past half of x, inverted for (SELL_Y in) or moved by delta_y's log branch
# (SELL_Y out); and a SELL_X trade to within 1e-9 of the solvency bound.
@settings(max_examples=1000, deadline=None)
@given(x=log_uniform(1e-2, 1e4), y=log_uniform(1e-2, 1e4), p=log_uniform(1e-2, 1e2),
       z=st.sampled_from(Z_VALUES), sell_y=st.booleans(), exact_out=st.booleans(),
       frac=log_uniform(1e-6, 0.5), p_new=log_uniform(1e-2, 1e2))
@example(x=1.0, y=1.0, p=1.0, z=0.0, sell_y=False, exact_out=False, frac=1.0000001, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=0.3, sell_y=False, exact_out=False, frac=0.722608552, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=0.6, sell_y=False, exact_out=True, frac=0.5000001, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=1.0, sell_y=True, exact_out=False, frac=0.5000001, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=0.6, sell_y=True, exact_out=False, frac=0.67072578, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=0.6, sell_y=True, exact_out=True, frac=0.5000001, p_new=2.0)
@example(x=1.0, y=1.0, p=1.0, z=1.0, sell_y=False, exact_out=False, frac=1 - 1e-9, p_new=2.0)
@example(x=1.0, y=0.01, p=1.0, z=0.6, sell_y=False, exact_out=False, frac=1 - 1e-9, p_new=0.5)
def test_derived_states_lie_on_the_curve(x, y, p, z, sell_y, exact_out, frac, p_new):
    state = ha.PoolState.anchored(x, y, p, z)
    assert_on_curve(state)
    assert_on_curve(ha.PoolState.anchored(state.x, state.y, p_new, state.z))
    if z < 1.0:
        rebalanced = ha.rebalance_to_oracle(state, p_new)
        assert rebalanced.y == p_new * rebalanced.x   # where the spot price is p_new
        assert_on_curve(rebalanced)
    direction = SY if sell_y else SX
    if exact_out:
        result = ha.swap_exact_out(state, direction, frac * (state.x if sell_y else state.y))
    else:
        amount = frac * room(state, sell_y)
        result = ha.swap_exact_in(state, direction, amount)
        exact = ha.slippage_exact(state, direction, amount)
        taylor = ha.slippage_taylor(state, frac * room(state, False))
        assert exact.taylor_second_derivative_form >= 0.0
        assert exact.exact >= 0.0
        assert taylor.taylor_second_derivative_form >= 0.0
    assert_on_curve(result.new_state)
