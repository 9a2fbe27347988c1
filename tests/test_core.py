"""Curve algebra: anchoring, reserve function, derivatives, spot price, bounds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridamm as ha
from hybridamm import _kernels

# reference values computed independently with mpmath at 50 decimal digits
RESERVE_Y_REF = 0.90461678566078975393   # curve_y(k=4/3, x=1.1, p=1, z=0.5)
BOUND_REF = 2.5198420997897463295        # solvency_bound(4/3, 1, 0.5) = 4**(2/3)

# sampling ranges keep reserve/price ratios within ~1e3 of balanced; the
# 1e-12 round-trip tolerance cannot survive arbitrarily degenerate pools
reserves = st.floats(min_value=0.1, max_value=10.0)
prices = st.floats(min_value=0.1, max_value=10.0)
mixes = st.floats(min_value=0.0, max_value=1.0)


def test_anchor_k_unit_pool_matches_blend_weight():
    # k = 1 + z/(2-z) on the unit pool
    assert ha.PoolState.anchored(1.0, 1.0, 1.0, 0.1).k == pytest.approx(20.0 / 19.0, rel=1e-13)
    assert ha.PoolState.anchored(1.0, 1.0, 1.0, 0.9).k == pytest.approx(20.0 / 11.0, rel=1e-13)


def test_anchor_k_limits_recover_classic_constants():
    assert ha.PoolState.anchored(2.0, 3.0, 5.0, 0.0).k == 6.0          # constant product x*y
    assert ha.PoolState.anchored(2.0, 3.0, 5.0, 1.0).k == 13.0         # linear intercept y + p*x
    assert ha.PoolState.anchored(1.0, 1.0, 1.0, 1.0).k == 2.0


def test_anchor_k_rejects_bad_inputs():
    for args in [(0.0, 1, 1, 0.5), (1, -1, 1, 0.5), (1, 1, math.nan, 0.5),
                 (1, 1, 1, 1.5), (1, 1, 1, -0.1), (math.inf, 1, 1, 0.5)]:
        with pytest.raises(ha.DomainError):
            ha.PoolState.anchored(*args)
    with pytest.raises(ha.DomainError, match=r"x\*\*\(z-1\) is past double range"):
        ha.PoolState.anchored(1e-310, 1, 1, 1e-300)


@given(x=reserves, y=reserves, p=prices, z=mixes)
def test_anchoring_round_trip(x, y, p, z):
    state = ha.PoolState.anchored(x, y, p, z)
    assert ha.reserve_y(state, x) == pytest.approx(y, rel=1e-12)


def test_reserve_y_limit_curves():
    assert _kernels.curve_y(1.0, 2.0, 7.3, 0.0) == 0.5         # y = k/x, p irrelevant
    assert _kernels.curve_y(2.0, 0.5, 1.0, 1.0) == 1.5         # y = k - p*x


def test_reserve_y_half_mix_reference():
    assert _kernels.curve_y(4.0 / 3.0, 1.1, 1.0, 0.5) == pytest.approx(RESERVE_Y_REF, rel=1e-14)


@given(z=st.floats(min_value=0.0, max_value=1.0), p=prices)
def test_reserve_y_strictly_decreasing(z, p):
    state = ha.PoolState.anchored(1.0, 1.0, p, z)
    bound = min(ha.max_x_bound(state), 8.0)
    xs = [bound * f for f in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95)]
    ys = [ha.reserve_y(state, x) for x in xs]
    assert all(a > b for a, b in zip(ys, ys[1:]))


def test_reserve_y_insolvency_carries_bound():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)   # k = 4/3
    bound = ha.max_x_bound(state)
    with pytest.raises(ha.InsolvencyError) as exc_info:
        ha.reserve_y(state, bound * 1.01)
    assert exc_info.value.bound == pytest.approx(bound)
    with pytest.raises(ha.InsolvencyError):
        ha.reserve_y(state, bound)       # the boundary itself is excluded


def test_z0_constant_product_identity():
    k = 1.7
    for x in (0.01, 0.5, 3.0, 250.0):
        assert _kernels.curve_y(k, x, 9.9, 0.0) * x == pytest.approx(k, rel=1e-12)


def test_z1_curve_is_affine():
    k, p = 2.0, 1.3
    xs = [0.1 + 0.05 * i for i in range(25)]
    ys = [_kernels.curve_y(k, x, p, 1.0) for x in xs]
    second_differences = [ys[i + 2] - 2.0 * ys[i + 1] + ys[i] for i in range(len(ys) - 2)]
    assert all(abs(d) <= 1e-12 for d in second_differences)
    for x in xs:
        assert _kernels.curve_dy(k, x, p, 1.0) == -p


def test_dy_dx_values():
    assert _kernels.curve_dy(1.0, 1.0, 1.0, 0.0) == -1.0
    assert _kernels.curve_dy(4.0 / 3.0, 1.0, 1.0, 0.5) == pytest.approx(-1.0, rel=1e-14)
    assert _kernels.curve_dy(2.0, 0.5, 3.0, 1.0) == -3.0


def test_dy_dx_rejects_insolvent_point():
    # z=1 with k=2, p=3 exhausts Y at x = 2/3, so x = 0.7 is out of domain
    state = ha.PoolState.anchored(0.5, 0.5, 3.0, 1.0)
    assert state.k == 2.0
    with pytest.raises(ha.InsolvencyError):
        ha.dy_dx(state, 0.7)


@given(x=reserves, y=reserves, p=prices, z=mixes)
def test_dy_dx_sign(x, y, p, z):
    slope = ha.dy_dx(ha.PoolState.anchored(x, y, p, z), x)
    if z == 1.0:
        assert slope == -p
    else:
        assert slope < 0.0


def test_d2y_dx2_values():
    assert _kernels.curve_d2y(1.0, 1.0, 1.0, 0.0) == 2.0            # y'' = 2k/x^3
    assert _kernels.curve_d2y(5.0, 2.0, 1.0, 1.0) == 0.0
    # unit-pool z=0.1: k*(z-1)*(z-2) = (20/19)*1.71 = 1.8
    assert _kernels.curve_d2y(20.0 / 19.0, 1.0, 1.0, 0.1) == pytest.approx(1.8, rel=1e-13)


@given(x=reserves, y=reserves, p=prices, z=mixes)
def test_d2y_dx2_convexity(x, y, p, z):
    assert ha.d2y_dx2(ha.PoolState.anchored(x, y, p, z), x) >= 0.0


# sample_states' ranges, with the exact and extreme mixes drawn as well
@given(x=reserves, y=reserves, p=prices,
       z=mixes | st.sampled_from([0.0, 5e-324, 1.0 - 2.0 ** -52, 1.0]),
       share=st.floats(min_value=1e-6, max_value=0.999))
def test_curve_queries_are_their_kernels_on_the_state(x, y, p, z, share):
    state = ha.PoolState.anchored(x, y, p, z)
    k = state.k
    bound = _kernels.solvency_bound(k, p, z)
    assert ha.max_x_bound(state).hex() == bound.hex()
    for at in (x, share * min(bound, 10.0 * x)):
        for query, kernel in ((ha.reserve_y, _kernels.curve_y), (ha.dy_dx, _kernels.curve_dy),
                              (ha.d2y_dx2, _kernels.curve_d2y)):
            assert query(state, at).hex() == kernel(k, at, p, z).hex()


def test_spot_price_values():
    assert ha.spot_price(ha.PoolState.anchored(1.0, 1.0, 1.0, 0.0)) == 1.0
    assert ha.spot_price(ha.PoolState.anchored(1.0, 7.0, 3.0, 1.0)) == 3.0
    assert ha.spot_price(ha.PoolState.anchored(1.0, 1.0, 2.0, 0.5)) == 1.5


@given(x=reserves, y=reserves, p=prices, z=mixes)
def test_spot_price_solves_pricing_equation(x, y, p, z):
    # -dy/dx must reproduce the blend (1-z)*y/x + z*p: the curve solves the ODE
    state = ha.PoolState.anchored(x, y, p, z)
    assert -ha.dy_dx(state, x) == pytest.approx(ha.spot_price(state), rel=1e-10)


def test_max_x_bound_values():
    assert _kernels.solvency_bound(2.0, 1.0, 1.0) == 2.0
    assert _kernels.solvency_bound(1.0, 1.0, 0.0) == math.inf
    assert _kernels.solvency_bound(4.0 / 3.0, 1.0, 0.5) == pytest.approx(BOUND_REF, rel=1e-14)


@given(k=st.floats(min_value=0.2, max_value=20.0), p=prices,
       z=st.floats(min_value=0.05, max_value=1.0))
def test_reserve_vanishes_at_bound(k, p, z):
    bound = _kernels.solvency_bound(k, p, z)
    assert _kernels.curve_y(k, bound * (1.0 - 1e-9), p, z) > 0.0
    assert abs(_kernels.curve_y(k, bound, p, z)) <= 1e-9 * max(1.0, k, p)


def test_pool_state_requires_on_curve_reserves():
    with pytest.raises(ha.DomainError):
        ha.PoolState(1.0, 1.0, 1.0, 0.5, k=2.0)
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    assert state.k == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_pool_state_is_immutable():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(AttributeError):
        state.x = 2.0


def test_package_lists_each_module_name_once():
    from hybridamm import analytics, core, errors, oracle, simulator, swap

    expected = ["__version__"]
    for module in (errors, core, swap, analytics, oracle, simulator):
        expected += module.__all__
        for name in module.__all__:
            assert getattr(ha, name) is getattr(module, name)
    assert ha.__all__ == expected
    assert len(set(ha.__all__)) == len(ha.__all__) == 36
    assert ha.__version__ == "0.1.0"
