"""Pool state and curve-level operations for the oracle-anchored hybrid AMM.

The pool holds reserves (x, y) of assets X and Y and blends two pricing
regimes through the mix parameter z: at z = 0 it is the constant-product
curve x*y = k, at z = 1 the oracle-pegged line y = k - p*x, and in between
the marginal price is (1-z)*y/x + z*p, which integrates to

    y(x) = k * x**(z-1) - z*p*x / (2-z).

All operations are pure; states are immutable value objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import _kernels
from .errors import DomainError, InsolvencyError

__all__ = [
    "PoolState",
    "reserve_y",
    "dy_dx",
    "d2y_dx2",
    "spot_price",
    "max_x_bound",
]

# On-curve residual admitted by PoolState, relative to the curve-term scale.
_ON_CURVE_RTOL = 1e-12

# Quote results are built without their dataclass __init__, which sets each
# field through object.__setattr__: _new(cls), then one store per field into
# the instance __dict__, in declaration order.
_new = object.__new__


def _check_finite_positive(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:   # NaN fails every comparison
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _check_mix(z: float) -> float:
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must lie in [0, 1], got {z!r}")
    return z


def _check_int(value: int, name: str, minimum: int) -> int:
    # bool is an int subclass, but True is not a count or a seed
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class PoolState:
    """Immutable pool snapshot: reserves, oracle price, mix parameter, curve constant.

    Who checks what: the constructor checks all five fields, then the
    residual, since its caller may pass any k.  :meth:`anchored`, which an
    oracle tick re-runs at the new price, checks x, y, p, z, the k it
    derives and the residual once each.  Swaps check what they change (the
    new reserves) and the residual.  Rebalancing reads y from the curve at
    its new x, so it checks the new reserves only.  All but the constructor
    build the state in place, without ``__init__``: ``_new(PoolState)``,
    then one store per field into its ``__dict__``, in declaration order,
    so ``vars()`` lists the fields as the constructor does.  The curve
    queries take a state and check only the x they are asked about.
    """

    x: float
    y: float
    p: float
    z: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "x", _check_finite_positive(self.x, "x"))
        object.__setattr__(self, "y", _check_finite_positive(self.y, "y"))
        object.__setattr__(self, "p", _check_finite_positive(self.p, "p"))
        object.__setattr__(self, "z", _check_mix(self.z))
        object.__setattr__(self, "k", _check_finite_positive(self.k, "k"))
        _check_residual(self.x, self.y, self.p, self.z, self.k, _kernels.pow_zm1(self.x, self.z),
                        self.z * self.p * self.x / (2.0 - self.z))

    @classmethod
    def anchored(cls, x: float, y: float, p: float, z: float) -> "PoolState":
        """Build a state from reserves, deriving k so the curve passes through (x, y)."""
        x, y = _check_finite_positive(x, "x"), _check_finite_positive(y, "y")
        p, z = _check_finite_positive(p, "p"), _check_mix(z)
        power = _kernels.pow_zm1(x, z)
        linear = z * p * x / (2.0 - z)
        k = (y + linear) / power   # as _kernels.curve_anchor
        if k == 0.0 and power == math.inf:
            raise _past_range(x, z)
        _check_residual(x, y, p, z, _check_finite_positive(k, "k"), power, linear)
        state = _new(cls)
        fields = state.__dict__
        fields["x"] = x
        fields["y"] = y
        fields["p"] = p
        fields["z"] = z
        fields["k"] = k
        return state


def _check_residual(x: float, y: float, p: float, z: float, k: float,
                    power: float, linear: float) -> None:
    """Raise unless (x, y) lies on the (k, p, z) curve, given x**(z-1) and z*p*x/(2-z)."""
    residual = k * power - linear - y
    # scale by the curve terms, not y itself: near the solvency bound y
    # is a cancellation of two much larger quantities
    if abs(residual) > _ON_CURVE_RTOL * (y + linear):
        message = (f"reserves ({x}, {y}) do not lie on the (k={k}, p={p}, z={z}) curve: "
                   f"residual {residual:.3e}")
        # a subnormal k or spot price has too few bits to resolve the curve
        for label, value in (("k=", k), ("the spot price ", _kernels.blend_spot(x, y, p, z))):
            if 0.0 < value < sys.float_info.min:
                message += f"; {label}{value!r} is subnormal"
        raise DomainError(message)


def _past_range(x: float, z: float) -> DomainError:
    """The error of an anchor whose x**(z-1) is inf, at tiny x with small z, so k comes out 0."""
    return DomainError(f"x**(z-1) is past double range at x={x!r}, z={z!r}")


def max_x_bound(state: PoolState) -> float:
    """Solvency bound of the state's curve: the x where the Y reserve is exhausted.

    Returns ((2-z)*k/(z*p))**(1/(2-z)) for z > 0 and +inf for z = 0
    (the hyperbola never exhausts Y).
    """
    return _kernels.solvency_bound(state.k, state.p, state.z)


def _check_solvent(state: PoolState, x: float) -> tuple[float, float, float, float]:
    """(k, x, p, z) of the state's curve at x, once x is below its solvency bound."""
    k, p, z = state.k, state.p, state.z
    bound = _kernels.solvency_bound(k, p, z)
    if x >= bound:
        raise InsolvencyError(
            f"x={x} is at or past the solvency bound {bound} of the (k={k}, p={p}, z={z}) curve",
            bound=bound,
        )
    return k, x, p, z


def reserve_y(state: PoolState, x: float) -> float:
    """Y reserve at coordinate x on the state's curve.

    y = k * x**(z-1) - z*p*x/(2-z); valid for 0 < x < max_x_bound.
    """
    return _kernels.curve_y(*_check_solvent(state, _check_finite_positive(x, "x")))


def dy_dx(state: PoolState, x: float) -> float:
    """Curve slope k*(z-1)*x**(z-2) - z*p/(2-z); negative for z < 1, exactly -p at z = 1."""
    return _kernels.curve_dy(*_check_solvent(state, _check_finite_positive(x, "x")))


def d2y_dx2(state: PoolState, x: float) -> float:
    """Curve curvature k*(z-1)*(z-2)*x**(z-3); nonnegative everywhere on [0, 1]."""
    return _kernels.curve_d2y(*_check_solvent(state, _check_finite_positive(x, "x")))


def spot_price(state: PoolState) -> float:
    """Marginal price (1-z)*y/x + z*p quoted by the pool; equals -dy_dx on the curve."""
    return _kernels.blend_spot(state.x, state.y, state.p, state.z)
