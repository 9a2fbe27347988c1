"""Deterministic scenario runner sweeping pools over a mix-parameter grid.

Each step applies the same fixed event order to every pool in the sweep:
oracle update (re-anchor at fixed reserves), arbitrage to the oracle price
(skipped at z = 1 where no rebalancing point exists), then noise trades.
Noise-trade sizes are lognormal fractions of the input-side reserve, clamped
to solvency; infeasible trades are skipped and counted, never fatal.  All
randomness is drawn up front from seeded PCG64 generators and shared across
the z sweep, so pools face identical trade attempts and runs are bit-for-bit
reproducible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import _kernels, oracle
from .core import PoolState, _check_finite_positive, _check_int, _check_mix, max_x_bound
from .errors import ConfigError, DomainError, HybridAmmError
from .oracle import PricePath

__all__ = [
    "NoiseParams",
    "ScenarioConfig",
    "ScenarioRun",
    "load_scenario",
    "run_scenario",
    "sweep_reserve_curve",
    "METRICS_HEADER",
]


@dataclass(frozen=True)
class NoiseParams:
    """Lognormal noise-trader sizing: fraction = exp(size_mu + size_sigma*N(0,1)).

    Fractions apply to the input-side reserve, are capped at ``max_fraction``,
    and each trade sells X or Y on a fair-coin draw.  Draw order per run: all
    size fractions in one vectorized call, then all direction coins.
    """

    size_mu: float
    size_sigma: float
    seed: int
    max_fraction: float = 0.25
    trades_per_step: int = 1

    def __post_init__(self):
        if not math.isfinite(self.size_mu):
            raise DomainError(f"size_mu must be finite, got {self.size_mu!r}")
        if not (math.isfinite(self.size_sigma) and self.size_sigma >= 0.0):
            raise DomainError(f"size_sigma must be finite and >= 0, got {self.size_sigma!r}")
        _check_int(self.seed, "seed", 0)
        if not (0.0 < self.max_fraction < 1.0):
            raise DomainError(f"max_fraction must lie in (0, 1), got {self.max_fraction!r}")
        _check_int(self.trades_per_step, "trades_per_step", 1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Initial pool, z sweep, resolved price path, and agent configuration."""

    x0: float
    y0: float
    z_values: tuple[float, ...]
    path: PricePath
    arbitrageur: bool = True
    noise: Optional[NoiseParams] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_finite_positive(self.x0, "x0"))
        object.__setattr__(self, "y0", _check_finite_positive(self.y0, "y0"))
        zs = tuple(_check_mix(z) for z in self.z_values)
        if not zs:
            raise DomainError("z_values must be non-empty")
        object.__setattr__(self, "z_values", zs)
        if not isinstance(self.path, PricePath):
            raise DomainError("path must be a PricePath")
        if self.noise is not None and not isinstance(self.noise, NoiseParams):
            raise DomainError("noise must be NoiseParams or None")

    @classmethod
    def from_dict(cls, data: Mapping[str, object], *, base_dir: str = "",
                  where: str = "config") -> "ScenarioConfig":
        """Build from a JSON-shaped mapping; unknown fields anywhere are rejected."""
        top = _take(
            data, where,
            {"x0": float, "y0": float, "p0": float, "z_values": list,
             "steps": int, "path": dict},
            {"arbitrageur": (bool, cls.arbitrageur), "noise": (dict, None)},
        )
        z_values = tuple(
            _cast(z, float, f"{where}.z_values") for z in top["z_values"]
        )
        _check_finite_positive(top["p0"], "p0")
        steps = _check_int(top["steps"], "steps", 1)
        try:
            path = _path_from_spec(top["path"], f"{where}.path", p0=top["p0"],
                                   steps=steps, base_dir=base_dir)
        except HybridAmmError:
            raise
        except ValueError as err:   # numpy's, for more steps than an array can hold
            raise ConfigError(f"{where}.steps: too many steps for a price path: {err}") from None
        if len(path) != steps:   # the runner applies exactly one oracle update per step
            raise DomainError(f"path must carry one price per step 0..{steps - 1}, "
                              f"got {len(path)} entries")
        if path.prices[0] != top["p0"]:   # a schedule or replay path states p0 a second time
            raise DomainError(f"path must start at p0={top['p0']!r}, "
                              f"got {float(path.prices[0])!r}")
        noise = None
        if top["noise"] is not None:
            noise_fields = _take(
                top["noise"], f"{where}.noise",
                {"size_mu": float, "size_sigma": float, "seed": int},
                {"max_fraction": (float, NoiseParams.max_fraction),
                 "trades_per_step": (int, NoiseParams.trades_per_step)},
            )
            noise = NoiseParams(**noise_fields)
        return cls(x0=top["x0"], y0=top["y0"], z_values=z_values, path=path,
                   arbitrageur=top["arbitrageur"], noise=noise)


def _path_from_spec(spec: dict, where: str, *, p0: float, steps: int,
                    base_dir: str) -> PricePath:
    """The price path a config's ``path`` object describes.

    ``constant`` and ``gbm`` paths have the scenario's steps and start at its
    p0; the caller checks both for the other kinds.  A relative replay file
    resolves against ``base_dir``.  ``spec`` is the copy ``_take`` made, so
    popping its ``kind`` leaves the caller's mapping alone.
    """
    kind = spec.pop("kind", None)
    # builders are looked up on the oracle module, so a wrapper put there
    # (perfbench traces oracle.gbm_path) sees every call
    if kind == "constant":
        _take(spec, where, {}, {})   # no fields: it holds the top-level p0
        return PricePath(np.full(steps, p0))
    if kind == "schedule":
        fields = _take(spec, where, {"prices": list}, {})
        return PricePath([_cast(p, float, f"{where}.prices") for p in fields["prices"]])
    if kind == "gbm":
        fields = _take(spec, where, {"mu": float, "sigma": float, "seed": int}, {})
        return oracle.gbm_path(p0=p0, steps=steps, **fields)
    if kind == "replay":
        fields = _take(spec, where, {"file": str}, {})
        return oracle.load_price_csv(os.path.join(base_dir, fields["file"]))
    raise ConfigError(f"{where}: unknown kind {kind!r}; expected constant | schedule | gbm | replay")


def _take(mapping: Mapping[str, object], where: str, required: dict, optional: dict) -> dict:
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
    out = {}
    for name, caster in required.items():
        if name not in mapping:
            raise ConfigError(f"{where}: missing required field {name!r}")
        out[name] = _cast(mapping[name], caster, f"{where}.{name}")
    for name, (caster, default) in optional.items():
        out[name] = _cast(mapping[name], caster, f"{where}.{name}") if name in mapping else default
    return out


def _cast(value, caster, where: str):
    # strict about JSON types: no truthiness coercion, no string-to-number, no
    # bool where a number is expected, and an int field takes a float only when
    # it is integral (3.0 -> 3, never 1.5 -> 1)
    if caster is int and isinstance(value, float) and value.is_integer():
        return int(value)
    accepted = {float: (int, float), list: (list, tuple), dict: Mapping}.get(caster, caster)
    if not isinstance(value, accepted) or (caster is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {caster.__name__}, got {value!r}")
    try:
        return caster(value)
    except OverflowError:   # a JSON integer past double range
        raise ConfigError(f"{where}: expected float, got an integer past double range") from None


def load_scenario(path: Union[str, os.PathLike]) -> ScenarioConfig:
    """Read and validate a scenario config JSON file."""
    name = str(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"{name}: {err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{name}:{err.lineno}:{err.colno}: {err.msg}") from None
    except ValueError as err:   # an integer past Python's digit limit, or text that is not UTF-8
        raise ConfigError(f"{name}: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: top-level JSON value must be an object")
    return ScenarioConfig.from_dict(data, base_dir=os.path.dirname(name), where=name)


# Per-step metric columns, in table order.  Values are in X units
# (value = x + y/p); ``slippage_cost`` is the cost of the last trade executed
# during the step (0 if none traded); ``cum_volume`` accumulates |delta x|
# over every executed trade.
METRICS_HEADER = ("step", "oracle_price", "spot_price", "reserve_x", "reserve_y",
                  "pool_value", "hold_value", "il_relative", "slippage_cost", "cum_volume")


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """One pool's metric table, shaped (steps, len(METRICS_HEADER)), plus
    noise-trade bookkeeping."""

    z: float
    table: np.ndarray
    clamped_trades: int
    skipped_trades: int

    def rows(self) -> list[list[float]]:
        return self.table.tolist()


def run_scenario(config: ScenarioConfig) -> list[ScenarioRun]:
    """Drive one pool per z value through the configured path and agents.

    Every pool sees the same oracle path and the same pre-drawn noise
    attempts, so runs differ only through the curve itself.  Each pool's start
    is anchored with :meth:`PoolState.anchored` first, and a start it rejects
    raises its ``DomainError`` prefixed with the pool's z.  The pools with the
    arbitrageur and z < 1 are computed at once in closed form by
    ``_kernels.arbitrage_path``, the others step through ``_kernels.run_steps``.
    """
    prices = config.path.prices
    steps = len(prices)
    zs = config.z_values
    for z in zs:
        try:
            PoolState.anchored(config.x0, config.y0, prices[0], z)
        except DomainError as err:
            raise DomainError(f"z={z}: {err}") from None
    noise = config.noise
    args = _kernels.NO_NOISE
    if noise is not None:
        rng = np.random.Generator(np.random.PCG64(noise.seed))
        total = steps * noise.trades_per_step
        fractions = np.exp(noise.size_mu + noise.size_sigma * rng.standard_normal(total))
        directions = rng.integers(0, 2, size=total, dtype=np.int8)
        args = (fractions, directions, noise.trades_per_step, noise.max_fraction)
    z_col = np.array(zs)[:, None]
    closed = (z_col[:, 0] < 1.0) & bool(config.arbitrageur)
    xs, ys, slip, vol = np.empty((4, len(zs), steps))
    clamped, skipped = np.empty((2, len(zs)), dtype=np.int64)
    xs[closed], ys[closed], slip[closed], vol[closed], clamped[closed], skipped[closed] = (
        _kernels.arbitrage_path(config.x0, config.y0, z_col[closed, 0], prices, *args))
    # a stepped pool has no arbitrage: it has no arbitrageur, or z = 1 and no target
    for i in np.flatnonzero(~closed).tolist():
        _, xs[i], ys[i], _, _, _, slip[i], vol[i], clamped[i], skipped[i] = _kernels.run_steps(
            config.x0, config.y0, zs[i], prices, False, *args)

    spot, pool, hold, il = _kernels.derived_columns(config.x0, config.y0, xs, ys, prices, z_col)
    bad = ~((pool > 0.0) & np.isfinite(il))
    if bad.any():
        i, t = np.argwhere(bad)[0]
        raise DomainError(f"z={zs[i]}, step {t}: pool value {pool[i, t]:.17g} must be > 0 "
                          f"and il_relative {il[i, t]:.17g} finite")
    step = np.arange(steps, dtype=np.float64)
    tables = np.stack(np.broadcast_arrays(step, prices, spot, xs, ys, pool, hold, il, slip, vol),
                      axis=-1)
    return [ScenarioRun(z=z, table=table, clamped_trades=c, skipped_trades=s)
            for z, table, c, s in zip(zs, tables, clamped.tolist(), skipped.tolist())]


def sweep_reserve_curve(anchor: tuple[float, float, float], z_values: Sequence[float],
                        x_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """Tabulate (z, x, y) curve samples for plotting.

    ``anchor`` is the reserves and oracle price (x, y, p), through which
    :meth:`PoolState.anchored` anchors and checks each z's curve, so all
    curves share that point.  Grid points outside a curve's domain yield
    y = nan rather than failing.
    """
    zs = [_check_mix(z) for z in z_values]
    if not zs:
        raise DomainError("z_values must be non-empty")
    xs = np.ascontiguousarray(x_grid, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(xs)):
        raise DomainError("x_grid values must be finite")

    rows: list[tuple[float, float, float]] = []
    for z in zs:
        state = PoolState.anchored(*anchor, z)
        k, p, bound = state.k, state.p, max_x_bound(state)
        rows.extend((z, x, _kernels.curve_y(k, x, p, z) if 0.0 < x < bound else math.nan)
                    for x in xs.tolist())
    return rows
