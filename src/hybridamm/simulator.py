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
from .core import PoolState, _check_finite_positive, _check_int, _check_mix, anchor_k
from .errors import ConfigError, DomainError
from .oracle import GbmParams, PricePath

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
    p0: float
    z_values: tuple[float, ...]
    steps: int
    path: PricePath
    arbitrageur: bool = True
    noise: Optional[NoiseParams] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_finite_positive(self.x0, "x0"))
        object.__setattr__(self, "y0", _check_finite_positive(self.y0, "y0"))
        object.__setattr__(self, "p0", _check_finite_positive(self.p0, "p0"))
        zs = tuple(_check_mix(z) for z in self.z_values)
        if not zs:
            raise DomainError("z_values must be non-empty")
        object.__setattr__(self, "z_values", zs)
        # each pool's output files are named by %.12g of its z
        labels = {"%.12g" % z for z in zs}
        if len(labels) != len(zs):
            raise DomainError(f"z_values must differ at 12 significant digits, got {list(zs)}")
        _check_int(self.steps, "steps", 1)
        if not isinstance(self.path, PricePath):
            raise DomainError("path must be a PricePath")
        # the runner applies exactly one oracle update per step
        if len(self.path) != self.steps:
            raise DomainError(
                f"path must carry one price per step 0..{self.steps - 1}, "
                f"got {len(self.path)} entries"
            )
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
            {"arbitrageur": (bool, True), "noise": (dict, None)},
        )
        z_values = tuple(
            _cast(z, float, f"{where}.z_values") for z in top["z_values"]
        )
        path = _path_from_spec(top["path"], f"{where}.path", p0=top["p0"],
                               steps=top["steps"], base_dir=base_dir)
        noise = None
        if top["noise"] is not None:
            noise_fields = _take(
                top["noise"], f"{where}.noise",
                {"size_mu": float, "size_sigma": float, "seed": int},
                {"max_fraction": (float, 0.25), "trades_per_step": (int, 1)},
            )
            noise = NoiseParams(**noise_fields)
        return cls(x0=top["x0"], y0=top["y0"], p0=top["p0"], z_values=z_values,
                   steps=top["steps"], path=path, arbitrageur=top["arbitrageur"],
                   noise=noise)


def _path_from_spec(spec: dict, where: str, *, p0: float, steps: int,
                    base_dir: str) -> PricePath:
    """The price path a config's ``path`` object describes.

    ``constant`` and ``gbm`` paths take the scenario's p0 and steps unless
    the object overrides them; a relative replay file resolves against
    ``base_dir``.  ``spec`` is the copy ``_take`` made, so popping its
    ``kind`` leaves the caller's mapping alone.
    """
    kind = spec.pop("kind", None)
    # builders are looked up on the oracle module, so a wrapper put there
    # (perfbench traces oracle.gbm_path) sees every call
    if kind == "constant":
        fields = _take(spec, where, {}, {"price": (float, p0), "steps": (int, steps)})
        return oracle.constant_path(fields["price"], fields["steps"])
    if kind == "schedule":
        fields = _take(spec, where, {"prices": list}, {})
        return oracle.schedule_path([_cast(p, float, f"{where}.prices") for p in fields["prices"]])
    if kind == "gbm":
        fields = _take(spec, where, {"mu": float, "sigma": float, "seed": int},
                       {"p0": (float, p0), "steps": (int, steps)})
        return oracle.gbm_path(GbmParams(**fields))
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
    return caster(value)


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
    attempts, so runs differ only through the curve itself.
    """
    prices = config.path.prices
    if config.noise is not None:
        noise = config.noise
        rng = np.random.Generator(np.random.PCG64(noise.seed))
        total = config.steps * noise.trades_per_step
        fractions = np.exp(noise.size_mu + noise.size_sigma * rng.standard_normal(total))
        directions = rng.integers(0, 2, size=total, dtype=np.int8)
        trades_per_step = noise.trades_per_step
        max_fraction = noise.max_fraction
    else:
        fractions = np.empty(0, dtype=np.float64)
        directions = np.empty(0, dtype=np.int8)
        trades_per_step = 0
        max_fraction = 0.0

    step = np.arange(config.steps, dtype=np.float64)
    runs: list[ScenarioRun] = []
    for z in config.z_values:
        spot, xs, ys, pool, hold, il, slip, vol, clamped, skipped = _kernels.run_steps(
            config.x0, config.y0, float(z), prices, bool(config.arbitrageur),
            fractions, directions, trades_per_step, max_fraction,
        )
        bad = ~((pool > 0.0) & np.isfinite(il))
        if bad.any():
            t = int(np.argmax(bad))
            raise DomainError(f"z={z}, step {t}: pool value {pool[t]:.17g} must be > 0 "
                              f"and il_relative {il[t]:.17g} finite")
        table = np.column_stack((step, prices, spot, xs, ys, pool, hold, il, slip, vol))
        runs.append(ScenarioRun(z=float(z), table=table,
                                clamped_trades=int(clamped), skipped_trades=int(skipped)))
    return runs


def sweep_reserve_curve(anchor: Union[PoolState, float], z_values: Sequence[float],
                        x_grid: Sequence[float], *, p: Optional[float] = None,
                        ) -> list[tuple[float, float, float]]:
    """Tabulate (z, x, y) curve samples for plotting.

    ``anchor`` is either a PoolState, re-anchored through its reserves for
    each z so all curves share that point, or an explicit curve constant k
    (oracle price ``p`` defaults to 1).  Grid points outside a curve's domain
    yield y = nan rather than failing.
    """
    zs = [_check_mix(z) for z in z_values]
    if not zs:
        raise DomainError("z_values must be non-empty")
    xs = np.ascontiguousarray(x_grid, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(xs)):
        raise DomainError("x_grid values must be finite")

    if isinstance(anchor, PoolState):
        if p is not None:
            raise DomainError("p is implied by an anchored state; pass it only with a raw k")
        curves = [(z, anchor_k(anchor.x, anchor.y, anchor.p, z), anchor.p) for z in zs]
    else:
        k = _check_finite_positive(anchor, "k")
        p_eff = 1.0 if p is None else _check_finite_positive(p, "p")
        curves = [(z, k, p_eff) for z in zs]
    rows: list[tuple[float, float, float]] = []
    for z, k, p_z in curves:
        bound = _kernels.solvency_bound(k, p_z, z)
        rows.extend((z, x, _kernels.curve_y(k, x, p_z, z) if 0.0 < x < bound else math.nan)
                    for x in xs.tolist())
    return rows
