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

from . import _kernels
from .core import PoolState, _check_finite_positive, _check_mix, anchor_k
from .errors import ConfigError, DomainError
from .oracle import PricePath, _cast, _path_from_mapping, _take

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
        if not isinstance(self.seed, int):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not (0.0 < self.max_fraction < 1.0):
            raise DomainError(f"max_fraction must lie in (0, 1), got {self.max_fraction!r}")
        if not isinstance(self.trades_per_step, int) or self.trades_per_step < 1:
            raise DomainError(f"trades_per_step must be an integer >= 1, got {self.trades_per_step!r}")


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
        if not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not isinstance(self.path, PricePath):
            raise DomainError("path must be a PricePath")
        # the runner applies exactly one oracle update per step
        if len(self.path) != self.steps or not self.path.is_contiguous():
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
        path = _resolve_path_spec(top["path"], p0=top["p0"], steps=top["steps"],
                                  base_dir=base_dir)
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


def _resolve_path_spec(spec: Mapping[str, object], *, p0: float, steps: int,
                       base_dir: str) -> PricePath:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"path: expected an object, got {type(spec).__name__}")
    spec = dict(spec)
    kind = spec.get("kind")
    # scenario-level p0/steps flow into the path unless explicitly overridden
    if kind == "gbm":
        spec.setdefault("p0", p0)
        spec.setdefault("steps", steps)
    elif kind == "constant":
        spec.setdefault("price", p0)
        spec.setdefault("steps", steps)
    elif kind == "replay" and base_dir:
        file = spec.get("file")
        if isinstance(file, str) and not os.path.isabs(file):
            spec["file"] = os.path.join(base_dir, file)
    return _path_from_mapping(spec)


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
    prices = config.path.prices_array()
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

    rows: list[tuple[float, float, float]] = []
    if isinstance(anchor, PoolState):
        if p is not None:
            raise DomainError("p is implied by an anchored state; pass it only with a raw k")
        for z in zs:
            k = anchor_k(anchor.x, anchor.y, anchor.p, z)
            ys = _kernels.curve_grid(k, anchor.p, z, xs)
            rows.extend((z, float(x), float(y)) for x, y in zip(xs, ys))
    else:
        k = _check_finite_positive(anchor, "k")
        p_eff = 1.0 if p is None else _check_finite_positive(p, "p")
        for z in zs:
            ys = _kernels.curve_grid(k, p_eff, z, xs)
            rows.extend((z, float(x), float(y)) for x, y in zip(xs, ys))
    return rows
