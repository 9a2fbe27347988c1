"""Oracle price paths.

Paths are deterministic value objects: constant schedules, explicit
schedules, seeded geometric Brownian motion, or CSV replay.  The GBM
generator uses numpy's PCG64 bit generator with ``standard_normal`` draws,
so a given (seed, numpy release) pair yields a bit-identical path on every
platform.

When the oracle price changes, reserves stay where they are and the curve
constant is re-derived through them (k jumps, tokens do not): the new state is
``PoolState.anchored(state.x, state.y, p_new, state.z)``, and the spot price
moves only through the z*p blend term.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import _check_finite_positive, _check_int
from .errors import ConfigError, DomainError
from .serialize import write_csv

__all__ = [
    "PricePath",
    "gbm_path",
    "load_price_csv",
    "dump_price_csv",
]


@dataclass(frozen=True, eq=False)
class PricePath:
    """Oracle prices for steps 0..n-1, held as one read-only float64 copy of the input."""

    prices: np.ndarray

    def __post_init__(self):
        prices = np.array(self.prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size == 0:
            raise DomainError(f"a price path must be a non-empty 1-d sequence, got shape {prices.shape}")
        bad = ~(np.isfinite(prices) & (prices > 0.0))
        if bad.any():
            t = int(np.argmax(bad))
            raise DomainError(f"price at step {t} must be finite and > 0, got {float(prices[t])!r}")
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return self.prices.size


def gbm_path(p0: float, mu: float, sigma: float, steps: int, seed: int) -> PricePath:
    """Seeded GBM path: p[0] = p0, p[t+1] = p[t] * exp(mu - sigma^2/2 + sigma*N(0,1)).

    ``mu`` is the per-step drift and ``sigma`` the per-sqrt-step volatility.
    Draws come from numpy Generator(PCG64(seed)).standard_normal, one per
    transition, taken in a single vectorized call.
    """
    p0 = _check_finite_positive(p0, "p0")
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be finite and >= 0, got {sigma!r}")
    _check_int(steps, "steps", 1)
    _check_int(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.standard_normal(steps - 1)
    log_steps = (mu - 0.5 * sigma * sigma) + sigma * draws
    return PricePath(p0 * np.exp(np.concatenate(([0.0], np.cumsum(log_steps)))))


def load_price_csv(source: Union[str, os.PathLike]) -> PricePath:
    """Parse a replay CSV file (header ``step,price``); errors carry 1-based line numbers."""
    with open(source, "r", newline="", encoding="utf-8") as handle:
        name, reader = handle.name, csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{name}:1: empty file; expected header 'step,price'") from None
        if [cell.strip() for cell in header] != ["step", "price"]:
            raise ConfigError(f"{name}:1: bad header {header!r}; expected 'step,price'")
        prices: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"{name}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                step = int(row[0])
                price = float(row[1])
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: could not parse {row!r}") from None
            # the runner applies one oracle update per step, so steps run 0..n-1
            if step != len(prices):
                raise ConfigError(f"{name}:{lineno}: expected step {len(prices)}, got {step}; "
                                  "steps must run 0, 1, 2, ... without gaps")
            if not (math.isfinite(price) and price > 0.0):
                raise ConfigError(f"{name}:{lineno}: price must be finite and > 0, got {row[1]!r}")
            prices.append(price)
        if not prices:
            raise ConfigError(f"{name}:2: no data rows")
        return PricePath(prices)


def dump_price_csv(path: PricePath, target: Union[str, os.PathLike]) -> None:
    """Write a path in replay format; floats use 17 significant digits (exact round trip)."""
    with open(target, "w", newline="", encoding="utf-8") as handle:
        write_csv(handle, ("step", "price"), enumerate(path.prices.tolist()))
