"""Oracle price paths and the re-anchoring policy for oracle updates.

Paths are deterministic value objects: constant schedules, explicit
schedules, seeded geometric Brownian motion, or CSV replay.  The GBM
generator uses numpy's PCG64 bit generator with ``standard_normal`` draws,
so a given (seed, numpy release) pair yields a bit-identical path on every
platform.

When the oracle price changes, reserves stay where they are and the curve
constant is re-derived through them (k jumps, tokens do not); the spot price
moves only through the z*p blend term.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .core import PoolState, anchor_k
from .errors import ConfigError, DomainError

__all__ = [
    "PricePath",
    "GbmParams",
    "constant_path",
    "schedule_path",
    "gbm_path",
    "apply_oracle_update",
    "load_price_csv",
    "dump_price_csv",
]

_SOURCES = ("constant", "schedule", "gbm", "replay")


@dataclass(frozen=True)
class PricePath:
    """Ordered (step index, price) pairs with a tag recording their origin."""

    steps: tuple[tuple[int, float], ...]
    source: str

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise DomainError(f"unknown path source {self.source!r}; expected one of {_SOURCES}")
        if not self.steps:
            raise DomainError("a price path must contain at least one step")
        previous = -1
        for i, (step, price) in enumerate(self.steps):
            if i == 0 and step != 0:
                raise DomainError(f"step indices must start at 0, got {step}")
            if step <= previous:
                raise DomainError(f"step indices must be strictly increasing, got {step} after {previous}")
            if not (math.isfinite(price) and price > 0.0):
                raise DomainError(f"price at step {step} must be finite and > 0, got {price!r}")
            previous = step

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.steps)

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.steps)

    def is_contiguous(self) -> bool:
        """True when there is exactly one price per step index 0..n-1."""
        return all(s == i for i, (s, _) in enumerate(self.steps))

    def prices_array(self) -> np.ndarray:
        return np.array(self.prices, dtype=np.float64)


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion parameters: per-step drift, per-sqrt-step volatility."""

    p0: float
    mu: float
    sigma: float
    steps: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.p0) and self.p0 > 0.0):
            raise DomainError(f"p0 must be finite and > 0, got {self.p0!r}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not isinstance(self.seed, int):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")


def _pairs(prices: Iterable[float]) -> tuple[tuple[int, float], ...]:
    return tuple((i, float(p)) for i, p in enumerate(prices))


def constant_path(price: float, steps: int) -> PricePath:
    """Path holding one price for the given number of steps."""
    if not isinstance(steps, int) or steps < 1:
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    return PricePath(_pairs([float(price)] * steps), source="constant")


def schedule_path(prices: Sequence[float]) -> PricePath:
    """Path from an explicit per-step price sequence."""
    return PricePath(_pairs(prices), source="schedule")


def gbm_path(params: GbmParams) -> PricePath:
    """Seeded GBM path: p[0] = p0, p[t+1] = p[t] * exp(mu - sigma^2/2 + sigma*N(0,1)).

    Draws come from numpy Generator(PCG64(seed)).standard_normal, one per
    transition, taken in a single vectorized call.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    draws = rng.standard_normal(params.steps - 1)
    log_steps = (params.mu - 0.5 * params.sigma * params.sigma) + params.sigma * draws
    prices = params.p0 * np.exp(np.concatenate(([0.0], np.cumsum(log_steps))))
    return PricePath(_pairs(prices), source="gbm")


def _take(mapping: Mapping[str, object], where: str, required: dict, optional: dict) -> dict:
    unknown = set(mapping) - set(required) - set(optional) - {"kind"}
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
    # strict about JSON types: no truthiness coercion, no string-to-number
    try:
        if caster is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        if caster is int:
            # bool is an int subclass; reject it, and reject 1.5 -> 1 truncation
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise TypeError
            return int(value)
        if caster is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            return float(value)
        if caster is list:
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return list(value)
        if caster is dict:
            if not isinstance(value, Mapping):
                raise TypeError
            return dict(value)
        return caster(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {caster.__name__}, got {value!r}") from None


def _path_from_mapping(spec: Mapping[str, object]) -> PricePath:
    kind = spec.get("kind")
    where = "path"
    if kind == "constant":
        fields = _take(spec, where, {}, {"price": (float, None), "steps": (int, None)})
        if fields["price"] is None or fields["steps"] is None:
            raise ConfigError(f"{where}: constant paths need 'price' and 'steps'")
        return constant_path(fields["price"], fields["steps"])
    if kind == "schedule":
        fields = _take(spec, where, {"prices": list}, {})
        return schedule_path([_cast(p, float, f"{where}.prices") for p in fields["prices"]])
    if kind == "gbm":
        fields = _take(spec, where, {"p0": float, "mu": float, "sigma": float,
                                     "steps": int, "seed": int}, {})
        return gbm_path(GbmParams(**fields))
    if kind == "replay":
        fields = _take(spec, where, {"file": str}, {})
        return load_price_csv(fields["file"])
    raise ConfigError(f"{where}: unknown kind {kind!r}; expected constant | schedule | gbm | replay")


def apply_oracle_update(state: PoolState, p_new: float) -> PoolState:
    """Oracle tick: reserves stay fixed, the curve constant re-anchors through them.

    The spot price moves by exactly z*(p_new - p_old); the reserve-ratio term
    of the blend is untouched.
    """
    p_new = float(p_new)
    if not (math.isfinite(p_new) and p_new > 0.0):
        raise DomainError(f"p_new must be finite and > 0, got {p_new!r}")
    return PoolState(state.x, state.y, p_new, state.z,
                     anchor_k(state.x, state.y, p_new, state.z))


def load_price_csv(source: Union[str, os.PathLike, io.TextIOBase]) -> PricePath:
    """Parse a replay CSV (header ``step,price``); errors carry 1-based line numbers."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="", encoding="utf-8") as handle:
            return _parse_price_csv(handle, str(source))
    return _parse_price_csv(source, getattr(source, "name", "<stream>"))


def _parse_price_csv(handle, name: str) -> PricePath:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{name}:1: empty file; expected header 'step,price'") from None
    if [cell.strip() for cell in header] != ["step", "price"]:
        raise ConfigError(f"{name}:1: bad header {header!r}; expected 'step,price'")
    pairs: list[tuple[int, float]] = []
    previous = -1
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
        if not pairs and step != 0:
            raise ConfigError(f"{name}:{lineno}: step indices must start at 0, got {step}")
        if step <= previous:
            raise ConfigError(
                f"{name}:{lineno}: step indices must be strictly increasing, got {step} after {previous}"
            )
        if not (math.isfinite(price) and price > 0.0):
            raise ConfigError(f"{name}:{lineno}: price must be finite and > 0, got {row[1]!r}")
        pairs.append((step, price))
        previous = step
    if not pairs:
        raise ConfigError(f"{name}:2: no data rows")
    return PricePath(tuple(pairs), source="replay")


def dump_price_csv(path: PricePath, target: Union[str, os.PathLike, io.TextIOBase]) -> None:
    """Write a path in replay format; floats use 17 significant digits (exact round trip)."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            _write_price_csv(path, handle)
    else:
        _write_price_csv(path, target)


def _write_price_csv(path: PricePath, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["step", "price"])
    for step, price in path.steps:
        writer.writerow([step, "%.17g" % price])
