"""Price paths, GBM determinism, oracle re-anchoring, and CSV replay."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridamm as ha
from hybridamm.oracle import PricePath

# sha256 of the seed-42 GBM path (numpy PCG64), %.17g comma-joined; frozen on
# first generation and guarded here against generator or formula drift
GBM_DIGEST = "2fe5f273d7e499d636b0805488b2ef71ddc6a684876419908562654380eb6868"

reserves = st.floats(min_value=0.1, max_value=10.0)
prices = st.floats(min_value=0.1, max_value=10.0)
mixes = st.floats(min_value=0.0, max_value=1.0)


def _digest(path: PricePath) -> str:
    blob = ",".join("%.17g" % p for p in path.prices.tolist())
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------- generation


def test_constant_path():
    # a config's constant path holds the top-level p0 for every step
    config = ha.ScenarioConfig.from_dict({"x0": 1.0, "y0": 1.0, "p0": 2, "z_values": [0.5],
                                          "steps": 5, "path": {"kind": "constant"}})
    assert config.path.prices.tolist() == [2.0, 2.0, 2.0, 2.0, 2.0]
    assert config.path.prices.dtype == np.float64
    assert len(config.path) == 5


def test_schedule_path():
    # a config's schedule path is the PricePath of its list, integers read as floats
    path = PricePath([1, 4.0, 2])
    assert path.prices.tolist() == [1.0, 4.0, 2.0]
    assert path.prices.dtype == np.float64
    config = ha.ScenarioConfig.from_dict({"x0": 1.0, "y0": 1.0, "p0": 1.0, "z_values": [0.5],
                                          "steps": 3,
                                          "path": {"kind": "schedule", "prices": [1, 4.0, 2]}})
    assert np.array_equal(config.path.prices, path.prices)


def test_degenerate_gbm_is_constant():
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.0, steps=3, seed=7)
    assert path.prices.tolist() == [1.0, 1.0, 1.0]


def test_gbm_drift_without_noise():
    path = ha.gbm_path(p0=1.0, mu=0.1, sigma=0.0, steps=3, seed=7)
    assert path.prices[1] == pytest.approx(math.exp(0.1), rel=1e-15)
    assert path.prices[2] == pytest.approx(math.exp(0.2), rel=1e-15)


def test_gbm_drift_correction_is_half_sigma_squared():
    # mu = sigma^2/2 cancels the Ito correction: same seed, pure-noise steps
    corrected = ha.gbm_path(p0=1.0, mu=0.02, sigma=0.2, steps=10, seed=3)
    plain = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.2, steps=10, seed=3)
    for t, (a, b) in enumerate(zip(corrected.prices.tolist(), plain.prices.tolist())):
        assert a == pytest.approx(b * math.exp(0.02 * t), rel=1e-12)


def test_gbm_golden_digest():
    path = ha.gbm_path(p0=1.0, mu=0.0, sigma=0.1, steps=100, seed=42)
    assert len(path) == 100
    assert path.prices[0] == 1.0
    assert _digest(path) == GBM_DIGEST


def test_gbm_is_deterministic_per_seed():
    params = dict(p0=2.0, mu=0.01, sigma=0.3, steps=50)
    assert np.array_equal(ha.gbm_path(**params, seed=123).prices,
                          ha.gbm_path(**params, seed=123).prices)
    other = ha.gbm_path(**params, seed=124)
    assert not np.array_equal(other.prices, ha.gbm_path(**params, seed=123).prices)


def test_gbm_params_validation():
    good = dict(p0=1.0, mu=0.0, sigma=0.1, steps=10, seed=1)
    for bad, message in ((dict(p0=0.0), "p0 must be finite and > 0, got 0.0"),
                         (dict(p0=math.nan), "p0 must be finite and > 0, got nan"),
                         (dict(mu=math.inf), "mu must be finite, got inf"),
                         (dict(sigma=-0.1), "sigma must be finite and >= 0, got -0.1"),
                         (dict(steps=0), "steps must be an integer >= 1, got 0"),
                         (dict(steps=1.5), "steps must be an integer >= 1, got 1.5"),
                         (dict(steps=True), "steps must be an integer >= 1, got True"),
                         (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
                         (dict(seed=-1), "seed must be an integer >= 0, got -1"),
                         (dict(seed=True), "seed must be an integer >= 0, got True")):
        with pytest.raises(ha.DomainError) as exc_info:
            ha.gbm_path(**{**good, **bad})
        assert str(exc_info.value) == message


def test_path_validation():
    for prices in ([], [[1.0, 2.0]], [1.0, 0.0], [1.0, -1.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ha.DomainError):
            PricePath(prices)
    source = np.array([1.0, 2.0])
    path = PricePath(source)
    source[0] = 5.0                      # the path keeps its own copy
    assert path.prices.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        path.prices[0] = 3.0


def test_generate_path_rejects_bad_mappings():
    def config(path):
        return ha.ScenarioConfig.from_dict({"x0": 1.0, "y0": 1.0, "p0": 1.0,
                                            "z_values": [0.5], "steps": 4, "path": path})

    with pytest.raises(ha.ConfigError):
        config({"kind": "teleport"})
    with pytest.raises(ha.ConfigError):
        config({"kind": "constant", "bogus": 1})
    with pytest.raises(ha.ConfigError, match="missing required field 'seed'"):
        config({"kind": "gbm", "mu": 0.0, "sigma": 0.1})
    with pytest.raises(ha.ConfigError, match=r"path\.mu: expected float, got 'cheap'"):
        config({"kind": "gbm", "mu": "cheap", "sigma": 0.1, "seed": 1})
    # the start price is the top-level p0 alone
    for path in ({"kind": "constant", "price": 2.0}, {"kind": "constant", "p0": 2.0},
                 {"kind": "gbm", "p0": 2.0, "mu": 0.0, "sigma": 0.1, "seed": 1},
                 {"kind": "gbm", "price": 2.0, "mu": 0.0, "sigma": 0.1, "seed": 1}):
        field = "price" if "price" in path else "p0"
        with pytest.raises(ha.ConfigError, match=f"config.path: unknown field.s.: {field}$"):
            config(path)
    # steps is stated once, at the top level
    for kind in ({"kind": "constant"}, {"kind": "gbm", "mu": 0.0, "sigma": 0.1, "seed": 1}):
        with pytest.raises(ha.ConfigError, match="unknown field"):
            config({**kind, "steps": 4})


# -------------------------------------------------------------- pool updates


def test_update_fixed_point_keeps_anchor():
    state = ha.PoolState.anchored(1.3, 0.8, 2.0, 0.5)
    updated = ha.PoolState.anchored(state.x, state.y, 2.0, state.z)
    assert updated == state


def test_update_at_z0_is_identity():
    state = ha.PoolState.anchored(1.3, 0.8, 2.0, 0.0)
    updated = ha.PoolState.anchored(state.x, state.y, 7.0, state.z)
    assert (updated.x, updated.y, updated.k) == (state.x, state.y, state.k)
    assert updated.p == 7.0


def test_update_reanchors_half_mix_example():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    updated = ha.PoolState.anchored(state.x, state.y, 2.0, state.z)
    assert updated.k == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_update_rejects_bad_price():
    state = ha.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
    for p_new in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ha.DomainError):
            ha.PoolState.anchored(state.x, state.y, p_new, state.z)


@given(x=reserves, y=reserves, p0=prices, p1=prices, z=mixes)
def test_update_reserve_continuity_and_spot_jump(x, y, p0, p1, z):
    state = ha.PoolState.anchored(x, y, p0, z)
    updated = ha.PoolState.anchored(state.x, state.y, p1, state.z)
    assert (updated.x, updated.y, updated.z) == (x, y, z)
    jump = ha.spot_price(updated) - ha.spot_price(state)
    assert abs(jump - z * (p1 - p0)) <= 1e-12


# ----------------------------------------------------------------- CSV replay


def test_csv_round_trip_is_exact(tmp_path):
    path = ha.gbm_path(p0=1 / 3, mu=0.0, sigma=0.4, steps=20, seed=5)
    target = tmp_path / "path.csv"
    ha.dump_price_csv(path, target)
    replayed = ha.load_price_csv(target)
    assert np.array_equal(replayed.prices, path.prices)


def test_csv_format_shape(tmp_path):
    target = tmp_path / "path.csv"
    ha.dump_price_csv(PricePath([1 / 3, 2.0]), target)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,price"
    assert lines[1] == "0,0.33333333333333331"
    assert lines[2] == "1,2"


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    source = tmp_path / "prices.csv"
    cases = [
        ("", ":1:"),
        ("time,price\n0,1\n", ":1:"),
        ("step,price\n", ":2:"),
        ("step,price\n0,1,9\n", ":2:"),
        ("step,price\n0,cheap\n", ":2:"),
        ("step,price\n1,1\n", ":2:"),
        ("step,price\n0,1\n0,2\n", ":3:"),
        ("step,price\n0,1\n2,2\n", ":3:"),
        ("step,price\n0,1\n1,-2\n", ":3:"),
        ("step,price\n0,1\n1,inf\n", ":3:"),
        # a blank row is skipped, but still counts as a line
        ("step,price\n0,1\n\n2,2\n", ":4:"),
    ]
    for text, marker in cases:
        source.write_text(text, encoding="utf-8")
        with pytest.raises(ha.ConfigError) as exc_info:
            ha.load_price_csv(source)
        assert str(exc_info.value).startswith(f"{source}{marker}")
