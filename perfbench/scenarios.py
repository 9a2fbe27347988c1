"""Scenario configs of the two `hybridamm simulate` workloads, built from a seed.

Both the benchmark and `make_reference.py` build configs here, so the stored
final-row references and the measured runs always describe the same inputs.
"""

# Scenarios 0 .. REFERENCE_SEEDS-1 have stored references.  A run of seed s
# simulates SCENARIOS_PER_RUN of them, in turn: how much work a short
# simulation does depends on its scenario (when the z = 1 pool drains, how
# many trades invert the curve), and a run that sums over a few scenarios
# varies less from seed to seed than one scenario does.
REFERENCE_SEEDS = 128
SCENARIOS_PER_RUN = 8

# sim-noise: kernel-heavy. The z = 1 pool has no arbitrage and drains under
# SELL_Y noise, and the benchmark reports that rather than avoiding it.
NOISE_Z = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# sim-arb-json: a cheap kernel with many pools, so output dominates.
ARB_Z = tuple(i / 20 for i in range(20))

# A request is one simulation of `steps` steps.  They are short (about 40 ms
# each) so that a run holds hundreds of them: on a shared host the fastest of
# many short requests is a far steadier figure than the fastest of a few long
# ones.  At 100 steps the z = 1 pool already skips about half of its trades.
SIM_WORKLOADS = {
    "sim-noise": {"format": "csv", "z_values": NOISE_Z, "noise": True, "steps": 100},
    "sim-arb-json": {"format": "json", "z_values": ARB_Z, "noise": False, "steps": 40},
}


def scenario_seeds(seed):
    """The scenarios a run of this benchmark seed simulates."""
    return [(SCENARIOS_PER_RUN * seed + i) % REFERENCE_SEEDS for i in range(SCENARIOS_PER_RUN)]


def scenario(workload, ref):
    """JSON-ready config of scenario `ref` for `hybridamm simulate`."""
    spec = SIM_WORKLOADS[workload]
    config = {
        "x0": 1000.0,
        "y0": 1000.0,
        "p0": 1.0,
        "z_values": list(spec["z_values"]),
        "steps": spec["steps"],
        "path": {"kind": "gbm", "mu": 0.0, "sigma": 0.01, "seed": 1000 + ref},
        "arbitrageur": True,
    }
    if spec["noise"]:
        config["noise"] = {"size_mu": -4.0, "size_sigma": 1.0, "seed": 2000 + ref,
                           "max_fraction": 0.25, "trades_per_step": 2}
    return config
