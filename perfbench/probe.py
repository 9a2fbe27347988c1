"""Set-up probe: a fresh interpreter's `import hybridamm` plus one warm-up call per kernel path.

    python3 perfbench/probe.py

With numba the warm-up is where kernels compile or load from cache; on the
pure backend it costs microseconds.  Prints one JSON object: the set-up time
measured inside this process and the environment it ran in.
"""

import json
import platform
from time import perf_counter

started = perf_counter()

import numpy as np  # noqa: E402

import hybridamm  # noqa: E402
from hybridamm import TradeDirection, _kernels  # noqa: E402

state = hybridamm.PoolState.anchored(1.0, 1.0, 1.0, 0.5)
hybridamm.swap_exact_in(state, TradeDirection.SELL_X, 0.1)
hybridamm.swap_exact_in(state, TradeDirection.SELL_Y, 0.1)
hybridamm.swap_exact_out(state, TradeDirection.SELL_X, 0.1)
_kernels.run_steps(1.0, 1.0, 0.5, np.ones(2), True, np.full(2, 0.01),
                   np.array([0, 1], dtype=np.int8), 1, 0.25)
setup_s = perf_counter() - started

try:
    import numba  # noqa: F401
    numba_importable = True
except ImportError:
    numba_importable = False

print(json.dumps({
    "setup_s": setup_s,
    "backend": "numba" if _kernels.NUMBA_ENABLED else "pure",
    "numba_importable": numba_importable,
    "python": platform.python_version(),
    "numpy": np.__version__,
    "hybridamm": hybridamm.__version__,
    "module": hybridamm.__file__,
}))
