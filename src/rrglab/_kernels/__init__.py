"""Backend selection for the switching-chain inner loop.

Prefers the compiled Cython kernel; falls back to the pure-Python
implementation when the extension is unavailable or when the environment
variable ``RRGLAB_PURE_PYTHON`` is set (useful for benchmarking and for
verifying that both backends produce identical trajectories).
"""

import os

if os.environ.get("RRGLAB_PURE_PYTHON"):
    from . import chain_py as _impl
else:
    try:
        from . import _chain_cy as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import chain_py as _impl

BACKEND = _impl.BACKEND
run_switch_steps = _impl.run_switch_steps

__all__ = ["BACKEND", "run_switch_steps"]
