"""Calibration kernels: fixed computations that run no ultraflow code.

On a shared 2-vCPU x86 machine this process's speed swings by up to 1.6x
between states that last seconds to minutes, and different kinds of work
slow down by different amounts: interpreter-bound Python and small
cache-resident numpy calls by up to 1.6x, large memory-bound matvecs much
less.  Each workload is therefore timed against a kernel made of the kinds
of work it does itself (``WORKLOAD_KERNELS``), which cancels most of the
swing: over 5 minutes in 15 s windows, single commands of each workload
went from a 17-43% spread of the window medians (raw) to 3-8% (ratio), and
whole runs over seeds from about 20% (raw) to 8-15% (ratio).
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(0)
_SYNTH = _rng.standard_normal((256, 128))
_PROJECT = _rng.standard_normal((128, 256))
_LARGE = _rng.standard_normal((1024, 1024))
_X = _rng.standard_normal(128)
_XL = _rng.standard_normal(1024)


def interpreter():
    """Dictionary updates and integer arithmetic in a Python loop."""
    counts = {}
    for i in range(50_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted(counts.items())


def small_numpy():
    """A pseudospectral-style loop: small matvecs and elementwise powers."""
    c = _X
    for _ in range(300):
        vals = _SYNTH @ c
        c = _PROJECT @ (np.abs(vals) ** 1.3 / (vals * vals + 1.0))
        c = c / (1.0 + np.abs(c).max())


def large_matvec():
    """Compute- and memory-bound 1024 x 1024 matvecs."""
    for _ in range(15):
        _LARGE @ _XL


# stepping: Python-level step control around small matvecs; analysis: large
# transforms and quadrature builds; sweep: scalar closed forms and descent
WORKLOAD_KERNELS = {
    "stepping": (small_numpy, interpreter),
    "analysis": (small_numpy, large_matvec),
    "sweep": (small_numpy, interpreter),
}


def kernel_for(workload: str):
    """The calibration kernel of ``workload``: its parts run back to back."""
    parts = WORKLOAD_KERNELS[workload]

    def kernel():
        for part in parts:
            part()

    return kernel
