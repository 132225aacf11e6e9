"""Host speed, read from a fixed kernel run between timed operations.

The hosts this benchmark runs on are small shared guests whose speed
switches between states about 1.45x apart within seconds and drifts over
minutes, for interpreter and NumPy work alike and for CPU time as much as
for wall time.  A run of 30 s cannot average that out, so ten runs of the
same code spread by 15-40% (IQR over median).

So every timed operation is bracketed, outside its timed interval, by a
few runs of ``Kernel``: a fixed amount of interpreter work and of complex
tensor contraction, neither of which touches ``repeatersim``.  The host
switches between speed states within seconds, while kernel runs a few
milliseconds apart agree within about 5%, so an operation's host speed is
the median of the kernel times just before and just after it.  Times are
reported at reference speed: an operation's raw time is scaled by
``REF_S`` over that median.  A slow host phase stretches the operation and
the kernel alike and cancels; a change to the program moves only the
operation.  The raw times are printed and recorded beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# median seconds of one ``kernel`` call on a 2-vCPU KVM guest (x86_64,
# Python 3.11, NumPy with OpenBLAS pinned to one thread)
REF_S = 3.2e-3
PY_ITERATIONS = 12_000
CONTRACTIONS = 3


class Kernel:
    """The fixed work; its operands are made once, from a fixed seed."""

    def __init__(self):
        import numpy as np  # not at import: BLAS threads are pinned before NumPy loads

        self.tensordot = np.tensordot
        rng = np.random.default_rng(0)
        self.a = rng.random((81, 81)) + 1j * rng.random((81, 81))
        self.b = rng.random((81, 81, 9)) + 1j * rng.random((81, 81, 9))

    def __call__(self):
        acc = 0
        for i in range(PY_ITERATIONS):
            acc += i * i % 7
        for _ in range(CONTRACTIONS):
            self.tensordot(self.a, self.b, axes=(1, 0))
        return acc

    def samples(self, reps):
        """Seconds taken by each of ``reps`` kernel calls."""
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self()
            out.append(time.perf_counter() - t0)
        return out


def scale(kernel_times):
    """Factor taking raw times measured alongside ``kernel_times`` to
    reference speed."""
    return REF_S / statistics.median(kernel_times)
