"""A fixed reference kernel that tracks the speed of the machine right now.

The kernel does the two kinds of work freepd spends its time on:
reduced-word products in Python, then small dense Hermitian factorizations
and eigendecompositions through the same BLAS.  It shares no
code with freepd, so a change to freepd never changes its time.  Dividing a
round's or a set-up's time by the kernel's time measured right before and
after it cancels most of the slow and fast phases of a shared machine.
"""

import time

import numpy as np
import scipy.linalg

from inputs import ball_words
from oracle import mul

_WORDS = ball_words(4)[:120]
_RNG = np.random.default_rng(0)
_Z = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_SPD = _Z @ _Z.conj().T + 12.0 * np.eye(12)

# OpenBLAS worker threads spin for about 0.13 s after a parallel call
# before they sleep (measured after 60 x 60 and larger solves on a 2-vCPU
# x86-64 VM), and their spin is CPU time of this process that competes with
# whatever runs next.
SETTLE_POLL_S = 0.01
SETTLE_MAX_S = 0.5


def settle():
    """Wait until no other thread of this process is using the CPU.

    Called before every timed interval, so that no interval pays for the
    spin that an earlier round, oracle or kernel left behind.
    """
    deadline = time.perf_counter() + SETTLE_MAX_S
    while time.perf_counter() < deadline:
        cpu = time.process_time()
        time.sleep(SETTLE_POLL_S)
        if time.process_time() - cpu < 0.1 * SETTLE_POLL_S:
            return


def kernel():
    """Seconds taken by one pass of the reference kernel (20-50 ms on a 2-vCPU x86-64 VM)."""
    settle()
    start = time.perf_counter()
    for u in _WORDS:
        for v in _WORDS:
            mul(u, v)
    for _ in range(400):
        scipy.linalg.cholesky(_SPD, lower=True)
        scipy.linalg.eigh(_SPD)
    return time.perf_counter() - start
