"""A clock that factors out how fast the host runs at the moment.

On a shared host the same code runs at very different speeds from one second
to the next, and CPU time slows down with wall time, so neither raw medians
nor minima of repeated timings repeat from one process to the next.  Each
repetition is therefore timed against a fixed reference computation run just
before and just after it, and reported in reference seconds: its raw time
scaled by REF_SECONDS over the reference's measured time.  A reference is
defined to take REF_SECONDS; on the development host each takes about that
when the host is uncontended, so reference seconds read close to wall-clock
seconds there.

Contention slows interpreted code more than linear algebra, so a workload is
timed against the reference whose mix of work resembles its own:

- ``interpreter``: Python arithmetic, small-array numpy calls and math.comb,
  the mix of the closed-form kernels, the grid driver and CSV formatting;
- ``linear-algebra``: dense Hermitian eigendecompositions, vectorised
  arithmetic and sort/scatter index work, plus a sixth of interpreted work and
  a tenth of page faults on fresh memory, the mix of the Fock oracle.

Neither uses storedlight or scipy, so neither changes when the program does,
and neither imports a module the program might load lazily.
"""

from __future__ import annotations

import math
import mmap
import time

import numpy as np

REF_SECONDS = 0.010

_RNG = np.random.default_rng(20071015)
_VECTOR = np.linspace(0.0, 1.0, 16384)
_HERMITIAN = _RNG.normal(size=(120, 120))
_HERMITIAN = _HERMITIAN + _HERMITIAN.T
_LONG = _RNG.normal(size=260_000)
_INDEX = _RNG.integers(0, 6561, 30_000)
_WEIGHT = _RNG.normal(size=30_000)


def _interpreted(loops: int) -> float:
    acc = 0j
    for k in range(loops):
        w = complex(math.cos(k * 1e-3), math.sin(k * 1e-3))
        powers = np.cumprod(np.full(12, w))
        acc += complex(powers.sum()) * math.comb(12, k % 13)
    return abs(acc)


def interpreter_work() -> float:
    acc = _interpreted(1500)
    for k in range(14):
        acc += float(np.sum(np.cos(_VECTOR * (k + 1)) * _VECTOR))
    return acc


def linear_algebra_work() -> float:
    # about a sixth of the time is interpreted, like the scipy.sparse set-up
    # and dataclass validation around the oracle's linear algebra, and a tenth
    # is page faults on fresh memory, as the oracle's large sparse temporaries
    # cost in system time
    acc = _interpreted(170)
    fresh = mmap.mmap(-1, 512 * mmap.PAGESIZE)
    fresh[::mmap.PAGESIZE] = b"\x01" * 512
    fresh.close()
    acc += float(np.linalg.eigh(_HERMITIAN)[0][0])
    acc += float(np.sum(np.sqrt(_LONG * _LONG + 1.0)))
    order = np.argsort(_INDEX, kind="stable")
    acc += float(np.bincount(_INDEX[order], _WEIGHT[order], minlength=6561)[0])
    acc += float(np.cumsum(_WEIGHT[order])[-1])
    return acc


REFERENCES = {"interpreter": interpreter_work, "linear-algebra": linear_algebra_work}


def time_reference(name: str) -> float:
    work = REFERENCES[name]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class ReferenceClock:
    """Converts raw repetition times to reference seconds.  Call ``scale``
    right after each repetition; the reference runs then, and the mean of the
    runs on either side of the repetition sets its scale."""

    def __init__(self, name: str):
        self._name = name
        self._before = time_reference(name)

    def scale(self, raw_seconds: float) -> float:
        after = time_reference(self._name)
        reference = 0.5 * (self._before + after)
        self._before = after
        return raw_seconds * REF_SECONDS / reference
