"""A fixed reference computation that measures how fast the core is right now.

This host shares its cores with other machines' work, and the time of the
same computation moves by a third from minute to minute.  The benchmark runs
``probe()`` just before every op, on the same core, and reports op and round
times as multiples of the probe's time.  Both slow down together when the
core is contended, so the ratio stays put while raw times drift; a change to
the program moves the op time and not the probe, so the ratio shows it.

The probe mixes what the ops do: an interpreted loop and small LAPACK
calls (a symmetric eigensolve and a least-squares fit), on inputs fixed
here and independent of any workload seed.  It takes about 4 ms on an
uncontended core.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((60, 60))
_A = _A @ _A.T
_X = _rng.standard_normal((200, 8))
_Y = _rng.standard_normal(200)


def probe() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i
    for _ in range(20):
        np.linalg.eigvalsh(_A)
        np.linalg.lstsq(_X, _Y, rcond=None)
    return time.perf_counter() - t0
