"""A fixed pure-Python computation that gauges how fast the host runs
right now.

On a shared host the same interpreter code runs up to twice as fast in
one minute as in the next; CPU time follows wall time, so the process is
not waiting but running slower.  run.py times this reference between
samples and scales every time it reports by ``REFERENCE_S`` over the
reference time measured next to it, which reports each time as it
would read on a host that runs a reference pass in ``REFERENCE_S``.

The reference imports nothing from the package, so no change to the
package can move it.  It does what the package's hot loops do: sparse
polynomial products over dicts of integers, Fraction sums and sorting.
"""

import statistics
import time
from fractions import Fraction

# The scale of reported times: about the time of one reference pass on the
# host the benchmark was written on (2-core Xeon VM, Python 3.11).
REFERENCE_S = 0.05
PASSES = 8


def _polymul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = out.get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out


def _work():
    p = {0: 1}
    f = {-4: 1, 0: -1, 4: 1, 8: 1}
    for _ in range(60):
        p = _polymul(p, f)
        if len(p) > 120:
            p = {k: c % 1000003 for k, c in list(p.items())[:60]}
    s = Fraction(0)
    for n in range(1, 400):
        s += Fraction(n * n - 3, 2 * n + 1)
    sorted((k * 7919) % 10007 for k in range(20000))


def _one_pass():
    t0 = time.perf_counter()
    for _ in range(5):
        _work()
    return time.perf_counter() - t0


def measure():
    """The mean time of PASSES reference passes, in seconds.  A mean,
    not a median, because a sample's wall time also takes in every
    short stall of the host, in proportion to how long it lasts."""
    return statistics.fmean(_one_pass() for _ in range(PASSES))
