"""A machine-speed probe.

The host this benchmark was written on shares its cores with other
tenants.  Its speed moves between phases that last tens of seconds; in a
fast phase the same operation takes two thirds of its usual time.  The
probe times a fixed pure-Python computation: a sum of 300 Fractions,
whose growing denominators make it the kind of work sympy's pure-Python
rationals and integers do inside the program.  The benchmark runs it after
every operation and scales the run's times by REFERENCE_S over the probe
time, averaged over the run with each operation's weight its own time
(run.py, `Runner.scale`).  The probe imports only the standard library,
so no change to the program or to sympy can change it.

Of the probes tried against the same operations, this one tracked them
best.  The product of two dense integer polynomials held as dicts (the
earlier probe) and a Fraction polynomial product followed the phases less
closely; with them the spread of 15-second blocks of operations was two to
three times as wide.
"""

import time
from fractions import Fraction

REFERENCE_S = 1.5e-3


def probe():
    """Seconds taken by the fixed computation, now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i * i + 1)
    return time.perf_counter() - t0
