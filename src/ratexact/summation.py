"""Univariate rational summability in x with certificates: a library
front end that the decision path does not use.

Both x-operators, the shift and the q-shift (q not a root of unity),
are decided by the one Abramov reduction of ``reductions.abramov_reduce``:
f is summable iff the reduction leaves no term, and then its g is the
certificate, re-verified here, as no later check covers it.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import RatFunc, is_difference
from .errors import RatexactError
from .orbits import QSHIFT_X, SHIFT_X
from .qmodes import y
from .reductions import abramov_reduce


@dataclass(frozen=True)
class SummabilityResult:
    summable: bool
    certificate: Optional[RatFunc] = None
    obstruction: Tuple = ()


def summable(f: RatFunc, op) -> SummabilityResult:
    """Decide f = op(g) - g for op = SHIFT_X or QSHIFT_X and f rational
    in x over k(y); the certificate g, or the obstruction (d, j, a) of
    each term a/d^j the reduction leaves."""
    g, terms = abramov_reduce(f, op)
    if terms:
        return SummabilityResult(False, None,
                                 tuple((t.den, t.j, t.num) for t in terms))
    if not is_difference(g, op.pow(g, 1), f):  # pragma: no cover
        raise RatexactError("summation certificate failed to verify")
    return SummabilityResult(True, g)


def _univariate(f):
    if not f.free_of(y):
        raise ValueError("input must be univariate in x")
    return f


def abramov_summable_x(f: RatFunc) -> SummabilityResult:
    """Decide f = g(x+1) - g(x) for rational f of x; the certificate or
    the nonzero orbit residues are returned."""
    return summable(_univariate(f), SHIFT_X)


def q_summable_x(f: RatFunc) -> SummabilityResult:
    """Decide f = g(qx) - g(x) for rational f of x, q not a root of
    unity."""
    return summable(_univariate(f), QSHIFT_X)
