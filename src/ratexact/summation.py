"""Univariate rational summability in x with certificates.

The shift case runs the y-direction Abramov reduction on the variable-
swapped input; the q-shift case is handled directly: powers of x are
certified by the scalar identity delta_q(c x^j / (q^j - 1)) = c x^j (the
constant term being the sole obstruction there), all other denominators by
q-orbit collapse and vanishing of the aligned residue sums.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import BiPoly, RatFunc, is_difference, tree_sum
from .errors import QModeMismatch, RatexactError
from .orbits import QSHIFT_X, SHIFT_Y
from .qmodes import RATIONAL, TRANSCENDENTAL, y
from .reductions import abramov_reduce_y, orbit_collapse
from .residues import partial_fractions


@dataclass(frozen=True)
class SummabilityResult:
    summable: bool
    certificate: Optional[RatFunc] = None
    obstruction: Tuple = ()


def abramov_summable_x(f: RatFunc) -> SummabilityResult:
    """Decide f = g(x+1) - g(x) for rational f of x; the certificate or
    the nonzero orbit residues are returned."""
    if not f.free_of(y):
        raise ValueError("input must be univariate in x")
    h, terms = _swapped_reduction(f)
    if not terms:
        if not is_difference(h, h.shift_x(1), f):  # pragma: no cover
            raise RatexactError("summation certificate failed to verify")
        return SummabilityResult(True, h)
    obstruction = tuple((t.den.swap_xy(), t.j, t.num.swap_xy())
                        for t in terms)
    return SummabilityResult(False, None, obstruction)


def _swapped_reduction(f):
    h, terms = abramov_reduce_y(f.swap_xy())
    return h.swap_xy(), terms


def q_summable_x(f: RatFunc) -> SummabilityResult:
    """Decide f = g(qx) - g(x) for rational f of x, q not a root of
    unity."""
    mode = f.mode
    if mode.kind not in (TRANSCENDENTAL, RATIONAL):
        raise QModeMismatch("q-summability requires q not a root of unity")
    if not f.free_of(y):
        raise ValueError("input must be univariate in x")
    qv = mode.q_element()
    ring = mode.pair_ring()
    xf = RatFunc.from_ring(ring.gens[1], ring.one, mode)

    def power(j):
        # delta_q(x^j / (q^j - 1)) = x^j
        return (xf ** j).mul_ground(1 / (qv ** j - 1))

    # reuse the y-direction partial fraction machinery on swapped input
    dec = partial_fractions(f.swap_xy())
    parts = []  # the terms of the certificate g
    obstruction = []
    # Laurent part: polynomial in x plus poles at x = 0
    N = dec.poly_part.numer
    for j in sorted({m[0] for m in N.itermonoms()}):
        c = RatFunc.from_ring(N.coeff_wrt(0, j), dec.poly_part.denom, mode)
        if j == 0:
            obstruction.append((BiPoly.ground(1, mode), 0, c))
        else:
            parts.append(c * power(j))
    orbit_terms = []
    for t in dec.terms:
        d, a = t.den.swap_xy(), t.num.swap_xy()
        if d == xf.num:
            parts.append(a * power(-t.j))
        else:
            orbit_terms.append((a, d, t.j))
    # collapse the remaining denominators onto their tau-orbits
    for rep, members in QSHIFT_X.orbits(d for _, d, _ in orbit_terms):
        buckets = {}
        for a, d, j in orbit_terms:
            if d not in members:
                continue
            m, scale = members[d]
            u, _, collapsed = orbit_collapse(a.mul_ground(scale ** j), rep,
                                             j, m, 0, QSHIFT_X, SHIFT_Y)
            parts.append(u)
            buckets.setdefault(j, []).append(collapsed.num)
        for j, res in sorted(buckets.items()):
            res = tree_sum(res, mode)
            if not res.is_zero:
                obstruction.append((rep, j, res))
    if obstruction:
        return SummabilityResult(False, None, tuple(obstruction))
    g = tree_sum(parts, mode)
    if not is_difference(g, g.qshift_x(1), f):  # pragma: no cover
        raise RatexactError("q-summation certificate failed to verify")
    return SummabilityResult(True, g)
