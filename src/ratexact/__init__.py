"""Exactness testing for bivariate rational functions under mixed
operator pairs (shift or q-shift in x, derivative or shift in y), with
verified telescoping certificates."""

from .errors import (RatexactError, ZeroDenominator, ZeroPolynomial,
                     QModeMismatch, ExprSyntaxError)
from .qmodes import (QMode, plain, transcendental, rational,
                     root_of_unity, x, y, q)
from .core import BiPoly, RatFunc
from .factorization import Factorization, factor
from .orbits import (Operator, Pair, SHIFT_X, QSHIFT_X, DERIV_Y, SHIFT_Y,
                     SHIFT_X_DERIV_Y, QSHIFT_X_DERIV_Y, QSHIFT_X_SHIFT_Y,
                     ROU_DERIV_Y, ROU_SHIFT_Y, group_orbits,
                     shift_equivalent, sigma_equivalent, q_equivalent,
                     joint_equivalent)
from .residues import (PfdTerm, Decomposition, partial_fractions,
                       sigma_decomposition, residue_dy, residue_sigma)
from .reductions import (ReducedForm, hermite_reduce_y, abramov_reduce_y,
                         orbit_collapse, phi_dy_reduced_form,
                         tau_sigma_reduced_form, trace_xm,
                         tau_reduced_root_of_unity)
from .summation import SummabilityResult, abramov_summable_x, q_summable_x
from .deciders import (Decision, MixedDenominator, NonSummableResidue,
                       decide_exact, verify_certificate, brute_force_exact,
                       operator_pair)
from .parsing import parse_ratfunc
from .printing import canonical_str

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
