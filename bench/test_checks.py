"""The benchmark's answer checks catch wrong answers.

Run with `python3 -m pytest bench/test_checks.py`.  The certificates are
written out by hand, so these tests do not need ratexact.
"""

import random

from checks import check_output
from workloads import Case

# [paper] 1/(xy) = tau(g) - g + sigma(h) - h with g = q/((1-q)xy), h = 0
PAPER = Case("dqx-sy", "symbolic", "1/(x*y)", "exact", "paper")
PAPER_OUT = {"outcome": "exact", "g": "(q)/(x*y - x*y*q)", "h": "0"}

# at q = zeta_3: f = tau(1/x) - 1/x + d/dy(-1/y)
ZETA3 = Case("dqx-dy", "zeta:3", "(1-q)/(q*x) + 1/y^2", "exact", "zeta")
ZETA3_OUT = {"outcome": "exact", "g": "1/x", "h": "(-1)/(y)"}


def _check(case, out):
    return check_output(case, out, random.Random(0))


def test_genuine_certificates_pass():
    assert _check(PAPER, PAPER_OUT) is None
    assert _check(ZETA3, ZETA3_OUT) is None


def test_tampered_certificate_is_reported():
    # + x changes dx(g); a constant or a function of y alone would not
    assert _check(PAPER, dict(PAPER_OUT, g=PAPER_OUT["g"] + " + x"))
    assert _check(ZETA3, dict(ZETA3_OUT, g="2/x"))
    assert _check(ZETA3, dict(ZETA3_OUT, h="(1)/(y)"))


def test_flipped_expected_answer_is_reported():
    flipped = Case(PAPER.pair, PAPER.qmode, PAPER.expr, "not-exact", "paper")
    assert _check(flipped, PAPER_OUT)
    miss = {"outcome": "not-exact", "witness": ["x*y", "1"]}
    assert _check(PAPER, miss)


def test_oracle_disagreement_is_reported():
    oracle = dict(PAPER_OUT, oracle=None)
    assert _check(PAPER, oracle)
    assert _check(PAPER, dict(PAPER_OUT, oracle=(PAPER_OUT["g"], "0")))\
        is None
    assert _check(PAPER, dict(PAPER_OUT, oracle=("1/(x*y)", "0")))
