"""Golden bytes of `--json` outputs over Q(q), over Q with q = 3/2 and
over Q(zeta_3).

The corpus holds few symbolic-q lines, so factor order, units and
witnesses over Q(q) are pinned here: `factor`, `residue --kind dy|sy` and
`decide` on inputs with several non-exact terms, factors with q-content
and q-leading coefficients.  At q = zeta_3 the same commands pin the
printer's lift of Q(zeta_3) to integer coefficients in y, x and q.
Regenerate the golden file, only for a
change that means to move these bytes, with

    PYTHONPATH=src python tests/test_golden_qmodes.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

from ratexact.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_qmodes.txt"

POLYS = [
    "(q*x*y - 1)*(x + q*y)*(q^2*x - 1)",
    "(q^2 - 1)*(x*y + q)*(x - q)^2",
    "(x + q*y)^2*(q*x - y)*(q*x*y + 1)",
    "q*(2*q*x - 3*y)*(y^2 + q*x)*(x + 1)^2",
]

# (kind, --at, --mult, expression)
RESIDUES = [
    ("dy", "x + q*y", 1, "1/((q*x*y - 1)*(x + q*y)) + x/(x + q*y)^2"),
    ("dy", "q*x*y - 1", 1, "1/((q*x*y - 1)*(x + q*y)) + x/(x + q*y)^2"),
    ("dy", "y^2 + q*x", 1, "(x + y)/((y^2 + q*x)*(q^2*x - 1))"),
    ("sy", "x + q*y", 1,
     "1/((x + q*y)*(x + q*y + q)) + 1/((q*x*y - 1)*(x + q*y + 2*q))"),
    ("sy", "q*x - y", 2, "x/(q*x - y)^2 - q/(q*x - y - 3)^2 + 1/(x*y)"),
]

# (pair, expression)
DECISIONS = [
    ("dqx-dy", "1/((x - 1)*y) + 1/((q*x - 1)*(y + 1)) + 1/(q*x*y - 1)"),
    ("dqx-dy", "1/((q^2*x - 1)*(y + q)) - q/((x - 1)*(y + q))"),
    ("dqx-sy", "1/((x + 1)*y) + x/((q*x + 1)*(y + 1)) + 1/(x*y + q)"),
    ("dqx-sy", "1/((q*x - 1)*y) - 1/((x - 1)*(y + 1))"),
    ("dx-dy", "1/((x + q)*y) + 1/((x + q + 1)*(q*y + 1))"),
    ("dqx-dy", "1/((q*x*y - 1)*(x + q*y)) + 1/((q^2*x + 1)*(q*y + x))^2"),
]

QMODES = [["--q-symbolic"], ["--q", "3/2"], ["--root-of-unity", "3"]]


def commands():
    for flags in QMODES:
        for p in POLYS:
            yield ["factor", *flags, "--expr", p, "--json"]
        for kind, at, mult, e in RESIDUES:
            yield ["residue", "--kind", kind, "--at", at, "--mult", str(mult),
                   *flags, "--expr", e, "--json"]
        for pair, e in DECISIONS:
            yield ["decide", "--pair", pair, *flags, "--expr", e, "--json"]


def render():
    """Each command line, then its exit code and its output."""
    out = []
    for argv in commands():
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(argv)
        out.append("$ ratexact %s\n[%d] %s%s" % (" ".join(argv), code,
                                                 buf.getvalue(),
                                                 err.getvalue()))
    return "".join(out)


def test_golden_qmode_outputs():
    assert render().encode() == GOLDEN.read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(render())
