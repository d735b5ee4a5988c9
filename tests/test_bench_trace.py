"""The benchmark's tracer (bench/spans.py) wraps ratexact's layers by
name; a rename in src/ that it does not follow breaks traced benchmark
runs.  One corpus line per operator pair runs untraced and traced, with
the same output.  The benchmark's answer checks (bench/checks.py, which
never imports ratexact) also re-check the golden certificates of the
corpus and of tests/golden_qmodes.txt, and one round of its fuzz inputs
pins the factorizer calls they make."""

import importlib.util
import json
import random
import re
from pathlib import Path

from sympy.polys.rings import PolyElement

import ratexact.cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

LINES = (
    "dx-dy | none | 1/(x*(x+1)*y) + 1/(x*y) | not-exact",
    "dqx-dy | 2/3 | 1/(x*y) + 1/((x+y)*(y+1)^2) | not-exact",
    "dqx-sy | symbolic | 1/(x*y) + 1/(y*(y+1)) | exact",
    "dqx-dy | zeta:3 | x/y + 1/(x*y^2) | exact",
    "dqx-sy | zeta:3 | 1/(y*(y+1)) | exact",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_run_matches_untraced():
    untraced = [ratexact.cli.run_corpus_line(line) for line in LINES]
    assert all(ok for ok, _ in untraced)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        traced = [ratexact.cli.run_corpus_line(line) for line in LINES]
    finally:
        tracer.uninstall()
    assert traced == untraced
    totals = tracer.totals()
    assert totals["cli.corpus_line"][0] == len(LINES)
    assert totals["deciders.decide"][0] == len(LINES)
    # the three pairs with q not a root of unity go through a reduced form
    assert totals["reductions.reduced_form"][0] == 3
    assert totals["reductions.trace"][0] == 2
    # group_orbits tests a polynomial against the first member of each
    # orbit until one matches, and never a member a second time
    assert totals["orbits.equiv"][0] <= 6
    # the untraced program is back in place
    assert ratexact.cli.run_corpus_line(LINES[0]) == untraced[0]
    assert ratexact.cli.run_corpus_line.__module__ == "ratexact.cli"


RUN = SPANS.parent / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_setup_code_builds_the_rings_of_every_workload():
    # the benchmark's setup_s runs SETUP_CODE in a fresh process on the
    # q-modes of each workload; it builds QMode.poly_ring(), pair_ring()
    # and y_ring(), and the tracer wraps RatFunc.from_y by name
    import os
    import subprocess
    import sys

    import sympy as sp

    import ratexact
    from ratexact.qmodes import x, y
    run = _load_run()
    tokens = sorted({t for w in ("fuzz", "scaling", "root-of-unity",
                                 "oracle")
                     for t in run.workloads.qmodes_of(w)})
    specs = [run.qmode_spec(t) for t in tokens]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    res = subprocess.run([sys.executable, "-c", run.SETUP_CODE, *specs],
                         cwd=run.ROOT, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert float(res.stdout.split()[-1]) > 0
    e = y ** 2 * x / (x + 1) + y / 2 - sp.Rational(3, 4)
    for t in tokens:
        mode = run.qmode(ratexact, t)
        assert mode.poly_ring() == mode.pair_ring()
        Y = mode.y_ring().from_expr(e)
        assert ratexact.RatFunc.from_y(Y, mode) == ratexact.RatFunc(e, mode)
    assert "RatFunc.from_y" in _load_spans().LAYERS["core.arith"][1]


def _golden_qmodes_exact():
    """(pair, expression, JSON output, line number) of each exact `decide`
    line of tests/golden_qmodes.txt."""
    text = (Path(__file__).resolve().parent / "golden_qmodes.txt").read_text()
    lines = text.splitlines()
    for n, (cmd, out) in enumerate(zip(lines, lines[1:]), 2):
        m = re.match(r"\$ ratexact decide --pair (\S+) .* --expr (.*) --json$",
                     cmd)
        if m and '"exact": true' in out:
            yield m.group(1), m.group(2), json.loads(out[len("[0] "):]), n


def test_golden_certificates_hold_apart_from_ratexact():
    # each exact (g, h) of corpus/expected.json and of the `decide` lines
    # of tests/golden_qmodes.txt is read back with sympy alone, and
    # dx(g) + dy(h) - f is evaluated exactly at seeded points
    run = _load_run()
    corpus = run.ROOT / "corpus"
    lines = (corpus / "cases.txt").read_text().splitlines()
    golden = json.loads((corpus / "expected.json").read_text())
    cases = []
    for out in golden:
        if out.get("exact"):
            pair, _, expr = (t.strip() for t in lines[out["line"] - 1]
                             .split("|")[:3])
            assert expr == out["input"]
            cases.append((pair, expr, out, out["line"]))
    assert len(cases) >= 10
    qmodes = list(_golden_qmodes_exact())
    assert sorted(out["qmode"] for _, _, out, _ in qmodes) == [
        "3/2", "symbolic", "zeta:3"]
    for pair, expr, out, seed in cases + qmodes:
        f, g, h = (run.checks.parse(t) for t in (expr, out["g"], out["h"]))
        assert run.checks.identity_holds(pair, out["qmode"], f, g, h,
                                         random.Random(seed)) is None, expr


def test_fuzz_round_never_reaches_the_factorizer(monkeypatch):
    # every squarefree piece of a fuzz denominator is a product of
    # factors linear in y, which factorization._linear_split finds
    run = _load_run()
    calls = []
    whole = PolyElement.factor_list
    monkeypatch.setattr(PolyElement, "factor_list",
                        lambda self: calls.append(self) or whole(self))
    for case in run.workloads.round_cases("fuzz", 2026, 0):
        ok, out = ratexact.cli.run_corpus_line(case.line)
        assert ok and out["outcome"] == case.expected, out
    assert calls == []
