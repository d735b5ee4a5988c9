"""The benchmark's tracer (bench/spans.py) wraps ratexact's layers by
name; a rename in src/ that it does not follow breaks traced benchmark
runs.  One corpus line per operator pair runs untraced and traced, with
the same output."""

import importlib.util
from pathlib import Path

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
    # the untraced program is back in place
    assert ratexact.cli.run_corpus_line(LINES[0]) == untraced[0]
    assert ratexact.cli.run_corpus_line.__module__ == "ratexact.cli"
