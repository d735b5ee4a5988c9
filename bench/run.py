"""ratexact benchmark: seeded workloads through the public API, with
answers checked apart from the program.

    python3 bench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run instead, and the spans go to bench/out/.  README.md describes
the workloads and the metrics.
"""

import argparse
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, probe  # noqa: E402

SETUP_REPEATS = 5
PROBE_SHARE = 0.1

# In a fresh process: import ratexact and build the rings of the q-modes
# given as `constructor:argument`; print the seconds taken.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import ratexact
for spec in sys.argv[1:]:
    name, _, arg = spec.partition(":")
    mode = getattr(ratexact, name)(*([arg] if arg else []))
    mode.poly_ring(); mode.pair_ring(); mode.y_ring()
print(time.perf_counter() - t0)
"""

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ops_per_s": "1/s", "cert_bytes": "bytes", "peak_rss_mb": "MB"}


def qmode_spec(token):
    """`constructor:argument` of the public QMode constructor for a corpus
    q-mode token."""
    if token == "none":
        return "plain:"
    if token == "symbolic":
        return "transcendental:"
    if token.startswith("zeta:"):
        return "root_of_unity:" + token[5:]
    return "rational:" + token


def qmode(rx, token):
    name, _, arg = qmode_spec(token).partition(":")
    return getattr(rx, name)(*([arg] if arg else []))


def measure_setup(qmodes):
    """Median over fresh processes of the time to import ratexact and
    build the rings of the given q-modes, each scaled by the probes run
    right after it (see `Speed`)."""
    times = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    specs = [qmode_spec(t) for t in qmodes]
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, *specs],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        dt = float(res.stdout.split()[-1])
        speed = Speed()
        speed.after(dt)
        times.append(speed.scale() * dt)
    return statistics.median(times)


def probes(seconds):
    """Probe times, from probes run back to back for about `seconds`."""
    out = [probe()]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        out.append(probe())
    return out


class Speed:
    """The machine's speed over a run, from probes run after each timed
    piece of work for PROBE_SHARE of its time (at least one)."""

    def __init__(self):
        self.samples = []   # (seconds of work, median probe time after it)

    def after(self, dt):
        self.samples.append((dt, statistics.median(probes(PROBE_SHARE * dt))))

    def scale(self):
        """The factor that turns the run's wall times into times on a
        machine where the probe takes REFERENCE_S: REFERENCE_S over the
        mean probe time, each piece of work weighted by its own time.  The
        host moves between fast and slow phases; the weighted mean counts
        each phase as much as the work done in it.  The median probe time
        picked one phase, and a factor per operation carried the probes'
        own noise into long operations; both spread wider."""
        work = sum(dt for dt, _ in self.samples)
        return REFERENCE_S * work / sum(dt * p for dt, p in self.samples)


def import_ratexact():
    sys.path.insert(0, str(SRC))
    import ratexact
    import ratexact.cli  # noqa: F401  (run_corpus_line)
    if Path(ratexact.__file__).resolve().parent != SRC / "ratexact":
        raise SystemExit("ratexact imported from %s, not from %s"
                         % (ratexact.__file__, SRC))
    return ratexact


class Runner:
    """Runs operations through the public API; looks every name up at call
    time, so that a traced pass sees the wrappers."""

    def __init__(self, rx, oracle):
        self.rx, self.oracle = rx, oracle
        self.speed = Speed()

    def op(self, case):
        """One operation: returns its output, or raises."""
        rx = self.rx
        ok, detail = rx.cli.run_corpus_line(case.line)
        if detail["outcome"] == "error":
            raise RuntimeError(detail["message"])
        out = {"ok": ok, "outcome": detail["outcome"]}
        if detail["exact"]:
            out["g"], out["h"] = detail["g"], detail["h"]
        else:
            w = detail["witness"]
            out["witness"] = [w["den"], w.get("residue", "")]
        if self.oracle:
            mode = qmode(rx, case.qmode)
            f = rx.parse_ratfunc(case.expr, mode)
            found = rx.brute_force_exact(f, rx.operator_pair(case.pair, mode))
            out["oracle"] = None if found is None else \
                tuple(rx.canonical_str(v) for v in found)
        return out

    def timed(self, case):
        """(wall seconds, output or None, error or None).  Probes run
        after the operation for PROBE_SHARE of its time (at least one)."""
        t0 = time.perf_counter()
        out = err = None
        try:
            out = self.op(case)
        except Exception as exc:  # a failed operation; the run goes on
            err = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        self.speed.after(dt)
        return dt, out, err

    def warm_up(self, cases):
        """One tiny decision per pair and q-mode, untimed, so that one-off
        lazy imports inside sympy stay out of the timings."""
        seen = set()
        for c in cases:
            if (c.pair, c.qmode) in seen or c is workloads.SCALING_KNOWN_FAULT:
                continue
            seen.add((c.pair, c.qmode))
            self.rx.cli.run_corpus_line("%s | %s | x/y | exact"
                                        % (c.pair, c.qmode))
        if self.oracle:
            mode = self.rx.plain()
            self.rx.brute_force_exact(self.rx.parse_ratfunc("1/y^2", mode),
                                      self.rx.operator_pair("dx-dy", mode))


def printed(out):
    """The printed certificates and witnesses of one output."""
    parts = [out["g"], out["h"]] if "g" in out else list(out["witness"])
    if out.get("oracle"):
        parts += list(out["oracle"])
    return parts


def cert_terms_bits(texts):
    """(terms, largest coefficient in bits) of printed rational functions."""
    terms, bits = 0, 0
    for t in texts:
        for part in t.split(")/("):
            terms += 1 + part.count(" + ") + part.count(" - ")
        for lit in re.findall(r"(?<![\^\d])\d+", t):
            bits = max(bits, int(lit).bit_length())
    return terms, bits


def run(workload, seed, seconds, trace):
    rx = import_ratexact()
    runner = Runner(rx, oracle=workload == "oracle")
    runner.warm_up(workloads.round_cases(workload, seed, 0))
    tracer = spans.Tracer() if trace else None

    check_rng = random.Random("check:%s:%d" % (workload, seed))
    times, op_time, attempted, failed, errors = [], 0.0, 0, 0, []
    cert_bytes = 0
    traced_time = untraced_time = 0.0
    traced_speed = Speed()
    traced_terms, traced_bits = 0, 0
    rounds, round_times = 0, []
    t_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        cases = workloads.round_cases(workload, seed, rounds)
        # A traced run runs each round twice, traced and untraced, first
        # one and then the other in turns: the second pass over the same
        # inputs finds warmer caches, which would hide the overhead.
        traced = None
        if tracer is not None and rounds % 2:
            traced = traced_pass(runner, tracer, cases, traced_speed)
        results = [runner.timed(case) for case in cases]
        if tracer is not None and traced is None:
            traced = traced_pass(runner, tracer, cases, traced_speed)
        round_times.append(sum(dt for dt, _, _ in results))
        for case, (dt, out, err) in zip(cases, results):
            attempted += 1
            op_time += dt
            if err is not None:
                failed += 1
                print("failed: %s: %s" % (case.family, err), file=sys.stderr)
                continue
            times.append(dt)
            cert_bytes += sum(map(len, printed(out)))
            msg = checks.check_output(case, out, check_rng)
            if msg is None and not out["ok"]:
                msg = "run_corpus_line reported a mismatch"
            if msg:
                errors.append("%s: %s: %s"
                              % (case.family, case.line[:200], msg))
        if traced is not None:
            untraced_time += sum(dt for dt, _, _ in results)
            for case, (_, out, err), (dt2, out2, err2) in zip(
                    cases, results, traced):
                traced_time += dt2
                if (out2, err2 is None) != (out, err is None):
                    errors.append("%s: traced output differs" % case.family)
                if out2 is not None:
                    terms, bits = cert_terms_bits(printed(out2))
                    traced_terms += terms
                    traced_bits = max(traced_bits, bits)
        rounds += 1

    for e in errors:
        print("incorrect: " + e, file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed}
    scale = runner.speed.scale()
    print("rounds %d, operation time %.3f s (%s), scale %.4f"
          % (rounds, op_time, " ".join("%.2f" % t for t in round_times),
             scale), file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": measure_setup(workloads.qmodes_of(workload)),
            "op_p50_ms": 1e3 * scale * statistics.median(times),
            "op_p90_ms": 1e3 * scale * statistics.quantiles(times, n=10)[-1],
            "ops_per_s": len(times) / (scale * op_time),
            "cert_bytes": cert_bytes / rounds,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                             for k, v in metrics.items()}
    else:
        traced_scale = traced_speed.scale()
        result["metrics"] = layer_metrics(
            tracer, rounds, traced_scale, traced_terms, traced_bits,
            traced_scale * traced_time / (scale * untraced_time))
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / ("spans-%s-%d.json" % (workload, seed)))
    return result


def traced_pass(runner, tracer, cases, speed):
    """The round's operations with the wrappers on: [(seconds, output,
    error)].  Their probes go to `speed`, so that traced and untraced
    passes are each scaled by the machine's speed while they ran."""
    untraced_speed, runner.speed = runner.speed, speed
    tracer.install()
    try:
        out = []
        for case in cases:
            tracer.op += 1
            out.append(runner.timed(case))
        return out
    finally:
        tracer.uninstall()
        runner.speed = untraced_speed


def layer_metrics(tracer, rounds, scale, terms, bits, slowdown):
    """Per-layer metrics per round (one pass over the round's inputs)."""
    m = {}
    for layer, (calls, hits, self_s) in tracer.totals().items():
        m[layer + ".calls"] = (calls / rounds, "count")
        m[layer + ".self_ms"] = (1e3 * scale * self_s / rounds, "ms")
        if layer in spans.HIT_LAYERS:
            m[layer + ".hits"] = (hits / rounds, "count")
    m["deciders.cert_terms"] = (terms / rounds, "count")
    m["deciders.cert_max_coeff_bits"] = (bits, "bits")
    m["trace.overhead_pct"] = (100.0 * (slowdown - 1), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ratexact" / "__init__.py").is_file():
        print("error: no ratexact sources under %s" % SRC, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print("%-34s %14.4f %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
