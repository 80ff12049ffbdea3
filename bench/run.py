#!/usr/bin/env python3
"""starform benchmark.

    python3 bench/run.py --workload {scrambled,dense,decide,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the checkout's ``src/starform`` is measured
(its path is printed).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
and writes them, with the tracing overhead, to ``.bench_out/``.

A run builds its inputs (set-up, repeated and timed), then makes a fixed
number of passes over the same list of operations, as many as take about
``--seconds`` on the reference machine.  Every operation runs on a fresh
``Tower`` holding its input, after ``gc.collect()``, both outside the timed
region; an operation's latency is its fastest pass.  Later passes must
reproduce the first pass's outputs exactly, and after the last pass, once
the peak memory is read, ``checks.py`` checks every one of them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# Seconds one untraced pass takes on the reference machine (README.md).  A run
# makes round(--seconds / PASS_SECONDS) passes, at least 3: a fixed number,
# since the fastest of more passes reads lower.
PASS_SECONDS = {"scrambled": 4.0, "dense": 4.0, "decide": 0.75, "cli": 5.5}
MIN_PASSES = 3


def import_starform():
    """Import starform from the checkout's src/, never from elsewhere."""
    pkg = SRC / "starform"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of a starform checkout")
    sys.path.insert(0, str(SRC))
    import starform
    if Path(starform.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported {starform.__file__}, not {pkg}")
    return starform


# ---------------- operations ----------------
#
# Each workload supplies, per operation: prepare(op) -> state (untimed; builds
# the fresh tower), run(op, state) -> result (timed), observe(...) -> the
# output as plain data, compared between passes, and check(op, output), which
# takes that output in its ``checks.frozen`` form and raises checks.CheckError
# on a wrong one (both untimed).

def poly_matrix(sf, T, rows):
    """A starform PolyMatrix over tower T from integer coefficient lists."""
    return sf.PolyMatrix(T, [[sf.StarPoly.from_ints(T, e) for e in row]
                             for row in rows])


class Library:
    """scrambled and dense: canonicalize; decide: are_congruent."""

    def __init__(self, sf, decide: bool):
        self.sf = sf
        self.decide = decide

    def prepare(self, op):
        T = self.sf.Tower(op["p"])
        A = poly_matrix(self.sf, T, op["A"])
        A2 = poly_matrix(self.sf, T, op["A2"]) if self.decide else None
        return T, A, A2

    def run(self, op, state):
        _, A, A2 = state
        if self.decide:
            return self.sf.are_congruent(A, A2, op["eps"])[0]
        return self.sf.canonicalize(A, op["eps"])

    def observe(self, op, state, result):
        """The output as plain data: the answer, or (field, S, B, blocks)."""
        if self.decide:
            return result
        cert, cb = result
        F = checks.Field.of_tower(state[0])
        blocks = [checks.block_of(F, b, op["eps"]) for b in cb.blocks]
        return F, checks.matrix_of(F, cert.S), checks.matrix_of(F, cert.B), blocks

    def check(self, op, seen):
        if self.decide:
            checks.check_decision(seen, op["truth"])
            return
        field, S, B, blocks = seen
        F = checks.Field(*field)
        S, B = checks.thawed(S), checks.thawed(B)
        blocks = [checks.thawed(b) for b in blocks]
        checks.check_congruence(F, checks.matrix_from_ints(F, op["A"]), S, B)
        checks.check_direct_sum(F, B, blocks)
        if "sequence" in op:
            checks.check_invariant_factors(
                F, blocks, [checks.poly_from_ints(F, f) for f in op["sequence"]])


class Cli:
    """congruent A B --certificate-out C, then verify A S B with S and B
    split from C, through starform.cli.main in-process."""

    OUTPUTS = ("c.out", "s.prob", "bb.prob")

    def __init__(self, sf, workdir: Path):
        from starform import cli
        self.cli = cli      # main is looked up per call, so a wrapper sees it
        self.workdir = workdir

    def serialize(self, sf, ops):
        """Each pair as the text of two problem files (part of set-up)."""
        from starform.cli import format_problem
        for op in ops:
            texts = []
            for key in ("A", "A2"):
                T = sf.Tower(op["p"])
                texts.append(format_problem(T, op["eps"], poly_matrix(sf, T, op[key])))
            op["files"] = texts

    def write_inputs(self, ops):
        """Write each pair's problem files, and empty files for the outputs.

        This is not timed, and no timed operation creates a file, since it
        only overwrites these: on the reference machine, creating 512 such
        files in 256 directories took 0.24-0.45 s, more from run to run,
        against 0.02-0.05 s to overwrite them.  That time is the file
        system's, not starform's."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        for k, op in enumerate(ops):
            d = self.workdir / f"op{k:04d}"
            d.mkdir(parents=True)
            for fname, text in zip(("a.prob", "b.prob"), op.pop("files")):
                (d / fname).write_text(text)
            for fname in self.OUTPUTS:
                (d / fname).write_text("")
            op["dir"] = str(d)

    def prepare(self, op):
        d = Path(op["dir"])
        for name in self.OUTPUTS:
            (d / name).write_text("")       # truncated, not deleted
        return d

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run(self, op, d):
        a, b, c = str(d / "a.prob"), str(d / "b.prob"), str(d / "c.out")
        congruent = self._main(["congruent", a, b, "--certificate-out", c])
        header, matrices = split_certificate((d / "c.out").read_text())
        for key, fname in (("S", "s.prob"), ("B", "bb.prob")):
            text = "\n".join(header + [f"A = {matrices.get(key, '[ ]')}"])
            (d / fname).write_text(text + "\n")
        verify = self._main(["verify", a, str(d / "s.prob"), str(d / "bb.prob")])
        return congruent, verify

    def observe(self, op, d, result):
        return result

    def check(self, op, seen):
        congruent, verify = seen
        if congruent[:2] != (0, "yes\n"):
            raise checks.CheckError(f"congruent gave {congruent[:2]}, expected (0, 'yes')")
        if verify[0] == 2 and "no generator for level" in verify[2]:
            raise OperationFailed(verify[2].strip())
        if verify[:2] != (0, "pass\n"):
            raise checks.CheckError(f"verify gave {verify[:2]} {verify[2].strip()!r}, "
                                    "expected (0, 'pass')")


def split_certificate(text: str):
    """(header, matrices) of a certificate written by ``--certificate-out``.

    The header is every line but ``epsilon``, ``n`` and the matrix sections,
    so the tower's generators are carried over in whatever form the
    certificate gives them; ``matrices`` maps A, S and B to their text, one
    line each, as ``format_problem`` writes them."""
    header, matrices = [], {}
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        key = body.split("=", 1)[0].strip().lower() if "=" in body else None
        if key in ("a", "s", "b"):
            matrices[key.upper()] = body.split("=", 1)[1].strip()
        elif key not in ("epsilon", "n"):
            header.append(line)
    return header, matrices


class OperationFailed(Exception):
    """The program reported an error instead of a result."""



# ---------------- measurement ----------------

def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["scrambled", "dense", "decide", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sf = import_starform()
    print(f"measuring {sf.__file__}", flush=True)
    workdir = OUT / f"cli-{os.getpid()}"
    cli = Cli(sf, workdir) if args.workload == "cli" else None
    impl = cli or Library(sf, decide=args.workload == "decide")

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ops = None      # each set-up starts from the same heap
            gc.collect()
            t0 = time.perf_counter()
            ops = workloads.build(args.workload, args.seed)
            if cli is not None:
                cli.serialize(sf, ops)
            setup_times.append(time.perf_counter() - t0)
        if cli is not None:
            cli.write_inputs(ops)
        gc.collect()
        gc.freeze()     # keep set-up objects out of every later collection
        passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
        if args.trace:
            result = measure_traced(impl, ops, passes, args)
        else:
            result = measure(impl, ops, passes)
            result["metrics"]["setup_s"] = {"value": statistics.median(setup_times),
                                            "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_passes(impl, ops, passes, tracer=None):
    """``passes`` whole passes over ``ops``.  With a tracer, odd passes are
    traced and even ones are not.  Returns (per pass: per-op latency, None
    where the program raised; each op's pass-0 output, frozen; the ops whose
    output in a later pass differs; per traced pass: layer metrics)."""
    passes_times = []
    first = [None] * len(ops)
    differs = set()
    layer_runs = []
    for pass_no in range(passes):
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.reset()
        times = [None] * len(ops)
        for k, op in enumerate(ops):
            state = impl.prepare(op)
            gc.collect()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = impl.run(op, state)
                dt = time.perf_counter() - t0
            except Exception:               # the program failed on this input
                dt = None
            finally:
                if traced:
                    tracer.remove()
                    tracer.end_op()
            if dt is None:
                continue
            seen = checks.frozen(impl.observe(op, state, result))
            if pass_no == 0:
                first[k] = seen
            elif seen != first[k]:
                differs.add(k)
            times[k] = dt
        passes_times.append(times)
        if traced:
            layer_runs.append(tracer.metrics())
    return passes_times, first, differs, layer_runs


def check_outputs(impl, ops, passes_times, first, differs):
    """Check every pass-0 output.  Returns (failed operations, wrong
    outputs), and drops the latency of every op that failed or was wrong."""
    failed = 0
    wrong = []
    for k, op in enumerate(ops):
        raised = sum(times[k] is None for times in passes_times)
        failed += raised
        bad = raised > 0
        try:
            if k in differs:
                raise checks.CheckError("a later pass differs from pass 0")
            if first[k] is not None:
                impl.check(op, first[k])
        except OperationFailed:
            failed += len(passes_times) - raised
            bad = True
        except checks.CheckError as exc:
            wrong.append(f"{op['name']}: {exc}")
            bad = True
        if bad:
            for times in passes_times:
                times[k] = None
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    return failed, wrong


def measure(impl, ops, passes):
    passes_times, first, differs, _ = run_passes(impl, ops, passes)
    # read before the checks, whose arithmetic would otherwise count
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, wrong = check_outputs(impl, ops, passes_times, first, differs)
    best = sorted(min(ts) for ts in zip(*passes_times) if None not in ts)
    metrics = {}
    if best:
        metrics = {
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * percentile(best, 0.50), "unit": "ms"},
            "latency_p95_ms": {"value": 1000 * percentile(best, 0.95), "unit": "ms"},
        }
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    print(f"{len(ops)} operations x {len(passes_times)} passes, {len(best)} timed",
          file=sys.stderr)
    return {"correct": not wrong, "attempted": len(ops) * len(passes_times),
            "failed": failed, "metrics": metrics}


def measure_traced(impl, ops, passes, args):
    """Per-layer metrics from the traced passes: calls from the first one
    (every traced pass repeats them), self times as the median over traced
    passes; the overhead is the median traced pass's operation time minus
    the median untraced pass's."""
    tracer = layers.Tracer()
    passes_times, first, differs, layer_runs = run_passes(impl, ops, passes, tracer)
    failed, wrong = check_outputs(impl, ops, passes_times, first, differs)
    totals = [sum(t for t in ts if t is not None) for ts in passes_times]
    untraced, traced = totals[0::2], totals[1::2]
    metrics = {}
    for name in layers.metric_names():
        if name.endswith(".calls"):
            value = layer_runs[0][name]
            metrics[name] = {"value": value, "unit": "count"}
        else:
            value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": "s"}
    metrics["tower.grown_ops.count"] = {"value": tracer.grown_ops // len(layer_runs),
                                        "unit": "count"}
    metrics["tower.field_degree.max"] = {"value": tracer.field_degree_max,
                                         "unit": "degree"}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "operations": len(ops), "passes": len(passes_times),
              "untraced_pass_s": untraced, "traced_pass_s": traced,
              "overhead_share": overhead / statistics.median(untraced),
              "metrics": metrics}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"per-layer metrics written to {path}", file=sys.stderr)
    return {"correct": not wrong, "attempted": len(ops) * len(passes_times),
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
