"""Seeded benchmark for expcheb: one workload per process, one closed-loop client.

    python3 bench/run.py --workload certify-wide --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's own ``src/``.  The run

1. caps BLAS threads at the number of usable cores and imports the library;
2. sets up SETUP_REPS times (input generation plus one warm-up op whose
   inputs are not reused) and reports the median as part of ``setup_s``;
3. runs ops back to back until their summed wall time reaches --seconds;
4. checks every op with an oracle outside the timed window; a failed
   check or an exception counts as a failed op and the run goes on.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the ops alternate in pairs between traced and untraced, the
traced ops record spans around expcheb's public functions (see spans.py),
one ``expcheb.cli.main`` call and, on the KDE workloads, one brute-force
reference run follow, and the last line carries the per-layer metrics.
Every run also writes its environment, per-op records and (traced) spans
to ``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3
MIN_TRACED_OPS = 4  # two traced and two untraced ops, whatever --seconds says
WORKLOADS = ("certify-wide", "kde-lowdim", "kde-escalate")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Limit BLAS and OpenMP pools to the usable cores; call before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import mpmath
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


class Runner:
    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.records: list[dict] = []
        self.first = None  # op 0's (inputs, output), for the traced extras

    def execute(self, k: int, traced: bool = False) -> dict:
        """Generate inputs, time one op, then check it outside the timer."""
        t0 = time.perf_counter()
        inp = self.wl.inputs(k)
        rec = {"k": k, "traced": traced, "errors": [],
               "inputs_s": time.perf_counter() - t0}
        ctx = self.tracer.installed() if traced else contextlib.nullcontext()
        out = None
        with ctx:
            if traced:
                self.tracer.op = k
            t0 = time.perf_counter()
            try:
                out = self.wl.run(inp)
            except Exception:  # a failed op is counted, not fatal
                rec["errors"].append(traceback.format_exc())
            rec["s"] = time.perf_counter() - t0
        if out is not None:
            try:
                rec["errors"] += self.wl.check(inp, out)
            except Exception:
                rec["errors"].append(traceback.format_exc())
            rec.update(self.wl.summary(out))
            if k == 0:
                self.first = (inp, out)
        for err in rec["errors"]:
            print(f"op {k} failed: {err}", file=sys.stderr)
        self.records.append(rec)
        return rec

    def extra(self, label: str, fn) -> None:
        """Run one traced check outside the op loop; count it as an op."""
        self.tracer.op = label
        with self.tracer.installed():
            try:
                errors = fn()
            except Exception:
                errors = [traceback.format_exc()]
        for err in errors:
            print(f"{label} failed: {err}", file=sys.stderr)
        self.records.append({"k": label, "traced": True, "errors": errors})


def run_cli(argv: list[str]) -> dict:
    from expcheb import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"expcheb {argv[0]} exited with code {code}")
    return json.loads(buf.getvalue())


def layer_metrics(runner: Runner, timed: list[dict]) -> dict:
    tr = runner.tracer
    dur = tr.durations()
    self_t = tr.self_times()
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    # counts come from ops 0 and 1 (both traced), so they repeat exactly
    # for a seed whatever the number of ops the run fits in
    first_pair = [r["k"] for r in timed[:2]]

    def span_s(name):
        return median([dur.get((r["k"], name), 0.0) for r in traced])

    def pair_count(name):
        return statistics.fmean(tr.counts.get((k, name), 0)
                                for k in first_pair)

    def self_s(layer):
        return median([self_t.get((r["k"], layer), 0.0) for r in traced])

    certs = [tr.results[(k, "approx.find_degree")] for k in first_pair
             if (k, "approx.find_degree") in tr.results]
    kde_ops = [r for r in timed if "escalated" in r]
    plain = [r for r in kde_ops if not r["escalated"]]
    high = [r for r in kde_ops if r["escalated"]]
    abs_bound = [r["build_s"] - dur[(r["k"], "kde.build_feature_matrices")]
                 for r in traced
                 if "build_s" in r and (r["k"], "kde.build_feature_matrices") in dur]
    traced_p50 = median([r["s"] for r in traced])
    untraced_p50 = median([r["s"] for r in untraced])
    brute_s = dur.get(("brute", "kde.kde_bruteforce"), 0.0)
    rank = timed[0].get("M", 0)
    values = {
        "approx.predict_degree_s": (span_s("approx.predict_degree"), "s"),
        "approx.find_degree_s": (span_s("approx.find_degree"), "s"),
        "approx.export_polynomial_s":
            (span_s("approx.export_polynomial"), "s"),
        "approx.degree":
            (median([c.D_upper for c in certs], 0), "count"),
        "approx.degree_lower":
            (median([c.D_lower for c in certs], 0), "count"),
        "approx.self_s": (self_s("approx"), "s"),
        "coeffs.tail_bounds_calls":
            (pair_count("coeffs.tail_bounds"), "count"),
        "coeffs.tail_bounds_s": (span_s("coeffs.tail_bounds"), "s"),
        "coeffs.bessel_calls": (pair_count("coeffs.modified_bessel"), "count"),
        "coeffs.coefficient_s": (span_s("coeffs.coefficient"), "s"),
        "coeffs.self_s": (self_s("coeffs"), "s"),
        "kde.make_instance_s": (span_s("kde.make_instance"), "s"),
        "kde.expand_kernel_poly_s": (span_s("kde.expand_kernel_poly"), "s"),
        "kde.rank": (rank, "count"),
        "kde.feature_bytes":
            (2 * timed[0].get("n", 0) * rank * 8, "bytes_computed"),
        "kde.build_feature_matrices_s":
            (span_s("kde.build_feature_matrices"), "s"),
        "kde.abs_bound_s": (median(abs_bound), "s"),
        "kde.plain_pass_s": (median([r["matvec_s"] for r in plain]), "s"),
        "kde.dd_pass_s": (median([r["matvec_s"] for r in high]), "s"),
        "kde.wasted_build_s": (median([r["build_s"] for r in high]), "s"),
        "kde.escalation_share":
            (len(high) / len(kde_ops) if kde_ops else 0.0, "ratio"),
        "kde.float_bound_share":
            (median([r["float_bound_share"] for r in kde_ops]), "ratio"),
        "kde.bruteforce_s": (brute_s, "s"),
        "kde.speedup_vs_brute":
            (brute_s / untraced_p50 if brute_s else 0.0, "x"),
        "kde.self_s": (self_s("kde"), "s"),
        "cli.main_s": (dur.get(("cli", "cli.main"), 0.0), "s"),
        "cli.self_s": (self_t.get(("cli", "cli"), 0.0), "s"),
        "bench.op_s_p50_traced": (traced_p50, "s"),
        "bench.trace_overhead_s": (traced_p50 - untraced_p50, "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    nproc = cap_threads()
    src = ROOT / "src"
    if not (src / "expcheb" / "__init__.py").is_file():
        print(f"no expcheb sources under {src}", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import expcheb
    import workloads
    from expcheb import approx, cli, coeffs, kde
    import_s = time.perf_counter() - t_import
    if Path(expcheb.__file__).resolve().parent != src / "expcheb":
        print(f"imported expcheb from {expcheb.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from spans import Tracer

    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    wl = workloads.make(args.workload, args.seed)
    tracer = Tracer({"approx": approx, "coeffs": coeffs, "kde": kde,
                     "cli": cli}) if args.trace else None
    runner = Runner(wl, tracer)

    setup = []
    for r in range(SETUP_REPS):
        rec = runner.execute(-(r + 1))
        setup.append(rec["inputs_s"] + rec["s"])

    busy = 0.0
    k = 0
    while busy < args.seconds or (args.trace and k < MIN_TRACED_OPS):
        traced = bool(args.trace) and (k // 2) % 2 == 0
        busy += runner.execute(k, traced=traced)["s"]
        k += 1
    timed = [r for r in runner.records if isinstance(r["k"], int) and r["k"] >= 0]

    OUT.mkdir(exist_ok=True)
    first = runner.first
    if args.trace and first is None:
        print("op 0 raised; the CLI and brute-force checks are skipped",
              file=sys.stderr)
    elif args.trace:
        first_cert = tracer.results[(0, "approx.find_degree")]
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cli_argv, compare = wl.cli_case(k, first, Path(tmp))
            runner.extra("cli", lambda: compare(run_cli(cli_argv), first_cert))
        if hasattr(wl, "brute_check"):
            runner.extra("brute", lambda: wl.brute_check(first))

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["errors"])
    times = [r["s"] for r in timed]
    passed_timed = sum(1 for r in timed if not r["errors"])
    if args.trace:
        metrics = layer_metrics(runner, timed)
    else:
        metrics = {
            "op_s_p50": {"value": median(times), "unit": "s"},
            "ops_per_s": {"value": passed_timed / busy, "unit": "1/s"},
            "ok_rate": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
            "setup_s": {"value": import_s + median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "import_s": import_s, "setup_reps_s": setup,
              "ops": runner.records, "metrics": metrics}
    if args.trace:
        report["spans"] = tracer.spans
        report["self_s"] = [[op, layer, s] for (op, layer), s
                            in tracer.self_times().items()]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(times)} timed ops, "
          f"op p50 {median(times):.4f} s, {attempted} attempted, "
          f"{failed} failed (error_rate {failed / attempted:.3g}), "
          f"report {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
