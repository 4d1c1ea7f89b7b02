"""One workload process: set up, run the timed loop, check every output.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src/``
on ``PYTHONPATH``; prints one JSON record as its last line of stdout.

Untraced (``--trace 0``): every op of the workload's whole cycles (see
``workloads.cycles_for``) runs back to back; their outputs are checked
afterwards, outside the timed phase.

Traced (``--trace 1``): set-up runs under a tracer. The traced pass covers a
third of those cycles (at least one), since each op runs three times: first
untraced and traced in a row, whose outputs must be equal and whose
ops-per-second give the tracing overhead; then the whole pass once more
under a second tracer, whose counters must equal the first one's. Per-layer
metrics come from set-up plus the first traced pass. Neither pass stops on
the clock, so with the same seed and ``--seconds`` the counters are the
same from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def timed_loop(fns, tracer=None):
    """Run each of fns once, in order; return latencies, results and the
    elapsed wall time of the whole loop."""
    latencies, results = [], []
    begin = time.perf_counter()
    for run in fns:
        span = tracer.open("bench.op") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            res = run()
        except Exception as exc:  # one failed op must not end the run
            res = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        latencies.append(t1 - t0)
        results.append(res)
    return latencies, results, time.perf_counter() - begin


def check_all(ops, results) -> list:
    failures = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if "error" in res:
            problems = [res["error"]]
        else:
            try:
                problems = op.check(res)
            except Exception as exc:  # a crashing check is a failed op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": i, "slot": op.slot, "problems": problems})
    return failures


def harrell_davis(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, centred on rank q (n + 1). Op costs here are a mix of
    input classes with gaps between them, and a single order statistic at
    rank q jumps across such gaps from seed to seed; the weighted mean does
    not."""
    import numpy as np
    from scipy.special import betainc

    n = len(sorted_values)
    if n == 1 or q >= 1.0:
        return float(sorted_values[-1])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ np.asarray(sorted_values))


def latency_stats(latencies) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it, both as Harrell-Davis estimates."""
    ms = sorted(x * 1e3 for x in latencies)
    n = len(ms)
    if n > 10:
        pct, beyond = 100.0 * (n - 10) / n, 10
    else:
        pct, beyond = 100.0, 0
    return {
        "samples": n,
        "p50_ms": harrell_davis(ms, 0.5),
        "tail_ms": harrell_davis(ms, pct / 100.0),
        "tail_pct": pct,
        "tail_beyond": beyond,
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(wl) -> dict:
    latencies, results, elapsed = timed_loop([op.run for op in wl.ops])
    rss = peak_rss_mb(wl.rss_from_children)
    failures = check_all(wl.ops, results)
    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:20],
        "elapsed_s": elapsed,
        "ops_per_s": len(results) / elapsed,
        "cycles": len(wl.ops) // wl.cycle,
        "latency": latency_stats(latencies),
        "peak_rss_mb": rss,
    }


def traced(wl, setup_tracer, spans_path: str | None) -> dict:
    import tracer as tracing

    ops = wl.ops[: max(1, len(wl.ops) // wl.cycle // 3) * wl.cycle]
    fns = [op.run_inproc or op.run for op in ops]
    tr, again = tracing.Tracer(), tracing.Tracer()
    plain, traced_results, lat_plain, lat_traced = [], [], [], []
    for fn in fns:
        # Each op runs untraced, then traced, so warm-up and drift hit both
        # sides of the overhead comparison alike.
        lat, res, _ = timed_loop([fn])
        lat_plain += lat
        plain += res
        with tr.installed():
            lat, res, _ = timed_loop([fn], tracer=tr)
        lat_traced += lat
        traced_results += res
    with again.installed():
        timed_loop(fns, tracer=again)
    k = len(fns)
    first = tracing.repeatable_counts(tracing.layer_metrics([tr]))
    repeat = tracing.repeatable_counts(tracing.layer_metrics([again]))

    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced_results)) if a != b]
    unrepeated = sorted(name for name in first if first[name] != repeat[name])
    metrics = tracing.layer_metrics([setup_tracer, tr])
    for sub in tracing.CLI_SUBCOMMANDS:
        sizes = [len(r["stdout"].encode()) for r in traced_results if r.get("argv0") == sub]
        metrics[f"cli.{sub}.stdout_bytes"] = max(sizes) if sizes else 0
    rate_plain, rate_traced = k / sum(lat_plain), k / sum(lat_traced)
    metrics["trace.ops_per_s_untraced"] = rate_plain
    metrics["trace.ops_per_s_traced"] = rate_traced
    metrics["trace.overhead_ops_per_s"] = rate_plain - rate_traced
    metrics["trace.spans"] = len(setup_tracer.start) + len(tr.start)
    if spans_path is not None:
        write_spans(spans_path, {"setup": setup_tracer, "traced": tr})

    failures = check_all(ops, plain)
    return {
        "attempted": k,
        "failed": len(failures),
        "failures": failures[:20],
        "cycles": k // wl.cycle,
        "transparency_mismatches": mismatched[:20],
        "counts_not_repeated": unrepeated,
        "transparent": not mismatched and not unrepeated,
        "metrics": metrics,
    }


def write_spans(path: str, tracers: dict) -> None:
    import numpy as np

    arrays = {}
    for phase, tr in tracers.items():
        names, ids, parent, _ = tr.arrays()
        arrays[f"{phase}_names"] = names[:-1].astype(str)
        arrays[f"{phase}_name_id"] = ids
        arrays[f"{phase}_parent"] = parent
        arrays[f"{phase}_start"] = np.frombuffer(tr.start) if len(tr.start) else np.zeros(0)
        arrays[f"{phase}_end"] = np.frombuffer(tr.end) if len(tr.end) else np.zeros(0)
    np.savez(path, **arrays)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import workloads  # imports logmeasure, which the tracer rebinds

    setup_tracer = None
    if args.trace:
        import tracer as tracing

        setup_tracer = tracing.Tracer()
        with setup_tracer.installed():
            wl = workloads.build(args.workload, args.seed, args.seconds, args.scratch)
    else:
        wl = workloads.build(args.workload, args.seed, args.seconds, args.scratch)
    ready = time.monotonic()
    if args.setup_only:
        record = {}
    elif args.trace:
        record = traced(wl, setup_tracer, args.spans)
        record["environment"] = environment()
    else:
        record = untraced(wl)
        record["environment"] = environment()
    record["ready"] = ready
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
