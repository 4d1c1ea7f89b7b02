"""logmeasure benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is taken from ``src/``. The
workloads (see ``BENCHMARK.json`` for why each exists and
``perfbench/workloads.py`` for the inputs):

* ``cli_examples``: one op is one ``python -m logmeasure`` process;
* ``exact_routes``: one (norm, matrix) pair through measure, norm,
  sandwich, both classifiers and the admissibility sweep;
* ``dstable_diffusion``: D-stability report, sync verdict and simulation
  of one non-Metzler Hurwitz matrix;
* ``estimated_lp``: measure and norm under a generic l_p norm.

Each is a closed loop with one client in one process (for
``cli_examples``, the client plus one child at a time), with
OpenBLAS/OpenMP pinned to one thread. A run covers a whole number of
cycles of the workload's input slots, a number set by ``--seconds`` alone
(see ``workloads.cycles_for``), so every run measures the same mix and the
same number of ops.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start
to first timed op, median of several set-ups), ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` (the
highest percentile with at least ten samples beyond it; both percentiles are
Harrell-Davis estimates, see ``worker.harrell_davis``) and
``peak_rss_mb``; failed ops are the ``failed`` count of the result line.
``--trace 1`` is a separate run that reports the per-layer metrics (see
``perfbench/tracer.py``) and import times from ``python -X importtime``.

Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The full record,
including the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOADS = ("cli_examples", "exact_routes", "dstable_diffusion", "estimated_lp")

# Extra set-up-only processes per untraced run; setup_s is the median of
# these and the measured run's own set-up.
SETUP_PROBES = 2
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LOGMEASURE_SEED"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list, env: dict, timeout: float) -> tuple[str, str]:
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[1:3]} timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{err[-3000:]}")
    return out, err


def run_worker(args, env: dict, scratch: Path, *extra: str) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", str(scratch), *extra,
    ]
    setup_only = "--setup-only" in extra
    started = time.monotonic()
    out, _ = run_child(cmd, env, PROBE_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S)
    record = json.loads(out.strip().splitlines()[-1])
    return record, record["ready"] - started


def import_seconds(importtime_lines: list, module: str) -> float:
    """Cumulative import time of `module` and its submodules from
    ``-X importtime`` output, counting each line whose enclosing import is
    outside `module` (scipy.spatial, pulled in from inside scipy.optimize,
    has no line of its own, only lines for its submodules)."""
    rows = []
    for line in importtime_lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((name.strip(), len(name) - len(name.lstrip()), int(parts[1])))

    def inside(name):
        return name == module or name.startswith(module + ".")

    total = 0
    for i, (name, depth, cumulative) in enumerate(rows):
        if not inside(name):
            continue
        parent = next((r for r in rows[i + 1:] if r[1] < depth), None)
        if parent is None or not inside(parent[0]):
            total += cumulative
    return total / 1e6


def import_times(env: dict) -> dict:
    """Median over IMPORT_PROBES runs of ``python -X importtime -c 'import logmeasure'``."""
    modules = {"import.logmeasure_s": "logmeasure", "import.scipy_optimize_s": "scipy.optimize",
               "import.scipy_spatial_s": "scipy.spatial"}
    samples = {metric: [] for metric in modules}
    for _ in range(IMPORT_PROBES):
        _, err = run_child([sys.executable, "-X", "importtime", "-c", "import logmeasure"], env, PROBE_TIMEOUT_S)
        lines = err.splitlines()
        for metric, module in modules.items():
            samples[metric].append(import_seconds(lines, module))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def untraced_run(args, env, scratch) -> tuple[dict, dict]:
    setups = [run_worker(args, env, scratch, "--setup-only")[1] for _ in range(SETUP_PROBES)]
    record, own_setup = run_worker(args, env, scratch)
    setups.append(own_setup)
    lat = record["latency"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": record["ops_per_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    record["setup_samples_s"] = setups
    return record, values


def traced_run(args, env, scratch) -> tuple[dict, dict]:
    spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.npz"
    record, _ = run_worker(args, env, scratch, "--spans", str(spans))
    values = dict(record["metrics"])
    values.update(import_times(env))
    record["spans_file"] = str(spans.relative_to(ROOT))
    return record, values


def report(args, record: dict, values: dict, units: dict) -> None:
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
        f"nproc {env['nproc']}, threads pinned {env['threads']['OPENBLAS_NUM_THREADS']}, "
        f"src lines {record['src_lines']}"
    )
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    if not args.trace:
        lat = record["latency"]
        print(f"  samples: {lat['samples']} ops in {record['cycles']} cycles; op_tail_ms is p{lat['tail_pct']:.1f} "
              f"with {lat['tail_beyond']} ops beyond it")
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in record['setup_samples_s'])}")
    else:
        print(f"  traced run transparent: {record['transparent']} (outputs of {record['attempted']} ops "
              f"in {record['cycles']} cycles compared; counters repeated on a second traced pass)")
    share = record["failed"] / record["attempted"]
    print(f"  failed_ops: {record['failed']} of {record['attempted']} attempted ({share:.4f})")
    for failure in record["failures"][:5]:
        print(f"    op {failure['op']} ({failure['slot']}): {'; '.join(failure['problems'])[:400]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "logmeasure" / "__init__.py").is_file():
        print(f"run.py: no logmeasure sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    units = dict(tracer_units() if args.trace else END_TO_END_UNITS)
    declared = declared_metrics(args.trace)
    if declared != units:
        print("run.py: BENCHMARK.json metric names or units differ from the code", file=sys.stderr)
        return 2

    env = worker_env()
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        record, values = (traced_run if args.trace else untraced_run)(args, env, scratch)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["src_lines"] = src_line_count()
    record["seed"] = args.seed
    record["workload"] = args.workload
    correct = record["failed"] == 0 and record.get("transparent", True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["result"] = {"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    report(args, record, values, units)
    print(json.dumps(record["result"]))
    return 0


def tracer_units() -> dict:
    from tracer import PER_LAYER_UNITS  # this script's directory is on sys.path

    return PER_LAYER_UNITS


if __name__ == "__main__":
    sys.exit(main())
