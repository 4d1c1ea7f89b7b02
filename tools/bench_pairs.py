"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_7.json --seconds 20 \\
        --pairs dstable_diffusion=1-10 --pairs exact_routes=1-5 [--parent REV] [--traced-seed N]

Run from the repository root. The change is this checkout's working tree;
the parent (default ``HEAD``) is extracted with ``git archive`` into a
temporary directory, removed afterwards. The extract has no bytecode caches,
so the tool refuses to start while ``src/`` or ``perfbench/`` holds a
``__pycache__`` (it names them; remove them first), and runs both sides
with PYTHONDONTWRITEBYTECODE=1 so that neither writes one. Both sides run
their own, unchanged ``perfbench/run.py`` (``--trace 0``) once per seed;
pair i runs the parent first when i is even and the change first when i is
odd. With ``--traced-seed``, each workload also gets one ``--trace 1`` run
per side on that seed, whose per-layer metrics are stored as they are.

For each end-to-end metric of ``BENCHMARK.json`` the file holds each side's
median and quartiles, the change's wins (ties count for neither side) and
the median's relative change; it also holds every run's values, the failed
ops of every run, the environment and the ``src/`` line counts. Workloads
already in ``--out`` and not named by ``--pairs`` are kept, so workloads can
be run one at a time into one file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seeds_of(text: str) -> list[int]:
    """'1-10' or '3,5,7' (or a mix: '1-3,8')."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract(rev: str, dest: Path) -> str:
    """Write the tree of rev under dest; return its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} exited {archive.returncode}")
    return sha


def bytecode_caches(root: Path) -> list[Path]:
    """The ``__pycache__`` directories under root's src/ and perfbench/."""
    return sorted(p for top in ("src", "perfbench") for p in (root / top).rglob("__pycache__"))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run in the checkout at root: (result line, full record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((root / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": p,
            "change": c,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "parent_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": len(runs),
            "median_change": (c["median"] - p["median"]) / p["median"],
            "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["iqr"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=SEEDS")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--traced-seed", type=int)
    args = ap.parse_args(argv)
    caches = bytecode_caches(ROOT)
    if caches:
        sys.exit(f"bench_pairs: bytecode caches in the working tree would run only on the change's side; "
                 f"remove them first: {', '.join(map(str, caches))}")

    plan = [(name, seeds_of(seeds)) for name, _, seeds in (p.partition("=") for p in args.pairs)]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        sha = extract(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        doc.update(
            parent=sha,
            change="working tree",
            seconds=args.seconds,
            src_lines={side: src_lines(root) for side, root in sides.items()},
        )
        for workload, seeds in plan:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    result, record = bench(sides[side], workload, seed, args.seconds, 0)
                    run[side] = {k: v["value"] for k, v in result["metrics"].items()}
                    run[side]["failed_ops"] = result["failed"]
                    run[side]["attempted"] = result["attempted"]
                    doc["environment"] = record["environment"]
                runs.append(run)
                print(f"{workload} seed {seed}: parent {run['parent']['ops_per_s']:.4g} "
                      f"change {run['change']['ops_per_s']:.4g} ops/s", flush=True)
            entry = {
                "seeds": seeds,
                "metrics": summarize(runs, metrics),
                "failed_ops": {side: sum(r[side]["failed_ops"] for r in runs) for side in sides},
                "runs": runs,
            }
            if args.traced_seed is not None:
                entry["traced"] = {"seed": args.traced_seed}
                for side, root in sides.items():
                    result, _ = bench(root, workload, args.traced_seed, args.seconds, 1)
                    entry["traced"][side] = {k: v["value"] for k, v in result["metrics"].items()}
                    entry["traced"][side]["correct"] = result["correct"]
            doc["workloads"][workload] = entry
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
