"""Command-line front end.

Subcommands: measure, classify, dstable, diffusion, battery. Input is a
JSON document (--in FILE or a built-in --example), output is JSON, CSV,
or a text rendering, written to stdout or --out. Runs are deterministic
for a fixed (input, seed) pair; the seed comes from --seed, else the
LOGMEASURE_SEED environment variable, else the package default.

Exit codes: dstable reports its verdict as 0 (stable), 1 (unstable) or
2 (unknown); every other successful run exits 0. 64 flags a usage
error, 65 an input document the package refuses (malformed, outside a
cap, or with no exact answer, such as a failed eigensolver on its
matrix), 70 an internal consistency failure: two of the package's own
cross-checks disagree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .battery import (
    FRAGILE_MATRIX,
    equivalence_table,
    hexagon_spec,
    parallelogram_spec,
    sheared_linf_spec,
)
from .classify import diag_norm_identity_check, is_absolute, is_orthant_monotonic
from .common import DEFAULT_SEED, as_square_matrix, as_vector, diag_entries
from .diffusion import simulate, sync_verdict
from .errors import (
    BaseNotHurwitz,
    InconsistentOracles,
    LogMeasureError,
    Marginal,
    NoExactPath,
)
from .measures import induced_matrix_norm, matrix_measure
from .norms import norm_spec_from_json, norm_spec_to_json, validate_norm_spec
from .stability import additive_d_stability_report, DStabilityReport

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_INTERNAL = 70

_VERDICT_CODES = {"stable": 0, "unstable": 1, "unknown": 2}

# battery and dstable refuse a larger "budget", before any work starts;
# dstable's counts family members, battery's is range-checked only
_MAX_BUDGET = 10_000
# dstable refuses a larger "falsify_budget" before any work starts; the
# field is range-checked only, since the falsifier is deterministic and
# bounded by stability.FALSIFY_SPECTRA
_MAX_FALSIFY_BUDGET = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which would collide with the
    # dstable "unknown" verdict code; remap to 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with_usage(message))

    def exit_with_usage(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EX_USAGE


def _example_documents() -> dict:
    fragile = FRAGILE_MATRIX.tolist()
    hexagon = norm_spec_to_json(hexagon_spec())
    parallelogram = norm_spec_to_json(parallelogram_spec())
    sheared = norm_spec_to_json(sheared_linf_spec())
    return {
        "fragile": {
            "measure": {"matrix": fragile, "norm": {"kind": "lp", "p": "inf"}},
            "dstable": {"matrix": fragile},
            "diffusion": {
                "matrix": fragile,
                "D": [1.0, 1.0],
                "x0": [1.0, 0.0],
                "z0": [0.0, 1.0],
                "horizon": 30.0,
                "dt": 0.01,
            },
        },
        "hexagon": {
            "classify": {"norm": hexagon},
            "measure": {"matrix": fragile, "norm": hexagon},
        },
        "parallelogram": {
            "classify": {"norm": parallelogram},
            "measure": {"matrix": fragile, "norm": parallelogram},
        },
        "sheared_linf": {
            "classify": {"norm": sheared},
            # -diag(1,2): the measure comes out positive even though the
            # diagonal is negative, the signature failure of this norm
            "measure": {"matrix": [[-1.0, 0.0], [0.0, -2.0]], "norm": sheared},
        },
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="logmeasure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    helps = {
        "measure": "matrix measure or induced norm of a matrix under a norm spec",
        "classify": "absolute / orthant-monotonic classification of a norm spec",
        "dstable": "additive D-stability report for a matrix",
        "diffusion": "simulate the diffusively coupled pair and test synchronization",
        "battery": "equivalence table over the built-in norm battery",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--in", dest="in_path", metavar="FILE", help="input JSON document")
        sp.add_argument("--out", dest="out_path", metavar="FILE", help="write output here")
        sp.add_argument("--seed", type=int, help="sampling seed (default from env or package)")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument(
            "--example",
            choices=("fragile", "hexagon", "parallelogram", "sheared_linf"),
            help="use a built-in worked example instead of --in",
        )
    return parser


def _resolve_seed(args, parser: _Parser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LOGMEASURE_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise SystemExit(parser.exit_with_usage(f"LOGMEASURE_SEED is not an integer: {env!r}"))
    return DEFAULT_SEED


def _load_document(args, parser: _Parser) -> dict | None:
    if args.in_path and args.example:
        raise SystemExit(parser.exit_with_usage("--in and --example are mutually exclusive"))
    if args.example:
        gallery = _example_documents().get(args.example, {})
        doc = gallery.get(args.cmd)
        if doc is None:
            raise SystemExit(
                parser.exit_with_usage(
                    f"example {args.example!r} has no {args.cmd!r} input"
                )
            )
        return doc
    if args.in_path:
        try:
            with open(args.in_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            print(f"logmeasure: cannot read {args.in_path}: {exc}", file=sys.stderr)
            raise SystemExit(EX_DATAERR)
        except json.JSONDecodeError as exc:
            print(f"logmeasure: input is not valid JSON: {exc}", file=sys.stderr)
            raise SystemExit(EX_DATAERR)
        if not isinstance(doc, dict):
            print("logmeasure: input document must be a JSON object", file=sys.stderr)
            raise SystemExit(EX_DATAERR)
        return doc
    if args.cmd == "battery":
        return {}
    raise SystemExit(parser.exit_with_usage("an input document is required (--in or --example)"))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"input document is missing {key!r}")
    return doc[key]


def _integer(doc: dict, key: str, default, cap: int | None = None) -> int:
    """doc[key] (default when absent): an int but not a bool, or an
    integral float; anything else, a negative value, or a value above cap,
    is a bad input."""
    v = doc.get(key, default)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key!r} must be an integer, got {v!r}")
    if v < 0:
        raise ValueError(f"{key!r} is {v}, below 0")
    if cap is not None and v > cap:
        raise ValueError(f"{key!r} is {v}, above the cap of {cap}")
    return v


def _np_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_np_default, allow_nan=False) + "\n"


# ---------------------------------------------------------------- measure


def _cmd_measure(doc: dict, seed: int):
    A = as_square_matrix(_require(doc, "matrix"))
    op = doc.get("op", "measure")
    if op not in ("measure", "norm"):
        raise ValueError(f"op must be 'measure' or 'norm', got {op!r}")
    spec = norm_spec_from_json(_require(doc, "norm"))
    dim = _integer(doc, "dim", A.shape[0])
    norm = validate_norm_spec(spec, dim=dim)
    if op == "measure":
        result = matrix_measure(A, norm, seed=seed)
    else:
        result = induced_matrix_norm(A, norm, seed=seed)
    payload = result.to_jsonable()
    payload["op"] = op
    return payload, EX_OK


def _render_measure(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines = [
        f"{payload['op']} value: {payload['value']:.12g}",
        f"method: {payload['method']}",
        f"error bound: {payload['error_bound']:.3g}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- classify


def _cmd_classify(doc: dict, seed: int):
    spec = norm_spec_from_json(_require(doc, "norm"))
    dim = None if doc.get("dim") is None else _integer(doc, "dim", None)
    norm = validate_norm_spec(spec, dim=dim)
    payload = {
        "absolute": is_absolute(norm, seed=seed).to_jsonable(),
        "orthant_monotonic": is_orthant_monotonic(norm, seed=seed).to_jsonable(),
    }
    notes = []
    try:
        payload["diag_identity"] = diag_norm_identity_check(norm).to_jsonable()
    except NoExactPath as exc:
        payload["diag_identity"] = None
        notes.append(f"diag_identity skipped: {exc}")
    payload["notes"] = notes
    return payload, EX_OK


def _render_classify(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines = []
    for key in ("absolute", "orthant_monotonic", "diag_identity"):
        v = payload[key]
        if v is None:
            lines.append(f"{key}: skipped")
            continue
        mark = "yes" if v["holds"] else "no"
        if not v["exact"]:
            mark += " (sampled)"
        line = f"{key}: {mark}"
        if v["witness"] is not None:
            line += f", witness {v['witness']}"
        lines.append(line)
    lines.extend(payload["notes"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- dstable


def _cmd_dstable(doc: dict, seed: int):
    A = as_square_matrix(_require(doc, "matrix"))
    budget = _integer(doc, "budget", 20, _MAX_BUDGET)
    _integer(doc, "falsify_budget", 10_000, _MAX_FALSIFY_BUDGET)
    family = None
    if "family" in doc and doc["family"] is not None:
        family = [
            validate_norm_spec(norm_spec_from_json(item), dim=A.shape[0])
            for item in doc["family"]
        ]
    report = additive_d_stability_report(A, family=family, budget=budget, seed=seed)
    return report, _VERDICT_CODES[report.verdict]


def _render_dstable(report: DStabilityReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report.to_jsonable())
    lines = [f"verdict: {report.verdict}", f"method: {report.method}"]
    if report.certificate is not None:
        cert = report.certificate.to_jsonable()
        lines.append(f"certificate norm: {json.dumps(cert['norm'], sort_keys=True)}")
        lines.append(f"certificate measure: {cert['mu']:.12g}")
    if report.counterexample is not None:
        ce = report.counterexample
        lines.append(f"destabilizing D: {np.diag(ce.D).tolist()}")
        lines.append(f"spectral abscissa of A-D: {ce.abscissa:.12g}")
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- diffusion


def _cmd_diffusion(doc: dict, seed: int):
    A = as_square_matrix(_require(doc, "matrix"))
    n = A.shape[0]
    D = diag_entries(_require(doc, "D"), n)
    x0 = as_vector(_require(doc, "x0"), n)
    z0 = as_vector(_require(doc, "z0"), n)
    horizon = float(_require(doc, "horizon"))
    dt = float(_require(doc, "dt"))
    traj = simulate(A, D, x0, z0, horizon, dt)
    try:
        verdict = {"synchronizes": sync_verdict(A, D), "note": None}
    except (BaseNotHurwitz, Marginal) as exc:
        verdict = {"synchronizes": None, "note": str(exc)}
    summary = {
        "verdict": verdict,
        "diverged": traj.diverged,
        "final_time": float(traj.times[-1]),
        "final_sync": float(traj.sync_metric[-1]),
        "steps": int(traj.times.shape[0] - 1),
    }
    return (traj, summary, n), EX_OK


def _trajectory_csv(traj, n: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["t"]
    header += [f"x_{i + 1}" for i in range(n)]
    header += [f"z_{i + 1}" for i in range(n)]
    header.append("sync")
    writer.writerow(header)
    for t, row, s in zip(traj.times, traj.states, traj.sync_metric):
        writer.writerow([f"{t:.12g}"] + [f"{v:.17g}" for v in row] + [f"{s:.17g}"])
    return buf.getvalue()


def _render_diffusion(result, fmt: str):
    traj, summary, n = result
    if fmt == "json":
        doc = dict(summary)
        doc["trajectory"] = {
            "times": traj.times.tolist(),
            "states": traj.states.tolist(),
            "sync_metric": traj.sync_metric.tolist(),
        }
        return _dump_json(doc)
    lines = [
        f"synchronizes: {summary['verdict']['synchronizes']}",
        f"diverged: {summary['diverged']}",
        f"steps: {summary['steps']} (to t = {summary['final_time']:.6g})",
        f"final sync metric: {summary['final_sync']:.6g}",
    ]
    if summary["verdict"]["note"]:
        lines.append(f"note: {summary['verdict']['note']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- battery


def _cmd_battery(doc: dict, seed: int):
    # the battery's checks are exact and take no budget; the field is
    # still range-checked, so documents that carry it keep their exit codes
    _integer(doc, "budget", 200, _MAX_BUDGET)
    report = equivalence_table()
    code = EX_OK if report.all_agree else EX_INTERNAL
    return report, code


_TRACE_COLUMNS = (
    "orthant_monotonic",
    "negated_diagonal_measure",
    "diagonal_measure_identity",
    "uniform_margin",
)


def _render_battery(report, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report.to_jsonable())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "absolute", "orthant_monotonic", "admissible", "agree"])
        for row in report.rows:
            writer.writerow(
                [
                    row.name,
                    row.absolute.holds,
                    row.orthant_monotonic.holds,
                    row.admissibility.admissible,
                    row.agree,
                ]
            )
        return buf.getvalue()

    def cell(v) -> str:
        return ("yes" if v.holds else "no") + ("" if v.exact else "~")

    headers = ["norm", "absolute", *_TRACE_COLUMNS, "admissible", "agree"]
    table = []
    for row in report.rows:
        trace = row.admissibility.equivalence_trace
        table.append(
            [
                row.name,
                cell(row.absolute),
                *[cell(trace[c]) for c in _TRACE_COLUMNS],
                "yes" if row.admissibility.admissible else "no",
                "yes" if row.agree else "no",
            ]
        )
    widths = [max(len(headers[j]), *(len(r[j]) for r in table)) for j in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    lines.append("~ marks sampled (non-exact) verdicts")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- driver


# subcommand -> (run, render): run(doc, seed) gives (result, exit code) and
# render(result, fmt) the output text
_COMMANDS = {
    "measure": (_cmd_measure, _render_measure),
    "classify": (_cmd_classify, _render_classify),
    "dstable": (_cmd_dstable, _render_dstable),
    "diffusion": (_cmd_diffusion, _render_diffusion),
    "battery": (_cmd_battery, _render_battery),
}


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code, never raising SystemExit."""
    try:
        return _dispatch(argv)
    except SystemExit as exc:
        # argparse and the usage/data guards signal through SystemExit;
        # fold that into the return-code contract for in-process callers
        code = exc.code
        if code is None:
            return EX_OK
        if isinstance(code, int):
            return code
        print(code, file=sys.stderr)
        return EX_USAGE


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = _resolve_seed(args, parser)
    fmt = args.format
    if fmt == "csv" and args.cmd not in ("diffusion", "battery"):
        return parser.exit_with_usage(f"csv format is not defined for {args.cmd!r}")
    doc = _load_document(args, parser)

    run, render = _COMMANDS[args.cmd]
    try:
        result, code = run(doc, seed)
        if args.cmd == "diffusion" and fmt == "csv":
            traj, summary, n = result
            _write(_trajectory_csv(traj, n), args.out_path)
            # the verdict record still goes out, on whichever stream
            # the CSV did not take
            stream = sys.stdout if args.out_path else sys.stderr
            stream.write(_dump_json(summary))
            return code
        text = render(result, fmt)
    except InconsistentOracles as exc:
        print(f"logmeasure: internal consistency failure: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except (LogMeasureError, ValueError, KeyError, TypeError) as exc:
        print(f"logmeasure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_DATAERR

    _write(text, args.out_path)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
