"""Command-line interface: exit codes, output determinism, channel layout."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import logmeasure
from logmeasure.cli import _dump_json, main
from logmeasure.norms import Lp, norm_spec_to_json, validate_norm_spec
from logmeasure.stability import DStabilityReport
from test_golden import OPENBLAS_KERNELS, _dynamic_arch_openblas

# irreducible, and no principal submatrix is unstable, so no exact path
# decides it; a_11 = 0 leaves no admissible-measure certificate
UNKNOWN_3X3 = [[0.0, 2.0, -1.0], [0.0, -1.0, -1.0], [2.0, 2.0, -2.0]]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- happy path


def test_measure_example_output(capsys):
    code, out, _ = _run(capsys, "measure", "--example", "sheared_linf")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3.0
    assert doc["method"] == "scaled_closed_form"
    assert doc["op"] == "measure"


def test_measure_from_file(capsys, tmp_path):
    path = _write_doc(
        tmp_path,
        {
            "op": "norm",
            "matrix": [[1.0, -3.0], [1.0, -2.0]],
            "norm": {"kind": "lp", "p": 1},
        },
    )
    code, out, _ = _run(capsys, "measure", "--in", path)
    assert code == 0
    assert json.loads(out)["value"] == 5.0


def test_output_is_byte_identical_across_runs(capsys, tmp_path):
    args = ("classify", "--example", "hexagon")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert first.endswith("\n")
    # emit -> parse -> emit is a fixed point of the serializer
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == first


def test_classify_hexagon(capsys):
    code, out, _ = _run(capsys, "classify", "--example", "hexagon")
    assert code == 0
    doc = json.loads(out)
    assert doc["absolute"]["holds"] is False
    assert doc["absolute"]["witness"] == [1.0, -1.0]
    assert doc["orthant_monotonic"]["holds"] is True


def test_classify_writes_to_file(capsys, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, out, _ = _run(
        capsys, "classify", "--example", "parallelogram", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["orthant_monotonic"]["holds"] is False


def test_battery_json_and_agreement(capsys):
    code, out, _ = _run(capsys, "battery", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    rows = {r["name"]: r for r in doc["rows"]}
    assert len(rows) == 9
    assert rows["parallelogram"]["admissibility"]["admissible"] is False
    assert rows["hexagon"]["absolute"]["holds"] is False
    assert rows["hexagon"]["admissibility"]["admissible"] is True


def test_battery_csv_header(capsys):
    code, out, _ = _run(capsys, "battery", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,absolute,orthant_monotonic,admissible,agree"
    assert len(lines) == 10


def test_text_format_renders(capsys):
    code, out, _ = _run(capsys, "battery", "--format", "text")
    assert code == 0
    assert "sheared_linf" in out and "parallelogram" in out


# ----------------------------------------------------------------- dstable


def test_dstable_exit_codes(capsys, tmp_path):
    code, out, _ = _run(capsys, "dstable", "--example", "fragile")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "unstable"
    assert doc["counterexample"]["D"] == [[0.0, 0.0], [0.0, 2.0]]

    path = _write_doc(tmp_path, {"matrix": [[-1.0, -3.0], [1.0, -2.0]]})
    code, out, _ = _run(capsys, "dstable", "--in", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "stable"

    path = _write_doc(
        tmp_path, {"matrix": UNKNOWN_3X3, "budget": 4, "falsify_budget": 200}
    )
    code, out, _ = _run(capsys, "dstable", "--in", path)
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown"


def test_dstable_with_custom_family(capsys, tmp_path):
    # irreducible 3x3 with no negative principal minor of -A, so the
    # report has to rely on the supplied certificate family
    A = np.array([[-1.0, -3.0, 1.0], [1.0, -2.0, -1.0], [-1.0, 1.0, -1.0]])
    doc = {"matrix": A.tolist(), "family": [{"kind": "lp", "p": 2}]}
    code, out, _ = _run(capsys, "dstable", "--in", _write_doc(tmp_path, doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["method"] == "admissible_certificate"
    assert parsed["certificate"]["norm"] == {"kind": "lp", "p": 2}
    # mu_2(A) is the top eigenvalue of the symmetric part
    assert parsed["certificate"]["mu"] == pytest.approx(
        np.linalg.eigvalsh((A + A.T) / 2.0).max(), abs=1e-9
    )


# ---------------------------------------------------------------- diffusion


def test_diffusion_json_summary(capsys):
    code, out, _ = _run(capsys, "diffusion", "--example", "fragile")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["synchronizes"] is True
    assert doc["diverged"] is False
    assert doc["final_time"] == pytest.approx(30.0)
    assert doc["final_sync"] < 1e-6


def test_diffusion_csv_channels(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = _run(
        capsys, "diffusion", "--example", "fragile", "--format", "csv",
        "--out", str(out_path),
    )
    assert code == 0
    # trajectory goes to the file, the verdict summary to stdout
    summary = json.loads(out)
    assert summary["verdict"]["synchronizes"] is True
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,z_1,z_2,sync"
    assert len(lines) == 3002
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(30.0)
    assert float(last[-1]) < 1e-6


def test_diffusion_csv_to_stdout_moves_summary_to_stderr(capsys):
    code, out, err = _run(capsys, "diffusion", "--example", "fragile", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,x_1,x_2,z_1,z_2,sync"
    assert json.loads(err)["verdict"]["synchronizes"] is True


def test_diffusion_non_synchronizing_note(capsys, tmp_path):
    doc = {
        "matrix": [[1.0, -3.0], [1.0, -2.0]],
        "D": [0.0, 1.0],
        "x0": [1.0, 0.0],
        "z0": [0.0, 1.0],
        "horizon": 60.0,
        "dt": 0.01,
    }
    code, out, _ = _run(capsys, "diffusion", "--in", _write_doc(tmp_path, doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["verdict"]["synchronizes"] is False
    assert parsed["diverged"] is True


def test_diffusion_with_large_gains_passes_the_decoupling_check(capsys, tmp_path):
    # A - D rounds in the last bits of 3.3e6, above an absolute 1e-10
    doc = {"matrix": [[0.1, -0.3], [0.7, -0.2]], "D": [1.1e6, 3.3e6], "x0": [1, 0], "z0": [0, 1],
           "horizon": 1e-7, "dt": 1e-8}
    code, out, err = _run(capsys, "diffusion", "--in", _write_doc(tmp_path, doc))
    assert (code, err) == (0, "")
    assert json.loads(out)["steps"] == 10


def test_diffusion_huge_initial_state_keeps_json_valid(capsys, tmp_path):
    # max |x - z| = 1e306 used to overflow the squared sync norm: numpy's
    # overflow warning on stderr and "final_sync": Infinity on stdout
    doc = {"matrix": [[1, -3], [1, -2]], "D": [1, 1], "x0": [1e306, 0], "z0": [0, 1], "horizon": 1, "dt": 0.01}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, out, err = _run(capsys, "diffusion", "--in", _write_doc(tmp_path, doc))
    assert (code, err) == (0, "")
    parsed = json.loads(out, parse_constant=lambda name: pytest.fail(f"invalid JSON constant {name}"))
    assert parsed["diverged"] is True and parsed["steps"] == 1
    assert math.isfinite(parsed["final_sync"]) and parsed["final_sync"] > 1e305


# ------------------------------------------------------------------- errors


def test_usage_errors_exit_64(capsys):
    assert main(["measure"]) == 64  # neither --in nor --example
    assert main(["measure", "--example", "fragile", "--in", "x.json"]) == 64
    assert main(["measure", "--example", "fragile", "--format", "csv"]) == 64
    assert main(["dstable", "--example", "hexagon"]) == 64  # no dstable payload
    assert main(["frobnicate"]) == 64
    assert main([]) == 64  # a subcommand is required


def test_data_errors_exit_65(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["measure", "--in", str(bad)]) == 65

    missing = str(tmp_path / "nope.json")
    assert main(["measure", "--in", missing]) == 65

    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1, 2, 3]")
    assert main(["measure", "--in", str(not_dict)]) == 65

    bad_op = _write_doc(
        tmp_path,
        {"op": "transmogrify", "matrix": [[1.0]], "norm": {"kind": "lp", "p": 1}},
        "bad_op.json",
    )
    assert main(["measure", "--in", bad_op]) == 65

    bad_norm = _write_doc(
        tmp_path,
        {"op": "measure", "matrix": [[1.0]], "norm": {"kind": "lp", "p": 0.3}},
        "bad_norm.json",
    )
    assert main(["measure", "--in", bad_norm]) == 65


def test_zero_scaling_is_refused_in_one_line(capsys, tmp_path):
    # the singular-value ratio of T = 0 is 0 / 0; the refusal must not
    # divide it and leak numpy's RuntimeWarning ahead of its one line
    doc = {"norm": {"kind": "scaled", "T": [[0]], "inner": {"kind": "lp", "p": 2}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "classify", "--in", _write_doc(tmp_path, doc))
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "Warning" not in err and "nan" not in err


def test_hostile_values_exit_65_without_traceback(capsys, tmp_path):
    bool_p = _write_doc(
        tmp_path,
        {"op": "measure", "matrix": [[1.0]], "norm": {"kind": "lp", "p": True}},
        "bool_p.json",
    )
    code, out, err = _run(capsys, "measure", "--in", bool_p)
    assert (code, out) == (65, "")
    assert "Traceback" not in err

    # the l_p bracket refuses entries whose absolute sum overflows
    for op in ("measure", "norm"):
        doc = {"op": op, "matrix": [[1e308, 1e308], [0.0, 1.0]], "norm": {"kind": "lp", "p": 3}}
        code, out, err = _run(capsys, "measure", "--in", _write_doc(tmp_path, doc, "huge.json"))
        assert (code, out) == (65, "")
        assert "Traceback" not in err and "Warning" not in err

    doc = {"matrix": [[-1.0, 0.0], [0.0, -1.0]], "D": [1.0, 1.0], "x0": [1.0, 0.0], "z0": [0.0, 1.0]}
    for horizon, dt in (("inf", 0.01), (30.0, "nan"), (1e12, 0.01)):
        path = _write_doc(tmp_path, {**doc, "horizon": horizon, "dt": dt}, "grid.json")
        code, out, err = _run(capsys, "diffusion", "--in", path)
        assert (code, out) == (65, "")
        assert "BadTimeGrid" in err


def test_integer_fields_refuse_non_integers_and_oversized_budgets(capsys, tmp_path, monkeypatch):
    started = []

    def battery_stub(**kw):
        started.append(kw)
        return SimpleNamespace(all_agree=True, to_jsonable=dict)

    monkeypatch.setattr("logmeasure.cli.equivalence_table", battery_stub)
    def dstable_stub(A, **kw):
        started.append(kw)
        return DStabilityReport("stable", "stub")

    monkeypatch.setattr("logmeasure.cli.additive_d_stability_report", dstable_stub)
    matrix = [[-1.0, 0.0], [0.0, -1.0]]
    norm = {"kind": "lp", "p": 1}
    refused = [
        ("battery", {"budget": math.inf}),
        ("battery", {"budget": 10_001}),
        ("battery", {"budget": True}),
        ("battery", {"budget": "200"}),
        ("dstable", {"matrix": matrix, "budget": math.inf}),
        ("dstable", {"matrix": matrix, "budget": 1e300}),
        ("dstable", {"matrix": matrix, "budget": 2.5}),
        ("dstable", {"matrix": matrix, "falsify_budget": math.inf}),
        ("dstable", {"matrix": matrix, "falsify_budget": 2.5}),
        ("dstable", {"matrix": matrix, "falsify_budget": 100_001}),
        ("measure", {"matrix": matrix, "norm": norm, "dim": math.inf}),
        ("classify", {"norm": norm, "dim": -math.inf}),
        ("classify", {"norm": norm, "dim": False}),
        ("classify", {"norm": norm, "dim": -2}),
        ("battery", {"budget": -1}),
        ("dstable", {"matrix": [[0, 2, -1], [0, -1, -1], [2, 2, -2]], "budget": -5, "falsify_budget": -1}),
        ("dstable", {"matrix": matrix, "falsify_budget": -1}),
    ]
    for cmd, doc in refused:
        code, out, err = _run(capsys, cmd, "--in", _write_doc(tmp_path, doc))
        assert (code, out) == (65, ""), (cmd, doc)
        assert "Traceback" not in err and "ValueError" in err, (cmd, doc)
    assert started == []  # every refusal came before any sampling

    code, out, _ = _run(capsys, "measure", "--in", _write_doc(tmp_path, {"matrix": matrix, "norm": norm, "dim": 2.0}))
    assert code == 0 and json.loads(out)["value"] == -1.0
    # battery range-checks "budget" but no longer passes it on: the checks are exact
    assert _run(capsys, "battery", "--in", _write_doc(tmp_path, {"budget": 10_000.0}))[0] == 0
    assert started == [{}]

    doc = {"matrix": matrix, "budget": 4, "falsify_budget": 100_000.0}
    assert _run(capsys, "dstable", "--in", _write_doc(tmp_path, doc))[0] == 0
    assert started[1] == {"family": None, "budget": 4, "seed": logmeasure.DEFAULT_SEED}


def test_piecewise_norm_without_exact_route_is_refused(capsys, tmp_path):
    # l_2 pieces are not polytopes: no exact route, so validation refuses
    # the spec, for classify as well as for measure
    cases = [{"signs": s, "inner": {"kind": "lp", "p": 2}} for s in ("++", "+-", "-+", "--")]
    doc = {"matrix": [[-1, 0.5], [0.2, -1]], "norm": {"kind": "piecewise_orthant", "cases": cases}}
    for cmd, op in (("measure", "measure"), ("measure", "norm"), ("classify", None)):
        code, out, err = _run(capsys, cmd, "--in", _write_doc(tmp_path, {**doc, "op": op} if op else doc))
        assert (code, out) == (65, ""), (cmd, op)
        assert len(err.splitlines()) == 1 and "NoExactPath" in err and "Traceback" not in err


def test_flat_polytope_refusal_is_one_line(capsys, tmp_path):
    # a flat square in R^3 spans no full-dimensional ball
    doc = {"norm": {"kind": "polyhedral", "vertices": [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]}}
    code, out, err = _run(capsys, "classify", "--in", _write_doc(tmp_path, doc))
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "DegenerateBall" in err and "full-dimensional" in err


def test_huge_p_measure_brackets_the_linf_value(capsys, tmp_path):
    # p = 1e308 used to overflow |x|^p: a RuntimeWarning and a value of -1,024,000
    # the l_inf values, measure -0.5 and norm 1.5, are the limits as p grows
    doc = {"matrix": [[-1, 0.5], [0.2, -1]], "norm": {"kind": "lp", "p": 1e308}}
    for op, linf in (("measure", -0.5), ("norm", 1.5)):
        code, out, err = _run(capsys, "measure", "--in", _write_doc(tmp_path, {**doc, "op": op}))
        assert (code, err) == (0, ""), op
        res = json.loads(out)
        assert res["method"] == "estimated"
        assert res["value"] <= linf <= res["value"] + res["error_bound"], op


def test_import_loads_neither_scipy_optimize_nor_spatial():
    src = str(Path(logmeasure.__file__).resolve().parents[1])
    probe = (
        "import sys, logmeasure; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_planar_examples_load_no_scipy():
    # the polygon examples build their balls in numpy; scipy.spatial alone
    # cost about half a second of every such call
    src = str(Path(logmeasure.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, sys\n"
        "from logmeasure.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    slots = [f"{cmd} --example {ex}" for cmd in ("measure", "classify") for ex in ("hexagon", "parallelogram")]
    slots += ["battery", "battery --format text"]
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe, *slots], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
    assert "scipy.spatial" not in done.stdout


def test_polytopes_above_the_plane_load_no_scipy(tmp_path):
    # hulls, orthant cuts and vertex matching above 2-D are numpy too
    src = str(Path(logmeasure.__file__).resolve().parents[1])
    cube = [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    signs = [a + b + c for a in "+-" for b in "+-" for c in "+-"]
    docs = {
        "polyhedral": {"kind": "polyhedral", "vertices": cube + [[0.5, 0.5, 1], [-0.5, -0.5, -1]]},
        "piecewise": {"kind": "piecewise_orthant", "cases": [
            {"signs": s, "inner": {"kind": "lp", "p": 1}} for s in signs]},
    }
    paths = [_write_doc(tmp_path, {"norm": norm}, f"{name}.json") for name, norm in docs.items()]
    probe = (
        "import contextlib, io, sys\n"
        "from logmeasure.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['classify', '--in', path]) == 0, path\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe, *paths], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_one_dimensional_lp_norms_are_closed(capsys, tmp_path):
    # every norm on R^1 is a multiple of |x|: l_3 used to be "estimated"
    for norm, method in (({"kind": "lp", "p": 3}, "closed_form"),
                         ({"kind": "scaled", "T": [[3]], "inner": {"kind": "lp", "p": 3}}, "scaled_closed_form")):
        code, out, err = _run(capsys, "measure", "--in", _write_doc(tmp_path, {"matrix": [[2.0]], "norm": norm}))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"error_bound": 0.0, "method": method, "op": "measure", "value": 2.0}
    assert norm_spec_to_json(validate_norm_spec(Lp(3.0), dim=1)) == {"kind": "lp", "p": 3.0}


def test_json_output_is_strict():
    with pytest.raises(ValueError):
        _dump_json({"error_bound": math.inf})


HUGE_INPUTS = {
    # the planar hull's cross products overflow: a one-line refusal
    "polygon_1e308": ("measure", {"matrix": [[1, 0], [0, 1]], "norm": {
        "kind": "polyhedral", "vertices": [[1e308, 0], [-1e308, 0], [0, 1], [0, -1]]}}, 65),
    # full-dimensional, and its arithmetic stays finite (Qhull called it flat)
    "polygon_1e200": ("measure", {"matrix": [[1, 0], [0, 1]], "norm": {
        "kind": "polyhedral", "vertices": [[1e200, 0], [-1e200, 0], [0, 1], [0, -1]]}}, 0),
    "matrix_linf": ("measure", {"matrix": [[1e308, -1e308], [1, -2]], "norm": {"kind": "lp", "p": "inf"}}, 65),
    "matrix_l2": ("measure", {"matrix": [[1e308, -1e308], [1, -2]], "norm": {"kind": "lp", "p": 2}}, 65),
    "polygon_norm_of_huge_matrix": ("measure", {"matrix": [[1e308, 1e308], [1, -2]], "norm": {
        "kind": "polyhedral", "vertices": [[2, 2], [-2, -2], [1, -1], [-1, 1]]}}, 65),
    "diffusion_1e308": ("diffusion", {"matrix": [[1, -3], [1, -2]], "D": [1, 1], "x0": [1e308, 0],
                                      "z0": [-1e308, 1], "horizon": 1, "dt": 0.01}, 65),
    # the decoupling check's half-sums used to overflow: exit 70
    "diffusion_coupled_overflow": ("diffusion", {
        "matrix": [[1e300, -3, 1e-9], [-1e150, 1, -3], [1, 1e-9, 1e308]], "D": [1e150, 1e300, 1e-300],
        "x0": [-1, 0.5, 1e-9], "z0": [-1e300, 2, -1e-9], "horizon": 1, "dt": 0.01}, 65),
    # A - D overflows: the coupled block itself is refused
    "diffusion_block_overflow": ("diffusion", {"matrix": [[-1e308]], "D": [1e308], "x0": [1], "z0": [0],
                                               "horizon": 1, "dt": 0.01}, 65),
    # the Riesz-Thorin cap overflowed: warnings, exit 0 and "error_bound": NaN
    "lp3_riesz_thorin_overflow": ("measure", {"matrix": [[1e308, 0], [0, 1]], "norm": {"kind": "lp", "p": 3}}, 65),
    "scaled_lp3_overflow": ("measure", {"matrix": [[1e308, 0], [0, 1]], "norm": {
        "kind": "scaled", "T": [[2, 0], [0, 1]], "inner": {"kind": "lp", "p": 3}}}, 65),
    # one-dimensional, so closed: mu = 1e308 (it used to print overflow
    # warnings and "error_bound": Infinity, then to be refused as inf)
    "scaled_lp3_1d": ("measure", {"matrix": [[1e308]], "norm": {
        "kind": "scaled", "T": [[1]], "inner": {"kind": "lp", "p": 3}}}, 0),
    # the l_1 / l_inf measure summed |a_ii| into the row and took it out
    # again: inf, refused, though mu = 1e308
    "lp1_huge_diagonal": ("measure", {"matrix": [[1e308, 0], [0, 1]], "norm": {"kind": "lp", "p": 1}}, 0),
    "linf_1d_huge": ("measure", {"matrix": [[1e308]], "norm": {"kind": "lp", "p": "inf"}}, 0),
    # the scaled ball's vertices overflow: three RuntimeWarnings, then exit 65
    "scaled_polytope_1e-300": ("classify", {"norm": {"kind": "scaled", "T": [[-1e-300]], "inner": {
        "kind": "polyhedral", "vertices": [[1e300], [-1e300]]}}}, 65),
    "scaled_polytope_1e-9": ("classify", {"norm": {"kind": "scaled", "T": [[-1e-9]], "inner": {
        "kind": "polyhedral", "vertices": [[1e300], [-1e300]]}}}, 65),
    # the block's row sums overflow: a RuntimeWarning, then "need dt <= 0"
    "diffusion_block_norm_overflow": ("diffusion", {
        "matrix": [[-1, 1e308, 1e308], [-3, 1e-9, 1], [-1, -3, 1e-300]], "D": [1e150, 1e150, 3],
        "x0": [2, 2, 1], "z0": [-3, -1e150, -1e-9], "horizon": 1, "dt": 0.01}, 65),
    # the sampled classifiers' T x overflows: two RuntimeWarnings, same verdicts
    "scaled_lp3_sampled_overflow": ("classify", {"norm": {"kind": "scaled", "T": [[1e308, 1e308], [-1e300, 1e150]],
                                                          "inner": {"kind": "lp", "p": 3}}, "dim": 2}, 0),
    # sqrt(2) |x0 - z0|_inf = 1.41e308 is just under MAX_INITIAL_STATE
    "diffusion_near_bound": ("diffusion", {"matrix": [[1, -3], [1, -2]], "D": [1, 1], "x0": [5e307, 0],
                                           "z0": [-5e307, 1], "horizon": 1, "dt": 0.01}, 0),
}


# the measures of the accepted documents that are not 1
HUGE_VALUES = {"scaled_lp3_1d": 1e308, "lp1_huge_diagonal": 1e308, "linf_1d_huge": 1e308}


@pytest.mark.parametrize("case", sorted(HUGE_INPUTS))
def test_huge_inputs_get_a_typed_answer_and_no_warning(capsys, tmp_path, case):
    cmd, doc, expected = HUGE_INPUTS[case]
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("always")
        code, out, err = _run(capsys, cmd, "--in", _write_doc(tmp_path, doc))
    assert code == expected and caught == []
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        parsed = json.loads(out, parse_constant=lambda name: pytest.fail(f"invalid JSON constant {name}"))
        if cmd == "measure":
            assert parsed["value"] == HUGE_VALUES.get(case, 1.0)
    else:
        assert out == "" and len(err.splitlines()) == 1


_FINITE_ENTRIES = st.sampled_from([0.0, 1e-300, -1e-300, 1.0, -1.0, 1e150, -1e150, 1e300, -1e300])
_HOSTILE_ENTRIES = _FINITE_ENTRIES | st.sampled_from([math.nan, math.inf, -math.inf])
# every JSON type; integers stay small where they are legal, so that a
# budget does not turn one example into a long certificate search
_HOSTILE_COUNTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.sampled_from([10_000, 10_001, 100_000, 100_001, 10**30]),
    st.floats(-3.0, 30.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 2.5]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_HOSTILE_DSTABLE = st.fixed_dictionaries(
    {
        # all-finite matrices get a branch of their own: at n = 16, a
        # non-finite entry somewhere would otherwise be near certain
        "matrix": st.tuples(st.integers(1, 16), st.sampled_from([_FINITE_ENTRIES, _HOSTILE_ENTRIES])).flatmap(
            lambda nx: st.lists(st.lists(nx[1], min_size=nx[0], max_size=nx[0]), min_size=nx[0], max_size=nx[0])
        )
    },
    optional={"budget": _HOSTILE_COUNTS, "falsify_budget": _HOSTILE_COUNTS},
)


def _eigen_failure_11x11() -> list:
    # LAPACK's eigvals does not converge on this matrix: exit 65, not 70
    A = [[0.0] * 11 for _ in range(11)]
    for i, j in ((2, 10), (5, 2), (7, 10), (8, 5), (8, 10), (9, 7), (10, 6)):
        A[i][j] = 1e-300
    for i, j in ((4, 8), (5, 8), (6, 4)):
        A[i][j] = 1e150
    for i, j in ((4, 6), (9, 8), (10, 10)):
        A[i][j] = 1.0
    A[10][9] = -1.0
    return A


# documents that broke the contract on every kernel; the seeded search
# below found them only under OPENBLAS_CORETYPE=Prescott
HOSTILE_DSTABLE_EXAMPLES = [
    # the float determinant overflowed, with a RuntimeWarning on stderr
    {"matrix": [[0.0, 1e300], [1e150, 0.0]]},
    {"matrix": _eigen_failure_11x11()},
]


def _check_exit_contract(doc, code, out, err, caught) -> None:
    assert code in (0, 1, 2, 65), doc
    assert caught == [] and "Traceback" not in err and "Warning" not in err, doc
    if code == 65:
        assert out == "" and len(err.splitlines()) == 1, doc
    else:
        assert json.loads(out)["verdict"] == {0: "stable", 1: "unstable", 2: "unknown"}[code]


@seed(25)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_HOSTILE_DSTABLE)
@example(doc=HOSTILE_DSTABLE_EXAMPLES[0])
@example(doc=HOSTILE_DSTABLE_EXAMPLES[1])
def test_hostile_dstable_documents_keep_the_exit_contract(capsys, tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("hostile") / "in.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "dstable", "--in", str(path))
    _check_exit_contract(doc, code, out, err, [str(w.message) for w in caught])


_HOSTILE_CHILD = """
import contextlib, io, json, sys, warnings
import numpy as np
from logmeasure.cli import main
runs = []
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dstable", "--in", path])
    runs.append([code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]])
print(json.dumps(runs))
"""


@pytest.mark.skipif(
    not _dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be chosen"
)
def test_hostile_examples_keep_the_exit_contract_on_every_openblas_kernel(tmp_path):
    paths = [_write_doc(tmp_path, doc, f"hostile{k}.json") for k, doc in enumerate(HOSTILE_DSTABLE_EXAMPLES)]
    src = str(Path(logmeasure.__file__).resolve().parents[1])
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", _HOSTILE_CHILD, *paths],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for kernel in OPENBLAS_KERNELS
    }
    for kernel, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0 and err == "", (kernel, err)
        for doc, run in zip(HOSTILE_DSTABLE_EXAMPLES, json.loads(out)):
            _check_exit_contract((kernel, doc), *run)


# ---------------------------------------------------------------- seeds


def test_seed_sources(capsys, tmp_path, monkeypatch):
    doc = {
        "op": "measure",
        "matrix": [[0.3, -1.2], [0.7, 0.1]],
        "norm": {"kind": "lp", "p": 3},
    }
    path = _write_doc(tmp_path, doc)

    code, out_a, _ = _run(capsys, "measure", "--in", path, "--seed", "7")
    code, out_b, _ = _run(capsys, "measure", "--in", path, "--seed", "7")
    assert out_a == out_b

    monkeypatch.setenv("LOGMEASURE_SEED", "7")
    code, out_env, _ = _run(capsys, "measure", "--in", path)
    assert out_env == out_a

    # an explicit flag wins over the environment
    monkeypatch.setenv("LOGMEASURE_SEED", "12345")
    code, out_flag, _ = _run(capsys, "measure", "--in", path, "--seed", "7")
    assert out_flag == out_a

    monkeypatch.setenv("LOGMEASURE_SEED", "not-a-number")
    assert main(["measure", "--in", path]) == 64
