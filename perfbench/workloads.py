"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns. Inputs come only from the seed. Each op is an
``Op`` with ``run()`` (the timed calls into the public API, returning a
plain record) and ``check(record)`` (route-independent oracles, run after
the timed phase; it returns a list of problems, empty when the output is
correct).

Each workload has a fixed cycle of input slots: every slot runs once per
cycle (slots are weighted evenly except in estimated_lp, see ``_est_cycle``),
and a run covers a whole number of cycles. So every run and every seed
measures the same mix of norm families, dimensions and verdict classes, and
the same number of ops; the seed only draws the numbers, fresh for each op.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import logmeasure as lm
import oracles as ref

INF = math.inf


@dataclass
class Op:
    slot: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    run_inproc: Callable[[], dict] | None = None


@dataclass
class Workload:
    # whole cycles: ops[k * cycle:(k + 1) * cycle] is cycle k
    ops: list
    # slots per cycle
    cycle: int
    # peak memory is the largest child process, not this one
    rss_from_children: bool = False


# Whole cycles per second of --seconds. The count depends only on
# --seconds, never on the clock, so every run with the same --seconds does
# the same work. One cycle costs about 10, 0.9, 2.2 and 6 s on a 2-vCPU
# x86-64 host with one BLAS thread; at --seconds 20 a run takes 15-50 s, and
# every workload but the CLI (whose ops all cost about the same) has at
# least 49 ops, so its tail percentile lies above p75. The run time left
# within the benchmark's time budget goes to estimated_lp and
# dstable_diffusion, whose op costs spread the most.
CYCLES_PER_S = {"cli_examples": 0.1, "exact_routes": 0.8, "dstable_diffusion": 0.6, "estimated_lp": 0.35}


def cycles_for(name: str, seconds: float) -> int:
    return max(1, round(seconds * CYCLES_PER_S[name]))


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _problems(pairs) -> list:
    return [msg for ok, msg in pairs if not ok]


# ------------------------------------------------------------------ exact_routes


def _cube(n: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def _cross(n: int) -> np.ndarray:
    return np.vstack([np.eye(n), -np.eye(n)])


def _pos_diag(rng, n: int) -> np.ndarray:
    return np.diag(np.exp(rng.uniform(math.log(0.2), math.log(5.0), n)))


def _mixing(rng, n: int) -> np.ndarray:
    while True:
        T = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        if np.linalg.cond(T) < 50:
            return T


_HEXAGON = np.array(
    [[1.0, 1.0], [0.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0], [1.0, 0.0]]
)


def _hexagon_like(rng, mirrored: bool):
    """The hexagon norm (l_inf on sign-agreeing orthants, l_1 elsewhere) or its
    mirror image, composed with a positive diagonal scaling t: |x| = hex(t x)."""
    t = _pos_diag(rng, 2)
    agree, disagree = (1.0, INF) if mirrored else (INF, 1.0)
    cases = {
        "++": lm.Scaled(t, lm.Lp(agree)),
        "--": lm.Scaled(t, lm.Lp(agree)),
        "+-": lm.Scaled(t, lm.Lp(disagree)),
        "-+": lm.Scaled(t, lm.Lp(disagree)),
    }
    V = _HEXAGON * np.array([1.0, -1.0]) if mirrored else _HEXAGON
    return lm.PiecewiseOrthant(cases), ref.PolyRef(V @ np.linalg.inv(t).T), (False, True)


def _exact_norm_pool(rng) -> list:
    """(slot, spec, dim, reference, known (absolute, orthant_monotonic), sweep).

    About half the slots are admissible (absolute or hexagon-like) and half
    are not (non-diagonal scalings, random polytopes). Dimensions are fixed
    per slot so every seed costs about the same.
    """
    pool = []
    for p, n in ((1.0, 3), (2.0, 5), (INF, 6)):
        pool.append((f"lp{p:g}.{n}d", lm.Lp(p), n, ref.ClosedRef(p, np.eye(n)), (True, True)))
    for p, n in ((1.0, 4), (2.0, 3), (INF, 5)):
        T = _pos_diag(rng, n)
        pool.append((f"diag_scaled_lp{p:g}.{n}d", lm.Scaled(T, lm.Lp(p)), n, ref.ClosedRef(p, T), (True, True)))
    for p, n in ((1.0, 2), (2.0, 4), (INF, 3)):
        T = _mixing(rng, n)
        pool.append((f"mixed_scaled_lp{p:g}.{n}d", lm.Scaled(T, lm.Lp(p)), n, ref.ClosedRef(p, T), None))
    for n, m in ((2, 5), (2, 7), (3, 6), (3, 8), (4, 8), (4, 10)):
        W = rng.standard_normal((m, n))
        W /= np.linalg.norm(W, axis=1)[:, None]
        V = np.vstack([W, -W])
        pool.append((f"random_polytope.{n}d", lm.Polyhedral(V), n, ref.PolyRef(V), None))
    for mirrored in (False, True):
        spec, r, known = _hexagon_like(rng, mirrored)
        pool.append(("hexagon_like.2d", spec, 2, r, known))
    for kind, n in (("cube", 4), ("cube", 6), ("cross", 5), ("cross", 6)):
        V = _cube(n) if kind == "cube" else _cross(n)
        p = INF if kind == "cube" else 1.0
        pool.append((f"{kind}.{n}d", lm.Polyhedral(V), n, ref.ClosedRef(p, np.eye(n)), (True, True)))
    for kind, n, diagonal in (("cube", 5, True), ("cross", 6, True), ("cube", 3, False), ("cross", 4, False)):
        V = _cube(n) if kind == "cube" else _cross(n)
        p = INF if kind == "cube" else 1.0
        T = _pos_diag(rng, n) if diagonal else _mixing(rng, n)
        label = "diag_scaled" if diagonal else "mixed_scaled"
        pool.append(
            (
                f"{label}_{kind}.{n}d",
                lm.Scaled(T, lm.Polyhedral(V)),
                n,
                ref.ClosedRef(p, T),
                (True, True) if diagonal else None,
            )
        )
    pool = [(slot, spec, n, r, known, True) for slot, spec, n, r, known in pool]
    # Qhull splits the 7-D cube's 14 facets into 13,686 simplices; the
    # 200-sample admissibility sweep is skipped on it to keep one op short.
    pool.append(("cube.7d", lm.Polyhedral(_cube(7)), 7, ref.ClosedRef(INF, np.eye(7)), (True, True), False))
    return pool


def _verdict_record(v) -> list:
    w = None if v.witness is None else np.asarray(v.witness).tolist()
    return [bool(v.holds), bool(v.exact), w, int(v.checks_run)]


def _exact_op(norm, A: np.ndarray, seed: int, sweep: bool) -> dict:
    mu = lm.matrix_measure(A, norm)
    nv = lm.induced_matrix_norm(A, norm)
    sw = lm.check_measure_sandwich(A, norm)
    ab = lm.is_absolute(norm, seed=seed)
    om = lm.is_orthant_monotonic(norm, seed=seed)
    out = {
        "mu": mu.value,
        "mu_method": mu.method,
        "norm": nv.value,
        "norm_method": nv.method,
        "sandwich": [sw.abscissa, sw.measure, sw.norm_value, bool(sw.passed)],
        "absolute": _verdict_record(ab),
        "orthant_monotonic": _verdict_record(om),
        "admissible": None,
    }
    if sweep:
        adm = lm.is_admissible_measure(norm, seed=seed)
        ce = None if adm.counterexample_D is None else adm.counterexample_D.tolist()
        out["admissible"] = [bool(adm.admissible), bool(adm.exact), ce]
    return out


def _check_exact(norm, r, known, A: np.ndarray, res: dict) -> list:
    n = A.shape[0]
    tol = 1e-7
    mu, nv = res["mu"], res["norm"]
    s = ref.abscissa(A)
    ref_mu, ref_nv = r.mu(A), r.induced(A)
    shifted = lm.matrix_measure(A + 1.5 * np.eye(n), norm).value
    ab_holds, _, ab_w, _ = res["absolute"]
    om_holds, _, om_w, _ = res["orthant_monotonic"]
    checks = [
        (res["mu_method"] != "estimated" and res["norm_method"] != "estimated", "estimated route on an exact norm"),
        (s <= mu + tol * (1 + abs(mu)), f"abscissa {s:.12g} > measure {mu:.12g}"),
        (mu <= nv + tol * (1 + abs(nv)), f"measure {mu:.12g} > norm {nv:.12g}"),
        (ref.close(mu, ref_mu, tol), f"measure {mu:.15g} != reference {ref_mu:.15g}"),
        (ref.close(nv, ref_nv, tol), f"norm {nv:.15g} != reference {ref_nv:.15g}"),
        (ref.close(shifted, mu + 1.5, tol), f"shift rule: mu(A+1.5I) = {shifted:.15g} vs {mu + 1.5:.15g}"),
        (res["sandwich"][3], "sandwich check reported failure"),
        (ref.close(res["sandwich"][1], mu, tol) and ref.close(res["sandwich"][2], nv, tol), "sandwich disagrees"),
    ]
    if known is not None:
        checks.append((ab_holds == known[0], f"is_absolute {ab_holds}, expected {known[0]}"))
        checks.append((om_holds == known[1], f"is_orthant_monotonic {om_holds}, expected {known[1]}"))
    if not ab_holds:
        w = np.asarray(ab_w, dtype=float)
        if w.ndim == 2:  # a sign diagonal S with ||S|| != 1
            checks.append((abs(r.induced(w) - 1.0) > 1e-9, f"absolute witness S {ab_w} has norm 1"))
        else:
            checks.append((not ref.close(r.norm_of(w), r.norm_of(np.abs(w)), 1e-9), f"absolute witness {ab_w} fails"))
    if not om_holds:
        x = np.asarray(om_w, dtype=float)
        base = r.norm_of(x)
        grows = any(r.norm_of(np.where(np.arange(n) == j, 0.0, x)) > base * (1 + 1e-9) for j in range(n))
        checks.append((grows, f"orthant-monotonic witness {om_w} fails"))
    if res["admissible"] is not None:
        adm, _, ce = res["admissible"]
        checks.append((adm == om_holds, f"admissible {adm} but orthant_monotonic {om_holds}"))
        if not adm:
            D = np.asarray(ce, dtype=float)
            diag_ok = np.allclose(D, np.diag(np.diag(D))) and np.all(np.diag(D) >= 0)
            checks.append((diag_ok, "counterexample D is not a nonnegative diagonal"))
            mu_neg = r.mu(-D)
            checks.append((mu_neg > 1e-9, f"counterexample D gives mu(-D) = {mu_neg:.3g} <= 0"))
    return _problems(checks)


def build_exact_routes(seed: int, cycles: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    pool = [
        (slot, lm.validate_norm_spec(spec, dim=n), n, r, known, sweep)
        for slot, spec, n, r, known, sweep in _exact_norm_pool(rng)
    ]
    ops = []
    for i in range(cycles * len(pool)):
        slot, norm, n, r, known, sweep = pool[i % len(pool)]
        A = rng.standard_normal((n, n))
        s = _seed_of(rng)
        ops.append(
            Op(
                slot,
                run=lambda norm=norm, A=A, s=s, sweep=sweep: _exact_op(norm, A, s, sweep),
                check=lambda res, norm=norm, r=r, known=known, A=A: _check_exact(norm, r, known, A, res),
            )
        )
    return Workload(ops, cycle=len(pool))


# ------------------------------------------------------------------ dstable_diffusion

HORIZON = 2.0
# simulate() requires dt * ||block||_inf <= 0.1; each op runs at that limit.
STEP_NORM_BOUND = 0.1


def _skew(rng, n: int, scale: float) -> np.ndarray:
    U = np.triu(rng.uniform(-scale, scale, (n, n)), 1)
    return U - U.T


def _certified_dominant(rng, n: int) -> np.ndarray:
    """Negative diagonal dominating rows and columns: mu_1(A) < 0."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(A, 0.0)
    A[0, 1] = -abs(A[0, 1]) - 0.1
    c = max(np.abs(A).sum(axis=0).max(), np.abs(A).sum(axis=1).max())
    return A - (c + rng.uniform(0.5, 1.5)) * np.eye(n)


def _certified_skew(rng, n: int) -> np.ndarray:
    """Skew plus -cI: the symmetric part is -cI, so mu_2(A) = -c < 0."""
    return _skew(rng, n, 3.0) - rng.uniform(0.5, 1.5) * np.eye(n)


def _falsifiable(rng, n: int) -> np.ndarray:
    """Hurwitz with a_11 > 0: large shifts on the other coordinates leave
    an eigenvalue near a_11, so some nonnegative D destabilizes it. With
    a_11 >= 0.8 the falsifier's box [0, 10 (1 + ||A||_inf)] holds such a D."""
    while True:
        A = _skew(rng, n, 4.0) - rng.uniform(1.5, 2.5) * np.eye(n)
        A[0, 0] = rng.uniform(0.8, 1.5)
        if ref.abscissa(A) < -0.05:
            return A


def _undecided(rng, n: int) -> np.ndarray:
    """Permuted triangular with negative diagonal: additively D-stable, yet
    superdiagonal entries of 20-40 defeat every diagonal scaling within the
    certificate family's [0.1, 10] range, so the pipeline answers unknown."""
    U = np.triu(rng.uniform(-2.0, 2.0, (n, n)), 2)
    U += np.diag(rng.uniform(20.0, 40.0, n - 1) * rng.choice([-1.0, 1.0], n - 1), 1)
    U[0, 1] = -abs(U[0, 1])
    A = U - np.diag(rng.uniform(0.5, 2.0, n))
    P = np.eye(n)[rng.permutation(n)]
    return P @ A @ P.T


# The three verdict classes, in equal shares: (generators, verdicts that are
# correct for the class). Certified matrices alternate between the two
# constructions cycle by cycle. "unknown" is a correct answer except where
# l_1 or l_2, the first family members, certify.
_DSTABLE_CLASSES = (
    ((_certified_dominant, _certified_skew), {"stable"}),
    ((_falsifiable,), {"unstable", "unknown"}),
    ((_undecided,), {"stable", "unknown"}),
)


def _block_inf_norm(A: np.ndarray, d: np.ndarray) -> float:
    return float((np.abs(A - np.diag(d)).sum(axis=1) + d).max())


def _dstable_op(A: np.ndarray, x0, z0, seed: int) -> dict:
    n = A.shape[0]
    rep = lm.additive_d_stability_report(A, seed=seed)
    D = rep.counterexample.D if rep.counterexample is not None else np.eye(n)
    d = np.diag(D).copy()
    sync = lm.sync_verdict(A, D)
    dt = STEP_NORM_BOUND / _block_inf_norm(A, d)
    traj = lm.simulate(A, D, x0, z0, horizon=HORIZON, dt=dt)
    cert = rep.certificate
    return {
        "verdict": rep.verdict,
        "method": rep.method,
        "certificate": None if cert is None else [lm.norm_spec_to_json(cert.norm), cert.mu],
        "counterexample": None if rep.counterexample is None else [d.tolist(), rep.counterexample.abscissa],
        "d": d.tolist(),
        "sync": bool(sync),
        "steps": int(traj.times.shape[0] - 1),
        "t_final": float(traj.times[-1]),
        "y_final": traj.states[-1].tolist(),
        "sync_final": float(traj.sync_metric[-1]),
        "diverged": bool(traj.diverged),
    }


def _certificate_ref(spec: dict, n: int) -> ref.ClosedRef | None:
    if spec["kind"] == "lp":
        core, F = spec, np.eye(n)
    elif spec["kind"] == "scaled" and spec["inner"]["kind"] == "lp":
        core, F = spec["inner"], np.asarray(spec["T"], dtype=float)
        if not np.allclose(F, np.diag(np.diag(F))) or np.any(np.diag(F) <= 0):
            return None
    else:
        return None
    p = INF if core["p"] == "inf" else float(core["p"])
    return ref.ClosedRef(p, F) if p in (1.0, 2.0, INF) else None


def _check_dstable(A, x0, z0, allowed, res: dict) -> list:
    n = A.shape[0]
    d = np.asarray(res["d"])
    checks = [(res["verdict"] in allowed, f"verdict {res['verdict']}, expected one of {sorted(allowed)}")]
    if res["counterexample"] is not None:
        checks.append((bool(np.all(d >= 0)), "counterexample D has a negative entry"))
        checks.append((ref.abscissa(A - np.diag(d)) > 0, "counterexample does not destabilize"))
    if res["certificate"] is not None:
        spec, mu = res["certificate"]
        r = _certificate_ref(spec, n)
        checks.append((r is not None, f"certificate norm {spec} is not a positive-diagonal l_1/l_2/l_inf"))
        if r is not None:
            ref_mu = r.mu(A)
            checks.append((ref_mu < 0 and ref.close(ref_mu, mu, 1e-9), f"certificate mu {mu:.6g} vs {ref_mu:.6g}"))
    if res["verdict"] == "stable":
        hit = lm.falsify_on_grid(A)
        checks.append((hit is None, "falsify_on_grid destabilizes a certified matrix"))
    s2 = ref.abscissa(A - 2.0 * np.diag(d))
    checks.append((res["sync"] == (s2 < 0), f"sync_verdict {res['sync']} but abscissa(A-2D) = {s2:.6g}"))
    y0 = np.concatenate([x0, z0])
    y_ref = ref.expm_state(A, d, y0, res["t_final"])
    err = float(np.abs(np.asarray(res["y_final"]) - y_ref).max())
    checks.append((err <= 1e-6 * (1.0 + np.abs(y_ref).max()), f"simulate final state off by {err:.3g}"))
    return _problems(checks)


def build_dstable_diffusion(seed: int, cycles: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    slots = [(cls, n) for n in (3, 4, 5) for cls in _DSTABLE_CLASSES]
    ops = []
    for i in range(cycles * len(slots)):
        (makers, allowed), n = slots[i % len(slots)]
        make = makers[i // len(slots) % len(makers)]
        A = make(rng, n)
        x0, z0 = rng.standard_normal(n), rng.standard_normal(n)
        s = _seed_of(rng)
        ops.append(
            Op(
                f"{make.__name__.lstrip('_')}.{n}d",
                run=lambda A=A, x0=x0, z0=z0, s=s: _dstable_op(A, x0, z0, s),
                check=lambda res, A=A, x0=x0, z0=z0, ok=allowed: _check_dstable(A, x0, z0, ok, res),
            )
        )
    return Workload(ops, cycle=len(slots))


# ------------------------------------------------------------------ estimated_lp

# Each cycle runs every p on a general 2-D matrix under Lp(p) and under
# Scaled(T, Lp(p)), plus one 3-D diagonal matrix under Lp(p) (exact value
# known), its p taking turns cycle by cycle: 2/7 of the ops per p are
# general and 1/7 of all ops diagonal. A diagonal op costs a third of a
# general one; with a diagonal op per p in every cycle (1/3 of the ops) the
# median would fall on the sparse lower flank of the general ops' costs and
# move by up to a third between seeds. General 3-D inputs (1-5 s per op)
# are left out: with them a run of a few tens of seconds holds too few ops
# for a steady median and tail.
_EST_PS = (1.5, 3.0, 4.0)


def _est_cycle(k: int) -> list:
    general = [(2, p, kind) for p in _EST_PS for kind in ("plain", "scaled")]
    return general + [(3, _EST_PS[k % len(_EST_PS)], "diag")]


def _estimated_op(A, norm, seed: int) -> dict:
    mu = lm.matrix_measure(A, norm, seed=seed)
    nv = lm.induced_matrix_norm(A, norm, seed=seed)
    return {"mu": [mu.value, mu.method, mu.error_bound], "norm": [nv.value, nv.method, nv.error_bound]}


def _check_estimated(A, p: float, F: np.ndarray, diagonal: bool, res: dict) -> list:
    mu, mu_method, mu_err = res["mu"]
    nv, nv_method, nv_err = res["norm"]
    M = F @ A @ np.linalg.inv(F)
    theta = 1.0 / p
    norm_cap = ref.closed_norm(M, 1.0) ** theta * ref.closed_norm(M, INF) ** (1 - theta)
    mu_cap = theta * ref.closed_mu(M, 1.0) + (1 - theta) * ref.closed_mu(M, INF)
    tol = 1e-9
    checks = [
        (mu_method == "estimated" and nv_method == "estimated", "expected the estimated route"),
        (mu_err > 0 and nv_err > 0, "estimated result without a positive error bound"),
        (ref.abscissa(A) - mu_err <= mu + tol, f"mu {mu:.9g} + err {mu_err:.3g} below the abscissa"),
        (ref.spectral_radius(A) - nv_err <= nv + tol, f"norm {nv:.9g} + err {nv_err:.3g} below the spectral radius"),
        (nv <= norm_cap * (1 + tol) + tol, f"norm {nv:.12g} above the Riesz-Thorin cap {norm_cap:.12g}"),
        (mu - mu_err <= mu_cap + tol, f"mu {mu:.12g} - err above the interpolation cap {mu_cap:.12g}"),
    ]
    if diagonal:
        d = np.diag(A)
        checks.append((abs(mu - d.max()) <= mu_err + tol, f"diagonal mu {mu:.12g} vs exact {d.max():.12g}, err {mu_err:.3g}"))
        checks.append((abs(nv - np.abs(d).max()) <= nv_err + tol, f"diagonal norm {nv:.12g} vs exact {np.abs(d).max():.12g}"))
    return _problems(checks)


def build_estimated_lp(seed: int, cycles: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n, p, kind in (slot for k in range(cycles) for slot in _est_cycle(k)):
        A = np.diag(rng.uniform(-2.0, 2.0, n)) if kind == "diag" else rng.uniform(-2.0, 2.0, (n, n))
        F = _mixing(rng, n) if kind == "scaled" else np.eye(n)
        spec = lm.Scaled(F, lm.Lp(p)) if kind == "scaled" else lm.Lp(p)
        norm = lm.validate_norm_spec(spec, dim=n)
        s = _seed_of(rng)
        ops.append(
            Op(
                f"{kind}_lp{p:g}.{n}d",
                run=lambda A=A, norm=norm, s=s: _estimated_op(A, norm, s),
                check=lambda res, A=A, p=p, F=F, k=kind: _check_estimated(A, p, F, k == "diag", res),
            )
        )
    return Workload(ops, cycle=len(_est_cycle(0)))


# ------------------------------------------------------------------ cli_examples

FRAGILE = np.array([[1.0, -3.0], [1.0, -2.0]])
_PARALLELOGRAM = np.array([[2.0, 2.0], [-2.0, -2.0], [1.0, -1.0], [-1.0, 1.0]])
_SHEAR = np.array([[1.0, 2.0], [1.0, 3.0]])
_BATTERY = (
    "l1", "l2", "linf", "l1_diag_scaled", "l2_diag_scaled", "linf_diag_scaled",
    "hexagon", "parallelogram", "sheared_linf",
)
_NOT_OM = {"parallelogram", "sheared_linf"}
_NOT_ABSOLUTE = {"hexagon", "parallelogram", "sheared_linf"}

# (subcommand, --example, --format); battery has no example document.
CLI_CASES = (
    ("measure", "fragile", "json"),
    ("measure", "hexagon", "json"),
    ("measure", "parallelogram", "json"),
    ("measure", "sheared_linf", "json"),
    ("classify", "hexagon", "json"),
    ("classify", "parallelogram", "json"),
    ("classify", "sheared_linf", "json"),
    ("dstable", "fragile", "json"),
    ("diffusion", "fragile", "json"),
    ("battery", None, "json"),
    ("battery", None, "text"),
    ("diffusion", "fragile", "csv"),
)


def _cli_refs() -> dict:
    return {
        "fragile": (ref.ClosedRef(INF, np.eye(2)), FRAGILE),
        "hexagon": (ref.PolyRef(_HEXAGON), FRAGILE),
        "parallelogram": (ref.PolyRef(_PARALLELOGRAM), FRAGILE),
        "sheared_linf": (ref.ClosedRef(INF, _SHEAR), -np.diag([1.0, 2.0])),
    }


def _check_trajectory_end(summary: dict, last_state) -> list:
    d = np.ones(2)
    y_ref = ref.expm_state(FRAGILE, d, np.array([1.0, 0.0, 0.0, 1.0]), summary["final_time"])
    err = float(np.abs(np.asarray(last_state) - y_ref).max())
    sync = ref.abscissa(FRAGILE - 2.0 * np.diag(d)) < 0
    return _problems(
        [
            (summary["verdict"]["synchronizes"] == sync, "wrong synchronization verdict"),
            (summary["steps"] == 3000 and summary["final_time"] == 30.0, "wrong step count"),
            (not summary["diverged"], "fragile example diverged"),
            (err <= 1e-8, f"final state off by {err:.3g}"),
        ]
    )


def _check_cli(case, refs, res: dict) -> list:
    sub, example, fmt = case
    expected_code = 1 if sub == "dstable" else 0
    if res["code"] != expected_code:
        return [f"exit code {res['code']}, expected {expected_code}: {res['stderr'][-300:]}"]
    out = res["stdout"]
    if sub == "measure":
        r, A = refs[example]
        doc = json.loads(out)
        return _problems([(ref.close(doc["value"], r.mu(A), 1e-7), f"measure {doc['value']} vs {r.mu(A)}")])
    if sub == "classify":
        doc = json.loads(out)
        r, _ = refs[example]
        om = example not in _NOT_OM
        checks = [
            (doc["absolute"]["holds"] is (example not in _NOT_ABSOLUTE), "wrong absolute verdict"),
            (doc["orthant_monotonic"]["holds"] is om, "wrong orthant-monotonic verdict"),
            (doc["diag_identity"]["holds"] is om, "wrong diagonal-identity verdict"),
        ]
        w = doc["absolute"]["witness"]
        if w is not None:
            w = np.asarray(w, dtype=float)
            bad = abs(r.induced(w) - 1) > 1e-9 if w.ndim == 2 else not ref.close(r.norm_of(w), r.norm_of(np.abs(w)), 1e-9)
            checks.append((bad, "absolute witness does not re-verify"))
        if doc["diag_identity"]["witness"] is not None:
            D = np.asarray(doc["diag_identity"]["witness"], dtype=float)
            checks.append((abs(r.induced(D) - D.max()) > 1e-9, "diagonal witness does not re-verify"))
        return _problems(checks)
    if sub == "dstable":
        doc = json.loads(out)
        D = np.asarray(doc["counterexample"]["D"], dtype=float)
        return _problems(
            [
                (doc["verdict"] == "unstable", "fragile matrix not reported unstable"),
                (ref.abscissa(FRAGILE - D) > 0 and np.all(np.diag(D) >= 0), "counterexample does not re-verify"),
            ]
        )
    if sub == "diffusion" and fmt == "json":
        doc = json.loads(out)
        return _check_trajectory_end(doc, doc["trajectory"]["states"][-1])
    if sub == "diffusion":
        rows = res["file"].strip().split("\n")
        problems = [] if len(rows) == 3002 else [f"csv has {len(rows)} lines, expected 3002"]
        last = [float(v) for v in rows[-1].split(",")[1:5]]
        return problems + _check_trajectory_end(json.loads(out), last)
    if fmt == "json":
        doc = json.loads(out)
        rows = doc["rows"]
        return _problems(
            [
                ([row["name"] for row in rows] == list(_BATTERY), "wrong battery members"),
                (doc["all_agree"], "battery columns disagree"),
                (all(row["orthant_monotonic"]["holds"] is (row["name"] not in _NOT_OM) for row in rows), "wrong OM column"),
                (all(row["absolute"]["holds"] is (row["name"] not in _NOT_ABSOLUTE) for row in rows), "wrong absolute column"),
                (all(row["admissibility"]["admissible"] is (row["name"] not in _NOT_OM) for row in rows), "wrong admissible column"),
            ]
        )
    lines = out.strip().split("\n")
    body = [line.split() for line in lines[1:-1]]
    return _problems(
        [
            ([cells[0] for cells in body] == list(_BATTERY), "wrong battery text rows"),
            (all(cells[-1] == "yes" for cells in body), "battery text reports disagreement"),
        ]
    )


def _cli_argv(case, seed: int, out_path: str | None) -> list:
    sub, example, fmt = case
    argv = [sub]
    if example is not None:
        argv += ["--example", example]
    argv += ["--format", fmt, "--seed", str(seed)]
    if out_path is not None:
        argv += ["--out", out_path]
    return argv


def _read_out(out_path: str | None) -> str | None:
    if out_path is None:
        return None
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(out_path)
    return text


def _cli_subprocess(argv, out_path, env) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "logmeasure", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return {"argv0": argv[0], "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "file": _read_out(out_path)}


def _cli_inproc(argv, out_path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lm.cli.main(list(argv))
    return {"argv0": argv[0], "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "file": _read_out(out_path)}


def build_cli_examples(seed: int, cycles: int, scratch_dir: str) -> Workload:
    importlib.import_module("logmeasure.cli")
    rng = np.random.default_rng([seed, 4])
    env = {k: v for k, v in os.environ.items() if k != "LOGMEASURE_SEED"}
    refs = _cli_refs()
    ops = []
    for i in range(cycles * len(CLI_CASES)):
        case = CLI_CASES[i % len(CLI_CASES)]
        out_path = os.path.join(scratch_dir, "trajectory.csv") if case[2] == "csv" else None
        argv = _cli_argv(case, _seed_of(rng), out_path)
        ops.append(
            Op(
                f"{case[0]}.{case[1] or 'builtin'}.{case[2]}",
                run=lambda argv=argv, out_path=out_path: _cli_subprocess(argv, out_path, env),
                check=lambda res, case=case: _check_cli(case, refs, res),
                run_inproc=lambda argv=argv, out_path=out_path: _cli_inproc(argv, out_path),
            )
        )
    return Workload(ops, cycle=len(CLI_CASES), rss_from_children=True)


def build(name: str, seed: int, seconds: float, scratch_dir: str) -> Workload:
    cycles = cycles_for(name, seconds)
    if name == "cli_examples":
        return build_cli_examples(seed, cycles, scratch_dir)
    builders = {
        "exact_routes": build_exact_routes,
        "dstable_diffusion": build_dstable_diffusion,
        "estimated_lp": build_estimated_lp,
    }
    return builders[name](seed, cycles)
