"""CLI output pinned byte for byte.

Every shipped example x output format x seed runs in process; the sha256
of its exit code, stdout and stderr must match the digest recorded before
the stacked eigen/measure kernels replaced the per-candidate loops. A
digest that moves means some result changed in its last bits.

Twelve digests, measure/{hexagon,parallelogram}/{json,text}/* over the
three seeds, were re-recorded when the polytope measure moved from a
halving difference quotient to the exact vertex-facet formula: the values
became exact (hexagon 0.9999999999998899 -> 1.0, parallelogram
2.2500000000000853 -> 2.25), the JSON lost its "h_used" field and the text
its "quotient step:" line. The other digests did not move.

Six digests, diffusion/fragile/{json,csv}/* over the three seeds, were
re-recorded when the RK4 integrator came to be evaluated as its propagator
y <- P y, P = sum_{k<=4} (dt B)^k / k!, instead of four stages per step.
The two are the same map in exact arithmetic; every number of those
outputs stayed within 1e-12 (1 + |v|) of the stages' output (the largest
move was 1.5e-15 (1 + |v|)), and the diffusion text digests, which print 6
significant digits, did not move.

Twenty-four digests, classify/*/{json,text}/* and battery/-/{json,text}/*,
were re-recorded when admissibility, absoluteness and the diagonal norm
identity came to be decided by convexity, on n extreme rays, n single sign
flips and n projections, instead of sampled diagonals and 2^n sign
patterns. Every verdict stayed. What moved: checks_run (200 sampled
diagonals became 2 extreme rays; 2^n patterns became n flips; 100 sampled
diagonals became 2 projections), "exact" turned true with the text's "~"
and "(sampled)" marks gone, the diag_identity witness is the first
projection diag(0, 1) instead of the sampled diag(1, 2), the battery's
trace witnesses are the extreme-ray violators E_1, I - E_1 and
(2 / mu(-E_1)) E_1, and sheared_linf's counterexample_D is diag(1, 0)
(mu(-D) = 5) instead of diag(1, 2). The battery CSV digests did not move.

All nine diffusion/fragile/{json,csv,text}/* digests were re-recorded when
simulate came to propagate the decoupled halves ((x + z) / 2, (z - x) / 2)
under diag(P(A), P(A - 2D)), 64 steps per product, and to read the sync
metric as 2 |(z - x) / 2|_2. final_sync went from 0.0, the cancellation of
two states of order 1e-7, to 1.28574e-32, the RK4 value (a 50-digit run of
the staged recursion gives the same to 12 digits); the states moved in
their last digits. The text digests moved with the printed final sync
metric. The other 57 digests did not move.

Run as a script (``python3 tests/test_golden.py``), this file prints the
digest table of the current checkout in GOLDEN's layout, through the same
``digest`` helper the test uses; re-record from that output.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH,
x86-64 Haswell kernels). They are the same under the Sandybridge and Prescott
kernels, which ``test_golden_table_is_the_same_on_every_openblas_kernel``
checks in child processes. Another BLAS build may round differently;
re-record them from an unchanged checkout when the numeric stack changes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    # run as a script, the table is computed from this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logmeasure.cli import _example_documents, main

FORMATS = {
    "measure": ("json", "text"),
    "classify": ("json", "text"),
    "dstable": ("json", "text"),
    "diffusion": ("json", "csv", "text"),
    "battery": ("json", "csv", "text"),
}
SEEDS = (None, 0, 5)

GOLDEN = {
    "battery/-/csv/0": "af65c0a618c7283fe98a93c45853762d72e55d866973c8ef2ceb5c1a14d79c95",
    "battery/-/csv/5": "af65c0a618c7283fe98a93c45853762d72e55d866973c8ef2ceb5c1a14d79c95",
    "battery/-/csv/default": "af65c0a618c7283fe98a93c45853762d72e55d866973c8ef2ceb5c1a14d79c95",
    "battery/-/json/0": "080ce2f7c9b1f249223d34c9518f11bb90bb168fc38787fe1a365e9a07d87c81",
    "battery/-/json/5": "080ce2f7c9b1f249223d34c9518f11bb90bb168fc38787fe1a365e9a07d87c81",
    "battery/-/json/default": "080ce2f7c9b1f249223d34c9518f11bb90bb168fc38787fe1a365e9a07d87c81",
    "battery/-/text/0": "85981ef41c16992ee8d0fba77b96e16e0d969da678383c7a1ebc3524b7111465",
    "battery/-/text/5": "85981ef41c16992ee8d0fba77b96e16e0d969da678383c7a1ebc3524b7111465",
    "battery/-/text/default": "85981ef41c16992ee8d0fba77b96e16e0d969da678383c7a1ebc3524b7111465",
    "classify/hexagon/json/0": "9670403981bd01fb9d2feeac83d808091beb7b7e5ba94ea32850a64950e2dec5",
    "classify/hexagon/json/5": "9670403981bd01fb9d2feeac83d808091beb7b7e5ba94ea32850a64950e2dec5",
    "classify/hexagon/json/default": "9670403981bd01fb9d2feeac83d808091beb7b7e5ba94ea32850a64950e2dec5",
    "classify/hexagon/text/0": "9eab39e25f4d75d9911bcca28a9b9d5b0c2d7437b86c5afc8c6ddeee25307c43",
    "classify/hexagon/text/5": "9eab39e25f4d75d9911bcca28a9b9d5b0c2d7437b86c5afc8c6ddeee25307c43",
    "classify/hexagon/text/default": "9eab39e25f4d75d9911bcca28a9b9d5b0c2d7437b86c5afc8c6ddeee25307c43",
    "classify/parallelogram/json/0": "787e1c0c0cf86f637b3bace51977b5f9063d817932dbfff94148ce5a4ac776e0",
    "classify/parallelogram/json/5": "787e1c0c0cf86f637b3bace51977b5f9063d817932dbfff94148ce5a4ac776e0",
    "classify/parallelogram/json/default": "787e1c0c0cf86f637b3bace51977b5f9063d817932dbfff94148ce5a4ac776e0",
    "classify/parallelogram/text/0": "b861fae4db1428fea9ca5c2884827c57f070e1bc5c24da772a4aeb38dee1d6ca",
    "classify/parallelogram/text/5": "b861fae4db1428fea9ca5c2884827c57f070e1bc5c24da772a4aeb38dee1d6ca",
    "classify/parallelogram/text/default": "b861fae4db1428fea9ca5c2884827c57f070e1bc5c24da772a4aeb38dee1d6ca",
    "classify/sheared_linf/json/0": "9c024cf789d9badcaea71ff003e71c70e47bba41454dd29647fff0790f877213",
    "classify/sheared_linf/json/5": "9c024cf789d9badcaea71ff003e71c70e47bba41454dd29647fff0790f877213",
    "classify/sheared_linf/json/default": "9c024cf789d9badcaea71ff003e71c70e47bba41454dd29647fff0790f877213",
    "classify/sheared_linf/text/0": "a6db8d050a0bdffd3d9a8a4f67660c66c1cf1b98277e2e3ebb44c5d4d8b54cc9",
    "classify/sheared_linf/text/5": "a6db8d050a0bdffd3d9a8a4f67660c66c1cf1b98277e2e3ebb44c5d4d8b54cc9",
    "classify/sheared_linf/text/default": "a6db8d050a0bdffd3d9a8a4f67660c66c1cf1b98277e2e3ebb44c5d4d8b54cc9",
    "diffusion/fragile/csv/0": "7d982cd0bed4502bbf6061162890a946f7cc72e5935ec426a92e948f01432b80",
    "diffusion/fragile/csv/5": "7d982cd0bed4502bbf6061162890a946f7cc72e5935ec426a92e948f01432b80",
    "diffusion/fragile/csv/default": "7d982cd0bed4502bbf6061162890a946f7cc72e5935ec426a92e948f01432b80",
    "diffusion/fragile/json/0": "35821a452c325c49542a36020473c890713c8355cd307b86bb497d2181ef0966",
    "diffusion/fragile/json/5": "35821a452c325c49542a36020473c890713c8355cd307b86bb497d2181ef0966",
    "diffusion/fragile/json/default": "35821a452c325c49542a36020473c890713c8355cd307b86bb497d2181ef0966",
    "diffusion/fragile/text/0": "0c78bc260f356dd7765c3be9b29cb264fc18bd6435417e8bee2c75f2125ce877",
    "diffusion/fragile/text/5": "0c78bc260f356dd7765c3be9b29cb264fc18bd6435417e8bee2c75f2125ce877",
    "diffusion/fragile/text/default": "0c78bc260f356dd7765c3be9b29cb264fc18bd6435417e8bee2c75f2125ce877",
    "dstable/fragile/json/0": "532f82367c4716cc71e52158504643557daef2a2cc1454659f7cc1f173882c44",
    "dstable/fragile/json/5": "532f82367c4716cc71e52158504643557daef2a2cc1454659f7cc1f173882c44",
    "dstable/fragile/json/default": "532f82367c4716cc71e52158504643557daef2a2cc1454659f7cc1f173882c44",
    "dstable/fragile/text/0": "d59f088375ad6d52d09f90b0118a788acabf145cf3adc658129b282fd2288246",
    "dstable/fragile/text/5": "d59f088375ad6d52d09f90b0118a788acabf145cf3adc658129b282fd2288246",
    "dstable/fragile/text/default": "d59f088375ad6d52d09f90b0118a788acabf145cf3adc658129b282fd2288246",
    "measure/fragile/json/0": "721053484f5e5f6b7a18f6d31930891c681e398a4f20ad0b3d2990e98d251a68",
    "measure/fragile/json/5": "721053484f5e5f6b7a18f6d31930891c681e398a4f20ad0b3d2990e98d251a68",
    "measure/fragile/json/default": "721053484f5e5f6b7a18f6d31930891c681e398a4f20ad0b3d2990e98d251a68",
    "measure/fragile/text/0": "f015c46187040931f8962bf6f9af0fb7a2ea81a33eb2d3abc576c590fbcfa18c",
    "measure/fragile/text/5": "f015c46187040931f8962bf6f9af0fb7a2ea81a33eb2d3abc576c590fbcfa18c",
    "measure/fragile/text/default": "f015c46187040931f8962bf6f9af0fb7a2ea81a33eb2d3abc576c590fbcfa18c",
    "measure/hexagon/json/0": "d25392d48d3e4606a6ce41160b861bbed97878087d014d307790ace55dcbf69e",
    "measure/hexagon/json/5": "d25392d48d3e4606a6ce41160b861bbed97878087d014d307790ace55dcbf69e",
    "measure/hexagon/json/default": "d25392d48d3e4606a6ce41160b861bbed97878087d014d307790ace55dcbf69e",
    "measure/hexagon/text/0": "03485bd1fb114dd0f9936f8e0869233b34d47660908ec529988b609b44d0879c",
    "measure/hexagon/text/5": "03485bd1fb114dd0f9936f8e0869233b34d47660908ec529988b609b44d0879c",
    "measure/hexagon/text/default": "03485bd1fb114dd0f9936f8e0869233b34d47660908ec529988b609b44d0879c",
    "measure/parallelogram/json/0": "bf430488faecad541392665574daac9288632ccce9f36ef51c36cad00d19b8c3",
    "measure/parallelogram/json/5": "bf430488faecad541392665574daac9288632ccce9f36ef51c36cad00d19b8c3",
    "measure/parallelogram/json/default": "bf430488faecad541392665574daac9288632ccce9f36ef51c36cad00d19b8c3",
    "measure/parallelogram/text/0": "e680bc713155ca4fb111f22155b6da6024abe09b4d3a07e6300873b176087ff5",
    "measure/parallelogram/text/5": "e680bc713155ca4fb111f22155b6da6024abe09b4d3a07e6300873b176087ff5",
    "measure/parallelogram/text/default": "e680bc713155ca4fb111f22155b6da6024abe09b4d3a07e6300873b176087ff5",
    "measure/sheared_linf/json/0": "a6515344723903b63aa91fc9de788d071cc79d5e6ba55b12b8c11192d7d6feed",
    "measure/sheared_linf/json/5": "a6515344723903b63aa91fc9de788d071cc79d5e6ba55b12b8c11192d7d6feed",
    "measure/sheared_linf/json/default": "a6515344723903b63aa91fc9de788d071cc79d5e6ba55b12b8c11192d7d6feed",
    "measure/sheared_linf/text/0": "a913927a8978cac5c4211909001384d6db332ae917e30af114f2f2c369c04aab",
    "measure/sheared_linf/text/5": "a913927a8978cac5c4211909001384d6db332ae917e30af114f2f2c369c04aab",
    "measure/sheared_linf/text/default": "a913927a8978cac5c4211909001384d6db332ae917e30af114f2f2c369c04aab",
}


def _cases():
    for example, docs in sorted(_example_documents().items()):
        for cmd in sorted(docs):
            for fmt in FORMATS[cmd]:
                yield cmd, example, fmt
    for fmt in FORMATS["battery"]:
        yield "battery", None, fmt


def _key(cmd, example, fmt, seed) -> str:
    return f"{cmd}/{example or '-'}/{fmt}/{'default' if seed is None else seed}"


def _argv(cmd, example, fmt, seed) -> list[str]:
    argv = [cmd, "--format", fmt]
    if example is not None:
        argv += ["--example", example]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def digest(code: int, out: str, err: str) -> str:
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.encode())
    h.update(b"\0")
    h.update(err.encode())
    return h.hexdigest()


def cli_digest(capsys, cmd, example, fmt, seed) -> str:
    code = main(_argv(cmd, example, fmt, seed))
    captured = capsys.readouterr()
    return digest(code, captured.out, captured.err)


CASES = [(c, e, f, s) for c, e, f in _cases() for s in SEEDS]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[_key(*case) for case in CASES])
def test_cli_bytes_match_golden(capsys, monkeypatch, case):
    monkeypatch.delenv("LOGMEASURE_SEED", raising=False)
    assert cli_digest(capsys, *case) == GOLDEN[_key(*case)]


def _dynamic_arch_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


OPENBLAS_KERNELS = ("Haswell", "Sandybridge", "Prescott")


@pytest.mark.skipif(
    not _dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be chosen"
)
def test_golden_table_is_the_same_on_every_openblas_kernel():
    # each child prints the table of this checkout (the script mode below)
    # with OPENBLAS_CORETYPE forcing its kernel; this process keeps its own
    children = {
        kernel: subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, OPENBLAS_CORETYPE=kernel),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for kernel in OPENBLAS_KERNELS
    }
    for kernel, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, (kernel, err)
        assert json.loads("{" + out.rstrip().rstrip(",") + "}") == GOLDEN, kernel


def print_digest_table() -> None:
    """Print GOLDEN's entries as this checkout produces them."""
    os.environ.pop("LOGMEASURE_SEED", None)
    for case in sorted(CASES, key=lambda case: _key(*case)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(*case))
        print(f'    "{_key(*case)}": "{digest(code, out.getvalue(), err.getvalue())}",')


if __name__ == "__main__":
    print_digest_table()
