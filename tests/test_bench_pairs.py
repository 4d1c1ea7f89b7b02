"""tools/bench_pairs.py refuses a working tree with bytecode caches."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_a_tree_with_bytecode_caches(tmp_path, monkeypatch):
    tool = _load_tool()
    for d in ("src/pkg", "perfbench", "tests/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
    assert tool.bytecode_caches(tmp_path) == []
    caches = [tmp_path / "perfbench" / "__pycache__", tmp_path / "src" / "pkg" / "__pycache__"]
    for d in caches:
        d.mkdir()
    assert tool.bytecode_caches(tmp_path) == caches
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as refused:
        tool.main(["--out", str(tmp_path / "out.json"), "--pairs", "exact_routes=1"])
    assert all(str(d) in str(refused.value.code) for d in caches)
    # nothing was deleted, and nothing was run or written
    assert all(d.is_dir() for d in caches) and not (tmp_path / "out.json").exists()
