"""The output comparer's tree comparison (``tools/compare_outputs.py``),
without running the CLI."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.fixture
def trees(tmp_path):
    for side in ("rev", "worktree"):
        root = tmp_path / side
        (root / "p8" / "run").mkdir(parents=True)
        (root / "p8" / "run" / "checkpoint.json").write_bytes(b'{"p": 8}\n')
        (root / "logs").mkdir()
        (root / "logs" / "000-gen-data.log").write_bytes(b"exit 0\n")
    return tmp_path / "rev", tmp_path / "worktree"


def test_identical_trees_pass(trees):
    assert compare_outputs.compare_trees(*trees) == []


def test_flipped_byte_is_reported(trees):
    target = trees[1] / "p8" / "run" / "checkpoint.json"
    data = bytearray(target.read_bytes())
    data[3] ^= 1
    target.write_bytes(bytes(data))
    assert compare_outputs.compare_trees(*trees) == ["differs: p8/run/checkpoint.json"]


def test_missing_file_is_reported(trees):
    (trees[0] / "logs" / "000-gen-data.log").unlink()
    (trees[1] / "p8" / "run" / "checkpoint.json").unlink()
    assert compare_outputs.compare_trees(*trees) == [
        "only in worktree: logs/000-gen-data.log",
        "only in rev: p8/run/checkpoint.json",
    ]

