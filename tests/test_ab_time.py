"""The CLI timer (``tools/ab_time.py``): its report, and one tiny run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def ab_time(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # it imports compare_outputs
    spec = importlib.util.spec_from_file_location("ab_time", _TOOLS / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_counts_wins_and_rules_on_a_gain(ab_time):
    rev = [1.0, 1.2, 0.9, 1.1]
    lines = ab_time.summary("HEAD", rev, [0.5, 1.3, 0.4, 0.6])
    assert lines[0] == "HEAD: median 1.0500 s, quartiles 0.9750-1.1250 s over 4 runs"
    assert lines[1].startswith("tree: median 0.5500 s,")
    # three wins in four pairs is short of nine in ten
    assert lines[2] == "tree won 3 of 4 pairs; no gain shown"
    assert ab_time.summary("HEAD", rev, [0.5] * 4)[2] == "tree won 4 of 4 pairs; a gain"
    # a tie is no win, and a win inside the revision's spread is no gain
    assert ab_time.summary("HEAD", rev, rev)[2] == "tree won 0 of 4 pairs; no gain shown"
    assert (ab_time.summary("HEAD", rev, [r - 0.01 for r in rev])[2]
            == "tree won 4 of 4 pairs; no gain shown")


@pytest.fixture
def git_head():
    head = subprocess.run(["git", "-C", str(_TOOLS.parent), "rev-parse", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("the repository has no git history here")


def test_two_pairs_of_a_tiny_gen_data_call(ab_time, git_head, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert ab_time.main(["HEAD", "--pairs", "2", "--", "gen-data", "--p", "3",
                         "--n", "6", "--num", "1", "--out", "d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("HEAD: median ") and lines[0].endswith(" over 2 runs")
    assert lines[1].startswith("tree: median ") and lines[1].endswith(" over 2 runs")
    assert lines[2].startswith("tree won ") and " of 2 pairs; " in lines[2]
    assert (tmp_path / "d").is_dir()  # the call ran in the current directory


def test_a_failing_call_stops_the_run(ab_time, git_head, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="exited 2:\nerror: alpha"):
        ab_time.main(["--pairs", "2", "--", "gen-data", "--p", "3", "--n", "6",
                      "--num", "1", "--alpha", "1.5", "--out", "d"])


def test_the_call_comes_after_a_separator(ab_time):
    with pytest.raises(SystemExit):
        ab_time.main(["HEAD", "gen-data"])
