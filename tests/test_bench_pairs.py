"""tools/bench_pairs.py: its pair statistics, its refusal to compare
checkouts whose benchmarks differ, and how it records each side's code."""

import hashlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_wins_and_quartiles():
    tool = load_tool()
    base = [100, 110, 90, 105, 95, 100, 120, 80, 100, 100]
    change = [130, 120, 120, 140, 125, 100, 150, 110, 130, 135]
    runs = [{"base": {"metrics": {"t": b, "s": b}}, "change": {"metrics": {"t": c, "s": c}}}
            for b, c in zip(base, change)]
    metrics = [{"name": "t", "unit": "traces/s", "better": "higher", "bound": 0.25},
               {"name": "s", "unit": "s", "better": "lower", "bound": 0.25}]
    out = tool.compare(runs, metrics)
    higher, lower = out["t"], out["s"]
    assert higher["base"] == {"median": 100, "q1": 93.75, "q3": 106.25}
    assert higher["change"]["median"] == 127.5 and higher["ratio"] == 1.275
    assert (higher["wins"], higher["ties"], higher["pairs"]) == (9, 1, 10)
    assert higher["gain_exceeds_base_iqr"] and higher["within_bound"] and not higher["unresolved"]
    assert higher["claim_met"]  # 9 wins in the 9 pairs that are not ties
    # The same numbers as times: every pair but the tie is a loss, and 27.5 % worse is past the bound.
    assert (lower["wins"], lower["ties"]) == (0, 1)
    assert not lower["gain_exceeds_base_iqr"] and not lower["within_bound"] and not lower["claim_met"]


def _compare_one(base, change):
    tool = load_tool()
    runs = [{"base": {"metrics": {"t": b}}, "change": {"metrics": {"t": c}}} for b, c in zip(base, change)]
    return tool.compare(runs, [{"name": "t", "unit": "traces/s", "better": "higher", "bound": 0.25}])["t"]


def test_claim_needs_nine_wins_in_ten_and_a_gain_past_the_base_iqr():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    # 8 wins of 10: a large gain is not enough.
    eight = _compare_one(base, [200] * 8 + [90, 90])
    assert eight["wins"] == 8 and eight["gain_exceeds_base_iqr"] and not eight["claim_met"]
    # 10 wins of 10, but by less than the base's Q3 - Q1 (2.0).
    small = _compare_one(base, [b + 1 for b in base])
    assert small["wins"] == 10 and not small["gain_exceeds_base_iqr"] and not small["claim_met"]
    assert _compare_one(base, [b + 10 for b in base])["claim_met"]


def test_runs_that_separate_are_resolved_however_wide_the_base_spread():
    base = [60, 140, 60, 140, 60, 140, 60, 140, 60, 140]  # Q3 - Q1 = 80, past the 0.25 bound
    separated = _compare_one(base, [150] * 10)
    assert not separated["unresolved"] and separated["wins"] == 10
    overlapping = _compare_one(base, [150] * 9 + [130])
    assert overlapping["unresolved"]


def test_refuses_checkouts_whose_benchmarks_differ(tmp_path, capsys):
    tool = load_tool()
    base = tmp_path / "base"
    shutil.copytree(ROOT / "bench", base / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    assert tool.tree_files(base / "bench") == tool.tree_files(ROOT / "bench")
    with open(base / "bench" / "run.py", "a") as fh:
        fh.write("\n")
    before = sorted(ROOT.glob("BENCH_*.json"))
    assert tool.main(["--base", str(base), "--workload", "market_mix", "--pairs", "2", "--seed-from", "1"]) == 1
    assert "differ" in capsys.readouterr().err
    assert sorted(ROOT.glob("BENCH_*.json")) == before


def test_records_a_dirty_side_by_the_sha256_of_its_diff(tmp_path):
    tool = load_tool()

    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com",
                               "-c", "commit.gpgsign=false", *args], capture_output=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD").decode().strip()
    (tmp_path / "untracked.py").write_text("y = 2\n")  # not part of the measured code
    assert tool.commit(tmp_path) == {"commit": head, "dirty": False, "diff_sha256": None}
    (tmp_path / "a.py").write_text("x = 2\n")
    diff = git("diff", "HEAD")
    assert b"+x = 2" in diff
    assert tool.commit(tmp_path) == {"commit": head, "dirty": True, "diff_sha256": hashlib.sha256(diff).hexdigest()}
    (tmp_path / "a.py").write_text("x = 3\n")
    assert tool.commit(tmp_path)["diff_sha256"] != hashlib.sha256(diff).hexdigest()
