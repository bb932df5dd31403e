"""tools/command_pairs.py: timed pairs of one command on two checkouts, and
its refusal to compare sides whose exit codes or stdout differ."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "command_pairs.py"
MEASURES = ("wall_s", "user_s", "sys_s", "peak_rss_mib")


def run_tool(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, capture_output=True, text=True,
                          check=False)


def test_version_pairs_of_this_checkout_against_itself():
    proc = run_tool("--base", str(ROOT), "--pairs", "2", "--", "--version")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "$ hbarena --version"
    assert [line.split(" (")[0] for line in lines[1:3]] == ["pair 1/2", "pair 2/2"]
    assert "(base first)" in lines[1] and "(change first)" in lines[2]
    assert lines[3] == "the two sides' exit codes and stdout agreed in all 2 pairs"
    assert [line.split(":")[0] for line in lines[4:]] == list(MEASURES)
    for line in lines[4:]:
        assert " of 2, claim_met " in line and "base " in line and "change " in line


def test_each_run_writes_to_its_own_name(tmp_path):
    proc = run_tool("--base", str(ROOT), "--pairs", "2", "--", "simulate", "--scenario",
                    str(ROOT / "scenarios" / "minimal.json"), "--out", str(tmp_path / "{run}"))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "base-0", "base-1", "base-warmup", "change-0", "change-1", "change-warmup"]
    assert all((path / "manifest.json").is_file() for path in tmp_path.iterdir())


def test_sides_whose_stdout_differs_fail(tmp_path):
    other = tmp_path / "other" / "src" / "hbarena"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("print('hbarena 9')\n")
    proc = run_tool("--base", str(tmp_path / "other"), "--pairs", "2", "--", "--version")
    assert proc.returncode == 1
    assert "error: in pair 1 the two sides' exit codes or stdout differ" in proc.stderr
    assert "hbarena 9" in proc.stderr
