"""The traced benchmark run (``bench/replay.py``) still times every layer."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _replay_module():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "bench" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_records_every_layer_span(tmp_path):
    """``replay.py`` wraps the names ``hbarena.cli`` imports; a layer the CLI
    reaches some other way records no span and would read 0 s."""
    out = tmp_path / "run"
    stages = {
        "simulate": ["simulate", "--scenario", str(ROOT / "scenarios" / "minimal.json"), "--out", str(out)],
        "detect": ["detect", str(out), "--score"],
        "report_truth": ["report", str(out / "outcomes.jsonl"), "--out", str(out / "report_truth")],
        "report_results": ["report", str(out / "results.jsonl"), "--out", str(out / "report_results"),
                           "--manifest", str(out / "manifest.json")],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    recorded = set()
    for stage, args in stages.items():
        spans = tmp_path / f"{stage}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "replay.py"), "--stage", stage, "--spans", str(spans), "--", *args],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (stage, proc.stderr)
        recorded.update(name for name, *_ in json.loads(spans.read_text())["spans"])
    replay = _replay_module()
    expected = {*replay.SPAN_TOTALS.values(), *(span for spans in replay.SPAN_SELF.values() for span in spans)}
    assert sorted(expected - recorded) == []
