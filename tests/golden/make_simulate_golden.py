"""Reference generator for the pinned simulator golden file.

For each canned scenario at its own ``master_seed``, and for
``market_mix_5000.json`` cut to 500 sites with a ``render_fail_probability``
of 0.2 (the only input here whose slots can fail to render), it runs every
round of every site in site-id order through ``run_scenario`` and records
three sha256 digests: of the outcome rows, of the truth records, and of the
serialized traces, each as the concatenation of the bytes ``simulate``
writes for them.  Generated once from a known-good tree; the library must
reproduce these digests exactly:

    PYTHONPATH=src:tests python tests/golden/make_simulate_golden.py > tests/golden/simulate_golden.json
"""

import hashlib
import json
from pathlib import Path

from golden.make_expand_golden import SCENARIOS, cases
from hbarena.auction import run_scenario
from hbarena.domain import compact_json
from hbarena.scenario import expand_sites, load_scenario_file
from hbarena.tracegen import emit_trace, outcome_row, serialize_trace, truth_record

RENDER_FAIL = "market_mix_500_render_fail.json"


def render_fail_scenario(tmp_dir: Path) -> Path:
    """``market_mix_5000.json`` with 500 sites that fail to render 1 in 5 filled slots."""
    data = json.loads((SCENARIOS / "market_mix_5000.json").read_text(encoding="utf-8"))
    data["generator"].update(num_sites=500, render_fail_probability="0.2")
    path = tmp_dir / RENDER_FAIL
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def simulate_cases(tmp_dir: Path):
    """(name, loaded scenario, seed): the canned scenarios and the render-failure cut."""
    canned = [case for case in cases(tmp_dir) if not case[0].startswith("workload:")]
    sf = load_scenario_file(render_fail_scenario(tmp_dir))
    return [*canned, (RENDER_FAIL, sf, sf.master_seed)]


def digests(sf, seed: int) -> dict[str, str]:
    """sha256 of the outcome rows, truth records and traces of every round."""
    outcomes, truth, traces = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for site in sorted(expand_sites(sf, seed), key=lambda site: site.site_id):
        for round_index in range(sf.rounds_per_site):
            outcome = run_scenario(site, sf.partners, seed, round_index)
            outcomes.update((compact_json(outcome_row(outcome, site, round_index)) + "\n").encode("utf-8"))
            truth.update((compact_json(truth_record(outcome, site, round_index)) + "\n").encode("utf-8"))
            trace = emit_trace(outcome, site, sf.partners, round_index)
            traces.update(serialize_trace(trace).encode("utf-8"))
    return {name: "sha256:" + h.hexdigest() for name, h in
            (("outcomes", outcomes), ("truth", truth), ("traces", traces))}


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: {"seed": seed, **digests(sf, seed)} for name, sf, seed in simulate_cases(Path(tmp))}
    print(json.dumps({"cases": pinned}, indent=2))


if __name__ == "__main__":
    main()
