"""Reference generator for the pinned corpus-expansion golden file.

For each canned scenario at its own ``master_seed``, and for the two
benchmark workload derivations at seed 4242, it expands the scenario with
``hbarena.scenario.expand_sites`` and records the sha256 of a canonical JSON
rendering of every site field (Decimals by ``str``, so an exponent or a
trailing zero counts).  Generated once from a known-good tree; the library
must reproduce these digests exactly:

    PYTHONPATH=src python tests/golden/make_expand_golden.py > tests/golden/expand_golden.json
"""

import hashlib
import json
from decimal import Decimal
from enum import Enum
from pathlib import Path

from hbarena.scenario import ScenarioFile, expand_sites, load_scenario_file

SCENARIOS = Path(__file__).resolve().parent.parent.parent / "scenarios"
WORKLOAD_SEED = 4242
# The benchmark's workloads: the canned file without its own seed, and an
# optional generator size.
WORKLOADS = {
    "market_mix": ("market_mix_5000.json", None),
    "mixed_sparse": ("mixed_corpus_1000.json", 5000),
}


def _plain(value):
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, Enum):  # Facet, WrapperPolicy
        return value.value
    if hasattr(value, "to_json"):  # latency models
        return value.to_json()
    if hasattr(value, "_fields"):  # records, before the tuples they are
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def canonical_json(sites) -> str:
    """Every field of every site, in order, as sorted-key compact JSON."""
    return json.dumps([_plain(site) for site in sites], sort_keys=True, separators=(",", ":"))


def digest(sites) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(sites).encode("utf-8")).hexdigest()


def workload_scenario(name: str, tmp_dir: Path) -> Path:
    canned, num_sites = WORKLOADS[name]
    data = json.loads((SCENARIOS / canned).read_text(encoding="utf-8"))
    data.pop("master_seed", None)
    data.pop("output_dir", None)
    if num_sites is not None:
        data["generator"]["num_sites"] = num_sites
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def cases(tmp_dir: Path) -> list[tuple[str, ScenarioFile, int]]:
    """(name, loaded scenario, seed) of every pinned expansion."""
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        sf = load_scenario_file(path)
        out.append((path.name, sf, sf.master_seed))
    for name in WORKLOADS:
        out.append((f"workload:{name}", load_scenario_file(workload_scenario(name, tmp_dir)), WORKLOAD_SEED))
    return out


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {}
        for name, sf, seed in cases(Path(tmp)):
            sites = expand_sites(sf, seed)
            pinned[name] = {"seed": seed, "sites": len(sites), "digest": digest(sites)}
    print(json.dumps({"cases": pinned}, indent=2))


if __name__ == "__main__":
    main()
