"""End-to-end command behavior: outputs, determinism, exit codes."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hbarena.analytics import REPORT_NAMES, build_report, load_records
from hbarena import cli
from hbarena.cli import main
from hbarena.domain import PartnerDirectory
from hbarena.scenario import MAX_GENERATED_SITES

MINIMAL_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "minimal.json"
MINIMAL_TRACE = "demo-site__r0.trace.jsonl"

MINIMAL = {
    "master_seed": 21,
    "rounds_per_site": 1,
    "partners": [
        {
            "partner_id": "alpha",
            "domains": ["alpha.example.net"],
            "latency_model": {"kind": "fixed", "value_ms": "120"},
            "bid_model": {"kind": "fixed", "value_cpm": "0.35"},
        }
    ],
    "sites": [
        {
            "site_id": "only-site",
            "rank": 1,
            "facet": "client_side",
            "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0.1"}],
            "partners": ["alpha"],
            "ad_server_latency": {"kind": "fixed", "value_ms": "90"},
        }
    ],
}

MIXED = {
    "master_seed": 77,
    "rounds_per_site": 2,
    "partners": [
        {
            "partner_id": pid,
            "domains": [f"{pid}.example.net"],
            "latency_model": {"kind": "lognormal", "mu": 5.0, "sigma": 0.4},
            "bid_model": {"kind": "lognormal", "mu": -2.0, "sigma": 0.6},
            "response_probability": "0.9",
        }
        for pid in ("alpha", "beta", "gamma", "dfp")
    ],
    "generator": {
        "num_sites": 40,
        "facet_weights": {
            "server_side": 30,
            "hybrid": 25,
            "client_side": 20,
            "waterfall_only": 15,
            "no_ads": 10,
        },
        "ad_server_partner": "dfp",
    },
}


def write(tmp_path, payload, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def test_minimal_simulate_outputs(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "directory.json",
        "manifest.json",
        "only-site__r0.trace.jsonl",
        "only-site__r0.truth.jsonl",
        "outcomes.jsonl",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 21
    assert manifest["facet_counts"] == {"client_side": 1}


# One server-side and one waterfall site with fixed models, so every outcome
# row field is known in advance.
SERVER_AND_WATERFALL = {
    "master_seed": 5,
    "rounds_per_site": 1,
    "partners": [
        {
            "partner_id": "alpha",
            "domains": ["alpha.example.net"],
            "latency_model": {"kind": "fixed", "value_ms": "120"},
            "bid_model": {"kind": "fixed", "value_cpm": "0.35"},
        },
        {
            "partner_id": "dfp",
            "domains": ["dfp.example.net"],
            "latency_model": {"kind": "fixed", "value_ms": "80"},
            "bid_model": {"kind": "fixed", "value_cpm": "0.05"},
        },
    ],
    "sites": [
        {
            "site_id": "server-site",
            "rank": 2,
            "facet": "server_side",
            "slots": [{"slot_id": "slot0", "width": 728, "height": 90, "floor_price": "0.1"}],
            "partners": ["alpha"],
            "ad_server_partner_id": "dfp",
            "ad_server_latency": {"kind": "fixed", "value_ms": "60"},
        },
        {
            "site_id": "waterfall-site",
            "rank": 3,
            "facet": "waterfall_only",
            "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0.1"}],
            "partners": ["dfp", "alpha"],
            "ad_server_latency": {"kind": "fixed", "value_ms": "60"},
        },
    ],
}


def test_outcome_rows_are_pinned_byte_for_byte(tmp_path):
    # Outcome rows print times unquantized, so a zero time is "0" where the
    # truth and trace files print "0.000"; the manifest digests depend on it.
    assert main(["simulate", "--scenario", str(MINIMAL_SCENARIO), "--out", str(tmp_path / "min")]) == 0
    assert (tmp_path / "min" / "outcomes.jsonl").read_text() == (
        '{"site_id":"demo-site","rank":1,"round_index":0,"facet":"client_side",'
        '"wrapper_policy":"wait_timeout","timeout_ms":3000,"partner_ids":["appnexus","criteo"],'
        '"slot_count":1,"wrapper_send_time_ms":"200.000","ad_server_response_time_ms":"350.000",'
        '"total_latency_ms":"350.000","winner_notified":true,"late_bid_count":0,'
        '"slots":[{"slot_id":"slot0","size":"300x250","floor_price":"0.1","filled":true,'
        '"fallback_used":false,"render_failed":false,"winner":{"partner":"appnexus","cpm":"0.5"},'
        '"bids":[{"partner":"appnexus","cpm":"0.5","requested_at_ms":"0","arrived_at_ms":"100.000",'
        '"late":false,"channel":"client"},{"partner":"criteo","cpm":"0.2","requested_at_ms":"0",'
        '"arrived_at_ms":"200.000","late":false,"channel":"client"}]}]}\n'
    )
    scen = write(tmp_path, SERVER_AND_WATERFALL)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "outcomes.jsonl").read_text() == (
        '{"site_id":"server-site","rank":2,"round_index":0,"facet":"server_side",'
        '"wrapper_policy":"wait_timeout","timeout_ms":3000,"partner_ids":["dfp"],"slot_count":1,'
        '"wrapper_send_time_ms":"0","ad_server_response_time_ms":"60.000","total_latency_ms":"60.000",'
        '"winner_notified":true,"late_bid_count":0,"slots":[{"slot_id":"slot0","size":"728x90",'
        '"floor_price":"0.1","filled":true,"fallback_used":false,"render_failed":false,'
        '"winner":{"partner":"alpha","cpm":"0.35"},"bids":[{"partner":"alpha","cpm":"0.35",'
        '"requested_at_ms":"0","arrived_at_ms":"0","late":false,"channel":"ad_server"}]}]}\n'
        '{"site_id":"waterfall-site","rank":3,"round_index":0,"facet":"waterfall_only",'
        '"wrapper_policy":"wait_timeout","timeout_ms":3000,"partner_ids":["dfp","alpha"],'
        '"slot_count":1,"tiers_tried":[{"partner":"dfp","bid":"0.05","latency_ms":"80.000"},'
        '{"partner":"alpha","bid":"0.35","latency_ms":"120.000"}],'
        '"winner":{"partner":"alpha","cpm":"0.35"},"total_latency_ms":"200.000","fallback_used":false}\n'
    )


def test_outcome_rows_are_in_site_id_order(tmp_path):
    """price_table.json lists its sites out of site-id order; outcomes.jsonl
    holds them sorted, as the rows are written while the sites run."""
    scenario = MINIMAL_SCENARIO.parent / "price_table.json"
    listed = [site["site_id"] for site in json.loads(scenario.read_text())["sites"]]
    assert listed != sorted(listed)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    assert [row["site_id"] for row in rows] == sorted(row["site_id"] for row in rows)
    assert {row["site_id"] for row in rows} == set(listed)


def test_simulate_twice_is_byte_identical(tmp_path):
    scen = write(tmp_path, MIXED)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(scen), "--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_full_pipeline_deterministic_across_hash_seeds(tmp_path):
    """Distinct PYTHONHASHSEED values stand in for distinct platforms: any
    reliance on hash iteration order would break byte equality."""
    scen = write(tmp_path, MIXED)
    outputs = []
    for hash_seed, sub in (("0", "h0"), ("31337", "h1")):
        out = tmp_path / sub
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        for argv in (
            ["simulate", "--scenario", str(scen), "--out", str(out)],
            ["detect", str(out)],
            ["report", str(out / "outcomes.jsonl"), "--out", str(out / "reports"),
             "--manifest", str(out / "manifest.json")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "hbarena.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        digests = tree_digest(out)
        digests.update({f"reports/{k}": v for k, v in tree_digest(out / "reports").items()})
        outputs.append(digests)
    assert outputs[0] == outputs[1]


def test_manifest_digests_match_files(tmp_path):
    """The manifest digests the bytes as written, serially and from pool workers."""
    scen = write(tmp_path, MIXED)
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out), "--jobs", jobs]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert list(manifest["files"]) == on_disk
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == f"sha256:{actual}", (jobs, name)


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()
    assert main(["detect", str(tmp_path), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "results.jsonl").exists()


def test_usage_errors_help_and_version_return_their_exit_codes(capsys):
    assert main(["detect"]) == 1
    assert main(["simulate", "--no-such-flag"]) == 1
    assert main(["--version"]) == 0
    assert main(["detect", "--help"]) == 0
    assert "--jobs" in capsys.readouterr().out


def test_jobs_never_exceed_sites(tmp_path, monkeypatch):
    """A 1-site scenario runs in this process whatever --jobs asks for."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one site")

    scen = write(tmp_path, MINIMAL)
    serial, asked_two = tmp_path / "serial", tmp_path / "jobs2"
    assert main(["simulate", "--scenario", str(scen), "--out", str(serial)]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["simulate", "--scenario", str(scen), "--out", str(asked_two), "--jobs", "2"]) == 0
    assert tree_digest(serial) == tree_digest(asked_two)
    assert main(["detect", str(asked_two), "--jobs", "2"]) == 0  # one trace


def test_simulate_warns_about_trace_files_it_did_not_write(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    clean = capsys.readouterr()
    # Re-running into its own output rewrites the same files: nothing to warn about.
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    assert capsys.readouterr() == clean
    assert "warning" not in clean.err

    (out / "old-site__r0.trace.jsonl").write_text("")
    (out / "old-site__r0.truth.jsonl").write_text("")
    (out / "notes.txt").write_text("")
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    stale = capsys.readouterr()
    assert stale.out == clean.out
    assert "holds 2 trace or truth file(s) this run did not write" in stale.err
    assert "old-site__r0.trace.jsonl" in stale.err
    assert "old-site__r0.trace.jsonl" not in json.loads((out / "manifest.json").read_text())["files"]


def test_invalid_scenario_exits_1(tmp_path, capsys):
    payload = json.loads(json.dumps(MINIMAL))
    payload["sites"][0]["slots"] = []
    scen = write(tmp_path, payload)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "x")]) == 1
    assert "slots empty" in capsys.readouterr().err


def test_missing_scenario_file_exits_1(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1


def test_seed_resolution_env_fallback(tmp_path, monkeypatch, capsys):
    payload = json.loads(json.dumps(MINIMAL))
    del payload["master_seed"]
    scen = write(tmp_path, payload)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "x")]) == 1
    monkeypatch.setenv("HBARENA_SEED", "99")
    out = tmp_path / "y"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 99


def test_seed_flag_overrides_file(tmp_path):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out), "--seed", "1234"])
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 1234


def test_detect_scores_perfectly_on_clean_corpus(tmp_path, capsys):
    scen = write(tmp_path, MIXED)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    assert main(["detect", str(out), "--score"]) == 0
    err_out = capsys.readouterr().out
    assert "precision=1 recall=1 facet_accuracy=1" in err_out
    rows = [
        json.loads(line)
        for line in (out / "results.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 80  # 40 sites x 2 rounds


def test_corrupted_trace_exits_3_and_names_line(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    trace_path = out / "only-site__r0.trace.jsonl"
    trace_path.write_text(trace_path.read_text() + "{garbage\n")
    assert main(["detect", str(out)]) == 3
    rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert any("error" in row and "line" in row["error"] for row in rows)


def test_detect_missing_directory_exits_1(tmp_path):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    assert main(["detect", str(out), "--directory", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("key", ["adnxs.com:8080", "https://adnxs.com", "adnxs.com/x", "u@adnxs.com", " adnxs.com", ""],
                         ids=["port", "scheme", "path", "userinfo", "leading-blank", "empty"])
def test_directory_key_not_a_bare_host_exits_1(tmp_path, capsys, key):
    """A key that no URL's host can equal would attribute nothing; the
    partner it names would show up as ``unknown:<host>``."""
    run = tmp_path / "run"
    simulate_minimal(run)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: "appnexus", "criteo.com": "criteo"}))
    assert main(["detect", str(run), "--directory", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and repr(key) in err
    assert "runtime error" not in err
    assert not (run / "results.jsonl").exists()


def test_every_directory_simulate_writes_loads(tmp_path):
    """The built-in directory's 16 keys, and each canned scenario's directory.json."""
    builtin = Path(cli.__file__).parent / "data" / "partners.json"
    assert len(PartnerDirectory.from_file(builtin).entries) == 16
    for scenario in sorted(MINIMAL_SCENARIO.parent.glob("*.json")):
        data = json.loads(scenario.read_text())
        if "generator" in data:
            data["generator"]["num_sites"] = 3
        data.pop("output_dir", None)
        path = tmp_path / scenario.name
        path.write_text(json.dumps(data))
        out = tmp_path / scenario.stem
        assert main(["simulate", "--scenario", str(path), "--out", str(out), "--seed", "1"]) == 0
        assert PartnerDirectory.from_file(out / "directory.json").entries


@pytest.mark.parametrize(
    "command, content",
    [
        ("simulate", b'{"partners": [], "sites": []}\xff'),
        ("simulate", b"[" * 100_000 + b"]" * 100_000),
        ("detect", b"{bad"),
        ("detect", b'{"adnxs.com": "appnexus\xff"}'),
        ("detect", None),
        ("fallback", b"{bad"),
        ("report", None),
    ],
    ids=["scenario-not-utf-8", "scenario-too-deep", "directory-not-json", "directory-not-utf-8",
         "directory-is-a-directory", "fallback-directory-not-json", "report-input-is-a-directory"],
)
def test_unusable_input_file_exits_1_naming_it(tmp_path, capsys, command, content):
    """A file the user names (or the corpus's directory.json) that cannot be
    read or decoded is a usage error naming it; None makes it a directory."""
    run = tmp_path / "run"
    simulate_minimal(run)
    bad = run / "directory.json" if command == "fallback" else tmp_path / "bad.json"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    argv = {"simulate": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")],
            "detect": ["detect", str(run), "--directory", str(bad)],
            "fallback": ["detect", str(run)],
            "report": ["report", str(bad), "--out", str(tmp_path / "reports")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "runtime error" not in err


def test_report_unknown_name_exits_1(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    code = main(["report", str(out / "outcomes.jsonl"), "--report", "latency_by_moon_phase"])
    assert code == 1
    assert "valid names" in capsys.readouterr().err


def test_report_empty_input_writes_headers(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "reports"
    assert main(["report", str(empty), "--out", str(out)]) == 0
    csv_text = (out / "latency_by_site.csv").read_text()
    assert csv_text == "group,count,p5,p25,p50,p75,p95,mean\n"


RESULT_ROW = {"site_id": "s1", "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1"],
              "auctions": [{"slot_id": "slot0", "size": "300x250", "bids": [
                  {"partner": "p1", "cpm": "0.5", "latency_ms": "120", "late": False, "channel": "client"}]}],
              "late_bid_count": 0, "hb_latency_ms": "350", "warnings": 0}


@pytest.mark.parametrize(
    "manifest_text, words",
    [
        (None, "cannot read manifest"),
        ("{not json", "is not JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"site_meta": [1]}', "site_meta object"),
        ('{}', "site_meta object"),
        ('{"site_meta": {"s1": {"rank": "1"}}}', "integer rank"),
        ('{"site_meta": {"s1": {"facet": "hybrid"}}}', "integer rank"),
        ('{"site_meta": {"s1": 3}}', "integer rank"),
        ('{"site_meta": {"s1": {"rank": 0}}}', "'s1' has no positive integer rank"),
    ],
    ids=["missing", "not-json", "list", "site-meta-list", "no-site-meta", "rank-string", "no-rank", "meta-not-object",
         "rank-0"],
)
def test_report_bad_manifest_exits_1(tmp_path, capsys, manifest_text, words):
    """A manifest that cannot give site ranks is a usage error naming the file, not a runtime error."""
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(RESULT_ROW) + "\n")
    manifest = tmp_path / "manifest.json"
    if manifest_text is not None:
        manifest.write_text(manifest_text)
    assert main(["report", str(results), "--out", str(tmp_path / "reports"), "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err and words in err
    assert "runtime error" not in err


OUTCOME_ROW = {"site_id": "s1", "rank": 1, "round_index": 0, "facet": "client_side", "partner_ids": ["p1"],
               "slot_count": 1, "total_latency_ms": "350.000",
               "slots": [{"slot_id": "slot0", "size": "300x250", "bids": [
                   {"partner": "p1", "cpm": "0.5", "requested_at_ms": "0", "arrived_at_ms": "100.000", "late": False,
                    "channel": "client"}]}]}


def edited(row: dict, old: str, new: str) -> bytes:
    """The JSON line of ``row`` with the text ``old`` replaced by ``new``."""
    text = json.dumps(row)
    assert old in text
    return text.replace(old, new).encode()


@pytest.mark.parametrize(
    "line, words",
    [
        (b"{garbage", "invalid JSON"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"round_index": 0, "is_hb": false}', "no string site_id"),
        (b'{"site_id": 7, "is_hb": false}', "no string site_id"),
        (b'{"site_id": "s\xff", "is_hb": false}', "not UTF-8"),
        (edited(OUTCOME_ROW, '"slot_count": 1', '"slot_count": "abc"'), "invalid literal for int()"),
        (edited(OUTCOME_ROW, '"rank": 1', '"rank": "abc"'), "invalid literal for int()"),
        (edited(OUTCOME_ROW, '"rank": 1', '"rank": 0'), "rank 0 is below 1"),
        (edited(OUTCOME_ROW, '"rank": 1', '"rank": -3'), "rank -3 is below 1"),
        (json.dumps({**OUTCOME_ROW, "slots": 5}).encode(), "not iterable"),
        (edited(RESULT_ROW, '"cpm": "0.5", ', ""), "KeyError: 'cpm'"),
        (edited(RESULT_ROW, '"cpm": "0.5"', '"cpm": "abc"'), "InvalidOperation"),
        (edited(RESULT_ROW, '"cpm": "0.5"', '"cpm": "NaN"'), "not a finite number below 10**22"),
        (edited(RESULT_ROW, '"cpm": "0.5"', '"cpm": "Infinity"'), "not a finite number below 10**22"),
        (edited(RESULT_ROW, '"cpm": "0.5"', '"cpm": "1e30"'), "not a finite number below 10**22"),
        (edited(RESULT_ROW, '"cpm": "0.5"', '"cpm": -1e22'), "not a finite number below 10**22"),
        (edited(OUTCOME_ROW, '"arrived_at_ms": "100.000"', '"arrived_at_ms": "9e21"')
         .replace(b'"requested_at_ms": "0"', b'"requested_at_ms": "-9e21"'), "not a finite number below 10**22"),
        (edited(RESULT_ROW, '"site_id": "s1"', '"site_id": "\\ud800"'), "strings must be valid Unicode"),
        (edited(RESULT_ROW, '"partner": "p1"', '"partner": "\\ud800"'), "strings must be valid Unicode"),
        (edited(RESULT_ROW, '"partner": "p1"', '"partner": 7'), "7 is not a string"),
        (edited(RESULT_ROW, '"size": "300x250"', '"size": 7'), "7 is not a string"),
        (edited(RESULT_ROW, '"facet": "client_side"', '"facet": 7'), "7 is not a string"),
        (edited(RESULT_ROW, '"partners": ["p1"]', '"partners": [7]'), "7 is not a string"),
        (edited(RESULT_ROW, '"partner": "p1"', '"partner": null'), "partner is null"),
        (edited(OUTCOME_ROW, '"slot_count": 1', '"slot_count": 2.5'), "slot_count 2.5 is not an integer"),
        (edited(OUTCOME_ROW, '"rank": 1', '"rank": true'), "rank True is not an integer"),
        (edited(OUTCOME_ROW, '"partner_ids": ["p1"]', '"partner_ids": "abc"'), "partner list 'abc' is not a list"),
        (edited(RESULT_ROW, '"partners": ["p1"]', '"partners": "abc"'), "partner list 'abc' is not a list"),
        (edited(RESULT_ROW, '"is_hb": true', '"is_hb": "false"'), "is_hb 'false' is not true or false"),
        (edited(RESULT_ROW, '"late": false', '"late": "false"'), "late 'false' is not true or false"),
    ],
    ids=["not-json", "array", "no-site-id", "site-id-number", "not-utf-8", "slot-count-abc", "rank-abc", "rank-0",
         "rank-minus-3", "slots-5", "no-cpm", "cpm-abc", "cpm-nan", "cpm-infinity", "cpm-1e30", "cpm-minus-1e22",
         "latency-2e22", "site-id-surrogate", "partner-surrogate", "partner-7", "size-7", "facet-7", "partners-7",
         "partner-null", "slot-count-2.5", "rank-true", "partner-ids-string", "partners-string", "is-hb-string",
         "late-string"],
)
def test_report_malformed_row_exits_1_naming_line(tmp_path, capsys, line, words):
    path = tmp_path / "results.jsonl"
    path.write_bytes(json.dumps(RESULT_ROW).encode() + b"\n\n" + line + b"\n")
    assert main(["report", str(path), "--out", str(tmp_path / "reports")]) == 1
    err = capsys.readouterr().err
    assert words in err
    assert f"{path}:3: " in err
    assert "runtime error" not in err
    assert not (tmp_path / "reports").exists()


def test_each_report_alone_writes_the_bytes_of_all(market_mix_corpora, tmp_path):
    """``report`` writes one report at a time; alone or among all, a report's
    CSV is the same, and report.json is the indented dump of every report's rows."""
    source = market_mix_corpora[600] / "outcomes.jsonl"
    every = tmp_path / "all"
    assert main(["report", str(source), "--out", str(every)]) == 0
    records = load_records(source)
    reports = {name: build_report(name, records) for name in REPORT_NAMES}
    assert (every / "report.json").read_text(encoding="utf-8") == (
        json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n")
    for name in REPORT_NAMES:
        out = tmp_path / name
        assert main(["report", str(source), "--report", name, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [f"{name}.csv", "report.json"]
        assert (out / f"{name}.csv").read_bytes() == (every / f"{name}.csv").read_bytes()
        assert (out / "report.json").read_text(encoding="utf-8") == (
            json.dumps({"reports": {name: reports[name]}}, indent=2, sort_keys=True) + "\n")


def test_report_whose_build_raises_leaves_no_partial_report_json(market_mix_corpora, tmp_path, monkeypatch, capsys):
    """report.json is written as report.json.part and replaces the old one
    only once every report is in it."""
    source = market_mix_corpora[600] / "outcomes.jsonl"
    kept = tmp_path / "kept"
    assert main(["report", str(source), "--out", str(kept)]) == 0
    before = (kept / "report.json").read_bytes()
    build, last = cli.build_report, sorted(REPORT_NAMES)[-1]

    def build_or_fail(name, *rest):
        if name == last:  # every other report is in report.json.part by now
            raise RuntimeError(f"cannot build {name}")
        return build(name, *rest)

    monkeypatch.setattr(cli, "build_report", build_or_fail)
    fresh = tmp_path / "fresh"
    for out in (kept, fresh):
        assert main(["report", str(source), "--out", str(out)]) == 2
        assert f"cannot build {last}" in capsys.readouterr().err
        assert not (out / "report.json.part").exists()
    assert (kept / "report.json").read_bytes() == before
    assert sorted(path.name for path in fresh.iterdir()) == sorted(f"{name}.csv" for name in REPORT_NAMES if name != last)


def test_report_accepts_the_error_rows_detect_writes(tmp_path):
    out = tmp_path / "run"
    simulate_minimal(out)
    trace = out / MINIMAL_TRACE
    trace.write_text(trace.read_text() + "{garbage\n")
    assert main(["detect", str(out)]) == 3
    assert "error" in (out / "results.jsonl").read_text()
    assert main(["report", str(out / "results.jsonl"), "--out", str(out / "reports"),
                 "--manifest", str(out / "manifest.json")]) == 0


def test_facet_breakdown_report_sums_to_one(tmp_path):
    scen = write(tmp_path, MIXED)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    main(["report", str(out / "outcomes.jsonl"), "--report", "facet_breakdown",
          "--out", str(out / "reports")])
    rows = (out / "reports" / "facet_breakdown.csv").read_text().splitlines()[1:]
    from decimal import Decimal

    total = sum(Decimal(row.split(",")[-1]) for row in rows)
    assert total == Decimal(1)
    assert len(rows) == 3


def test_parallel_jobs_output_identical(tmp_path):
    scen = write(tmp_path, MIXED)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(scen), "--out", str(out2), "--jobs", "2"]) == 0
    assert tree_digest(out1) == tree_digest(out2)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unwritable_trace_file_exits_2_and_leaves_no_writer(tmp_path, capsys, jobs):
    """A directory where the first trace file goes fails the writer process
    (EISDIR, even as root); simulate reports it, writes no manifest and
    reaps every child."""
    scen = write(tmp_path, MIXED)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "ok")]) == 0
    first = min(p.name for p in (tmp_path / "ok").glob("*.trace.jsonl"))
    out = tmp_path / "run"
    (out / first).mkdir(parents=True)
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scen), "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and "Is a directory" in err and str(out / first) in err
    assert not (out / "manifest.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_error_reaps_the_writer(tmp_path, capsys, monkeypatch, jobs):
    """A failure while simulating ends the writer's stream; the writer is
    reaped and no manifest is written."""
    def outcome_row(outcome, scenario, round_index):
        if scenario.site_id == failing:
            raise RuntimeError("third site")
        return real_outcome_row(outcome, scenario, round_index)

    scen = write(tmp_path, MIXED)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "ok")]) == 0
    failing = sorted({p.name.split("__")[0] for p in (tmp_path / "ok").glob("*.trace.jsonl")})[2]
    real_outcome_row = cli.outcome_row
    monkeypatch.setattr(cli, "outcome_row", outcome_row)  # pool workers fork with it
    assert main(["simulate", "--scenario", str(scen), "--out", str(out), "--jobs", jobs]) == 2
    assert "third site" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_out_naming_a_file_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("simulated into an unusable --out"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--scenario", str(write(tmp_path, MINIMAL)), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert str(taken) in err and "runtime error" not in err


def test_report_out_naming_a_file_exits_1(tmp_path, capsys):
    simulate_minimal(tmp_path / "run")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["report", str(tmp_path / "run" / "outcomes.jsonl"), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert str(taken) in err and "runtime error" not in err


def test_detect_out_in_a_missing_directory_exits_1(tmp_path, capsys, monkeypatch):
    """So does a --out naming a directory: both fail before any detection."""
    simulate_minimal(tmp_path / "run")
    monkeypatch.setattr(cli, "parse_trace_file", lambda *a: pytest.fail("detected into an unusable --out"))
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "results.jsonl", tmp_path / "taken"):
        assert main(["detect", str(tmp_path / "run"), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert str(target) in err and "runtime error" not in err
    assert not (tmp_path / "missing").exists()
    assert list((tmp_path / "taken").iterdir()) == [] and not (tmp_path / "taken.part").exists()


def test_detect_then_report_over_results(tmp_path):
    scen = write(tmp_path, MIXED)
    out = tmp_path / "run"
    main(["simulate", "--scenario", str(scen), "--out", str(out)])
    main(["detect", str(out)])
    code = main(
        ["report", str(out / "results.jsonl"), "--out", str(out / "reports"),
         "--manifest", str(out / "manifest.json")]
    )
    assert code == 0
    assert (out / "reports" / "report.json").exists()
    assert (out / "reports" / "latency_by_rank_bin.csv").read_text().count("\n") >= 2


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("mixed") / "run"
    assert main(["simulate", "--scenario", str(write(out.parent, MIXED)), "--out", str(out)]) == 0
    assert main(["detect", str(out)]) == 0
    return out


@pytest.mark.parametrize("include_zero", [True, False])
@pytest.mark.parametrize("source", ["outcomes.jsonl", "results.jsonl"])
def test_reports_match_loop_reference_on_mixed_corpus(mixed_run, source, include_zero):
    manifest = json.loads((mixed_run / "manifest.json").read_text())
    ranks = {site: meta["rank"] for site, meta in manifest["site_meta"].items()}
    records = load_records(mixed_run / source, ranks)
    assert len(records) == 80
    reference = oracles.read_records_file(mixed_run / source, ranks)
    for name in REPORT_NAMES:
        expected = oracles.report_rows(name, reference, include_zero)
        assert expected, name
        assert build_report(name, records, include_zero) == expected, name


@pytest.mark.parametrize("source", ["outcomes.jsonl", "results.jsonl"])
def test_report_json_equals_indented_json_dump_on_mixed_corpus(mixed_run, tmp_path, source):
    out, manifest = tmp_path / "reports", mixed_run / "manifest.json"
    assert main(["report", str(mixed_run / source), "--out", str(out), "--manifest", str(manifest)]) == 0
    ranks = {site: meta["rank"] for site, meta in json.loads(manifest.read_text())["site_meta"].items()}
    records = load_records(mixed_run / source, ranks)
    reports = {name: build_report(name, records) for name in REPORT_NAMES}
    assert all(reports.values())
    assert (out / "report.json").read_text() == json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"


def simulate_minimal(out: Path) -> Path:
    """The scenarios/minimal.json corpus in out; returns its one trace file."""
    assert main(["simulate", "--scenario", str(MINIMAL_SCENARIO), "--out", str(out)]) == 0
    return out / MINIMAL_TRACE


def rewrite_records(trace: Path, edit) -> None:
    """Apply edit(record) to every record of a trace file, in place."""
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for record in records:
        edit(record)
    trace.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))


def result_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("ts", ["Infinity", "NaN", "sNaN", "1e40", True])
def test_unusable_timestamp_is_an_error_row(tmp_path, ts):
    def edit(record):
        if record.get("event_name") == "auctionEnd":
            record["ts_ms"] = ts

    rewrite_records(simulate_minimal(tmp_path / "run"), edit)
    assert main(["detect", str(tmp_path / "run")]) == 3
    [row] = result_rows(tmp_path / "run" / "results.jsonl")
    assert row["site_id"] == MINIMAL_TRACE and row["error"].startswith("line 11: bad ts_ms")


def test_undecodable_trace_is_an_error_row(tmp_path):
    trace = simulate_minimal(tmp_path / "run")
    lines = trace.read_bytes().count(b"\n")
    trace.write_bytes(trace.read_bytes() + b"\xff\n")
    assert main(["detect", str(tmp_path / "run")]) == 3
    [row] = result_rows(tmp_path / "run" / "results.jsonl")
    assert row["error"] == f"line {lines + 1}: not UTF-8 text"


def test_unreadable_trace_is_an_error_row(tmp_path):
    simulate_minimal(tmp_path / "run")
    (tmp_path / "run" / "zz__r0.trace.jsonl").mkdir()  # opening it raises IsADirectoryError
    assert main(["detect", str(tmp_path / "run")]) == 3
    good, bad = result_rows(tmp_path / "run" / "results.jsonl")
    assert good["is_hb"] and good["warnings"] == 0
    assert bad["site_id"] == "zz__r0.trace.jsonl" and "Is a directory" in bad["error"]


def test_non_utf8_trace_name_reaches_report(tmp_path):
    trace = simulate_minimal(tmp_path / "run")
    renamed = os.path.join(os.fsencode(trace.parent), b"demo-\xffsite__r0.trace.jsonl")
    os.rename(trace, renamed)
    (tmp_path / "run" / "zz\udcff__r0.trace.jsonl").mkdir()  # an error row under a non-UTF-8 name
    assert main(["detect", str(tmp_path / "run")]) in (0, 3)
    rows = result_rows(tmp_path / "run" / "results.jsonl")
    assert [row["site_id"] for row in rows] == ["demo-\\xffsite", "zz\\xff__r0.trace.jsonl"]
    assert main(["report", str(tmp_path / "run" / "results.jsonl"), "--out", str(tmp_path / "reports")]) == 0
    assert "demo-\\xffsite," in (tmp_path / "reports" / "latency_by_site.csv").read_text()


@pytest.mark.parametrize("field", ["extra", "direction"])
def test_deep_record_with_escape_is_an_error_row(tmp_path, field):
    # A \u escape and a list nested just within the JSON decoder's depth
    # limit, in a key the record may not have or in a DOM event's direction.
    # Depths down from the recursion limit cover whatever the stack depth of
    # the caller is.
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit):
        nested = "[" * depth + "]" * depth
        line = '{"ts_ms":"0","kind":"dom_event","event_name":"bidWon","slot_id":"\\u00e9","%s":%s}' % (field, nested)
        (tmp_path / f"d{depth}__r0.trace.jsonl").write_text(line + "\n")
    assert main(["detect", str(tmp_path)]) == 3
    rows = result_rows(tmp_path / "results.jsonl")
    assert len(rows) == 100 and all(row["error"].startswith("line 1: ") for row in rows)


@pytest.mark.parametrize("price", ["NaN", "sNaN", "Infinity"])
def test_non_finite_price_is_a_warning_and_report_accepts_results(tmp_path, price):
    def edit(record):
        if "hb_price" in record.get("params", {}):
            record["params"]["hb_price"] = price

    out = tmp_path / "run"
    rewrite_records(simulate_minimal(out), edit)
    assert main(["detect", str(out)]) == 0
    [row] = result_rows(out / "results.jsonl")
    # Two bidResponses, the bidWon and the ad server's response.
    assert row["warnings"] == 4
    assert row["auctions"] == [
        {"slot_id": "slot0", "size": "300x250", "bids": [], "winner_partner": None, "winner_cpm": None}
    ]
    assert main(["report", str(out / "results.jsonl"), "--out", str(tmp_path / "reports")]) == 0


MINIMAL_SIDECAR = "demo-site__r0.truth.jsonl"
TRUTH_ROW = {"site_id": "demo-site", "round_index": 0, "facet": "client_side"}


# A truth sidecar's bytes (None: a directory in its place), and the line its error names.
BAD_SIDECARS = pytest.mark.parametrize(
    "sidecar, line",
    [
        (b"{bad\n", 1),
        (b'{"site_id": "demo\xffsite", "round_index": 0, "facet": "client_side"}\n', 1),
        (None, None),
        (b"\n" + json.dumps({"site_id": "demo-site", "round_index": 0}).encode() + b"\n", 2),
        (json.dumps({"round_index": 0, "facet": "client_side"}).encode() + b"\n", 1),
        (b"[1]\n", 1),
        (json.dumps({**TRUTH_ROW, "round_index": [1]}).encode() + b"\n", 1),
        (json.dumps({**TRUTH_ROW, "round_index": True}).encode() + b"\n", 1),
    ],
    ids=["not-json", "not-utf-8", "directory", "no-facet", "no-site-id", "array", "round-index-list",
         "round-index-true"],
)


def put_sidecar(path: Path, sidecar: bytes | None) -> None:
    if sidecar is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(sidecar)


@BAD_SIDECARS
def test_bad_sidecar_exits_1_naming_it_after_writing_results(tmp_path, capsys, sidecar, line):
    """A truth sidecar that cannot be scored is a usage error naming the file
    and line; results.jsonl is written first, the same as without --score."""
    out = tmp_path / "run"
    simulate_minimal(out)
    assert main(["detect", str(out)]) == 0
    results = (out / "results.jsonl").read_bytes()
    (out / "results.jsonl").unlink()
    path = out / MINIMAL_SIDECAR
    put_sidecar(path, sidecar)
    capsys.readouterr()
    assert main(["detect", str(out), "--score"]) == 1
    err = capsys.readouterr().err
    assert (f"{path}:{line}: " if line else f"cannot read {path}: ") in err
    assert "runtime error" not in err
    assert (out / "results.jsonl").read_bytes() == results


@BAD_SIDECARS
def test_bad_sidecar_with_jobs_2_matches_jobs_1(mixed_run, tmp_path, capsys, sidecar, line):
    run = tmp_path / "run"
    shutil.copytree(mixed_run, run)
    put_sidecar(min(run.glob("*.truth.jsonl")), sidecar)
    outputs = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        code = main(["detect", str(run), "--score", "--jobs", jobs])
        outputs.append((code, capsys.readouterr(), (run / "results.jsonl").read_bytes()))
    assert outputs[0][0] == 1 and outputs[1] == outputs[0]


def test_score_with_jobs_1_starts_no_child(tmp_path, capsys, monkeypatch):
    """detect --score --jobs 1 reads the sidecars in its own process: it forks nothing."""
    out = tmp_path / "run"
    simulate_minimal(out)
    capsys.readouterr()

    def fork():
        raise AssertionError("detect forked")

    monkeypatch.setattr(os, "fork", fork)
    assert main(["detect", str(out), "--score", "--jobs", "1"]) == 0
    assert "precision=1 recall=1 facet_accuracy=1" in capsys.readouterr().out


def test_failing_sidecar_listing_exits_2_after_writing_results(tmp_path, capsys, monkeypatch):
    """An error while the sidecars are read, here listing the directory a
    second time, is a runtime error with its own message once results.jsonl
    is written."""
    out = tmp_path / "run"
    simulate_minimal(out)
    assert main(["detect", str(out)]) == 0
    results = (out / "results.jsonl").read_bytes()
    calls = []

    def listdir(path):
        calls.append(path)
        if len(calls) == 2:
            raise PermissionError(13, "Permission denied", path)
        return real_listdir(path)

    real_listdir = os.listdir
    monkeypatch.setattr(os, "listdir", listdir)
    capsys.readouterr()
    assert main(["detect", str(out), "--score"]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"detected over 1 traces -> {out / 'results.jsonl'}\n"
    assert captured.err == f"runtime error: [Errno 13] Permission denied: {str(out)!r}\n"
    assert (out / "results.jsonl").read_bytes() == results


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_error_while_sidecars_are_read_leaves_no_child(mixed_run, tmp_path, capsys, monkeypatch, jobs):
    """A detect --score that fails before it reads the sidecars leaves no
    pool worker behind (the conftest fixture fails a test that leaves a
    child behind)."""
    run = tmp_path / "run"
    shutil.copytree(mixed_run, run)

    def result_row(result):
        raise RuntimeError("no row")

    monkeypatch.setattr(cli, "result_row", result_row)
    assert main(["detect", str(run), "--score", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "runtime error: no row\n"


def kill_self(*_):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_writer_that_dies_without_a_word_exits_2(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "_create_files", kill_self)  # the writer is forked with it
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(write(tmp_path, MIXED)), "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "runtime error: the file writer process exited with code -9\n"
    assert not (out / "manifest.json").exists()


SIMULATE_SITE = cli._simulate_site


def simulate_site_where_no_fd_is_the_stream(task):
    """``cli._simulate_site``, in a pool worker that first checks that none of
    its file descriptors is the pipe named by $STREAM_PIPE, "st_dev st_ino",
    and appends its pid to the file $WORKER_PIDS."""
    stream = tuple(map(int, os.environ["STREAM_PIPE"].split()))
    for fd in os.listdir("/proc/self/fd"):
        try:
            st = os.stat(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if (st.st_dev, st.st_ino) == stream:
            raise RuntimeError(f"pool worker {os.getpid()} holds the writer's stream as fd {fd}")
    with open(os.environ["WORKER_PIDS"], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return SIMULATE_SITE(task)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_pool_workers_do_not_hold_the_writer_stream(tmp_path, capsys, monkeypatch):
    """Each pool worker closes the stream's write end that it inherits, so
    only this process holds it, and the writer sees the end of the stream
    when this process ends it."""
    def fileno(writer):
        fd = real_fileno(writer)
        st = os.fstat(fd)
        monkeypatch.setenv("STREAM_PIPE", f"{st.st_dev} {st.st_ino}")  # before the pool forks its workers
        return fd

    real_fileno = cli._FileWriter.fileno
    monkeypatch.setattr(cli._FileWriter, "fileno", fileno)
    monkeypatch.setattr(cli, "_simulate_site", simulate_site_where_no_fd_is_the_stream)
    pids = tmp_path / "pids"
    monkeypatch.setenv("WORKER_PIDS", str(pids))
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(write(tmp_path, MIXED)), "--out", str(out), "--jobs", "2"]) == 0
    assert capsys.readouterr().err == ""
    workers = set(map(int, pids.read_text().split()))
    assert workers and os.getpid() not in workers


def test_cli_import_leaves_out_the_process_pool():
    """concurrent.futures, and the logging it imports, load only when a pool starts."""
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, hbarena.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["u2028", "u2029", "u0085"])
def test_trace_lines_end_only_at_newline(tmp_path, separator):
    """A raw line or paragraph separator, or NEL, inside a trace string is text
    in its line, not a line end."""
    out = tmp_path / "run"
    trace = simulate_minimal(out)
    assert main(["detect", str(out)]) == 0
    pristine = result_rows(out / "results.jsonl")
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    next(record for record in records if record.get("url"))["url"] += "#" + separator
    trace.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    assert separator in trace.read_text(encoding="utf-8")
    assert main(["detect", str(out)]) == 0
    assert result_rows(out / "results.jsonl") == pristine


def test_score_counts_error_rows(tmp_path, capsys):
    trace = simulate_minimal(tmp_path / "run")
    lines = trace.read_text().splitlines()
    lines[6] = lines[6][: len(lines[6]) // 2]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["detect", str(tmp_path / "run"), "--score"]) == 3
    out = capsys.readouterr().out
    assert "scored 1 traces against sidecar truth (1 errors)" in out
    assert "precision=n/a recall=0 facet_accuracy=n/a" in out


def test_score_counts_a_false_positive_a_miss_and_a_wrong_facet(tmp_path, capsys):
    """Eight sites, four HB and four waterfall, with three truth sidecars
    rewritten: an HB trace called waterfall (a false positive), a waterfall
    trace called HB (a missed HB trace), and an HB trace called another HB
    facet (a facet miss).  Three of four detected HB traces are HB, three of
    four HB traces are detected, and two of those three have the right facet."""
    scenario = json.loads((MINIMAL_SCENARIO.parent / "hb_vs_waterfall.json").read_text())
    scenario["generator"]["num_sites"] = 8
    path = tmp_path / "hb_vs_waterfall_8.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    sidecars = {}
    for sidecar in sorted(out.glob("*.truth.jsonl")):
        sidecars.setdefault(json.loads(sidecar.read_text())["facet"], []).append(sidecar)
    assert {facet: len(paths) for facet, paths in sidecars.items()} == {"client_side": 4, "waterfall_only": 4}
    for sidecar, facet in [(sidecars["client_side"][0], "waterfall_only"),
                           (sidecars["waterfall_only"][0], "client_side"),
                           (sidecars["client_side"][1], "hybrid")]:
        row = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**row, "facet": facet}) + "\n")
    capsys.readouterr()
    assert main(["detect", str(out), "--score"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "scored 8 traces against sidecar truth",
        "precision=0.75 recall=0.75 facet_accuracy=0.666667",
    ]


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["NaN", "sNaN", "Infinity", "-Infinity", "1e40", "1e30", "-0", "0.5", "1e-999999", "\ud800"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)
_RECORD_KEYS = ("ts_ms", "kind", "event_name", "url", "direction", "params", "auction_id", "slot_id")


def _byte_edits(draw, pristine: bytes) -> bytes:
    """``pristine`` with one to three random byte runs replaced, inserted or deleted."""
    data = bytearray(pristine)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        chunk = draw(st.binary(min_size=1, max_size=4))
        if op == "insert":
            data[at:at] = chunk
        elif op == "replace":
            data[at:at + len(chunk)] = chunk
        else:
            del data[at:at + len(chunk)]
    return bytes(data)


@st.composite
def _mutated_trace(draw, pristine: bytes) -> bytes:
    if draw(st.booleans()):
        return _byte_edits(draw, pristine)
    records = [json.loads(line) for line in pristine.decode().splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        record = records[draw(st.integers(0, len(records) - 1))]
        value = draw(_JSON_VALUES)
        if draw(st.booleans()) and isinstance(record.get("params"), dict):
            record["params"][draw(st.sampled_from(["hb_price", "hb_size", "bidder", "hb_partner"]))] = value
        else:
            record[draw(st.sampled_from(_RECORD_KEYS))] = value
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records).encode()


@pytest.fixture(scope="module")
def minimal_corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("minimal") / "run"
    simulate_minimal(out)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_traces_never_abort_detect_or_report(minimal_corpus, data):
    """Any bytes in a trace give a result row or an error row (exit 0 or 3),
    and report accepts whatever detect wrote."""
    mutated = data.draw(_mutated_trace((minimal_corpus / MINIMAL_TRACE).read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(minimal_corpus, run)
        (run / MINIMAL_TRACE).write_bytes(mutated)
        assert main(["detect", str(run), "--score"]) in (0, 3)
        for row in result_rows(run / "results.jsonl"):
            for auction in row.get("auctions", []):
                assert all(Decimal(b["cpm"]).is_finite() for b in auction["bids"])
        assert main(["report", str(run / "results.jsonl"), "--out", str(run / "reports")]) == 0


def _keyed_values(value) -> list[tuple[dict, str]]:
    """(object, key) for every member of every object within a decoded JSON value."""
    if isinstance(value, list):
        return [pair for item in value for pair in _keyed_values(item)]
    if not isinstance(value, dict):
        return []
    return [(value, key) for key in value] + [pair for item in value.values() for pair in _keyed_values(item)]


@st.composite
def _mutated_file(draw, pristine: bytes, json_lines: bool) -> bytes | None:
    """A JSON or JSON Lines file with random byte edits, cut short, or with one
    value of some object swapped for one of another type or its key dropped;
    None stands for a directory in its place."""
    how = draw(st.sampled_from(["bytes", "truncate", "retype", "drop", "directory"]))
    if how == "directory":
        return None
    if how == "bytes":
        return _byte_edits(draw, pristine)
    if how == "truncate":
        return pristine[:draw(st.integers(0, len(pristine) - 1))]
    values = [json.loads(line) for line in pristine.decode().splitlines()] if json_lines else [json.loads(pristine)]
    members = [pair for value in values for pair in _keyed_values(value)]
    target, key = members[draw(st.integers(0, len(members) - 1))]
    if how == "drop":
        del target[key]
    else:
        old_type = type(target[key])
        target[key] = draw(_JSON_VALUES.filter(lambda value: type(value) is not old_type))
    if json_lines:
        return "".join(json.dumps(value) + "\n" for value in values).encode()
    return json.dumps(values[0], indent=2).encode()


# File kind -> (its name in the run, whether it is JSON Lines, the command that reads it).
_READERS = {
    "scenario": ("scenario.json", False, ["simulate", "--scenario", "{run}/scenario.json", "--out", "{run}/again"]),
    "directory.json": ("directory.json", False, ["detect", "{run}"]),
    "--directory": ("directory.json", False, ["detect", "{run}", "--directory", "{run}/directory.json"]),
    "trace": (MINIMAL_TRACE, True, ["detect", "{run}", "--score"]),
    "sidecar": (MINIMAL_SIDECAR, True, ["detect", "{run}", "--score"]),
    "outcomes": ("outcomes.jsonl", True, ["report", "{run}/outcomes.jsonl", "--out", "{run}/reports"]),
    "results": ("results.jsonl", True, ["report", "{run}/results.jsonl", "--out", "{run}/reports"]),
    "manifest": ("manifest.json", False,
                 ["report", "{run}/results.jsonl", "--out", "{run}/reports", "--manifest", "{run}/manifest.json"]),
}


@pytest.fixture(scope="module")
def detected_corpus(minimal_corpus, tmp_path_factory) -> Path:
    """The minimal corpus with its results.jsonl and a copy of its scenario."""
    run = tmp_path_factory.mktemp("detected") / "run"
    shutil.copytree(minimal_corpus, run)
    assert main(["detect", str(run)]) == 0
    shutil.copy(MINIMAL_SCENARIO, run / "scenario.json")
    return run


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(_READERS)), data=st.data())
def test_mutated_inputs_never_abort_a_command(detected_corpus, kind, data):
    """Any damage to any file a command reads gives exit 0, 1 or 3, never a runtime error."""
    name, json_lines, argv = _READERS[kind]
    mutated = data.draw(_mutated_file((detected_corpus / name).read_bytes(), json_lines))
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(detected_corpus, run)
        if mutated is None:
            (run / name).unlink()
            (run / name).mkdir()
        else:
            (run / name).write_bytes(mutated)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(run=run) for arg in argv])
    assert code in (0, 1, 3), err.getvalue()
    assert "runtime error" not in err.getvalue()


def detect_outputs(run: Path, jobs: str, capsys) -> tuple[int, str, bytes]:
    """detect --score --jobs N over run: exit code, stdout, results.jsonl."""
    capsys.readouterr()
    code = main(["detect", str(run), "--score", "--jobs", jobs])
    return code, capsys.readouterr().out, (run / "results.jsonl").read_bytes()


def test_detect_jobs_2_matches_jobs_1_on_mixed(mixed_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(mixed_run, run)
    serial = detect_outputs(run, "1", capsys)
    assert serial[0] == 0 and "precision=1 recall=1 facet_accuracy=1" in serial[1]
    assert detect_outputs(run, "2", capsys) == serial


def test_detect_jobs_2_matches_jobs_1_on_hostile_traces(mixed_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(mixed_run, run)
    names = sorted(p.name for p in run.glob("*.trace.jsonl") if p.stat().st_size)
    rewrite_records(run / names[0], lambda r: r.update(ts_ms="Infinity"))
    rewrite_records(run / names[1], lambda r: r.update(ts_ms=[1]))
    (run / names[2]).write_bytes((run / names[2]).read_bytes() + b"\xff\n")
    os.rename(run / names[3], os.path.join(os.fsencode(run), b"bad-\xffname__r0.trace.jsonl"))
    (run / "zz\udcff__r0.trace.jsonl").mkdir()
    serial = detect_outputs(run, "1", capsys)
    assert serial[0] == 3 and "(4 errors)" in serial[1]
    errors = [row for row in map(json.loads, serial[2].splitlines()) if "error" in row]
    assert [row["site_id"] for row in errors] == [*names[:3], "zz\\xff__r0.trace.jsonl"]
    assert detect_outputs(run, "2", capsys) == serial


@pytest.mark.parametrize(
    "bid_model, expected",
    [
        ({"mu": float("inf"), "sigma": 0.5},
         "invalid scenario: partner 'appnexus' bid_model: lognormal bid needs finite mu and sigma"),
        ({"mu": -2.0, "sigma": float("nan")},
         "invalid scenario: partner 'appnexus' bid_model: lognormal bid needs finite mu and sigma"),
        ({"mu": 1000, "sigma": 0.5}, "error: lognormal bid model (mu=1000.0, sigma=0.5) drew a value out of range"),
        ({"mu": 60, "sigma": 0}, "error: lognormal bid model (mu=60.0, sigma=0.0) drew a value out of range"),
    ],
    ids=["mu-infinity", "sigma-nan", "mu-1000", "mu-60-sigma-0"],
)
def test_unusable_lognormal_parameters_exit_1(tmp_path, capsys, bid_model, expected):
    scenario = json.loads(MINIMAL_SCENARIO.read_text())
    scenario["partners"][0]["bid_model"] = {"kind": "lognormal", **bid_model}
    assert scenario["partners"][0]["partner_id"] == "appnexus"
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert expected in err
    assert "runtime error" not in err


def test_aborted_detect_leaves_previous_results(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(write(tmp_path, MIXED)), "--out", str(out)]) == 0
    assert main(["detect", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = []

    def result_row(result):
        calls.append(result.site_id)
        if len(calls) == 3:
            raise RuntimeError("third trace")
        return real_result_row(result)

    real_result_row = cli.result_row
    monkeypatch.setattr(cli, "result_row", result_row)
    assert main(["detect", str(out), "--score"]) == 2
    assert len(calls) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _set(path, value):
    """A mutation of a scenario dict: the value at a key path, or appended
    to a list when the last key is "+"."""
    def apply(scenario):
        *parents, last = path
        target = scenario
        for key in parents:
            target = target[key]
        if last == "+":
            target.append(value)
        else:
            target[last] = value
    return apply


NAN, INF = float("nan"), float("inf")
GEN = ("generator",)


@pytest.mark.parametrize(
    "base, mutate, field",
    [
        ("market_mix", _set(GEN + ("facet_weights", "hybrid"), NAN), "facet_weights"),
        ("market_mix", _set(GEN + ("slot_sizes", "728x90"), INF), "slot_sizes"),
        ("market_mix", _set(GEN + ("partner_count_weights", "2"), NAN), "partner_count_weights"),
        ("market_mix", _set(GEN + ("slot_count_weights", "3"), -INF), "slot_count_weights"),
        ("market_mix", _set(GEN + ("wrapper_policy_weights",), {"immediate": NAN}), "wrapper_policy_weights"),
        ("market_mix", _set(GEN + ("slot_count_weights", "x"), 5), "slot_count_weights"),
        ("market_mix", _set(GEN + ("partner_count_weights", "x"), 5), "partner_count_weights"),
        ("market_mix", _set(GEN + ("slot_sizes", "300"), 5), "slot_sizes"),
        ("market_mix", _set(GEN + ("num_sites",), "abc"), "num_sites"),
        ("market_mix", _set(GEN + ("timeout_ms",), "abc"), "timeout_ms"),
        ("market_mix", _set(GEN + ("rank_start",), "x"), "rank_start"),
        ("market_mix", _set(GEN + ("server_backend_count",), "x"), "server_backend_count"),
        ("market_mix", _set(GEN + ("floor_price",), "abc"), "floor_price"),
        ("market_mix", _set(GEN + ("floor_price",), "NaN"), "floor_price"),
        ("market_mix", _set(GEN + ("render_fail_probability",), "abc"), "render_fail_probability"),
        ("market_mix", _set(GEN + ("num_sites",), 2.5), "num_sites"),
        ("market_mix", _set(GEN + ("waterfall_tiers",), -1), "waterfall_tiers"),
        ("market_mix", _set(("rounds_per_site",), "x"), "rounds_per_site"),
        ("market_mix", _set(("master_seed",), "x"), "master_seed"),
        ("market_mix", _set(("partners", "+"), "oops"), "partner entry"),
        ("minimal", _set(("sites", 0, "slots", 0, "floor_price"), NAN), "floor_price"),
        ("minimal", _set(("partners", 0, "response_probability"), NAN), "response_probability"),
        ("minimal", _set(("sites", 0, "render_fail_probability"), NAN), "render_fail_probability"),
        ("minimal", _set(("partners", 0, "domains"), "abc"), "domains"),
        ("minimal", _set(("partners", 0, "latency_model"), {"kind": "lognormal", "mu": True, "sigma": 0.5}), "mu"),
        ("minimal", _set(("partners", 0, "bid_model"), {"kind": "lognormal", "mu": 0.1, "sigma": True}), "sigma"),
        ("minimal", _set(("partners", 0, "domains"), ["", "adnxs.com"]), "partner 'appnexus': domains"),
        ("minimal", _set(("partners", 0, "domains"), [" . "]), "partner 'appnexus': domains"),
        ("minimal", _set(("partners", 1, "domains"), ["ADNXS.com."]),
         "domain 'adnxs.com' is listed by partners 'appnexus' and 'criteo'"),
        ("market_mix", _set(GEN + ("site_prefix",), 7), "site_prefix"),
        ("minimal", _set(("partners", 0, "domains"), ["adnxs.com:8080"]), "partner 'appnexus': domains"),
        ("minimal", _set(("partners", 0, "domains"), ["https://adnxs.com"]), "partner 'appnexus': domains"),
        ("minimal", _set(("partners", 0, "domains"), ["adnxs.com/path"]), "partner 'appnexus': domains"),
        ("minimal", _set(("partners", 0, "domains"), [" adnxs.com"]), "partner 'appnexus': domains"),
        ("minimal", _set(("output_dir",), 5), "output_dir"),
        ("minimal", _set(("output_dir",), True), "output_dir"),
        ("minimal", _set(("output_dir",), []), "output_dir"),
        ("market_mix", _set(GEN + ("facet_weight",), {"hybrid": 1}), "facet_weight"),
        ("market_mix", _set(("rounds_per_sites",), 3), "rounds_per_sites"),
        ("minimal", _set(("partners", 0, "response_probabilty"), "0.5"), "response_probabilty"),
        ("minimal", _set(("sites", 0, "wrapper_polcy"), "immediate"), "wrapper_polcy"),
        ("minimal", _set(("sites", 0, "slots", 0, "floor_cpm"), "1"), "floor_cpm"),
        ("minimal", _set(("sites", 0, "timeout_ms"), 1e25), "site 'demo-site': timeout_ms"),
        ("minimal", _set(("rounds_per_site",), 1e25), "rounds_per_site"),
        ("minimal", _set(("partners", 0, "latency_model"), {"kind": "lognormal", "mu": 5.0, "sigma": 0.4, "sigmaa": 9}),
         "partner 'appnexus' latency_model: unknown field 'sigmaa'"),
        ("minimal", _set(("partners", 1, "bid_model"), {"kind": "fixed", "value_cpm": "0.5", "samples_cpm": ["9"]}),
         "partner 'criteo' bid_model: unknown field 'samples_cpm'"),
        ("market_mix", _set(GEN + ("ad_server_latency", "value_ms"), "50"),
         "generator ad_server_latency: unknown field 'value_ms'"),
    ],
    ids=[
        "nan-facet-weight", "inf-slot-size-weight", "nan-partner-count-weight", "negative-inf-slot-count-weight",
        "nan-policy-weight", "slot-count-key-x", "partner-count-key-x", "slot-size-key-300", "num-sites-abc",
        "timeout-abc", "rank-start-x", "backend-count-x", "floor-abc", "floor-nan-string", "render-fail-abc",
        "num-sites-2.5", "waterfall-tiers-minus-1", "rounds-x", "master-seed-x", "partner-not-object",
        "slot-floor-nan", "response-probability-nan", "site-render-fail-nan", "domains-string",
        "lognormal-mu-true", "lognormal-sigma-true", "domains-empty-entry", "domains-dot-entry",
        "domain-of-two-partners", "site-prefix-7", "domains-port", "domains-scheme", "domains-path",
        "domains-leading-blank", "output-dir-5", "output-dir-true", "output-dir-list", "generator-unknown-key",
        "top-level-unknown-key", "partner-unknown-key", "site-unknown-key", "slot-unknown-key",
        "site-timeout-1e25", "rounds-1e25", "latency-model-unknown-key", "bid-model-unknown-key",
        "ad-server-latency-unknown-key",
    ],
)
def test_malformed_scenario_fields_exit_1(tmp_path, capsys, base, mutate, field):
    """A malformed field is a configuration error that names it (exit 1), not
    a runtime error (exit 2) nor a silently changed run (exit 0)."""
    if base == "market_mix":
        scenario = json.loads((MINIMAL_SCENARIO.parent / "market_mix_5000.json").read_text())
        scenario["generator"]["num_sites"] = 20
    else:
        scenario = json.loads(MINIMAL_SCENARIO.read_text())
    mutate(scenario)
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "runtime error" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_ms", 0),
        ("render_fail_probability", "1.5"),
        ("floor_price", "-1"),
        ("rank_start", -3),
        ("slot_sizes", {"0x250": 1}),
        ("ad_server_latency", {"kind": "fixed", "value_ms": "0"}),
        ("site_prefix", "-x"),
        ("site_prefix", "a b"),
        ("partner_pool", ["dfp", "appnexus", "rubicon"]),
        ("slot_count_weights", {"0": 1}),
        ("slot_count_weights", {"-2": 1}),
        ("partner_pool", ["appnexus", "rubicon", "appnexus"]),
        ("partner_pool", []),
        ("timeout_ms", 10**25),
    ],
    ids=["timeout-0", "render-fail-1.5", "floor-minus-1", "rank-start-minus-3", "slot-size-0x250",
         "ad-server-latency-0", "site-prefix-dash", "site-prefix-blank", "partner-pool-holds-ad-server",
         "slot-count-0", "slot-count-minus-2", "partner-pool-twice", "partner-pool-empty",
         "timeout-10-to-25"],
)
def test_generator_field_out_of_range_is_one_error(tmp_path, capsys, field, value):
    """A generator field every generated site would inherit is reported once,
    naming the field, not once per site."""
    scenario = json.loads((MINIMAL_SCENARIO.parent / "market_mix_5000.json").read_text())
    scenario["generator"]["num_sites"] = 20
    scenario["generator"][field] = value
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert f"generator {field}" in err[0]


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("num_sites", 1e25,
         f"error: generator num_sites must be from 1 to {MAX_GENERATED_SITES}, got {10**25}"),
        ("num_sites", MAX_GENERATED_SITES + 1,
         f"error: generator num_sites must be from 1 to {MAX_GENERATED_SITES}, got {MAX_GENERATED_SITES + 1}"),
        ("ad_server_latency", {"kind": "empirical", "samples_ms": ["1e15"]},
         "error: generator ad_server_latency: empirical latency samples must be below 1000000000000000"),
    ],
    ids=["num-sites-1e25", "num-sites-past-the-bound", "ad-server-latency-1e15"],
)
def test_generator_field_past_its_upper_bound_exits_1(tmp_path, capsys, field, value, expected):
    """A generator field past its upper bound exits 1 naming it.  The
    timeout_ms of 0 is checked after these fields, so that a generator that
    lets one pass stops there rather than making a million sites."""
    scenario = json.loads((MINIMAL_SCENARIO.parent / "market_mix_5000.json").read_text())
    scenario["generator"]["num_sites"] = 20
    scenario["generator"]["timeout_ms"] = 0
    scenario["generator"][field] = value
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [expected]


_LATENCY_6E14 = {"kind": "fixed", "value_ms": "6e14"}


@pytest.mark.parametrize(
    "mutations, expected",
    [
        ([_set(("partners", 0, "latency_model"), {"kind": "fixed", "value_ms": "1e20"})],
         "invalid scenario: partner 'appnexus' latency_model: fixed latency must be below 1000000000000000"),
        ([_set(("partners", 0, "latency_model"), {"kind": "empirical", "samples_ms": ["100", "1e15"]})],
         "invalid scenario: partner 'appnexus' latency_model: empirical latency samples must be below "
         "1000000000000000"),
        ([_set(("sites", 0, "ad_server_latency"), {"kind": "fixed", "value_ms": "1e20"})],
         "invalid scenario: site 'demo-site' ad_server_latency: fixed latency must be below 1000000000000000"),
        ([_set(("partners", 0, "latency_model"), {"kind": "lognormal", "mu": 40, "sigma": 0})],
         "error: lognormal latency model (mu=40.0, sigma=0.0) drew a value out of range"),
        ([_set(("partners", 0, "latency_model"), _LATENCY_6E14), _set(("sites", 0, "ad_server_latency"), _LATENCY_6E14),
          _set(("sites", 0, "timeout_ms"), 6 * 10**14)],
         "error: site 'demo-site': the ad server's response time 1200000000000000.000 ms is not below "
         "1000000000000000 ms"),
        ([_set(("partners", 0, "latency_model"), _LATENCY_6E14), _set(("partners", 1, "latency_model"), _LATENCY_6E14),
          _set(("sites", 0, "facet"), "waterfall_only"), _set(("sites", 0, "slots", 0, "floor_price"), "1")],
         "error: site 'demo-site': the waterfall's total latency 1200000000000000.000 ms is not below "
         "1000000000000000 ms"),
    ],
    ids=["fixed-1e20", "empirical-sample-1e15", "ad-server-fixed-1e20", "lognormal-mu-40", "ad-server-sum",
         "waterfall-sum"],
)
def test_times_a_trace_cannot_hold_exit_1(tmp_path, capsys, mutations, expected):
    """A latency, or a sum of two, at or past the 10**15 ms bound on trace
    timestamps is a configuration error, not a trace that detect rejects."""
    scenario = json.loads(MINIMAL_SCENARIO.read_text())
    for mutate in mutations:
        mutate(scenario)
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [expected]


def test_generator_slot_count_above_20_is_one_warning(tmp_path, capsys):
    """Generated sites of more than 20 slots give one warning naming the
    field, not one per site."""
    scenario = json.loads((MINIMAL_SCENARIO.parent / "market_mix_5000.json").read_text())
    scenario["generator"]["num_sites"] = 20
    scenario["generator"]["slot_count_weights"] = {"25": 1}
    scen = write(tmp_path, scenario)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("warning: generator slot_count_weights"), err
