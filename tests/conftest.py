"""Shared builders for scenario and partner fixtures, and a guard against
child processes that a test leaves behind."""

import json
import os
from decimal import Decimal
from pathlib import Path

import pytest

from hbarena.domain import (
    AdSlotSpec,
    BidModel,
    DemandPartnerSpec,
    Facet,
    LatencyModel,
    PartnerDirectory,
    WebsiteScenario,
    WrapperPolicy,
)
from hbarena.cli import main

MARKET_MIX = Path(__file__).resolve().parent.parent / "scenarios" / "market_mix_5000.json"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process of this process running or
    unreaped, such as a writer or pool worker nobody joined."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped (status {status})" if pid
                else "the test left a child process running")


def make_partner(pid, domain=None, latency_ms="100", bid_cpm="0.5", response_probability="1"):
    return DemandPartnerSpec(
        partner_id=pid,
        domains=(domain or f"{pid}.example.net",),
        latency_model=LatencyModel.fixed(Decimal(latency_ms)),
        bid_model=BidModel.fixed(Decimal(bid_cpm)),
        response_probability=Decimal(response_probability),
    )


def make_slot(slot_id="slot0", width=300, height=250, floor="0.1"):
    return AdSlotSpec(slot_id=slot_id, width=width, height=height, floor_price=Decimal(floor))


def make_scenario(
    site_id="site-a",
    facet=Facet.CLIENT_SIDE,
    slots=None,
    partners=("p1", "p2"),
    policy=WrapperPolicy.WAIT_TIMEOUT,
    timeout_ms=3000,
    ad_server_latency_ms="150",
    ad_server_partner_id=None,
    rank=1,
    render_fail_probability="0",
):
    return WebsiteScenario(
        site_id=site_id,
        rank=rank,
        facet=facet,
        slots=tuple(slots) if slots is not None else (make_slot(),),
        partners=tuple(partners),
        wrapper_policy=policy,
        ad_server_latency=LatencyModel.fixed(Decimal(ad_server_latency_ms)),
        timeout_ms=timeout_ms,
        ad_server_partner_id=ad_server_partner_id,
        render_fail_probability=Decimal(render_fail_probability),
    )


@pytest.fixture
def two_partner_roster():
    """The canonical two-bidder fixture: 100ms/0.5 CPM vs 200ms/0.2 CPM."""
    return {
        "p1": make_partner("p1", "p1.example.net", "100", "0.5"),
        "p2": make_partner("p2", "p2.example.net", "200", "0.2"),
    }


@pytest.fixture
def directory():
    return PartnerDirectory.from_mapping(
        {
            "p1.example.net": "p1",
            "p2.example.net": "p2",
            "p3.example.net": "p3",
            "adserve.example.org": "adserve",
        }
    )


@pytest.fixture(scope="session")
def market_mix_corpora(tmp_path_factory) -> dict[int, Path]:
    """market_mix_5000.json cut to 60 and to 600 sites, simulated."""
    root = tmp_path_factory.mktemp("market_mix")
    scenario = json.loads(MARKET_MIX.read_text())
    corpora = {}
    for sites in (60, 600):
        scenario["generator"]["num_sites"] = sites
        path = root / f"market_mix_{sites}.json"
        path.write_text(json.dumps(scenario))
        corpora[sites] = root / f"run_{sites}"
        assert main(["simulate", "--scenario", str(path), "--out", str(corpora[sites])]) == 0
    return corpora
