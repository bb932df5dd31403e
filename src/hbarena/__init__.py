"""hbarena: a deterministic header-bidding auction simulator, browser-trace
generator, HB detector, and measurement toolkit."""

__version__ = "0.1.0"

from .auction import (
    AuctionOutcome,
    Bid,
    WaterfallOutcome,
    compute_send_time,
    run_client_side,
    run_hybrid,
    run_server_side,
    run_waterfall,
    select_winner,
)
from .detector import DetectionResult, classify_facet, detect_hb, extract_auction_metadata
from .domain import (
    AdSlotSpec,
    BidModel,
    DemandPartnerSpec,
    Facet,
    LatencyModel,
    PartnerDirectory,
    WebsiteScenario,
    WrapperPolicy,
    builtin_directory,
    lookup_partner,
    validate_scenario,
)
from .netsim import RngStream, sample_bid, sample_latency
from .tracegen import Trace, TraceEvent, emit_trace, parse_trace_file, serialize_trace

__all__ = [
    "AdSlotSpec",
    "AuctionOutcome",
    "Bid",
    "BidModel",
    "DemandPartnerSpec",
    "DetectionResult",
    "Facet",
    "LatencyModel",
    "PartnerDirectory",
    "RngStream",
    "Trace",
    "TraceEvent",
    "WaterfallOutcome",
    "WebsiteScenario",
    "WrapperPolicy",
    "builtin_directory",
    "classify_facet",
    "compute_send_time",
    "detect_hb",
    "emit_trace",
    "extract_auction_metadata",
    "lookup_partner",
    "parse_trace_file",
    "run_client_side",
    "run_hybrid",
    "run_server_side",
    "run_waterfall",
    "sample_bid",
    "sample_latency",
    "select_winner",
    "serialize_trace",
    "validate_scenario",
]
