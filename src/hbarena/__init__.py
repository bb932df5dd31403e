"""hbarena: a deterministic header-bidding auction simulator, browser-trace
generator, HB detector, and measurement toolkit."""

__version__ = "0.1.0"
