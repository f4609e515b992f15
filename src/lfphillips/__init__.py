"""Labor-force-driven Phillips curve estimation and long-horizon forecasting."""

__version__ = "0.1.0"
