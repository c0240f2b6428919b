"""Synthetic NPB-like workloads for the LLC study."""
