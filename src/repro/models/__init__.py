"""Aggregate model views: breakdowns, leakage/refresh utilities, DDR grades."""
