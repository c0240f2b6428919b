"""Validation against published targets (paper section 2.5)."""
