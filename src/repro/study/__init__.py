"""The stacked last-level-cache study (paper sections 3-4)."""
