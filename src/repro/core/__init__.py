"""CACTI-D core: input specs, optimizer, and the public solve API."""
