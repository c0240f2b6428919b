"""Circuit models: logical effort, gates, driver chains, sensing, wires."""
