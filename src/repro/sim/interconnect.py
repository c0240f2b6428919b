"""The L2-L3 crossbar as a timed resource.

The core die implements an 8x8 crossbar connecting the per-core L2 banks
to the 8 L3 banks on the stacked die (paper Figure 2), with face-to-face
through-silicon vias whose delay is sub-FO4 and therefore ignored.  The
simulator models the crossbar as a fixed traverse latency plus per-output-
port occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Crossbar:
    """Timed 8x8 crossbar between L2s and L3 banks."""

    traverse_cycles: int  #: one-way latency (CPU cycles)
    port_occupancy: int = 1  #: cycles an output port is held per transfer
    num_ports: int = 8
    _port_ready: list[float] = field(default_factory=list)
    transfers: int = 0

    def __post_init__(self) -> None:
        if not self._port_ready:
            self._port_ready = [0.0] * self.num_ports

    def traverse(self, now: float, port: int) -> float:
        """Send one transfer toward ``port`` at time ``now``; returns the
        arrival time at the far side (CPU cycles)."""
        start = max(now, self._port_ready[port])
        self._port_ready[port] = start + self.port_occupancy
        self.transfers += 1
        return start + self.traverse_cycles
