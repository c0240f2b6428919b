"""H-tree networks, one object per tree: the reference oracle of the
tree arithmetic in :func:`repro.array.kernels.evaluate_batch`.

CACTI routes addresses from the bank edge to the mats and data back out
over H-tree networks of repeated global wires.  The tree alternates
horizontal and vertical splits; the electrical path to the farthest mat is
half the bank width plus half the bank height.  Repeater stages double as
pipeline boundaries, so the tree's *occupancy* per access (which bounds the
multisubbank interleave cycle) is one segment delay, not the full traverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.array.kernels import BRANCH_BUFFER_FO4
from repro.circuits.repeaters import RepeatedWireDesign, repeated_wire
from repro.tech.devices import DeviceParams
from repro.tech.nodes import Technology


@dataclass(frozen=True)
class HTree:
    """One direction of a bank's H-tree (address-in or data-out)."""

    design: RepeatedWireDesign
    path_length: float  #: edge-to-farthest-mat electrical length (m)
    num_wires: int  #: bus width in signals
    levels: int  #: number of branch levels (pipeline boundaries)
    device: DeviceParams  #: branch-buffer device

    @cached_property
    def buffer_delay(self) -> float:
        """Per-traverse delay of the branch/gating buffers (s)."""
        return self.levels * BRANCH_BUFFER_FO4 * self.device.fo4

    @cached_property
    def delay(self) -> float:
        """Edge-to-mat (or mat-to-edge) latency (s)."""
        return self.design.delay(self.path_length) + self.buffer_delay

    @cached_property
    def occupancy(self) -> float:
        """Time one access occupies a tree segment (s); the pipelined pitch."""
        stages = max(self.levels, 1)
        return self.delay / stages

    @cached_property
    def _energy_per_wire(self) -> float:
        return self.design.energy(self.path_length)

    def energy(self, bits_switched: int | None = None) -> float:
        """Dynamic energy of one transfer (J).

        Branch gating means only the path toward the active mats switches,
        so the switched length is the path length, not the total wire.
        """
        n = self.num_wires if bits_switched is None else bits_switched
        return n * self._energy_per_wire

    @cached_property
    def leakage(self) -> float:
        """Repeater leakage over the whole tree (W).

        Total wire in the tree is ~2x the critical path per doubling level;
        approximate with 2 * path_length per wire.
        """
        return self.num_wires * self.design.leakage(2.0 * self.path_length)

    @cached_property
    def wiring_area(self) -> float:
        """Metal footprint of the tree (m^2), for area overhead accounting."""
        return (
            self.num_wires
            * self.design.wire.pitch
            * 2.0
            * self.path_length
        )


def design_htree(
    tech: Technology,
    device: DeviceParams,
    bank_width: float,
    bank_height: float,
    num_wires: int,
    num_mats: int,
    max_repeater_delay_penalty: float = 0.0,
    wire=None,
) -> HTree:
    """Design an H-tree spanning a bank of the given dimensions.

    ``wire`` defaults to the fast top-level global plane; metal-poor
    processes (commodity DRAM) pass their best available plane instead.
    """
    design = repeated_wire(
        device, wire if wire is not None else tech.global_,
        tech.feature_size, max_repeater_delay_penalty
    )
    path = (bank_width + bank_height) / 2.0
    return HTree(
        design=design,
        path_length=path,
        num_wires=num_wires,
        # Branch levels of a tree fanning out to num_mats mats.
        levels=max(1, math.ceil(math.log2(max(num_mats, 2)))),
        device=device,
    )
