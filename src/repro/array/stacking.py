"""3D-stacked bank partitioning (extension; cf. 3DCacti, paper section 5).

The paper's study stacks whole L3 banks face-to-face on the core die and
cites 3DCacti and Puttaswamy/Loh for the further step of partitioning a
single array *across* layers.  This module adds that analysis on top of a
solved design: folding a bank onto N layers shrinks its footprint by ~N
and its H-tree span by ~sqrt(N), trading wire delay and energy for TSV
hops.

Face-to-face through-silicon vias have sub-FO4 communication delay
(paper section 3.1, citing Puttaswamy/Loh), so the dominant effect is the
shorter 2D span per layer; TSV capacitance adds a small per-crossing
energy term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.organization import ArrayMetrics
from repro.tech.devices import DeviceParams

#: TSV capacitance per crossing of a face-to-face microbump stack (F).
TSV_CAPACITANCE = 20e-15

#: Delay of one TSV crossing as a fraction of an FO4 (sub-FO4 per paper).
TSV_DELAY_FO4_FRACTION = 0.5


@dataclass(frozen=True)
class StackedBank:
    """A solved bank folded onto ``layers`` stacked dies."""

    base: ArrayMetrics
    layers: int
    device: DeviceParams

    def __post_init__(self) -> None:
        if self.layers < 1 or self.layers & (self.layers - 1):
            raise ValueError("layer count must be a positive power of two")

    # ------------------------------------------------------------------ #

    @property
    def footprint(self) -> float:
        """Per-layer silicon footprint (m^2)."""
        return self.base.area / self.layers

    @property
    def wire_shrink(self) -> float:
        """H-tree span shrink factor: the 2D extent folds by sqrt(N)."""
        return 1.0 / math.sqrt(self.layers)

    @property
    def tsv_hops(self) -> float:
        """Average vertical crossings per access (half the stack)."""
        return (self.layers - 1) / 2.0

    @property
    def tsv_delay(self) -> float:
        return self.tsv_hops * TSV_DELAY_FO4_FRACTION * self.device.fo4

    @property
    def access_time(self) -> float:
        """Access time with folded H-trees plus TSV hops (s).

        Only the H-tree components scale; the subarray-local path
        (decode, bitline, sense) is unchanged by stacking.
        """
        htree = self.base.t_htree_in + self.base.t_htree_out
        local = self.base.t_access - htree
        return local + htree * self.wire_shrink + self.tsv_delay

    @property
    def e_read_access(self) -> float:
        """Read energy with shorter trees plus TSV charging (J)."""
        # H-tree energy is folded into the activate/read-column terms; the
        # wire-dominated share scales with the span.
        wire_share = 0.5  # fraction of column-path energy in tree wires
        e_wire = self.base.e_read_column * wire_share
        e_rest = self.base.e_read_access - e_wire
        vdd = self.device.vdd
        e_tsv = (
            self.tsv_hops
            * self.base.spec.output_bits
            * TSV_CAPACITANCE
            * vdd
            * vdd
        )
        return e_rest + e_wire * self.wire_shrink + e_tsv

    @property
    def speedup(self) -> float:
        return self.base.t_access / self.access_time


def stacking_sweep(
    base: ArrayMetrics, device: DeviceParams, max_layers: int = 8
) -> list[StackedBank]:
    """Evaluate 1..max_layers (powers of two) stacked partitions."""
    layers = 1
    options = []
    while layers <= max_layers:
        options.append(StackedBank(base=base, layers=layers, device=device))
        layers *= 2
    return options
