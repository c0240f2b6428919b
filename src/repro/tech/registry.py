"""Pluggable memory-technology registry.

CACTI-D's core contribution was generalizing one cell technology to
three (SRAM, LP-DRAM, COMM-DRAM) on a shared modeling foundation.  This
module opens that axis: a memory technology is a *declarative*
:class:`CellTraits` bundle -- sensing scheme, destructive-readout and
write-back behavior, refresh requirement, column-mux legality, sense
strip geometry, bitline limits, wire planes, default periphery -- plus
a cell-parameter builder, registered under a name.  The array,
circuit, and timing models consult traits only; they never name a
technology.  Adding a technology is therefore a pure data exercise: one
module that builds a :class:`MemoryTechnology` and calls
:func:`register` (see ``repro.tech.stt_ram`` for the worked example).

:class:`CellTech` is the interned per-technology handle the rest of the
codebase passes around.  It replaces the former closed enum while
keeping its API: ``CellTech("sram")`` looks a registered technology up
by name (raising a :class:`ValueError` that lists the registered names
otherwise), ``CellTech.SRAM`` attribute access works for every
registered technology, ``.value`` is the registry name, iteration
yields every registered handle, and identity comparison is safe because
handles are interned (one object per name, re-interned on unpickle).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.tech.cells import CellParams


class SensingScheme(Enum):
    """How a technology's bitline signal is developed and detected.

    CURRENT_LATCH
        The selected cell actively drives a read current onto a
        precharged bitline until a required differential develops, then
        a latch fires.  Non-destructive; the cell's state is the signal
        source (SRAM's 6T cell, STT-RAM's resistive divider).

    CHARGE_SHARE
        Passive charge redistribution between a storage capacitor and
        the bitline seeds a regenerative latch that must restore the
        full bitline swing.  The read is destructive and the restore is
        the write-back (1T1C DRAM).
    """

    CURRENT_LATCH = "current-latch"
    CHARGE_SHARE = "charge-share"


@dataclass(frozen=True)
class CellTraits:
    """Declarative behavior of one memory-cell technology.

    Everything the array-organization and timing layers formerly decided
    by ``is_dram`` branches, expressed as data.  The triad's values
    reproduce the paper's Table 1 distinctions exactly; a new technology
    states its own behavior without touching any model code.
    """

    #: Bitline sensing scheme (selects the signal-development and
    #: sense-amplifier delay/energy models).
    sensing: SensingScheme
    #: Readout erases the cell; the sense amplifier must regenerate the
    #: full bitline swing, which is also the write-back into the cell.
    destructive_read: bool
    #: Twin (folded) bitline layout: only every other cell contacts a
    #: given bitline, halving junction loading but not wire loading.
    folded_bitline: bool
    #: Access gates one wordline drives per cell (2 for a 6T pair).
    wordline_gates_per_cell: float
    #: Sense-amplifier strip height at the subarray edge, in F.
    sense_strip_height_f: float
    #: Column muxing before the sense amps (ndcm > 1) is legal.  False
    #: for charge-share technologies: every bitline must be sensed --
    #: that *is* the page.
    column_mux_allowed: bool
    #: The main-memory page-size constraint (``page_bits``) applies.
    supports_page_mode: bool
    #: Maximum cells per bitline the sensing scheme can tolerate
    #: (signal-margin limit), or None for no technology limit.
    max_bitline_cells: int | None
    #: Cells leak their stored state and must be periodically refreshed
    #: (``retention_time`` on the cell parameters is then required).
    needs_refresh: bool
    #: Static supply-leakage paths per cell, as a multiplier on the
    #: access-device subthreshold current (2.0 for a 6T cell's two
    #: inverters; 0.0 when cell leakage drains a storage node, costing
    #: refresh energy rather than static power).
    cell_leak_paths: float
    #: Fraction of VDD the precharge circuit must erase per bitline.
    precharge_swing_fraction: float
    #: Bitlines must settle to reference precision at precharge (their
    #: level is the comparison reference for the next charge share).
    precise_precharge: bool
    #: Fraction of written bitline pairs swinging full rail on a write.
    write_swing_fraction: float
    #: Extra wordline hold time a write requires beyond the read path
    #: (s); models slow asymmetric writes (e.g. an MTJ switching pulse).
    #: Extends the row cycle, not the access time.  Zero when writes
    #: are no slower than reads.
    write_pulse_time: float
    #: Array bitline wire plane: "local" (copper) or "local-tungsten".
    bitline_wire: str
    #: Bank-routing wire plane: "global" (fast top metal of a logic
    #: process) or "semi-global" (the intermediate plane commodity DRAM
    #: processes are limited to).
    htree_wire: str
    #: Default peripheral/global device family (paper Table 1).
    default_periphery: str
    #: Idle-subarray sleep transistors meaningfully cut leakage (true
    #: when the cells themselves hold static supply-leakage paths).
    sleep_transistors_effective: bool

    def __post_init__(self) -> None:
        if self.needs_refresh and not self.destructive_read:
            # Not a physical law, but the refresh model refreshes by row
            # activation, which the array model costs as a destructive
            # row cycle; nothing else is modeled.
            raise ValueError(
                "needs_refresh requires destructive (activate-restore) "
                "readout in this model"
            )
        if self.bitline_wire not in ("local", "local-tungsten"):
            raise ValueError(f"unknown bitline wire {self.bitline_wire!r}")
        if self.htree_wire not in ("global", "semi-global"):
            raise ValueError(f"unknown htree wire {self.htree_wire!r}")

    def as_dict(self) -> dict:
        """JSON-safe view of the traits (for reports and tooling)."""
        d = dataclasses.asdict(self)
        d["sensing"] = self.sensing.value
        return d


_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")


class _CellTechMeta(type):
    """Metaclass making ``CellTech`` iterable over registered handles."""

    def __iter__(cls) -> Iterator["CellTech"]:
        return iter(tuple(_HANDLES.values()))

    def __len__(cls) -> int:
        return len(_HANDLES)


class CellTech(metaclass=_CellTechMeta):
    """Interned handle for one registered memory-cell technology.

    ``CellTech(name)`` resolves a registry name (or passes an existing
    handle through); unknown names raise a ``ValueError`` listing the
    registered technologies.  Handles are interned -- one object per
    name, also after unpickling -- so identity comparison works, but
    model code should consult ``.traits`` instead of comparing
    technologies (enforced by ``tools/lint_tech_branches.py``).
    """

    __slots__ = ("_name",)

    def __new__(cls, name: "str | CellTech") -> "CellTech":
        if isinstance(name, CellTech):
            return name
        key = str(name).strip().lower()
        try:
            return _HANDLES[key]
        except KeyError:
            raise ValueError(
                f"unknown cell technology {name!r}; registered "
                f"technologies: {', '.join(registered_names())}"
            ) from None

    @classmethod
    def _intern(cls, name: str) -> "CellTech":
        handle = _HANDLES.get(name)
        if handle is None:
            handle = object.__new__(cls)
            object.__setattr__(handle, "_name", name)
            _HANDLES[name] = handle
        return handle

    @property
    def value(self) -> str:
        """The registry name (enum-compatible spelling)."""
        return self._name

    @property
    def name(self) -> str:
        return self._name

    @property
    def traits(self) -> CellTraits:
        return _TECHNOLOGIES[self._name].traits

    def __repr__(self) -> str:
        return f"CellTech({self._name!r})"

    def __str__(self) -> str:
        return self._name

    def __reduce__(self):
        # Unpickle by name so worker processes re-intern to the one
        # registered handle (registration happens at repro.tech import).
        return (CellTech, (self._name,))

    def __setattr__(self, attr, value):  # pragma: no cover - guard
        raise AttributeError("CellTech handles are immutable")


@dataclass(frozen=True)
class MemoryTechnology:
    """One registered technology: name, declarative traits, cell data.

    ``cell_builder(node_nm, periph_vdd)`` returns the
    :class:`~repro.tech.cells.CellParams` electricals at a node;
    ``periph_vdd`` is the peripheral supply, which technologies whose
    cells share the logic supply (SRAM, STT-RAM) adopt and technologies
    with their own core supply ignore.
    """

    name: str
    traits: CellTraits
    cell_builder: Callable[[float, float], "CellParams"] = field(
        compare=False
    )

    def build_cell(self, node_nm: float, periph_vdd: float) -> "CellParams":
        return self.cell_builder(node_nm, periph_vdd)


_TECHNOLOGIES: dict[str, MemoryTechnology] = {}
_HANDLES: dict[str, CellTech] = {}


def register(tech: MemoryTechnology, *, replace: bool = False) -> CellTech:
    """Register ``tech``, returning its interned :class:`CellTech` handle.

    The handle also becomes a class attribute (``CellTech.STT_RAM`` for
    ``"stt-ram"``).  Registration must happen at import time of a module
    the worker processes also import (the built-in technologies register
    from ``repro.tech``), so handles resolve identically everywhere.
    """
    if not _NAME_RE.match(tech.name):
        raise ValueError(
            f"technology name {tech.name!r} must be lowercase "
            "letters/digits/dashes"
        )
    if tech.name in _TECHNOLOGIES and not replace:
        raise ValueError(f"technology {tech.name!r} is already registered")
    _TECHNOLOGIES[tech.name] = tech
    handle = CellTech._intern(tech.name)
    setattr(_CellTechMeta, "__getattr__", _missing_technology_attr)
    type.__setattr__(CellTech, _attr_name(tech.name), handle)
    return handle


def unregister(name: str) -> None:
    """Remove a registered technology (test support)."""
    name = str(name).strip().lower()
    _TECHNOLOGIES.pop(name, None)
    _HANDLES.pop(name, None)
    try:
        type.__delattr__(CellTech, _attr_name(name))
    except AttributeError:
        pass


def _attr_name(name: str) -> str:
    return name.upper().replace("-", "_")


def _missing_technology_attr(cls, attr):
    raise AttributeError(
        f"no registered technology for CellTech.{attr}; registered "
        f"technologies: {', '.join(registered_names())}"
    )


def get(name: "str | CellTech") -> MemoryTechnology:
    """Look a technology up by name or handle (ValueError if unknown)."""
    return _TECHNOLOGIES[CellTech(name).value]


def registered_names() -> tuple[str, ...]:
    """Registered technology names, in registration order."""
    return tuple(_TECHNOLOGIES)


def traits(name: "str | CellTech") -> CellTraits:
    """The :class:`CellTraits` of a registered technology."""
    return get(name).traits
