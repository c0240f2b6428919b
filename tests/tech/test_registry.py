"""Unit tests for the pluggable memory-technology registry."""

import dataclasses
import pickle

import pytest

from repro.core.config import MemorySpec
from repro.tech.cells import SRAM_TRAITS, sram_cell
from repro.tech.registry import (
    CellTech,
    CellTraits,
    MemoryTechnology,
    SensingScheme,
    register,
    registered_names,
    traits,
    unregister,
)

TRIAD = ("sram", "lp-dram", "comm-dram")


class TestCellTechHandles:
    def test_lookup_by_name(self):
        assert CellTech("sram") is CellTech.SRAM
        assert CellTech("lp-dram") is CellTech.LP_DRAM
        assert CellTech("comm-dram") is CellTech.COMM_DRAM

    def test_handle_passthrough(self):
        assert CellTech(CellTech.SRAM) is CellTech.SRAM

    def test_name_normalized(self):
        assert CellTech(" SRAM ") is CellTech.SRAM

    def test_value_is_registry_name(self):
        assert CellTech.SRAM.value == "sram"
        assert str(CellTech.COMM_DRAM) == "comm-dram"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered technologies"):
            CellTech("tape-drive")
        with pytest.raises(ValueError, match="sram"):
            CellTech("tape-drive")

    def test_unknown_attribute_lists_registered(self):
        with pytest.raises(AttributeError, match="registered technologies"):
            CellTech.TAPE_DRIVE

    def test_iteration_covers_registry(self):
        assert {t.value for t in CellTech} == set(registered_names())
        assert len(CellTech) == len(registered_names())

    def test_triad_and_stt_ram_registered(self):
        assert set(TRIAD) <= set(registered_names())
        assert "stt-ram" in registered_names()

    def test_pickle_reinterns(self):
        for tech in CellTech:
            assert pickle.loads(pickle.dumps(tech)) is tech

    def test_handles_immutable(self):
        with pytest.raises(AttributeError):
            CellTech.SRAM._name = "other"

    def test_is_dram_means_charge_share(self):
        """The DRAMs are the charge-share technologies; the handle has no
        ``is_dram`` flag, so code asks the trait."""
        charge_share = {
            tech.name for tech in CellTech
            if tech.traits.sensing is SensingScheme.CHARGE_SHARE
        }
        assert charge_share == {"lp-dram", "comm-dram"}
        assert not any(hasattr(tech, "is_dram") for tech in CellTech)


class TestRegistration:
    def _toy(self, name="toy-ram", **overrides):
        kwargs = dict(dataclasses.asdict(SRAM_TRAITS))
        kwargs["sensing"] = SRAM_TRAITS.sensing
        kwargs.update(overrides)
        def build(node_nm, periph_vdd):
            return dataclasses.replace(
                sram_cell(node_nm, periph_vdd), tech=CellTech(name)
            )

        return MemoryTechnology(
            name=name, traits=CellTraits(**kwargs), cell_builder=build
        )

    def test_register_unregister_round_trip(self):
        handle = register(self._toy())
        try:
            assert CellTech("toy-ram") is handle
            assert CellTech.TOY_RAM is handle
            assert "toy-ram" in registered_names()
            assert traits("toy-ram") == self._toy().traits
        finally:
            unregister("toy-ram")
        assert "toy-ram" not in registered_names()
        with pytest.raises(ValueError):
            CellTech("toy-ram")
        with pytest.raises(AttributeError):
            CellTech.TOY_RAM

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(self._toy(name="sram"))

    def test_replace_opt_in(self):
        register(self._toy())
        try:
            register(self._toy(), replace=True)
        finally:
            unregister("toy-ram")

    def test_bad_names_rejected(self):
        for bad in ("STT-RAM", "3dxp", "a_b", ""):
            with pytest.raises(ValueError, match="lowercase"):
                register(self._toy(name=bad))

    def test_registered_cell_builder_used(self):
        register(self._toy())
        try:
            from repro.tech import registry

            cell = registry.get("toy-ram").build_cell(32.0, 0.9)
            assert cell.tech is CellTech("toy-ram")
        finally:
            unregister("toy-ram")

    def test_cell_tech_carried_by_builder(self):
        # The builder decides the CellParams.tech; register() does not
        # rewrite it, so a builder returning another technology's params
        # is a bug this assertion would catch in the built-ins.
        from repro.tech import registry

        for name in registered_names():
            cell = registry.get(name).build_cell(32.0, 0.9)
            assert cell.tech is CellTech(name), name


class TestCellTraits:
    def test_refresh_requires_destructive_read(self):
        kwargs = dataclasses.asdict(SRAM_TRAITS)
        kwargs["sensing"] = SRAM_TRAITS.sensing
        kwargs["needs_refresh"] = True  # but destructive_read stays False
        with pytest.raises(ValueError, match="needs_refresh"):
            CellTraits(**kwargs)

    def test_wire_plane_names_validated(self):
        kwargs = dataclasses.asdict(SRAM_TRAITS)
        kwargs["sensing"] = SRAM_TRAITS.sensing
        with pytest.raises(ValueError, match="bitline wire"):
            CellTraits(**{**kwargs, "bitline_wire": "copper"})
        with pytest.raises(ValueError, match="htree wire"):
            CellTraits(**{**kwargs, "htree_wire": "top-metal"})

    def test_as_dict_is_json_safe(self):
        import json

        for tech in CellTech:
            blob = json.dumps(tech.traits.as_dict())
            assert json.loads(blob)["sensing"] == tech.traits.sensing.value


class TestDefaultPeriphery:
    def test_tracks_registry(self):
        """A spec's default periphery is its technology's registered trait."""
        for tech in CellTech:
            spec = MemorySpec(capacity_bytes=1 << 20, cell_tech=tech)
            assert spec.periphery == tech.traits.default_periphery

    def test_accepts_names(self):
        assert CellTech("comm-dram").traits.default_periphery == "lstp"

    def test_unknown_name_is_descriptive(self):
        # Regression: this used to be a bare KeyError naming nothing.
        with pytest.raises(ValueError, match="registered technologies"):
            CellTech("tape-drive").traits
