"""Tests for the Table 3 configuration machinery."""

import pytest

from repro.study.table3 import (
    CONFIG_NAMES,
    build_energy_model,
    build_system_config,
    paper_table3,
    solve_table3,
)


def solved(name):
    return solve_table3()[name]


class TestPaperTable:
    def test_all_columns_present(self):
        rows = paper_table3()
        assert set(rows) == {
            "L1", "L2", "sram", "lp_dram_ed", "lp_dram_c", "cm_dram_ed",
            "cm_dram_c", "main",
        }

    def test_paper_values_spotcheck(self):
        rows = paper_table3()
        assert rows["sram"].leakage_w == pytest.approx(3.6)
        assert rows["cm_dram_c"].access_cycles == 21
        assert rows["main"].access_cycles == 61


class TestSolvedTable:
    """The live CACTI-D solves must land in the paper's bands."""

    def test_l1_l2_cycles(self):
        assert solved("L1").access_cycles <= 3
        assert solved("L2").access_cycles <= 4

    def test_sram_l3(self):
        row = solved("sram")
        paper = paper_table3()["sram"]
        assert row.access_cycles <= paper.access_cycles + 2
        assert row.leakage_w == pytest.approx(paper.leakage_w, rel=0.5)
        assert row.e_read_nj == pytest.approx(paper.e_read_nj, rel=0.5)

    def test_lp_dram_leakage_below_sram(self):
        assert solved("lp_dram_ed").leakage_w < solved("sram").leakage_w

    def test_comm_dram_leakage_negligible(self):
        """Paper Table 3: 15-26 mW vs the SRAM L3's 3.6 W."""
        assert solved("cm_dram_c").leakage_w < 0.2
        assert solved("cm_dram_ed").leakage_w < 0.2

    def test_lp_refresh_exceeds_comm_refresh(self):
        """0.12 ms vs 64 ms retention (paper Table 1 -> Table 3)."""
        assert solved("lp_dram_ed").refresh_w > solved(
            "cm_dram_ed").refresh_w * 10

    def test_comm_slower_than_lp(self):
        assert (
            solved("cm_dram_c").access_cycles
            > solved("lp_dram_c").access_cycles
        )

    def test_bank_area_within_budget_band(self):
        """Per-bank area must sit near the 6.2 mm^2 stack budget."""
        for name in ("sram", "lp_dram_c", "cm_dram_c"):
            assert solved(name).area_mm2 < 6.2 * 1.3


class TestSystemConfigs:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_build_all(self, name):
        cfg = build_system_config(name, source="paper", scale=16)
        assert cfg.num_threads == 32
        if name == "nol3":
            assert cfg.l3 is None
        else:
            assert cfg.l3 is not None
            assert cfg.l3.capacity_bytes > 0

    def test_scaling_shrinks_caches(self):
        small = build_system_config("sram", scale=16)
        big = build_system_config("sram", scale=1)
        assert small.l3.capacity_bytes * 16 == big.l3.capacity_bytes

    def test_l3_capacity_ordering_preserved(self):
        caps = [
            build_system_config(n, scale=16).l3.capacity_bytes
            for n in CONFIG_NAMES[1:]
        ]
        assert caps == sorted(caps)


class TestEnergyModels:
    def test_nol3_has_no_l3(self):
        assert build_energy_model("nol3").l3 is None

    def test_sram_l3_leakiest(self):
        sram = build_energy_model("sram").l3
        comm = build_energy_model("cm_dram_c").l3
        assert sram.p_leakage > 20 * comm.p_leakage

    def test_memory_chip_energies_positive(self):
        m = build_energy_model("nol3").memory
        assert m.e_activate > 0 and m.e_read > 0
        assert m.num_chips == 16


class TestTable3Resume:
    """Row-level checkpointing in solve_table3 (stubbed row builders --
    the live solves are exercised elsewhere; this tests the journal)."""

    @pytest.fixture
    def stubbed_builders(self, monkeypatch):
        import repro.study.table3 as table3

        calls = []

        def fake_row(name, **knobs):
            calls.append(name)
            return paper_table3()[name]

        monkeypatch.setattr(table3, "_build_row", fake_row)
        return calls

    def test_interrupted_table_resumes_at_unfinished_row(
        self, stubbed_builders, tmp_path
    ):
        from repro.core.resilience import (
            FaultInjected,
            FaultPlan,
            FaultSpec,
            Journal,
            ResiliencePolicy,
        )
        from repro.study.table3 import solve_table3

        path = tmp_path / "table3.journal"
        interrupted = ResiliencePolicy(
            journal=Journal(path),
            fault_plan=FaultPlan(
                (FaultSpec("table3.row", 3, "raise", trips=99),)
            ),
        )
        with pytest.raises(FaultInjected):
            solve_table3(resilience=interrupted)
        interrupted.journal.close()
        assert stubbed_builders == ["L1", "L2", "sram"]
        assert len(Journal(path)) == 3

        stubbed_builders.clear()
        resumed = ResiliencePolicy(journal=Journal(path))
        rows = solve_table3(resilience=resumed)
        resumed.journal.close()
        # Only the five unfinished rows were built; the first three
        # restored from the journal.
        assert stubbed_builders == [
            "lp_dram_ed", "lp_dram_c", "cm_dram_ed", "cm_dram_c", "main"
        ]
        assert set(rows) == set(paper_table3())
        assert rows["sram"] == paper_table3()["sram"]
        assert len(Journal(path)) == 8


class TestTable3Memo:
    """One per-process memo: sink-free calls share it, calls with a
    sink solve live, and a cachedb is consulted only to fill it."""

    @pytest.fixture
    def counted_solves(self, monkeypatch):
        import repro.study.table3 as table3

        calls = []
        for name in ("solve", "solve_main_memory"):
            def counted(*args, _real=getattr(table3, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(table3, name, counted)
        return calls

    def test_second_sink_free_call_solves_nothing(self, monkeypatch,
                                                  counted_solves):
        import repro.study.table3 as table3

        monkeypatch.setattr(table3, "_MEMO", {})
        first = solve_table3()
        assert counted_solves.count("solve") == 7
        assert counted_solves.count("solve_main_memory") == 1
        counted_solves.clear()
        assert solve_table3() == first
        assert counted_solves == []

    def test_cachedb_study_solves_table3_once(self, tmp_path, monkeypatch,
                                              counted_solves):
        """Six configurations, each building a config and an energy
        model, cost the seven cache solves and the one main-memory
        solve of one table; the cachedb serves the first of them."""
        import repro.study.table3 as table3
        from repro.cachedb import GridSpec, build_cachedb
        from repro.study.runner import run_study
        from repro.workloads.npb import UA_C

        path = tmp_path / "l1-l2.db"
        build_cachedb(path, GridSpec(capacities_bytes=(32 << 10, 1 << 20),
                                     technologies=("sram",)), jobs=1)
        monkeypatch.setattr(table3, "_MEMO", {})
        counted_solves.clear()
        result = run_study(profiles=(UA_C,), source="cacti",
                           instructions_per_thread=2000, cachedb=path)
        assert len(result.results) == len(CONFIG_NAMES) == 6
        assert counted_solves.count("solve") <= 7
        assert counted_solves.count("solve_main_memory") <= 1

    def test_a_sink_solves_live_on_a_warm_memo(self):
        from repro.core.optimizer import SweepStats
        from repro.obs import Obs

        warm = solve_table3()
        obs = Obs()
        assert solve_table3(obs=obs) == warm
        assert SweepStats(obs.metrics).enumerated > 0

    def test_cachedb_fills_the_memo_and_a_warm_memo_skips_it(
        self, monkeypatch
    ):
        import repro.study.table3 as table3

        class CountingDB:
            lookups = 0

            def lookup_exact(self, spec, target, obs=None):
                CountingDB.lookups += 1
                return None

        monkeypatch.setattr(table3, "_MEMO", {})
        cold = solve_table3(cachedb=CountingDB())
        assert CountingDB.lookups == 7  # every cache row, not the chip
        CountingDB.lookups = 0
        assert solve_table3(cachedb=CountingDB()) == cold
        assert CountingDB.lookups == 0

    def test_a_failed_row_raises_under_a_skip_policy(self, monkeypatch):
        import repro.study.table3 as table3
        from repro.core.resilience import ResiliencePolicy

        def broken_row(name, **knobs):
            raise RuntimeError(f"row {name} failed")

        monkeypatch.setattr(table3, "_build_row", broken_row)
        with pytest.raises(RuntimeError, match="row L1 failed"):
            solve_table3(resilience=ResiliencePolicy(on_error="skip"))
