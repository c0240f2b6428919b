"""Integration tests for the LLC study runner (reduced-size runs)."""

import dataclasses

import pytest

from repro.core.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Journal,
    ResiliencePolicy,
    TaskFailure,
)
from repro.obs import Obs
from repro.sim.stats import AccessCounters
from repro.study.runner import run_one, run_study
from repro.study.table3 import build_energy_model, build_system_config
from repro.workloads.npb import CG_C, FT_B, UA_C

INSTR = 30_000  # small but long enough to warm the scaled caches

FAST_INSTR = 4_000  # enough for the fault-tolerance plumbing tests


@pytest.fixture(scope="module")
def ft_nol3():
    return run_one(FT_B.with_instructions(INSTR), "nol3")


@pytest.fixture(scope="module")
def ft_lp():
    return run_one(FT_B.with_instructions(INSTR), "lp_dram_ed")


class TestRunOne:
    def test_basic_results(self, ft_nol3):
        assert ft_nol3.ipc > 0
        assert ft_nol3.stats.average_read_latency > 0
        assert ft_nol3.power.total > 0
        assert ft_nol3.system.core == pytest.approx(22.3, rel=0.1)

    def test_l3_improves_cache_friendly_app(self, ft_nol3, ft_lp):
        """ft.B's working set fits the L3: IPC must rise (Figure 4a)."""
        assert ft_lp.ipc > ft_nol3.ipc * 1.2

    def test_l3_cuts_memory_traffic(self, ft_nol3, ft_lp):
        assert (
            ft_lp.stats.counters.mem_reads
            < ft_nol3.stats.counters.mem_reads
        )

    def test_breakdown_accounts_for_stalls(self, ft_nol3):
        b = ft_nol3.stats.breakdown
        assert b.memory > 0
        assert b.instruction > 0
        assert b.l3 == 0  # no L3 in this configuration

    def test_power_has_no_l3_terms_without_l3(self, ft_nol3):
        assert ft_nol3.power.l3_leak == 0
        assert ft_nol3.power.crossbar_dyn == 0

    def test_lp_config_has_l3_and_refresh_power(self, ft_lp):
        assert ft_lp.power.l3_leak > 0
        assert ft_lp.power.l3_refresh > 0
        assert ft_lp.stats.breakdown.l3 > 0


class TestRunStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_study(
            profiles=(FT_B, CG_C),
            configs=("nol3", "sram", "cm_dram_c"),
            instructions_per_thread=INSTR,
        )

    def test_matrix_complete(self, study):
        assert set(study.results) == {
            (a, c) for a in ("ft.B", "cg.C")
            for c in ("nol3", "sram", "cm_dram_c")
        }

    def test_normalization_baseline_is_one(self, study):
        assert study.normalized_cycles("ft.B", "nol3") == pytest.approx(1.0)
        assert study.normalized_energy_delay(
            "cg.C", "nol3") == pytest.approx(1.0)

    def test_ft_gets_faster_cg_does_not(self, study):
        """The paper's application grouping in miniature."""
        ft_gain = 1 - study.normalized_cycles("ft.B", "cm_dram_c")
        cg_gain = 1 - study.normalized_cycles("cg.C", "cm_dram_c")
        assert ft_gain > 0.25
        assert cg_gain < ft_gain

    def test_sram_l3_raises_hierarchy_power(self, study):
        """Figure 5a: the SRAM L3's leakage raises hierarchy power."""
        assert study.mean_hierarchy_power_increase("sram") > 0.1

    def test_comm_l3_power_increase_small(self, study):
        sram = study.mean_hierarchy_power_increase("sram")
        comm = study.mean_hierarchy_power_increase("cm_dram_c")
        assert comm < sram / 2

    def test_insensitive_app_flat(self):
        result = run_study(
            profiles=(UA_C,),
            configs=("nol3", "cm_dram_c"),
            instructions_per_thread=INSTR,
        )
        assert abs(1 - result.normalized_cycles("ua.C", "cm_dram_c")) < 0.35


class TestStudyResilience:
    def test_duplicate_profile_names_raise(self):
        with pytest.raises(ValueError, match="duplicate profile"):
            run_study(
                profiles=(UA_C, UA_C),
                configs=("nol3",),
                instructions_per_thread=FAST_INSTR,
            )

    def test_duplicate_config_names_raise(self):
        with pytest.raises(ValueError, match="duplicate config"):
            run_study(
                profiles=(UA_C,),
                configs=("nol3", "sram", "nol3"),
                instructions_per_thread=FAST_INSTR,
            )

    def test_skip_mode_yields_partial_matrix(self):
        # Cell 1 (ua.C x sram) fails terminally; the rest of the matrix
        # completes and the failure is recorded, not raised.
        policy = ResiliencePolicy(
            on_error="skip",
            fault_plan=FaultPlan(
                (FaultSpec("study.cell", 1, "raise", trips=99),)
            ),
        )
        result = run_study(
            profiles=(UA_C,),
            configs=("nol3", "sram", "cm_dram_c"),
            instructions_per_thread=FAST_INSTR,
            resilience=policy,
        )
        assert set(result.results) == {
            ("ua.C", "nol3"), ("ua.C", "cm_dram_c")
        }
        assert len(result.failed) == 1
        assert isinstance(result.failed[0], TaskFailure)
        assert result.failed[0].stage == "study.cell"

    def test_interrupted_study_resumes_unfinished_cells(self, tmp_path):
        path = tmp_path / "study.journal"
        kwargs = dict(
            profiles=(UA_C,),
            configs=("nol3", "sram"),
            instructions_per_thread=FAST_INSTR,
        )

        # The fault interrupts the matrix after cell 0 completes.
        interrupted = ResiliencePolicy(
            journal=Journal(path),
            fault_plan=FaultPlan(
                (FaultSpec("study.cell", 1, "raise", trips=99),)
            ),
        )
        with pytest.raises(FaultInjected):
            run_study(resilience=interrupted, **kwargs)
        interrupted.journal.close()
        assert len(Journal(path)) == 1

        # The resumed run keeps the same fault plan on cell 1's *first*
        # attempt slot: if cell 0 were re-executed... it isn't -- only
        # the unfinished cell runs, with a plan that no longer trips it.
        resumed = ResiliencePolicy(journal=Journal(path))
        result = run_study(resilience=resumed, **kwargs)
        resumed.journal.close()
        assert len(Journal(path)) == 2
        assert set(result.results) == {("ua.C", "nol3"), ("ua.C", "sram")}
        assert result.failed == ()

        # Resumed results are bit-identical to an unjournaled run.
        plain = run_study(**kwargs)
        for cell, run in plain.results.items():
            restored = result.results[cell]
            assert dataclasses.asdict(restored.stats) == dataclasses.asdict(
                run.stats
            )

        # A fully journaled matrix restores without executing any cell:
        # a fault on every index proves nothing runs.
        restored_only = ResiliencePolicy(
            journal=Journal(path),
            fault_plan=FaultPlan(tuple(
                FaultSpec("study.cell", i, "raise", trips=99)
                for i in range(2)
            )),
        )
        again = run_study(resilience=restored_only, **kwargs)
        restored_only.journal.close()
        assert set(again.results) == set(result.results)


class TestJournalVersions:
    """Study journal keys fold in both model versions: a simulator
    change invalidates journaled cells but not solve-store records, and
    a solver change invalidates both."""

    KWARGS = dict(
        profiles=(FT_B,), configs=("nol3",), instructions_per_thread=500,
        jobs=1,
    )

    def restored(self, path):
        obs = Obs(trace=False)
        policy = ResiliencePolicy(journal=Journal(path))
        run_study(obs=obs, resilience=policy, **self.KWARGS)
        policy.journal.close()
        return obs.metrics.counter("resilience.journal_restored").value

    @staticmethod
    def store_hits(store):
        from repro.core.cacti import solve
        from repro.core.config import MemorySpec
        from repro.core.optimizer import SweepStats

        obs = Obs(trace=False)
        solve(MemorySpec(capacity_bytes=64 << 10), solve_cache=store,
              obs=obs)
        return SweepStats(obs.metrics).solve_cache_hits

    @pytest.mark.parametrize("module,name,store_hit", [
        ("repro.sim", "SIM_VERSION", True),
        ("repro.core.solvecache", "CACHE_VERSION", False),
    ])
    def test_version_bump(self, tmp_path, monkeypatch, module, name,
                          store_hit):
        import importlib

        from repro.core.solvecache import SolveCache

        path = tmp_path / "study.journal"
        store = SolveCache(tmp_path / "solves.db")
        assert (self.restored(path), self.store_hits(store)) == (0, 0)
        assert (self.restored(path), self.store_hits(store)) == (1, 2)
        monkeypatch.setattr(importlib.import_module(module), name, "bumped")
        assert self.restored(path) == 0
        assert self.store_hits(store) == (2 if store_hit else 0)


class TestSerialCellSpans:
    """A serial study records one ``study.cell`` span per cell it runs,
    under any policy; the study bench reads its per-cell latencies from
    them."""

    KWARGS = dict(
        profiles=(UA_C,),
        configs=("nol3", "sram"),
        instructions_per_thread=FAST_INSTR,
        jobs=1,
    )

    @staticmethod
    def cell_indices(obs):
        return [s.attrs["index"] for s in obs.tracer.spans
                if s.name == "study.cell"]

    @pytest.mark.parametrize(
        "policy",
        [None, ResiliencePolicy(on_error="skip")],
        ids=["default", "skip"],
    )
    def test_one_span_per_cell(self, policy):
        obs = Obs()
        result = run_study(obs=obs, resilience=policy, **self.KWARGS)
        assert len(result.results) == 2
        assert self.cell_indices(obs) == [0, 1]

    def test_restored_cells_record_no_span(self, tmp_path):
        path = tmp_path / "study.journal"
        interrupted = ResiliencePolicy(
            journal=Journal(path),
            fault_plan=FaultPlan(
                (FaultSpec("study.cell", 1, "raise", trips=99),)
            ),
        )
        with pytest.raises(FaultInjected):
            run_study(resilience=interrupted, **self.KWARGS)
        interrupted.journal.close()
        obs = Obs()
        resumed = ResiliencePolicy(on_error="skip", journal=Journal(path))
        result = run_study(obs=obs, resilience=resumed, **self.KWARGS)
        resumed.journal.close()
        assert len(result.results) == 2
        assert self.cell_indices(obs) == [1]


class TestScaleValidation:
    @pytest.mark.parametrize("scale", [0, -4])
    def test_build_system_config_rejects(self, scale):
        with pytest.raises(ValueError, match="scale must be at least 1"):
            build_system_config("sram", scale=scale)

    @pytest.mark.parametrize("scale", [0, -4])
    def test_run_study_rejects_before_any_cell(self, scale):
        # Under skip the bad scale must not turn into skipped cells.
        with pytest.raises(ValueError, match="scale must be at least 1"):
            run_study(
                profiles=(UA_C,), configs=("nol3",), scale=scale,
                instructions_per_thread=FAST_INSTR,
                resilience=ResiliencePolicy(on_error="skip"),
            )


class TestSourceValidation:
    """An unknown ``source`` is refused, not built as a hybrid of solved
    rows and the paper's DDR4 timing."""

    def test_build_system_config_rejects(self):
        with pytest.raises(ValueError, match="'paper' or 'cacti'.*'foo'"):
            build_system_config("sram", source="foo")

    def test_build_energy_model_rejects(self):
        with pytest.raises(ValueError, match="'paper' or 'cacti'.*'foo'"):
            build_energy_model("sram", source="foo")

    def test_run_study_rejects_before_any_cell(self):
        # Under skip a bad source must not turn into one failure a cell.
        with pytest.raises(ValueError, match="'paper' or 'cacti'"):
            run_study(
                profiles=(UA_C,), configs=("nol3", "sram"), source="foo",
                instructions_per_thread=FAST_INSTR,
                resilience=ResiliencePolicy(on_error="skip"),
            )


class TestSimCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_equal_result_sums(self, jobs):
        obs = Obs()
        result = run_study(
            profiles=(UA_C,), configs=("nol3", "sram"),
            instructions_per_thread=FAST_INSTR, jobs=jobs, obs=obs,
        )
        counters = obs.metrics.snapshot()["counters"]
        runs = list(result.results.values())
        for name in AccessCounters.__dataclass_fields__:
            assert counters[f"sim.{name}"] == sum(
                getattr(r.stats.counters, name) for r in runs
            ), name
        assert counters["sim.l1_reads"] > 0
        assert counters["sim.barrier_cycles"] == sum(
            r.stats.breakdown.barrier for r in runs)
        assert counters["sim.lock_cycles"] == sum(
            r.stats.breakdown.lock for r in runs)
