"""Profiler, LaunchResult, harness CLI, and error-type coverage."""

import pytest

from repro.errors import (
    AnalysisError,
    DeadlockError,
    IRError,
    ParseError,
    ReproError,
    SimulationError,
    TransformError,
    VerifierError,
    WorkloadError,
)
from repro.frontend import compile_kernel_source
from repro.harness.__main__ import main as harness_main
from repro.ir import Opcode
from repro.simt import GPUMachine, Profiler, WARP_SIZE


class TestProfiler:
    def _run(self, source, n=32):
        module = compile_kernel_source(source)
        return GPUMachine(module).launch("k", n)

    def test_full_efficiency_on_convergent_kernel(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        assert result.simt_efficiency == 1.0

    def test_partial_warp_reduces_efficiency(self):
        result = self._run("kernel k() { store(tid(), 1.0); }", n=16)
        assert result.simt_efficiency == pytest.approx(0.5)

    def test_empty_profiler_defaults(self):
        profiler = Profiler()
        assert profiler.simt_efficiency == 1.0
        assert profiler.total_cycles == 0

    def test_opcode_counts(self):
        result = self._run("kernel k() { store(tid(), tid() + 1.0); }")
        counts = result.launch.profiler.opcode_counts if hasattr(result, "launch") else result.profiler.opcode_counts
        assert counts[Opcode.ST] == 1
        assert counts[Opcode.TID] >= 1

    def test_block_visits(self):
        result = self._run(
            "kernel k() { for i in 0..5 { let x = i; } store(0, 1.0); }", n=32
        )
        profile = result.profiler.block_profile("k", "for.head")
        assert profile.visits == 6  # 5 iterations + exit test

    def test_region_efficiency_of_unknown_block(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        assert result.profiler.region_efficiency([("k", "ghost")]) == 1.0

    def test_summary_keys(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        summary = result.profiler.summary()
        assert set(summary) == {
            "issued",
            "cycles",
            "simt_efficiency",
            "barrier_issues",
            "avg_active_lanes",
            "opcode_issues",
            "stall_cycles",
            "counters",
        }
        assert summary["avg_active_lanes"] == pytest.approx(32.0)
        assert summary["opcode_issues"]["st"] == 1
        # No metrics attached -> empty stall attribution.
        assert summary["stall_cycles"] == {}

    def test_warp_cycles_per_warp(self):
        result = self._run("kernel k() { store(tid(), 1.0); }", n=WARP_SIZE * 2)
        assert len(result.profiler.warp_cycles) == 2


class TestLaunchResult:
    def test_retired_per_thread(self):
        module = compile_kernel_source(
            "kernel k() { if (tid() < 1) { let a = 1; let b = 2; } store(0, 1.0); }"
        )
        result = GPUMachine(module).launch("k", 2)
        retired = result.retired_per_thread()
        assert retired[0] > retired[1]

    def test_store_traces_ordering(self):
        module = compile_kernel_source(
            "kernel k() { store(tid(), 1.0); store(tid() + 100, 2.0); }"
        )
        result = GPUMachine(module).launch("k", 1)
        assert result.store_traces()[0] == [(0, 1.0), (100, 2.0)]


class TestHarnessCLI:
    def test_single_fast_figure(self, capsys):
        assert harness_main(["funccall"]) == 0
        out = capsys.readouterr().out
        assert "funccall" in out and "speedup" in out

    def test_table2_via_cli(self, capsys):
        assert harness_main(["table2"]) == 0
        assert "rsbench" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            IRError,
            ParseError,
            VerifierError,
            AnalysisError,
            TransformError,
            SimulationError,
            DeadlockError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parse_error_location(self):
        err = ParseError("bad", line=3, column=7)
        assert "line 3" in str(err) and "column 7" in str(err)
        assert err.line == 3

    def test_deadlock_error_payload(self):
        err = DeadlockError("stuck", warp_id=2, waiting=[(0, "b0")])
        assert err.warp_id == 2
        assert err.waiting == [(0, "b0")]
