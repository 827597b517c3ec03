"""Warp batching: memory-effect analysis, write-set guard, escape hatches.

The conformance matrix (tests/test_conformance.py) pins the batched
multi-warp engine bit-identical to the serial interleaving over the full
corpus; this file covers the pieces in isolation:

* :mod:`repro.analysis.memeffects` — which launches classify as
  ``disjoint`` (no runtime checks) vs ``guarded`` (optimistic with
  rollback), and the compile-time summaries on ``CompileReport``;
* :class:`repro.simt.memory.FootprintMemory` — footprint tracking,
  exact rollback, and the overflow cap;
* the batcher's engagement/fallback behavior on real launches: per-warp
  profiler attribution, guarded rollback, the issue-budget boundary, and
  every escape hatch (env knob, context manager, machine parameter,
  observability, single warp);
* the persistent worker pool in :mod:`repro.harness.parallel`.
"""

import importlib
import os

import pytest

from repro.core import compile_baseline
from repro.errors import LaunchError
from repro.frontend import compile_kernel_source
from repro.harness import parallel
from repro.harness.parallel import run_tasks, shutdown_pool, task
from repro.simt import (
    GPUMachine,
    GlobalMemory,
    set_warp_batch,
    warp_batch_disabled,
    warp_batch_enabled,
)
from repro.simt.memory import FootprintMemory, FootprintOverflow
from repro.analysis.memeffects import (
    analyze_module,
    classify_launch,
    clear_launch_cache,
)

# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

#: One store per thread at ``out + tid`` — the canonical disjoint kernel.
TID_STORE = """
kernel k(out) {
    store(out + tid(), tid() * 2.0);
}
"""

#: The corpus' static-coarsening loop: ``t = tid; ...; t += stride``.
#: Disjoint exactly when the stride covers the launch width.
TASK_LOOP = """
kernel k(out, n, stride) {
    let t = tid();
    let acc = 0.0;
    while (t < n) {
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        store(out + t, acc + t);
        t = t + stride;
    }
}
"""

#: Every thread bumps one shared counter: must be guarded.
SHARED_COUNTER = """
kernel k(counter, out) {
    let i = atomadd(counter, 1);
    store(out + tid(), i);
}
"""

#: A dynamic work queue (rsbench-shaped): conflicting atomics every epoch.
WORK_QUEUE = """
kernel k(queue, out, n) {
    let t = atomadd(queue, 1);
    while (t < n) {
        let acc = fma(t, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        store(out + t, acc);
        t = atomadd(queue, 1);
    }
}
"""

#: Store through a loaded pointer: the address is unanalyzable (top).
UNKNOWN_WRITE = """
kernel k(p) {
    store(ld(p), 1.0);
}
"""

#: Table lookup through a modulus — the read lands in a bounded window
#: even though the hash is unanalyzable; writes stay tid-strided.
TABLE_LOOKUP = """
kernel k(table, out, tsize) {
    let idx = floor(hash01(tid()) * 1000.0) % tsize;
    let v = ld(table + idx);
    store(out + tid(), v + 1.0);
}
"""


def _module(source):
    return compile_baseline(compile_kernel_source(source)).module


# ----------------------------------------------------------------------
# Static analysis: launch classification
# ----------------------------------------------------------------------

class TestClassifyLaunch:
    def test_tid_store_is_disjoint(self):
        module = _module(TID_STORE)
        assert classify_launch(module, "k", (0,), 96) == "disjoint"

    def test_task_loop_stride_covers_launch(self):
        module = _module(TASK_LOOP)
        assert classify_launch(module, "k", (0, 960, 96), 96) == "disjoint"

    def test_task_loop_short_stride_is_guarded(self):
        # stride 64 < 96 threads: thread 64 and thread 0's second task
        # collide, and the analysis must notice.
        module = _module(TASK_LOOP)
        assert classify_launch(module, "k", (0, 960, 64), 96) == "guarded"

    def test_shared_counter_is_guarded(self):
        module = _module(SHARED_COUNTER)
        assert classify_launch(module, "k", (0, 8), 96) == "guarded"

    def test_unknown_write_is_guarded(self):
        module = _module(UNKNOWN_WRITE)
        assert classify_launch(module, "k", (0,), 96) == "guarded"

    def test_bounded_read_disjoint_from_strided_write(self):
        # Table at [0, 255], outputs at [1000, 1095]: spans never touch.
        module = _module(TABLE_LOOKUP)
        assert classify_launch(module, "k", (0, 1000, 256), 96) == "disjoint"

    def test_bounded_read_overlapping_write_is_guarded(self):
        # Outputs on top of the table: a write can clobber another
        # thread's pending read.
        module = _module(TABLE_LOOKUP)
        assert classify_launch(module, "k", (0, 100, 256), 96) == "guarded"

    def test_classification_is_cached_per_launch_shape(self):
        module = _module(TID_STORE)
        clear_launch_cache()
        first = classify_launch(module, "k", (0,), 96)
        again = classify_launch(module, "k", (0,), 96)
        assert first == again == "disjoint"
        clear_launch_cache()
        assert classify_launch(module, "k", (0,), 96) == "disjoint"


class TestAnalyzeModule:
    """Summaries run on the pre-allocation module (as the ``mem-effects``
    pass does), where parameter registers still carry their source names."""

    def test_summary_names_regions_and_forms(self):
        effects = analyze_module(compile_kernel_source(TID_STORE))["k"]
        regions = effects.regions()
        assert regions == {"out": ("write",)}
        (site,) = effects.sites
        assert site.kind == "write"
        assert site.form == "tid-strided"
        assert not effects.opaque_calls

    def test_symbolic_stride_degrades_to_unknown(self):
        # At compile time the loop stride is an opaque parameter, so the
        # counter joins to top — the summary must say so rather than
        # guess; the launch-time classification (with the concrete
        # stride) is what proves this kernel disjoint.
        effects = analyze_module(compile_kernel_source(TASK_LOOP))["k"]
        assert effects.regions() == {"unknown": ("write",)}

    def test_atomics_count_as_atom_sites(self):
        effects = analyze_module(compile_kernel_source(SHARED_COUNTER))["k"]
        regions = effects.regions()
        assert regions["counter"] == ("atom",)
        assert regions["out"] == ("write",)

    def test_unknown_address_is_explicit_top(self):
        effects = analyze_module(compile_kernel_source(UNKNOWN_WRITE))["k"]
        kinds = {site.kind: site for site in effects.sites}
        assert kinds["write"].region == "unknown"
        assert kinds["write"].form == "unknown"

    def test_compile_report_carries_memory_effects(self):
        compiled = compile_baseline(
            compile_kernel_source(TID_STORE),
            pipeline="pdom-sync,strip-directives,mem-effects",
        )
        summary = compiled.report.memory_effects["k"]
        assert summary["regions"] == {"out": ("write",)}
        assert summary["sites"][0]["form"] == "tid-strided"


# ----------------------------------------------------------------------
# FootprintMemory
# ----------------------------------------------------------------------

class TestFootprintMemory:
    def test_tracks_reads_and_writes(self):
        memory = GlobalMemory()
        memory.store(3, 7.0)
        guard = FootprintMemory(memory)
        assert guard.load(3) == 7.0
        guard.store(4, 1.0)
        assert guard.atom_add(5, 2.0) == 0
        reads, writes = guard.take()
        assert reads == {3}
        assert writes == {4, 5}
        # take() drains: the next burst starts clean.
        assert guard.take() == (set(), set())
        # Writes went straight through to the real cells.
        assert memory.load(4) == 1.0
        assert memory.load(5) == 2.0

    def test_rollback_restores_exact_snapshot(self):
        memory = GlobalMemory()
        memory.store(0, 10.0)
        before = memory.snapshot()
        guard = FootprintMemory(memory)
        guard.store(0, 99.0)     # overwrite an existing cell
        guard.store(1, 5.0)      # create a cell
        guard.atom_add(0, 1.0)   # stack a second undo entry on cell 0
        guard.atom_add(2, 3.0)   # create a cell via atomic
        guard.rollback()
        # Bit-identical including *absence* of never-written cells.
        assert memory.snapshot() == before

    def test_commit_keeps_writes_and_drops_undo(self):
        memory = GlobalMemory()
        guard = FootprintMemory(memory)
        guard.store(7, 1.5)
        guard.commit()
        guard.rollback()  # nothing left to undo
        assert memory.load(7) == 1.5

    def test_overflow_raises_at_the_cap(self):
        memory = GlobalMemory()
        guard = FootprintMemory(memory, limit=4)
        for addr in range(4):
            guard.store(addr, 1.0)
        with pytest.raises(FootprintOverflow):
            guard.load(100)
        # Re-touching an already-counted address stays fine.
        guard.store(0, 2.0)


# ----------------------------------------------------------------------
# Engine behavior on real launches
# ----------------------------------------------------------------------

def _run(source, args_for, n_threads, **machine_kwargs):
    """Compile ``source`` and launch it on a fresh memory; ``args_for``
    maps the memory to the kernel argument tuple."""
    module = _module(source)
    memory = GlobalMemory()
    args = args_for(memory)
    machine = GPUMachine(module, **machine_kwargs)
    return machine.launch("k", n_threads, args=args, memory=memory)


def _task_loop_args(n, stride):
    def setup(memory):
        out = memory.alloc(n, name="out")
        return (out, out + n, stride)
    return setup


def _fingerprint(launch):
    summary = launch.profiler.summary()
    # Engine telemetry legitimately differs between the batched and the
    # serial configuration; results must not.
    summary.pop("counters", None)
    return (
        launch.store_traces(),
        launch.retired_per_thread(),
        summary,
        launch.cycles,
    )


class TestBatcherEngagement:
    def test_disjoint_launch_batches_and_matches_serial(self):
        setup = _task_loop_args(384, 128)
        serial = _run(TASK_LOOP, setup, 128, warp_batch=False)
        batched = _run(TASK_LOOP, setup, 128)
        assert _fingerprint(batched) == _fingerprint(serial)
        assert serial.profiler.batch_epochs == 0
        assert batched.profiler.batch_epochs > 0
        assert batched.profiler.batch_rollbacks == 0

    def test_guarded_launch_rolls_back_and_matches_serial(self):
        def setup(memory):
            queue = memory.alloc(1, name="queue")
            out = memory.alloc(256, name="out")
            return (queue, out, 256)
        serial = _run(WORK_QUEUE, setup, 96, warp_batch=False)
        batched = _run(WORK_QUEUE, setup, 96)
        assert _fingerprint(batched) == _fingerprint(serial)
        # Every epoch's bursts collide on the queue cell, so the guard
        # must actually fire (and eventually disable the batcher).
        assert batched.profiler.batch_rollbacks > 0

    def test_per_warp_profiler_attribution(self):
        """record_segment must charge cycles and issues to the *owning*
        warp and block even when four warps advance per epoch."""
        setup = _task_loop_args(512, 128)
        serial = _run(TASK_LOOP, setup, 128, warp_batch=False)
        batched = _run(TASK_LOOP, setup, 128)
        assert batched.profiler.batch_epochs > 0
        assert batched.profiler.warp_cycles == serial.profiler.warp_cycles
        assert set(batched.profiler.warp_cycles) == {0, 1, 2, 3}
        serial_blocks = serial.profiler.block_profiles
        batched_blocks = batched.profiler.block_profiles
        assert set(batched_blocks) == set(serial_blocks)
        for key, expect in serial_blocks.items():
            got = batched_blocks[key]
            assert (got.issues, got.active_sum, got.visits, got.cycles) == (
                expect.issues, expect.active_sum, expect.visits,
                expect.cycles,
            ), key

    def test_issue_budget_raises_at_the_same_slot(self):
        setup = _task_loop_args(384, 128)
        full = _run(TASK_LOOP, setup, 128, warp_batch=False)
        cap = full.profiler.issued // 2
        with pytest.raises(LaunchError, match="issue slots") as serial_err:
            _run(TASK_LOOP, setup, 128, warp_batch=False, max_issues=cap)
        with pytest.raises(LaunchError, match="issue slots") as batched_err:
            _run(TASK_LOOP, setup, 128, max_issues=cap)
        assert str(batched_err.value) == str(serial_err.value)


class TestEscapeHatches:
    def test_machine_parameter_disables(self):
        setup = _task_loop_args(384, 128)
        launch = _run(TASK_LOOP, setup, 128, warp_batch=False)
        assert launch.profiler.batch_epochs == 0

    def test_context_manager_disables_default(self):
        setup = _task_loop_args(384, 128)
        assert warp_batch_enabled()
        with warp_batch_disabled():
            assert not warp_batch_enabled()
            launch = _run(TASK_LOOP, setup, 128)
        assert warp_batch_enabled()
        assert launch.profiler.batch_epochs == 0

    def test_machine_parameter_overrides_global_default(self):
        setup = _task_loop_args(384, 128)
        with warp_batch_disabled():
            launch = _run(TASK_LOOP, setup, 128, warp_batch=True)
        assert launch.profiler.batch_epochs > 0

    def test_set_warp_batch_returns_previous(self):
        previous = set_warp_batch(False)
        try:
            assert previous is True
            assert set_warp_batch(True) is False
        finally:
            set_warp_batch(True)

    def test_single_warp_never_batches(self):
        launch = _run(TASK_LOOP, _task_loop_args(96, 32), 32)
        assert launch.profiler.batch_epochs == 0

    def test_observability_sinks_disable_batching(self):
        setup = _task_loop_args(384, 128)
        observed = _run(TASK_LOOP, setup, 128, metrics=True)
        assert observed.profiler.batch_epochs == 0
        reference = _run(TASK_LOOP, setup, 128, warp_batch=False,
                         metrics=True)
        assert _fingerprint(observed) == _fingerprint(reference)


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _worker_pid(_):
    return os.getpid()


def _explode(_):
    raise ValueError("worker exploded")


#: (module, setter, global) for every in-process engine knob a forked
#: worker snapshots (everything ``_knob_fingerprint`` carries besides the
#: environment).
_ENGINE_KNOBS = (
    ("repro.simt.fastpath", "set_fastpath", "FASTPATH_ENABLED"),
    ("repro.simt.segments", "set_segments", "SEGMENTS_ENABLED"),
    ("repro.simt.batch", "set_warp_batch", "WARP_BATCH_ENABLED"),
    ("repro.core.program_cache", "set_compile_cache", "CACHE_ENABLED"),
    ("repro.simt.jit", "set_jit", "JIT_ENABLED"),
    ("repro.simt.jit", "set_jit_threshold", "JIT_THRESHOLD"),
)


def _engine_knobs(_=None):
    """The in-process engine knobs as the calling process sees them."""
    return tuple(
        getattr(importlib.import_module(module), name)
        for module, _setter, name in _ENGINE_KNOBS
    )


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()
    os.environ.pop("REPRO_POOL_TEST_KNOB", None)


class TestPersistentPool:
    def test_serial_degrade_skips_the_pool(self):
        assert run_tasks([task(_square, i) for i in range(4)], jobs=1) == [
            0, 1, 4, 9,
        ]
        assert parallel._POOL is None
        # A single task degrades too, even with jobs > 1.
        assert run_tasks([task(_square, 5)], jobs=4) == [25]
        assert parallel._POOL is None

    def test_results_in_submission_order(self):
        out = run_tasks([task(_square, i) for i in range(16)], jobs=2)
        assert out == [i * i for i in range(16)]

    def test_pool_is_reused_across_calls(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        assert first is not None
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        assert parallel._POOL is first

    def test_work_runs_in_worker_processes(self):
        pids = set(run_tasks([task(_worker_pid, i) for i in range(8)],
                             jobs=2))
        assert os.getpid() not in pids

    def test_repro_env_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        os.environ["REPRO_POOL_TEST_KNOB"] = "1"
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        assert parallel._POOL is not first

    def test_engine_knob_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        with warp_batch_disabled():
            run_tasks([task(_square, i) for i in range(4)], jobs=2)
            assert parallel._POOL is not first

    @pytest.mark.parametrize(
        "module, setter, name", _ENGINE_KNOBS,
        ids=[
            f"{module.rpartition('.')[2]}-{setter}-{name}"
            for module, setter, name in _ENGINE_KNOBS
        ],
    )
    def test_workers_see_knob_flipped_after_fork(self, module, setter, name):
        knobs = importlib.import_module(module)
        run_tasks([task(_engine_knobs, i) for i in range(2)], jobs=2)
        value = getattr(knobs, name)
        flipped = not value if isinstance(value, bool) else value + 1
        previous = getattr(knobs, setter)(flipped)
        try:
            seen = run_tasks([task(_engine_knobs, i) for i in range(4)],
                             jobs=2)
            assert seen == [_engine_knobs()] * 4
        finally:
            getattr(knobs, setter)(previous)

    def test_jobs_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        run_tasks([task(_square, i) for i in range(4)], jobs=3)
        assert parallel._POOL is not first

    def test_worker_exception_tears_down_and_propagates(self):
        with pytest.raises(ValueError, match="worker exploded"):
            run_tasks([task(_explode, i) for i in range(4)], jobs=2)
        assert parallel._POOL is None
        # The next sweep transparently reforks.
        assert run_tasks([task(_square, i) for i in range(4)], jobs=2) == [
            0, 1, 4, 9,
        ]

    def test_shutdown_pool_is_idempotent(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        shutdown_pool()
        assert parallel._POOL is None
        shutdown_pool()
