"""Opcode-level executor tests: tiny kernels checked against expected
per-thread results."""

import math

import pytest

from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.frontend import compile_kernel_source
from repro.ir import Function, IRBuilder, Module
from repro.simt import GPUMachine, GlobalMemory


def run_kernel(source, kernel, n_threads=32, args=(), memory=None, **machine_kwargs):
    module = compile_kernel_source(source)
    machine = GPUMachine(module, **machine_kwargs)
    return machine.launch(kernel, n_threads, args=args, memory=memory)


def run_expr(expr, n_threads=4):
    """Store an expression per thread; returns the memory cells."""
    result = run_kernel(
        f"kernel k() {{ store(tid(), {expr}); }}", "k", n_threads=n_threads
    )
    return [result.memory.load(i) for i in range(n_threads)]


class TestArithmetic:
    def test_add_mul(self):
        assert run_expr("tid() * 2 + 1") == [1, 3, 5, 7]

    def test_division_is_float(self):
        assert run_expr("7 / 2")[0] == 3.5

    def test_division_by_zero_yields_zero(self):
        assert run_expr("1 / 0")[0] == 0.0

    def test_rem(self):
        assert run_expr("tid() % 3") == [0, 1, 2, 0]

    def test_rem_by_zero_yields_zero(self):
        assert run_expr("5 % 0")[0] == 0

    def test_min_max(self):
        assert run_expr("min(tid(), 2)") == [0, 1, 2, 2]
        assert run_expr("max(tid(), 2)") == [2, 2, 2, 3]

    def test_bitwise(self):
        assert run_expr("xor(tid(), 1)") == [1, 0, 3, 2]
        assert run_expr("shl(1, tid())") == [1, 2, 4, 8]
        assert run_expr("shr(8, tid())") == [8, 4, 2, 1]
        assert run_expr("bitand(tid(), 1)") == [0, 1, 0, 1]
        assert run_expr("bitor(tid(), 4)") == [4, 5, 6, 7]

    def test_comparisons_produce_01(self):
        assert run_expr("tid() < 2") == [1, 1, 0, 0]
        assert run_expr("tid() >= 2") == [0, 0, 1, 1]
        assert run_expr("tid() == 1") == [0, 1, 0, 0]

    def test_unary_math(self):
        values = run_expr("sqrt(tid() + 0.0)")
        assert values[3] == pytest.approx(math.sqrt(3))
        assert run_expr("floor(2.7)")[0] == 2
        assert run_expr("abs(0 - 5)")[0] == 5

    def test_sqrt_of_negative_is_zero(self):
        assert run_expr("sqrt(0.0 - 4.0)")[0] == 0.0

    def test_log_of_nonpositive_is_zero(self):
        assert run_expr("log(0.0)")[0] == 0.0

    def test_fma(self):
        assert run_expr("fma(tid(), 2.0, 1.0)") == [1.0, 3.0, 5.0, 7.0]

    def test_exp_clamped(self):
        assert run_expr("exp(1000.0)")[0] == pytest.approx(math.exp(60.0))

    def test_guard_edges_in_one_warp(self):
        """Division by zero, sqrt of zero, signed zero, inf overflow and
        NaN ``max`` together in one straight-line kernel, so every guard
        runs inside a fused segment at full warp width."""
        result = run_kernel(
            """
kernel k() {
    let t = tid();
    let a = 1.0 * t;
    let denom = a - 8.0;
    let q = 1.0 / denom;
    let r = a / 0.0;
    let s = sqrt(a - 4.0);
    let neg = 0.0 - 0.0;
    let m = min(neg, 0.0);
    let big = 1.0e308 + 1.0e308;
    let n = big - big;
    let w = max(n, a);
    store(t, q + r + s + m);
    store(t + 100, w);
}
""",
            "k",
        )
        traces = result.store_traces()
        # The first store holds q + r + s + m. r (a / 0.0) is guarded to
        # 0.0 for every lane and m is 0.0, so:
        # t=4: q = 1/(4-8) = -0.25, sqrt(4-4=0) is guarded (only a > 0
        # roots) -> s = 0.0.
        assert traces[4][0] == (4, pytest.approx(-0.25))
        # t=8: denom == 0 -> q guarded to 0.0, s = sqrt(8-4) = 2.0.
        assert traces[8][0] == (8, pytest.approx(2.0))
        # max(NaN, a) is Python max: ``a if a > NaN else NaN`` -> NaN
        # (every comparison with NaN is False, so the first operand wins).
        for tid, trace in traces.items():
            assert trace[1][0] == tid + 100
            assert math.isnan(trace[1][1])


class TestThreadIdentity:
    def test_tid_global(self):
        result = run_kernel("kernel k() { store(tid(), tid()); }", "k", n_threads=40)
        assert result.memory.load(39) == 39

    def test_lane_wraps_per_warp(self):
        result = run_kernel("kernel k() { store(tid(), lane()); }", "k", n_threads=40)
        assert result.memory.load(35) == 3

    def test_warpid(self):
        result = run_kernel("kernel k() { store(tid(), warpid()); }", "k", n_threads=40)
        assert result.memory.load(5) == 0
        assert result.memory.load(36) == 1

    def test_rand_deterministic_per_seed(self):
        a = run_kernel("kernel k() { store(tid(), rand()); }", "k", seed=1)
        b = run_kernel("kernel k() { store(tid(), rand()); }", "k", seed=1)
        c = run_kernel("kernel k() { store(tid(), rand()); }", "k", seed=2)
        assert a.memory.snapshot() == b.memory.snapshot()
        assert a.memory.snapshot() != c.memory.snapshot()


class TestMemoryOps:
    def test_ld_st(self):
        memory = GlobalMemory()
        memory.store(100, 42)
        result = run_kernel(
            "kernel k() { store(tid(), ld(100)); }", "k", memory=memory
        )
        assert result.memory.load(0) == 42

    def test_atomadd_assigns_unique_values(self):
        result = run_kernel(
            "kernel k() { let t = atomadd(1000, 1); store(t, 1); }", "k"
        )
        assert result.memory.load(1000) == 32
        assert all(result.memory.load(i) == 1 for i in range(32))

    def test_store_trace_recorded(self):
        result = run_kernel("kernel k() { store(tid(), 7.0); }", "k", n_threads=2)
        traces = result.store_traces()
        assert traces[0] == [(0, 7.0)]
        assert traces[1] == [(1, 7.0)]


class TestControlFlow:
    def test_if_else(self):
        run_expr("tid()")  # warm-up sanity
        result = run_kernel(
            """
kernel k() {
    if (tid() < 2) { store(tid(), 1.0); } else { store(tid(), 2.0); }
}
""",
            "k",
            n_threads=4,
        )
        assert [result.memory.load(i) for i in range(4)] == [1.0, 1.0, 2.0, 2.0]

    def test_masked_partial_group_stores_do_not_leak(self):
        """A straight-line run executed by a divergent subset of the warp
        (lanes 0-10) must update exactly those lanes."""
        result = run_kernel(
            """
kernel k() {
    let t = tid();
    let x = 1.0 * t;
    if (t < 11) {
        x = fma(x, 1.25, 3.0);
        x = fma(x, 0.5, -1.0);
        x = x * x + 0.125;
    }
    store(t, x);
}
""",
            "k",
        )
        expected = {}
        for t in range(32):
            x = 1.0 * t
            if t < 11:
                x = x * 1.25 + 3.0
                x = x * 0.5 + -1.0
                x = x * x + 0.125
            expected[t] = [(float(t), x)]
        assert result.store_traces() == expected

    def test_while_loop(self):
        result = run_kernel(
            """
kernel k() {
    let i = 0;
    let s = 0;
    while (i < tid()) { s = s + i; i = i + 1; }
    store(tid(), s);
}
""",
            "k",
            n_threads=5,
        )
        assert [result.memory.load(i) for i in range(5)] == [0, 0, 1, 3, 6]

    def test_for_loop_with_break_continue(self):
        result = run_kernel(
            """
kernel k() {
    let s = 0;
    for i in 0..10 {
        if (i == 3) { continue; }
        if (i == 6) { break; }
        s = s + i;
    }
    store(tid(), s);
}
""",
            "k",
            n_threads=1,
        )
        assert result.memory.load(0) == 0 + 1 + 2 + 4 + 5

    def test_function_call_and_return(self):
        result = run_kernel(
            """
func square(x) { return x * x; }
kernel k() { store(tid(), @square(tid())); }
""",
            "k",
            n_threads=4,
        )
        assert [result.memory.load(i) for i in range(4)] == [0, 1, 4, 9]

    def test_nested_calls(self):
        result = run_kernel(
            """
func inc(x) { return x + 1; }
func twice(x) { return @inc(@inc(x)); }
kernel k() { store(tid(), @twice(10)); }
""",
            "k",
            n_threads=1,
        )
        assert result.memory.load(0) == 12

    def test_recursive_call(self):
        result = run_kernel(
            """
func fact(n) { if (n < 2) { return 1; } return n * @fact(n - 1); }
kernel k() { store(tid(), @fact(5)); }
""",
            "k",
            n_threads=2,
        )
        assert result.memory.load(0) == 120


class TestBarrierOpcodeSemantics:
    def _barrier_module(self):
        module = Module("m")
        fn = Function("k", is_kernel=True)
        module.add(fn)
        b = IRBuilder(fn)
        b.new_block("entry", switch=True)
        return module, fn, b

    def test_bsync_without_join_is_passthrough(self):
        module, fn, b = self._barrier_module()
        b.bsync("b0")
        b.store(b.tid(), 1.0)
        b.exit()
        result = GPUMachine(module).launch("k", 4)
        assert result.memory.load(3) == 1.0

    def test_barcnt_counts_members(self):
        module, fn, b = self._barrier_module()
        b.bssy("b0")
        cnt = b.barcnt("b0")
        b.store(b.tid(), cnt)
        b.exit()
        result = GPUMachine(module).launch("k", 4)
        assert result.memory.load(0) == 4

    def test_bmov_indirection(self):
        module, fn, b = self._barrier_module()
        bt = fn.new_reg("bt")
        b.bmov(bt, "b0")
        b.bssy(bt)
        cnt = b.barcnt("b0")
        b.store(b.tid(), cnt)
        b.exit()
        result = GPUMachine(module).launch("k", 2)
        assert result.memory.load(0) == 2

    def test_warpsync_released_when_other_lanes_exit(self):
        # A lane that exits the kernel is drained from every barrier (the
        # forward-progress guarantee), so a divergent warpsync completes
        # once the non-syncing lanes have exited.
        result = run_kernel(
            """
kernel k() {
    if (tid() < 1) { warpsync; }
    store(tid(), 1.0);
}
""",
            "k",
            n_threads=2,
        )
        assert result.memory.load(0) == 1.0

    def test_cross_barrier_deadlock_detected(self):
        # Two groups parked on each other's barriers: the exact
        # "conflicting barriers" hazard of Section 4.3.
        module = compile_kernel_source(
            """
kernel k() {
    if (tid() < 1) { store(0, 1.0); } else { store(1, 1.0); }
}
"""
        )
        fn = module.function("k")
        from repro.ir import IRBuilder

        b = IRBuilder(fn)
        entry = fn.entry
        b.set_block(entry)
        # join both barriers up front, then wait on different ones per side
        from repro.ir.instructions import Barrier, Instruction, Opcode as Op

        entry.prepend(Instruction(Op.BSSY, operands=[Barrier("x")]))
        entry.prepend(Instruction(Op.BSSY, operands=[Barrier("y")]))
        fn.block("then").prepend(Instruction(Op.BSYNC, operands=[Barrier("x")]))
        fn.block("else").prepend(Instruction(Op.BSYNC, operands=[Barrier("y")]))
        with pytest.raises(DeadlockError):
            GPUMachine(module).launch("k", 2)

    def test_warpsync_converged_passes(self):
        result = run_kernel(
            "kernel k() { warpsync; store(tid(), 1.0); }", "k", n_threads=4
        )
        assert result.memory.load(3) == 1.0

    def test_delay_adds_cycles(self):
        fast = run_kernel("kernel k() { store(tid(), 1.0); }", "k")
        slow = run_kernel("kernel k() { delay(500); store(tid(), 1.0); }", "k")
        assert slow.cycles >= fast.cycles + 500


class TestLaunchValidation:
    def test_launch_needs_kernel(self):
        module = compile_kernel_source("func f(x) { return x; }")
        with pytest.raises(LaunchError):
            GPUMachine(module).launch("f", 32)

    def test_launch_arity_checked(self):
        module = compile_kernel_source("kernel k(a) { store(0, a); }")
        with pytest.raises(LaunchError):
            GPUMachine(module).launch("k", 32, args=())

    def test_launch_positive_threads(self):
        module = compile_kernel_source("kernel k() { store(0, 1.0); }")
        with pytest.raises(LaunchError):
            GPUMachine(module).launch("k", 0)

    def test_runaway_loop_detected(self):
        module = compile_kernel_source(
            "kernel k() { let i = 0; while (1) { i = i + 1; } }"
        )
        with pytest.raises(SimulationError, match="issue slots"):
            GPUMachine(module, max_issues=1000).launch("k", 32)
