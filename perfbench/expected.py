"""Regenerate ``expected.json``: the outputs every warm and grid pass is
checked against.

    python3 perfbench/expected.py     (from the repository root)

The values come from the reference configuration, with every optional
engine layer switched off, so the layers under test never check
themselves. Grid digests and issue counts come from one flat
``GPUMachine.launch`` of the whole thread range (the grid apps are
launch-shape invariant); grid cycles come from a serial ``GridLaunch``.
The Table 2 kernels and the grid apps draw no machine randomness, so the
values hold for every benchmark seed.
"""

import json
import os
import sys

# Read by the engine modules at import time, so set before importing them.
for knob in ("FASTPATH", "SEGMENTS", "WARP_BATCH", "SOA", "JIT", "SPEC",
             "GRID"):
    os.environ[f"REPRO_{knob}"] = "0"

import workpass  # noqa: E402
from repro.core.program_cache import compile_cached  # noqa: E402
from repro.simt.grid import GridLaunch  # noqa: E402
from repro.simt.machine import GPUMachine  # noqa: E402
from repro.simt.memory import GlobalMemory  # noqa: E402
from repro.workloads import GRID_CTA_DIM, GRID_GRID_DIM, get_grid_app  # noqa: E402

SEED = 520


def outputs(result, issued):
    return {
        "cycles": result.cycles,
        "issued": issued,
        "digest": workpass.trace_digest(result.store_traces()),
    }


def warm_expected():
    expected = {}
    for workload in ("multiwarp-forced", "multiwarp-divergent"):
        for uid, name, mode, sched in workpass.warm_units(workload):
            wl = workpass.multiwarp_workload(name)
            compiled = compile_cached(wl.module(), mode=mode,
                                      threshold=wl.sr_threshold)
            memory = GlobalMemory()
            args = wl.setup(memory)
            result = GPUMachine(compiled.module, scheduler=sched,
                                seed=SEED).launch(
                wl.kernel_name, workpass.MULTIWARP_THREADS, args, memory)
            expected[uid] = outputs(result, result.profiler.issued)
            print(uid, expected[uid], file=sys.stderr)
    return expected


def grid_expected():
    expected = {}
    n_threads = GRID_GRID_DIM * GRID_CTA_DIM
    for name in workpass.GRID_APPS:
        app = get_grid_app(name)
        for mode in ("baseline", "auto"):
            compiled = compile_cached(app.module(), mode=mode)
            memory = GlobalMemory()
            flat = GPUMachine(compiled.module, seed=SEED).launch(
                app.kernel_name, n_threads, app.setup(memory, n_threads),
                memory)
            memory = GlobalMemory()
            grid = GridLaunch(compiled.module, GRID_GRID_DIM, GRID_CTA_DIM,
                              jobs=1, seed=SEED).launch(
                app.kernel_name, app.setup(memory, n_threads), memory)
            want = outputs(flat, flat.profiler.issued)
            got = outputs(grid, grid.issued)
            if (got["digest"], got["issued"]) != (want["digest"],
                                                  want["issued"]):
                raise SystemExit(f"{name}/{mode}: serial grid {got} "
                                 f"differs from flat launch {want}")
            expected[f"{name}/{mode}"] = dict(want, cycles=grid.cycles)
            print(name, mode, expected[f"{name}/{mode}"], file=sys.stderr)
    return expected


def main():
    expected = warm_expected()
    expected.update(grid_expected())
    workpass.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
