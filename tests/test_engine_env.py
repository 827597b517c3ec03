"""Process-level engine configuration, checked in fresh interpreters.

The engine reads its on/off knobs from the environment once, at import,
so each case starts a new Python process: a padded value must still
switch its layer off, and a full launch with every layer on must not
pull numpy into the process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code, **env):
    """Run ``code`` in a fresh interpreter with ``env`` added; its stdout."""
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=full_env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


#: (environment variable, module, accessor reporting the knob's state)
KNOBS = (
    ("REPRO_FASTPATH", "repro.simt.fastpath", "fastpath_enabled"),
    ("REPRO_SEGMENTS", "repro.simt.segments", "segments_enabled"),
    ("REPRO_WARP_BATCH", "repro.simt.batch", "warp_batch_enabled"),
    ("REPRO_JIT", "repro.simt.jit", "jit_enabled"),
    ("REPRO_SPEC", "repro.simt.spec", "spec_enabled"),
    ("REPRO_COMPILE_CACHE", "repro.core.program_cache",
     "compile_cache_enabled"),
    ("REPRO_GRID", "repro.simt.grid", "grid_sharding_enabled"),
)


@pytest.mark.parametrize(
    "variable, module, accessor", KNOBS, ids=[knob[0] for knob in KNOBS]
)
def test_padded_zero_disables_knob(variable, module, accessor):
    """A trailing space from a shell or YAML file must not silently
    leave a layer on."""
    code = f"from {module} import {accessor}; print({accessor}())"
    assert _python(code, **{variable: " 0 "}) == "False"


def test_engine_does_not_import_numpy():
    """A Table 2 kernel compiled and launched at 128 threads (4 warps)
    with every engine layer on and JIT tier-up forced leaves numpy out of
    the process."""
    code = """
import sys
from repro.core import compile_sr
from repro.simt import GPUMachine, GlobalMemory
from repro.simt import jit
from repro.workloads import get_workload

jit.set_jit_threshold(0)
workload = get_workload("rsbench", n_tasks=64, inner_fma=3)
memory = GlobalMemory()
args = workload.setup(memory)
compiled = compile_sr(workload.module(), threshold=workload.sr_threshold)
launch = GPUMachine(
    compiled.module, fastpath=True, segments=True, warp_batch=True,
    jit=True, spec=True,
).launch(workload.kernel_name, 128, args=args, memory=memory)
assert launch.profiler.fused_issues > 0
assert launch.profiler.jit_segments > 0
print("numpy" in sys.modules)
"""
    assert _python(code) == "False"
