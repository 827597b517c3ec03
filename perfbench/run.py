"""The repository benchmark.

    python3 perfbench/run.py --workload funnel --seed 520 --seconds 16 --trace 0

Run from the repository root. Every pass of the workload runs in a fresh
interpreter (``workpass.py``); this process plans the passes and turns
their samples and checks into metrics. ``--trace 0`` runs one measuring
pass and two set-up-only passes and prints every end-to-end metric of
``BENCHMARK.json``. ``--trace 1`` runs a traced pass and the leave-one-out
ablation and prints every per-layer metric; the traced pass's spans are
written to ``.perfbench/``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
SRC = HERE.parent / "src"
TRACE_DIR = Path(".perfbench")

#: How a run measures each workload. One pass runs the timed rounds, one
#: per ``round_s`` seconds of ``--seconds`` and at least one; two more
#: passes only set up, so set-up is measured three times. ``cold_first``:
#: the first launch of a program builds its fused segments, SoA chunks and
#: JIT code, about three times the cost of a later launch, so the first
#: round counts in wall_s but not in the launch percentiles. Funnel rounds
#: re-parse and recompile, so all of them are cold; grid rounds cost the
#: same from the first. ``slice_rounds`` are the rounds of each
#: leave-one-out pass.
PLANS = {
    "funnel": {"round_s": 12.0, "cold_first": False, "slice_rounds": 3},
    "multiwarp-forced": {"round_s": 4.0, "cold_first": True,
                         "slice_rounds": 2},
    "multiwarp-divergent": {"round_s": 4.0, "cold_first": True,
                            "slice_rounds": 2},
    "grid": {"round_s": 6.0, "cold_first": False, "slice_rounds": 2},
}
SETUP_ONLY_PASSES = 2

#: The probe's time (``workpass.probe``) on a quiet host: the fastest of
#: thousands of probes on a 2-core Xeon VM under CPython 3.11 took 1.95
#: to 2.06 ms. On that shared host a probe took up to twice as long while
#: a neighbour was busy; the busy share flipped every 10 to 30 ms and
#: averaged 0.4 to 0.9 over a minute, and the fastest probe itself moved
#: by 12% between hours. Timings of 100 ms and more never ran on a quiet
#: host, so the fastest of a few repeats did not steady them: without
#: this scaling wall_s spread by up to 0.19 of its median over ten runs.
PROBE_QUIET_S = 2.0e-3

#: Leave-one-out: each optional engine layer and its escape hatch.
LAYERS = {
    "fastpath": "REPRO_FASTPATH",
    "segments": "REPRO_SEGMENTS",
    "batch": "REPRO_WARP_BATCH",
    "soa": "REPRO_SOA",
    "jit": "REPRO_JIT",
    "spec": "REPRO_SPEC",
    "grid": "REPRO_GRID",
}

#: Compiler passes of the baseline, sr and auto pipelines.
PASS_NAMES = (
    "autodetect", "collect-predictions", "pdom-sync", "sr-insert",
    "deconflict", "strip-directives", "mem-effects", "allocate", "verify",
)

#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Outputs that every launch of a unit must reproduce, in every pass.
OUTPUT_KEYS = ("cycles", "issued", "digest")


class PassFailed(RuntimeError):
    """A pass interpreter crashed or overran; the run cannot measure."""


def run_pass(cfg, deadline, env_extra=None):
    """Run one pass in a fresh interpreter and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_extra or {})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(cfg["seed"])
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workpass.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {cfg} overran the run limit") from None
    finally:
        # On every way out, also a SIGTERM to this process: stop whatever
        # is left of the pass and its pool workers (its session holds them
        # all).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"pass {cfg} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------
def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz, as in Numerical Recipes' ``betacf``)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(samples, q):
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all
    order statistics, weighted by a beta distribution centred on ``q``.
    One order statistic of a few dozen launches of a dozen different
    programs jumps with whichever launch the host slowed; this estimate
    moves far less (a tail spread of 0.18 fell to 0.07 over six runs)."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail(samples):
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100.0
    return quantile(samples, (n - 10) / n), 100.0 * (n - 10) / n


def host_factor(probes):
    """How slowly the host ran Python while ``probes`` were taken: their
    mean time over ``PROBE_QUIET_S``. Host times are divided by it, so
    they read as on a quiet host."""
    return statistics.fmean(probes) / PROBE_QUIET_S


def pass_seconds(result):
    """A pass's product time: its units' wall times over all rounds."""
    return sum(sum(samples) for samples in result["wall"].values())


def check_agreement(passes):
    """Every pass must produce the same outputs per unit.
    Returns ``(attempted, failures)``."""
    first = {}
    failures = []
    attempted = 0
    for result in passes:
        for uid, unit in result["units"].items():
            outputs = tuple(unit[k] for k in OUTPUT_KEYS)
            if uid not in first:
                first[uid] = outputs
                continue
            attempted += 1
            if outputs != first[uid]:
                failures.append(f"{uid}: {outputs} != {first[uid]} "
                                "in an earlier pass")
    return attempted, failures


def sim_metrics(result):
    """Deterministic simulated results of one pass."""
    units = result["units"]
    ratios = [units[b]["cycles"] / units[o]["cycles"]
              for b, o in result["pairs"]]
    effs = [units[o]["eff"] for _, o in result["pairs"]]
    return {
        "sim_speedup_geomean": statistics.geometric_mean(ratios),
        "simt_efficiency_mean": statistics.fmean(effs),
    }


def end_to_end(measured, setups, cold_first):
    passes = [measured] + setups
    factor = host_factor(measured["probe_s"])
    units = measured["units"].values()
    issued = sum(unit["issued"] * len(unit["launch_s"]) for unit in units)
    launch_s = sum(sum(unit["launch_s"]) for unit in units)
    # Compile latency: every compile of the run's passes, each in a fresh
    # interpreter. Launch latency: every launch, but on the multi-warp
    # workloads only the warm ones; their cold first launches count in
    # wall_s.
    compile_ms = [s * 1e3 / host_factor(result["probe_s"])
                  for result in passes
                  for samples in result["compile_s"].values()
                  for s in samples]
    skip = 1 if cold_first else 0
    latency_ms = [s * 1e3 / factor for unit in units
                  for s in unit["latency_s"][skip:]]
    compile_tail, compile_pct = tail(compile_ms)
    launch_tail, launch_pct = tail(latency_ms)
    metrics = {
        # Set-up is scaled by the probes taken right after it.
        "setup_s": statistics.median(
            r["setup_s"] / host_factor(r["setup_probe_s"]) for r in passes),
        "wall_s": pass_seconds(measured) / factor,
        "sim_issues_per_s": issued / (launch_s / factor),
        "compile_ms_p50": quantile(compile_ms, 0.5),
        "compile_ms_tail": compile_tail,
        "launch_ms_p50": quantile(latency_ms, 0.5),
        "launch_ms_tail": launch_tail,
        "peak_rss_mb": measured["rss_mb"],
    }
    metrics.update(sim_metrics(measured))
    notes = {
        "compile_ms_tail": f"p{compile_pct:.1f} of {len(compile_ms)} compiles",
        "launch_ms_tail": f"p{launch_pct:.1f} of {len(latency_ms)} launches",
        "wall_s": f"{len(measured['wall'])} units x "
                  f"{len(next(iter(measured['wall'].values())))} rounds; "
                  f"{pass_seconds(measured):.4g} s as timed on a host "
                  f"{factor:.3f}x slower than quiet",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run: spans, per-layer numbers, leave-one-out
# ---------------------------------------------------------------------------
def nest_spans(spans):
    """Give each span its parent (the innermost span of the same id that
    contains it) and its self time (duration minus direct children)."""
    by_id = {}
    for index, span in enumerate(spans):
        span["index"] = index
        span["parent"] = None
        span["children"] = []
        span["self"] = span["end"] - span["start"]
        by_id.setdefault(span["id"], []).append(span)
    for group in by_id.values():
        stack = []
        for span in sorted(group, key=lambda s: (s["start"], -s["end"])):
            while stack and stack[-1]["end"] < span["end"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                span["parent"] = parent["index"]
                parent["children"].append(span["index"])
                parent["self"] -= span["end"] - span["start"]
            stack.append(span)
    return spans


def layer_metrics(result):
    spans = nest_spans(result["spans"])
    c = result["counters"]

    def total(name, field="dur"):
        return sum((s["end"] - s["start"]) if field == "dur" else s["self"]
                   for s in spans if s["name"] == name)

    def ratio(num, *den):
        den = sum(c.get(k, 0) for k in den)
        return c.get(num, 0) / den if den else 0.0

    machine = [s for s in spans if s["name"] == "launch"
               and any(spans[i]["name"] == "machine.launch"
                       for i in s["children"])]
    machine_s = sum(s["end"] - s["start"] for s in machine)
    prep_s = sum(spans[i]["end"] - spans[i]["start"] for s in machine
                 for i in s["children"]
                 if spans[i]["name"] in ("decode", "classify"))
    metrics = {
        "frontend.parse_s": total("parse"),
        "core.compile_s": total("compile"),
        "core.compile_self_s": total("compile", "self"),
        "core.program_cache.hit_ratio": ratio(
            "program_cache.hit", "program_cache.hit", "program_cache.miss"),
        "analysis.classify_launch_s": total("classify"),
        "analysis.classify_grid_s": total("classify_grid"),
        "fastpath.decode_s": total("decode"),
        "fastpath.decode_hit_ratio": ratio(
            "fastpath.decode_cache_hit", "fastpath.decode_cache_hit",
            "fastpath.decode_cache_miss"),
        "machine.launch_s": machine_s,
        "machine.self_s": machine_s - prep_s,
        "segments.coverage": ratio(
            "segments.fused_instrs", "segments.fused_instrs",
            "segments.fallback_instrs"),
        "jit.tierups": c.get("jit.tierups", 0),
        "jit.deopts": c.get("jit.deopts", 0),
        "jit.executed_segments": c.get("jit.executed_segments", 0),
        "jit.codegen_s": result["codegen_s"],
        "batch.epochs": c.get("batch.epochs", 0),
        "batch.rollback_ratio": ratio("batch.rollbacks", "batch.epochs"),
        "spec.rounds": c.get("spec.rounds", 0),
        "spec.commit_ratio": ratio("spec.committed", "spec.committed",
                                   "spec.rolled_back"),
        "spec.replayed_slots": c.get("spec.replayed_slots", 0),
        "soa.vector_ratio": ratio("soa.vector_chunks", "soa.vector_chunks",
                                  "soa.fallback_chunks"),
        "grid.launch_s": total("grid.launch"),
        "grid.pool_sharded_ctas": c.get("grid.pool_sharded_ctas", 0),
        "pool.tasks": c.get("pool.tasks", 0),
        "pool.reuses": c.get("pool.reuses", 0),
        "pool.teardowns": c.get("pool.teardowns", 0),
    }
    for name in PASS_NAMES:
        metrics[f"core.pass.{name}_s"] = total("pass:" + name)
    return metrics


def traced_run(args, plan, deadline):
    # One round, and on the multi-warp workloads one warm round after the
    # cold one, give every layer's share; more rounds only repeat them.
    cfg = {"workload": args.workload, "seed": args.seed,
           "rounds": 2 if plan["cold_first"] else 1, "traced": False,
           "slice": False}
    traced = run_pass(dict(cfg, traced=True), deadline)
    if traced["counters"].get("segments.fused_instrs", 0) <= 0:
        traced["failures"].append("traced pass ran no fused segments: "
                                  "observing switched the engine")
    metrics = layer_metrics(traced)

    # Leave-one-out on the slice: each layer off, in a fresh interpreter
    # with its escape hatch set, two layers between all-on passes; a ratio
    # is against the mean of the all-on passes around it. Pass times are
    # taken as on a quiet host, like the end-to-end metrics.
    slice_cfg = dict(cfg, rounds=plan["slice_rounds"], slice=True)
    layers = list(LAYERS.items())
    on = [run_pass(slice_cfg, deadline)]
    offs = []
    for start in range(0, len(layers), 2):
        offs += [(layer, run_pass(slice_cfg, deadline, {knob: "0"}), len(on))
                 for layer, knob in layers[start:start + 2]]
        on.append(run_pass(slice_cfg, deadline))
    # Tracing overhead: a traced slice pass against the all-on ones.
    traced_slice = run_pass(dict(slice_cfg, traced=True), deadline)
    slices = [off for _, off, _ in offs] + on + [traced_slice]

    def quiet_seconds(result):
        return pass_seconds(result) / host_factor(result["probe_s"])

    for layer, off, after in offs:
        t_on = [quiet_seconds(r) for r in on[after - 1:after + 1]]
        t_off = quiet_seconds(off)
        metrics[f"ablation.{layer}.slowdown"] = t_off / statistics.fmean(t_on)
        metrics[f"ablation.{layer}.slowdown_lo"] = t_off / max(t_on)
        metrics[f"ablation.{layer}.slowdown_hi"] = t_off / min(t_on)
    metrics["trace.overhead_s"] = quiet_seconds(traced_slice) - (
        statistics.fmean(quiet_seconds(r) for r in on))

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "spans": traced["spans"],
        "counters": traced["counters"],
    }))
    # Every layer-off engine must reproduce the all-on outputs exactly.
    agree_attempted, failures = check_agreement(slices)
    attempted = agree_attempted + sum(
        r["attempted"] for r in [traced] + slices)
    failures += [f for r in [traced] + slices for f in r["failures"]]
    return metrics, {}, attempted, failures


def rounds(args, plan):
    return max(1, int(args.seconds / plan["round_s"]))


def measured_run(args, plan, deadline):
    cfg = {"workload": args.workload, "seed": args.seed,
           "rounds": rounds(args, plan), "traced": False, "slice": False}
    measured = run_pass(cfg, deadline)
    setups = [run_pass(dict(cfg, rounds=0), deadline)
              for _ in range(SETUP_ONLY_PASSES)]
    metrics, notes = end_to_end(measured, setups, plan["cold_first"])
    attempted = sum(r["attempted"] for r in [measured] + setups)
    failures = [f for r in [measured] + setups for f in r["failures"]]
    notes["failed_frac"] = f"{len(failures) / attempted:.6f} fraction"
    return metrics, notes, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=520)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.time() + RUN_LIMIT_S
    plan = PLANS[args.workload]
    try:
        run = traced_run if args.trace else measured_run
        metrics, notes, attempted, failures = run(args, plan, deadline)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        out[name] = {"value": metrics[name], "unit": unit}
        note = notes.get(name, "")
        print(f"{args.workload:20s} {name:40s} {metrics[name]:14.6g} "
              f"{unit:9s} {note}")
    if "failed_frac" in notes:
        print(f"{args.workload:20s} {'failed_frac':40s} {notes['failed_frac']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
