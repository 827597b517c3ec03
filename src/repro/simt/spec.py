"""Speculative round scheduling: optimistic lockstep progress beyond forced picks.

Segment fusion (PR 4) and warp batching (PR 5) only engage when every
scheduler pick is *forced* — uniquely determined and stable for a whole
straight-line run. Divergent multi-warp phases break that precondition
(size ties under the convergence policy, multi-group warps under
round-robin), so the paper's hardest region still runs one instruction
per warp per slot through the serial loop. This module generalizes the
``FootprintMemory`` reservation machinery into PBBS-style
``speculative_for`` rounds that tolerate *non-forced* picks.

One **speculative round** works in three phases:

1. **Plan** — snapshot each live warp's pick order without executing or
   mutating scheduler state. Fusable ops (``FUSABLE_OPS``) cannot park,
   exit, diverge, call, or release barriers, so a warp's group
   *structure* — which PCs hold how many threads, and each bucket's
   lowest lane — evolves deterministically and independently of register
   values. ``SchedulerBase.spec_cursor`` exposes each policy's pick as a
   pure function of that structure (round-robin's shared counter is
   virtualized: all live warps issue one slot per rotation, so this
   warp's k-th pick sees ``counter + k * n_warps + warp_index``). The
   planner advances a tiny virtual-group automaton per warp, recording
   the pick sequence until a non-fusable opcode or the round-size cap
   cuts it. The round length ``L`` is the minimum over warps, keeping
   every warp's issued-slot count aligned with the serial rotation.

2. **Execute** — each warp runs its planned ``L`` slots in its private
   sandbox, warp-major, with the executor's memory swapped to one shared
   :class:`~repro.simt.memory.FootprintMemory`. Consecutive picks of the
   same group through contiguous PCs coalesce into bounded fused
   segments (``DecodedProgram.segment_bounded``) — the planner's merge
   tracking guarantees no other group sits inside a coalesced run — and
   everything else issues through the decoded per-instruction handlers.
   Accounting (retire counts, profiler records, warp cycles, scheduler
   consumption) is deferred to commit, so rollback only restores thread
   state and memory.

3. **Commit or roll back** — after each warp the guard's read/write sets
   are drained and checked against the accumulated sets of
   earlier-committed warps in serial-schedule order. While all sets stay
   disjoint, warp-major execution is observationally identical to the
   serial rotation-major interleaving (no warp can see another's round
   writes), so the round commits: scheduler counters advance by
   ``consume(L)`` per warp exactly as ``L`` real picks would have, and
   deferred accounting lands (all of it sum-commutative across warps).
   The first conflict — or a footprint overflow — aborts the *whole*
   round: memory is undone newest-first, every warp's thread state is
   restored from its checkpoint, and the machine falls back to ordinary
   per-slot rounds. Partial (prefix) commits would be unsound: a
   replayed warp would observe the committed warps' full-round writes
   where the serial schedule interleaves them slot by slot.

Rounds therefore never change an observable value — commit order *is*
the serial order; speculation only overlaps the work.

Conflict streaks shrink the round adaptively (halving down to
``_MIN_ROUND_SLOTS``) instead of the batcher's hard 8-streak disable;
only persistent conflicts at the minimum size switch speculation off for
the launch. ``REPRO_SPEC=0`` (or :func:`set_spec` /
:func:`spec_disabled`, or ``GPUMachine(spec=False)``) disables the layer
globally; metrics, sinks, traces, and disabled fastpath/segments disable
it implicitly because no segment engine exists then (the same gate as
the batcher).
"""

from __future__ import annotations

from contextlib import contextmanager
from math import lcm

from repro.analysis.memeffects import classify_launch
from repro.env import env_flag
from repro.errors import SimulationError
from repro.ir.instructions import Opcode
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.recorder import dump_post_mortem
from repro.simt.batch import _checkpoint, _restore
from repro.simt.memory import FootprintMemory, FootprintOverflow
from repro.simt.segments import FUSABLE_OPS
from repro.simt.warp import WARP_SIZE

__all__ = [
    "SpecRounds",
    "make_spec",
    "set_spec",
    "spec_disabled",
    "spec_enabled",
]

#: Global default for new machines. Flip with ``set_spec`` or the
#: ``REPRO_SPEC`` environment variable (0/false/off disables).
SPEC_ENABLED = env_flag("REPRO_SPEC")

#: Adaptive round size (slots per warp per round): start in the middle,
#: double after ``_GROW_AFTER`` clean commits, halve after
#: ``_BACKOFF_AFTER`` consecutive conflicts, and give up on the launch
#: only after ``_DISABLE_AFTER`` consecutive conflicts at the floor.
_MIN_ROUND_SLOTS = 4
_MAX_ROUND_SLOTS = 64
_START_ROUND_SLOTS = 16
_GROW_AFTER = 4
_BACKOFF_AFTER = 2
_DISABLE_AFTER = 8

#: Shortest round worth running, in slots per warp. A round's fixed
#: cost — planning every uncached warp, and on guarded launches the
#: thread checkpoints and per-access footprint tracking — is paid per
#: round, while its benefit scales with the slots it absorbs; below
#: this length the fixed cost exceeds the serial slots it replaces.
#: Guarded rounds carry the bigger fixed cost, so they need more slots
#: to clear it.
_MIN_COMMIT_SLOTS = 8
_MIN_GUARDED_SLOTS = 16

#: Decline a planned round unless fused segments cover at least half of
#: its slots (per-slot steps times this weight must not exceed the round
#: total). Per-slot steps run at serial speed inside a round, so a round
#: they dominate pays round overhead for nothing — round-robin alternating
#: two groups every slot coalesces to nothing and would run the whole
#: round at serial speed. Tests pin this to 0 to exercise commit paths
#: regardless of profitability.
_PER_SLOT_WEIGHT = 2

#: Footprint cap per round (addresses); overflow counts as a conflict.
_FOOTPRINT_LIMIT = 4096

#: Serial slots to skip after a failed attempt. Planning is the round's
#: fixed cost, and a warp sitting at (or about to reach) a non-fusable
#: op keeps failing the plan for every serial slot it takes to clear it;
#: retrying each slot would pay the planner O(round-size) per failure.
#: The same holds after a conflicted round: the sharing pattern that
#: collided rarely disappears within a slot or two. Consecutive failures
#: double the cooldown (up to the cap) — a warp grinding through a long
#: non-fusable phase fails every attempt, and the planner's probe cost
#: must not be paid per serial slot for the whole phase.
_PLAN_COOLDOWN = 8
_MAX_COOLDOWN = 512

#: Per-launch plan-cache entries before a wholesale clear (loop-resident
#: warps revisit a handful of structures; the cap only guards pathological
#: programs that never repeat one).
_PLAN_CACHE_LIMIT = 4096


def spec_enabled():
    """The current global speculative-rounds default."""
    return SPEC_ENABLED


def set_spec(enabled):
    """Set the global speculative-rounds default; returns the previous."""
    global SPEC_ENABLED
    previous = SPEC_ENABLED
    SPEC_ENABLED = bool(enabled)
    return previous


@contextmanager
def spec_disabled():
    """Run a block with speculative rounds off (serial non-forced picks)."""
    previous = set_spec(False)
    try:
        yield
    finally:
        set_spec(previous)


def make_spec(machine, executor, scheduler, kernel_name, args, n_threads):
    """A :class:`SpecRounds` for this launch, or None when speculation
    cannot engage (knob off, no fused segments available, single warp,
    or a scheduler whose picks cannot be snapshotted)."""
    enabled = machine.spec if machine.spec is not None else SPEC_ENABLED
    if not enabled or n_threads <= WARP_SIZE:
        return None
    if executor.segment_at is None:
        # Observability sink, metrics, issue trace, fastpath off, or
        # segments off: no segment engine, nothing worth speculating.
        return None
    if scheduler.spec_cursor(2, 0) is None:
        # Policy cannot be modelled without execution (a probe cursor;
        # nothing is executed, so nothing is perturbed).
        return None
    # The batcher's static footprint proof carries over verbatim: when
    # every warp's reads and writes are disjoint by construction, round
    # conflicts are impossible and the guard machinery (footprint
    # tracking, thread checkpoints, deferred accounting) would be pure
    # overhead. classify_launch memoizes per launch shape, so this is a
    # cache hit whenever the batcher already classified the launch.
    classification = classify_launch(
        machine.module, kernel_name, tuple(args), n_threads
    )
    return SpecRounds(
        machine, executor, scheduler,
        guarded=classification != "disjoint",
    )


def _plan_warp(groups, cursor, program_order, entry_at, limit):
    """Snapshot one warp's next picks by advancing a virtual-group
    automaton: ``{pc: (size, min_lane, group_id)}``. Fusable ops move a
    whole bucket to one statically-known next PC (fall-through or the
    BRA target) and can merge it with a resident bucket — exactly the
    machine's uniform carry-over patch — so the structure, and with it
    every pick, is known without touching thread state. Returns the
    ``(pc, entry, group_id)`` pick list, cut at the first non-fusable
    opcode or at ``limit``.
    """
    vgroups = {}
    next_id = 0
    for pc, threads in groups.items():
        vgroups[pc] = (len(threads), threads[0].lane, next_id)
        next_id += 1
    picks = []
    for slot in range(limit):
        if len(vgroups) == 1:
            # Converged (or re-converged) structure: every policy picks
            # the only candidate; skip the cursor call on the hot path.
            pc = next(iter(vgroups))
        else:
            pc = cursor(vgroups, program_order, slot)
        try:
            entry = entry_at(pc)
        except SimulationError:
            # Malformed PC (missing terminator): cut the plan here so the
            # serial loop raises at the exact slot it always did.
            break
        if entry.opcode not in FUSABLE_OPS:
            break
        size, lane, gid = vgroups.pop(pc)
        picks.append((pc, entry, gid))
        if entry.opcode is Opcode.BRA:
            new_pc = (pc[0], entry.instr.operands[0].name, 0)
        else:
            new_pc = (pc[0], pc[1], pc[2] + 1)
        resident = vgroups.get(new_pc)
        if resident is None:
            vgroups[new_pc] = (size, lane, gid)
        else:
            # Merge: a fresh id so coalescing cannot fuse across the
            # boundary where the serial path re-sorts the bucket.
            vgroups[new_pc] = (
                size + resident[0], min(lane, resident[1]), next_id
            )
            next_id += 1
    return picks


def _coalesce(picks, length, segment_bounded):
    """Fold a pick prefix into execution steps: ``(segment, pc, entry)``
    with ``segment`` set for a fused run of the same group through
    contiguous PCs (entry None), or ``entry`` set for one per-slot issue
    (segment None). A group-id change — another bucket merged in, or a
    different group was picked — ends a run, so a coalesced segment's
    interior can never contain another group."""
    steps = []
    i = 0
    while i < length:
        pc, entry, gid = picks[i]
        k = i + 1
        expect = pc[2] + 1
        while k < length:
            npc, _nentry, ngid = picks[k]
            if (
                ngid != gid
                or npc[0] != pc[0]
                or npc[1] != pc[1]
                or npc[2] != expect
            ):
                break
            k += 1
            expect += 1
        run = k - i
        segment = segment_bounded(pc, run) if run >= 2 else None
        if segment is not None:
            steps.append((segment, pc, None))
            i += segment.n
        else:
            steps.append((None, pc, entry))
            i += 1
    return steps


class SpecRounds:
    """Runs optimistic lockstep rounds whenever forced picks fail."""

    __slots__ = (
        "machine", "executor", "scheduler", "profiler", "enabled",
        "guarded", "round_size", "_conflicts", "_commits", "_cooldown",
        "_fail_streak", "_plan_cache", "_segment_bounded", "_entry_at",
    )

    def __init__(self, machine, executor, scheduler, guarded=True):
        self.machine = machine
        self.executor = executor
        self.scheduler = scheduler
        self.profiler = executor.profiler
        self.enabled = True
        self.guarded = guarded
        self.round_size = _START_ROUND_SLOTS
        self._conflicts = 0   # consecutive conflicted rounds
        self._commits = 0     # consecutive committed rounds
        self._cooldown = 0    # serial slots left before the next attempt
        self._fail_streak = 0  # consecutive failed plans (drives cooldown)
        # Plans are pure functions of (group structure, warp count, the
        # policy's plan token modulo the lcm of the group counts the
        # trajectory visits) — constant token for stateless policies,
        # counter phase for round-robin — so loop-resident warps that
        # revisit a structure reuse the pick list instead of replanning.
        # Rows are ``(sig, n_warps) -> (lcm, {token % lcm: (picks, to)})``.
        self._plan_cache = {}
        self._segment_bounded = executor._decoded.segment_bounded
        self._entry_at = executor._decoded.entry

    # ------------------------------------------------------------------
    def try_round(self, live_warps, issues):
        """Run one speculative round across ``live_warps``.

        Returns the updated issue count, or None when the round cannot
        engage or conflicted — the caller then runs ordinary per-slot
        rounds, after which speculation may re-engage.
        """
        if not self.enabled:
            return None
        if self._cooldown:
            self._cooldown -= 1
            return None
        executor = self.executor
        scheduler = self.scheduler
        program_order = executor.program_order
        entry_at = self._entry_at
        n_warps = len(live_warps)
        cap = self.round_size

        # ---- plan: snapshot every warp's pick order ------------------
        # A round shorter than this is declined: its fixed cost (planning
        # every uncached warp; checkpoints and footprint tracking when
        # guarded) exceeds the serial slots it would replace. Clamped to
        # the adaptive cap so conflict backoff keeps retrying at the
        # granularity it chose.
        floor = min(
            _MIN_GUARDED_SLOTS if self.guarded else _MIN_COMMIT_SLOTS,
            cap,
        )

        cache = self._plan_cache
        plans = [None] * n_warps
        pending = []  # (j, warp, groups, sig) not resolved by the cache
        length = cap
        for j, warp in enumerate(live_warps):
            groups = warp.groups_cache
            if groups is None:
                groups = warp.groups()
                warp.groups_cache = groups
            if not groups:
                # Parked or finished warp: drain/done/deadlock handling
                # belongs to the serial loop, and the state rarely clears
                # within a slot.
                return self._plan_failed()
            sig = tuple(
                (pc, len(bucket), bucket[0].lane)
                for pc, bucket in groups.items()
            )
            row = cache.get((sig, n_warps))
            if row is not None:
                hit = row[1].get(
                    scheduler.spec_plan_token(n_warps, j) % row[0]
                )
                if hit is not None and (
                    len(hit[0]) < hit[1] or len(hit[0]) >= cap
                ):
                    # A structure-cut plan (shorter than its limit) is
                    # valid at any cap; a limit-cut one only when it
                    # already covers the current cap.
                    picks = hit[0]
                    if len(picks) < floor:
                        return self._plan_failed()
                    if len(picks) < length:
                        length = len(picks)
                    plans[j] = picks
                    continue
            pending.append((j, warp, groups, sig))

        # Fail-fast probe: one warp cut short sinks the whole attempt,
        # and finding that out *after* planning a deep warp to the cap is
        # the dominant cost of failed attempts. Probing each unresolved
        # warp to the profitability floor settles both engagement and
        # round length before any deep plan.
        probed = []
        for j, warp, groups, sig in pending:
            cursor = scheduler.spec_cursor(n_warps, j)
            probe = _plan_warp(groups, cursor, program_order, entry_at, floor)
            if len(probe) < floor:
                # A warp about to leave the fusable region, or a fusable
                # run too short to clear the round's fixed cost.
                return self._plan_failed()
            probed.append((j, groups, sig, cursor))

        stateless = getattr(scheduler, "spec_stateless", False)
        for j, groups, sig, cursor in probed:
            # Stateless policies plan to the cap: one plan per structure
            # serves every future round, so overplanning amortizes. A
            # stateful policy's plan mostly serves this round (reuse
            # needs a congruent counter phase), so clamp it to the
            # running minimum — the round can never be longer. Plans cut
            # by structure (the common case: a conditional branch ends
            # the fusable run) cache identically either way.
            limit = cap if stateless else length
            picks = _plan_warp(groups, cursor, program_order, entry_at, limit)
            # A stateful cursor reports the group counts its trajectory
            # visited (see RoundRobinScheduler.spec_cursor); tokens
            # congruent modulo their lcm replay the identical plan. A
            # stateless cursor reports nothing: lcm() == 1, one plan per
            # structure.
            modulus = lcm(*getattr(cursor, "lens", ()))
            if len(cache) >= _PLAN_CACHE_LIMIT:
                cache.clear()
            key = (sig, n_warps)
            row = cache.get(key)
            if row is None or row[0] != modulus:
                # A replan (a limit-cut entry invalidated by cap growth)
                # can walk further and visit new group counts; entries
                # keyed under the old modulus are not comparable.
                row = (modulus, {})
                cache[key] = row
            row[1][scheduler.spec_plan_token(n_warps, j) % modulus] = (
                picks, limit,
            )
            if len(picks) < floor:
                # Unreachable for fresh plans (the probe walked the same
                # deterministic trajectory to the floor), kept for the
                # invariant's sake.
                return self._plan_failed()
            if len(picks) < length:
                length = len(picks)
            plans[j] = picks
        self._fail_streak = 0

        total = length * n_warps
        if issues + total > self.machine.max_issues:
            # Let the per-slot loop raise LaunchError at the exact slot
            # the serial schedule would have.
            return None

        segment_bounded = self._segment_bounded
        warp_steps = [
            _coalesce(picks, length, segment_bounded) for picks in plans
        ]

        # Price the round before running it: per-slot steps cost what the
        # serial loop would have paid anyway, so a round only wins when
        # fused segments cover most of it. Policies that alternate groups
        # every slot (round-robin across a divergent phase) coalesce to
        # nothing — decline rather than pay round overhead for serial-
        # speed execution. Nothing has been executed yet, so declining
        # here is just another failed plan.
        per_slot = sum(
            1 for steps in warp_steps
            for segment, _pc, _entry in steps if segment is None
        )
        if per_slot * _PER_SLOT_WEIGHT > total:
            return self._plan_failed()

        committed = self._execute_round(live_warps, warp_steps, length)

        profiler = self.profiler
        profiler.spec_rounds += 1
        recorder = self.machine._recorder
        if committed:
            self._conflicts = 0
            self._commits += 1
            profiler.spec_committed += n_warps
            if self._commits >= _GROW_AFTER and self.round_size < _MAX_ROUND_SLOTS:
                self.round_size = min(self.round_size * 2, _MAX_ROUND_SLOTS)
                self._commits = 0
            if recorder is not None and recorder.verbose:
                recorder.record(
                    "spec-commit", {"warps": n_warps, "slots": length}
                )
            return issues + total

        # ---- conflicted round: everything was rolled back ------------
        self._commits = 0
        self._conflicts += 1
        self._cooldown = _PLAN_COOLDOWN
        profiler.spec_retries += 1
        if recorder is not None:
            recorder.record(
                "spec-rollback",
                {"warps": n_warps, "slots": length,
                 "streak": self._conflicts},
            )
        if self._conflicts >= _BACKOFF_AFTER:
            if self.round_size > _MIN_ROUND_SLOTS:
                # Adaptive backoff: smaller rounds touch fewer addresses
                # per warp, so sharing workloads get another chance at a
                # finer granularity instead of a hard disable.
                self.round_size = max(self.round_size // 2, _MIN_ROUND_SLOTS)
                self._conflicts = 0
                profiler.spec_backoffs += 1
                if recorder is not None:
                    recorder.record(
                        "spec-backoff", {"round_size": self.round_size}
                    )
            elif self._conflicts >= _DISABLE_AFTER:
                # Persistent sharing at the finest granularity: stop
                # speculating for this launch.
                self.enabled = False
                ENGINE_COUNTERS.spec_disables += 1
                if recorder is not None:
                    recorder.record(
                        "spec-disable", {"streak": self._conflicts}
                    )
                    dump_post_mortem(recorder, "spec-disable")
        return None

    # ------------------------------------------------------------------
    def _plan_failed(self):
        """Schedule the next attempt after a failed plan. The skip doubles
        with each consecutive failure (a warp grinding through a long
        non-fusable phase fails every attempt, and the planner probe must
        not be paid per serial slot for the whole phase); any successful
        plan resets the streak."""
        self._cooldown = min(
            _PLAN_COOLDOWN << self._fail_streak, _MAX_COOLDOWN
        )
        if self._cooldown < _MAX_COOLDOWN:
            self._fail_streak += 1
        return None

    # ------------------------------------------------------------------
    def _execute_round(self, live_warps, warp_steps, length):
        """Run every warp's planned slots under the shared guard;
        returns True when the whole round committed, False when it
        conflicted and was rolled back exactly."""
        if not self.guarded:
            self._run_disjoint(live_warps, warp_steps, length)
            return True
        executor = self.executor
        profiler = self.profiler
        guard = FootprintMemory(executor.memory, limit=_FOOTPRINT_LIMIT)
        real = executor.memory
        acc_reads = set()
        acc_writes = set()
        done = []      # (warp, new groups dict, deferred records)
        restore = []   # (threads, checkpoint) per optimistically-run warp
        conflict = False
        for warp, steps in zip(live_warps, warp_steps):
            # Work on a copy of the groups cache so a rollback leaves the
            # original dict valid (thread state is restored to match).
            cache = warp.groups_cache
            groups = {pc: list(bucket) for pc, bucket in cache.items()}
            threads = [t for bucket in cache.values() for t in bucket]
            restore.append((threads, _checkpoint(threads)))
            records = []
            executor.memory = guard
            overflow = False
            try:
                for segment, pc, entry in steps:
                    group = groups.pop(pc)
                    if segment is not None:
                        cycles = segment.execute(executor, warp, group)
                        end_pc = segment.end_pc
                    else:
                        cycles = entry.run(executor, warp, group)
                        frame = group[0].frames[-1]
                        end_pc = (frame.fname, frame.block_name, frame.index)
                    # Snapshot the bucket: a later slot merging into this
                    # group's landing PC extends and re-sorts the live
                    # list, and the deferred accounting must see the
                    # group as it issued, not as it later merged.
                    records.append((segment, pc, group[:], cycles, entry))
                    resident = groups.get(end_pc)
                    if resident is None:
                        groups[end_pc] = group
                    else:
                        resident.extend(group)
                        resident.sort(key=_by_lane)
            except FootprintOverflow:
                overflow = True
            finally:
                executor.memory = real
            reads, writes = guard.take()
            if (
                overflow
                or not writes.isdisjoint(acc_writes)
                or not writes.isdisjoint(acc_reads)
                or not reads.isdisjoint(acc_writes)
            ):
                conflict = True
                break
            acc_reads |= reads
            acc_writes |= writes
            done.append((warp, groups, records))
        if guard.peak > profiler.spec_peak_footprint:
            profiler.spec_peak_footprint = guard.peak

        if not conflict:
            guard.commit()
            scheduler = self.scheduler
            for warp, groups, records in done:
                scheduler.consume(length)
                warp_id = warp.warp_id
                for segment, pc, group, cycles, entry in records:
                    if segment is not None:
                        n = segment.n
                        for thread in group:
                            thread.retired += n
                        profiler.record_segment(
                            warp_id, pc, segment, len(group), cycles
                        )
                    else:
                        for thread in group:
                            thread.retired += 1
                        profiler.record(
                            warp_id, pc, entry.opcode, len(group), cycles
                        )
                    warp.cycles += cycles
                warp.groups_cache = groups
            return True

        # All-or-nothing: roll back memory (newest write first) and every
        # optimistically-run warp's thread state. Committing a prefix
        # would desynchronize the rest of the rotation, and nothing was
        # accounted yet, so the caches and counters need no repair.
        guard.rollback()
        for threads, saved in restore:
            _restore(threads, saved)
        profiler.spec_rolled_back += len(restore)
        profiler.spec_replayed_slots += length * len(restore)
        return False

    # ------------------------------------------------------------------
    def _run_disjoint(self, live_warps, warp_steps, length):
        """Run a round whose launch the static footprint analysis proved
        conflict-free: no guard, no checkpoints, and accounting lands
        inline because a rollback can never happen. Warp-major order is
        observationally serial here by the same proof the batcher's
        unguarded epochs rely on."""
        executor = self.executor
        profiler = self.profiler
        scheduler = self.scheduler
        for warp, steps in zip(live_warps, warp_steps):
            groups = warp.groups_cache
            warp_id = warp.warp_id
            for segment, pc, entry in steps:
                group = groups.pop(pc)
                if segment is not None:
                    cycles = segment.execute(executor, warp, group)
                    end_pc = segment.end_pc
                    n = segment.n
                    for thread in group:
                        thread.retired += n
                    profiler.record_segment(
                        warp_id, pc, segment, len(group), cycles
                    )
                else:
                    cycles = entry.run(executor, warp, group)
                    frame = group[0].frames[-1]
                    end_pc = (frame.fname, frame.block_name, frame.index)
                    for thread in group:
                        thread.retired += 1
                    profiler.record(
                        warp_id, pc, entry.opcode, len(group), cycles
                    )
                warp.cycles += cycles
                resident = groups.get(end_pc)
                if resident is None:
                    groups[end_pc] = group
                else:
                    resident.extend(group)
                    resident.sort(key=_by_lane)
            scheduler.consume(length)


def _by_lane(thread):
    return thread.lane
