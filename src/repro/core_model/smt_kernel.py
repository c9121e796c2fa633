"""Fused allocation-free cycle kernel for the 2-thread SMT pipeline.

This is the SMT counterpart of :mod:`repro.core_model.replay_kernel`: one
function that runs a batch of Hill-Climbing epochs with every per-cycle
stage of :class:`repro.smt.pipeline.SMTPipeline` inlined and all mutable
state held in local variables. The Python-level overheads the object path
pays every cycle — five stage-method calls, ``self.config`` attribute
chains, bound-method lookups on deques and dicts — are hoisted once per
kernel call, and the pipeline object is written back only at epoch
boundaries (scalars the hook observes) and once at the end (everything).

Semantics are bit-identical to ``SMTPipeline.step``: same stage order
(store drain, commit, issue, rename, fetch), same shared-RNG draw order
for store drains and load latencies, same round-robin tie-breaking, and
the same floating-point expressions for gating thresholds and epoch IPC.
Every inlined stage is tagged ``# repro: mirror[...]`` against its object
twin so rule R10 flags one-sided edits, and the runtime sanitizer
(``REPRO_SANITIZE=1``) checks per-epoch equality end to end.

The issue stage is wakeup-driven rather than a per-cycle scan of the whole
IQ. Rename gives each entry a monotonic age and files it on the waiter
list of every source whose producer has neither committed nor issued;
an entry with nothing to wait for goes to the wakeup calendar (a heap of
``(ready_at, age, entry)``) at the latest completion cycle of its sources,
or straight to the ready heap of ``(age, entry)`` when that is no later
than the next cycle. Issuing a producer fixes its completion cycle
(``cycle + latency``, at least ``cycle + 1``) and moves each waiter whose
last pending source it was into the calendar; every cycle the due
calendar entries move to the ready heap, and up to ``issue_width`` of the
oldest ready entries issue. The ready set and the oldest-first choice are
exactly those of the age-ordered scan this replaced, so loads draw their
latencies from the shared memory RNG in the same order and the RNG
stream, every counter and every result stay bit-identical. The scan
survives as a test oracle (``tests/test_smt_wakeup.py``). The waiter
lists and both heaps live on the pipeline and are updated in place, so
kernel and object path can hand a half-run pipeline to each other.

Quiescent cycles are skipped, the way gem5's O3 ``ActivityRecorder``
deschedules the CPU tick while every stage is idle. Call a cycle
quiescent when it renamed nothing, fetched nothing (no thread eligible)
and left the ready heap empty; it may still have drained, committed or
issued. Every following cycle then repeats it exactly until the first of
these events (:func:`next_event_cycle`): the next store release, the next
calendar wakeup, a thread's ROB-head completion or blocked-branch redirect
end (once that completion is known), the epoch end, or the next
completion prune (every 4096 cycles). Until then:

- drain, commit and issue find nothing due, so the occupancies, the ROBs,
  the IQ and the completion maps cannot move, and no producer issues, so
  no unknown completion becomes known;
- rename sees the same fetch-queue heads against the same occupancies, so
  it stalls again for the same reasons (in either thread order);
- fetch sees the same occupancies, the same per-epoch gating thresholds
  and the same unresolved redirects, so again no thread is eligible.

Nothing draws from the shared memory RNG: it draws only for committed
stores and issued loads. The kernel therefore jumps straight to the event
cycle and bulk-adds the skipped cycles to ``cycle`` and the round-robin
counter (whose parity stays in step) and to the rename accounting, as
idle or as stalled for the same reasons as the quiescent cycle. The RNG
position, every counter and every result stay bit-identical to stepping
each cycle, which the object path (``SMTPipeline.step``) still does; it
is the oracle for the skip (``tests/test_smt_quiescent.py``). A prune
cycle never starts a skip, so the prune always runs on its own cycle.

The epoch-boundary hook is the kernel's only mid-run exit: after each
epoch the per-thread committed counters and the cycle count are flushed
and ``epoch_hook(pipeline, epoch_ipc)`` is invoked (when provided). The
hook must treat the pipeline as read-only — all remaining state (IQ,
fetch queues, occupancies, RNG position) is flushed only when the kernel
returns. Passing ``epoch_hook=None`` keeps the hot loop branch-free at
epoch boundaries.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from math import ceil
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.smt.pipeline import SMTPipeline
from repro.smt.uop import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    REG_WRITING_KINDS,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.smt.hill_climbing import HillClimbing

#: Environment variable that disables the fused SMT kernel ("0"/"false"/
#: "no"/"off"); unset, empty or "1" keeps the fast path on. Any other value
#: is an error.
KERNEL_ENV = "REPRO_SMT_KERNEL"

#: Called after each epoch with the (partially flushed) pipeline and the
#: epoch's IPC; must not mutate the pipeline.
EpochHook = Callable[[SMTPipeline, float], None]

_ORDER_01: Tuple[int, int] = (0, 1)
_ORDER_10: Tuple[int, int] = (1, 0)


def kernel_enabled() -> bool:
    """Is the fused SMT kernel switched on (the default)?"""
    # Kernel and object paths are bit-identical (sanitizer-verified), so
    # the gate cannot change any task result.
    # repro: cache-invariant[REPRO_SMT_KERNEL]
    value = os.environ.get(KERNEL_ENV, "").strip().lower()
    if value in ("0", "false", "no", "off"):
        return False
    if value in ("", "1"):
        return True
    raise ValueError(
        f"{KERNEL_ENV}={value!r} is not an on/off switch; use 1 (or unset) "
        "to keep the kernel on, or one of 0, false, no, off"
    )


def kernel_eligible(pipeline: object) -> bool:
    """May ``pipeline`` run through the fused kernel?

    Subclasses fall back to the object path: the kernel inlines the stage
    methods, so any override would silently be skipped.
    """
    return kernel_enabled() and type(pipeline) is SMTPipeline


def next_event_cycle(
    cycle: int,
    end_cycle: int,
    sq_releases: List[Tuple[float, int]],
    calendar: List[Tuple[float, int, List[Any]]],
    robs: Sequence[Deque[Tuple[int, int]]],
    completions: Sequence[Dict[int, float]],
    blocked_seqs: Sequence[Optional[int]],
    mispredict_penalty: int,
) -> int:
    """First cycle from ``cycle`` on at which a stage may act again.

    Valid when the cycle before ``cycle`` was quiescent (it renamed and
    fetched nothing and left the ready heap empty): until the returned
    cycle, every cycle repeats that one. The candidates are the next store
    release, the next calendar wakeup, each thread's ROB-head completion and
    blocked-branch redirect end (when the completion is known), the epoch
    end and the next completion prune (cycles ``4096 * k``). A result not
    above ``cycle`` means no cycle can be skipped.
    """
    wake: float = min(end_cycle, -(-cycle // 4096) * 4096)
    if sq_releases and sq_releases[0][0] < wake:
        wake = sq_releases[0][0]
    if calendar and calendar[0][0] < wake:
        wake = calendar[0][0]
    for ti in _ORDER_01:
        rob = robs[ti]
        if rob:
            done_at = completions[ti].get(rob[0][0])
            if done_at is not None and done_at < wake:
                wake = done_at
        blocked = blocked_seqs[ti]
        if blocked is not None:
            done_at = completions[ti].get(blocked)
            if done_at is not None and done_at + mispredict_penalty < wake:
                wake = done_at + mispredict_penalty
    # Events are integral cycles in practice; a fractional one takes
    # effect at the first whole cycle that reaches it.
    return ceil(wake)


# repro: hot
def run_smt_epochs_kernel(
    pipeline: SMTPipeline,
    hill_climbing: "HillClimbing",
    epochs: int,
    epoch_cycles: int,
    epoch_hook: Optional[EpochHook] = None,
) -> None:
    """Run ``epochs`` Hill-Climbing epochs of ``epoch_cycles`` cycles each.

    Equivalent to the object path's per-epoch loop::

        for _ in range(epochs):
            pipeline.set_allowances(hill_climbing.allowances)
            epoch_ipc = pipeline.run(epoch_cycles)
            hill_climbing.end_epoch(epoch_ipc)

    but with the whole cycle loop fused. The PG policy must not change
    mid-call (the bandit controller switches arms only between calls).
    """
    config = pipeline.config
    fetch_width = config.fetch_width
    decode_width = config.decode_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    iq_size = config.iq_size
    rob_size = config.rob_size
    lq_size = config.lq_size
    sq_size = config.sq_size
    lsq_size = lq_size + sq_size
    irf_size = pipeline._effective_irf
    fetchq_capacity = config.fetchq_capacity
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    dram_latency = config.dram_latency
    mispredict_penalty = config.mispredict_penalty
    reg_writing = REG_WRITING_KINDS

    policy = pipeline.policy
    priority = policy.priority
    priority_is_rr = priority == "RR"
    priority_is_ic = priority == "IC"
    priority_is_brc = priority == "BrC"
    gates_anything = policy.gates_anything
    gate_iq = policy.gate_iq
    gate_lsq = policy.gate_lsq
    gate_rob = policy.gate_rob
    gate_irf = policy.gate_irf

    thread0, thread1 = pipeline.threads
    profile0 = thread0.profile
    profile1 = thread1.profile
    # Same IEEE expressions as SMTPipeline._memory_latency, precomputed:
    # the L1/L2 service-level cut points of each thread's profile.
    l1_cut = (profile0.l1_hit_rate, profile1.l1_hit_rate)
    l2_cut = (
        profile0.l1_hit_rate + (1.0 - profile0.l1_hit_rate) * profile0.l2_hit_rate,
        profile1.l1_hit_rate + (1.0 - profile1.l1_hit_rate) * profile1.l2_hit_rate,
    )
    long_latency = (profile0.long_op_latency, profile1.long_op_latency)
    stream_next = (thread0.stream.__next__, thread1.stream.__next__)
    fetchqs = (thread0.fetchq, thread1.fetchq)
    fetchq_poplefts = (thread0.fetchq.popleft, thread1.fetchq.popleft)
    fetchq_appends = (thread0.fetchq.append, thread1.fetchq.append)
    robs = (thread0.rob, thread1.rob)
    rob_poplefts = (thread0.rob.popleft, thread1.rob.popleft)
    rob_appends = (thread0.rob.append, thread1.rob.append)
    completions: List[Dict[int, float]] = [thread0.completion, thread1.completion]
    completion_gets = [thread0.completion.get, thread1.completion.get]
    next_seqs = [thread0.next_seq, thread1.next_seq]
    committed = [thread0.committed, thread1.committed]
    committed_seqs = [thread0.committed_seq, thread1.committed_seq]
    blocked_seqs: List[Optional[int]] = [thread0.blocked_seq, thread1.blocked_seq]
    iq_occ = [thread0.iq_occ, thread1.iq_occ]
    rob_occ = [thread0.rob_occ, thread1.rob_occ]
    lq_occ = [thread0.lq_occ, thread1.lq_occ]
    sq_occ = [thread0.sq_occ, thread1.sq_occ]
    irf_occ = [thread0.irf_occ, thread1.irf_occ]
    branches = [thread0.branches_in_rob, thread1.branches_in_rob]

    waiters = pipeline._iq_waiters
    waiter_pops = (waiters[0].pop, waiters[1].pop)
    calendar = pipeline._iq_calendar
    ready = pipeline._iq_ready
    iq_order = pipeline._iq_order
    sq_releases = pipeline._sq_releases
    mem_random = pipeline._mem_rng.random
    cycle = pipeline.cycle
    rr = pipeline._rr_counter

    activity = pipeline.rename_activity
    act_cycles = activity.cycles
    act_running = activity.running
    act_idle = activity.idle
    act_stalled = activity.stalled
    act_rob = activity.stalled_rob
    act_iq = activity.stalled_iq
    act_lq = activity.stalled_lq
    act_sq = activity.stalled_sq
    act_rf = activity.stalled_rf

    allowances = pipeline.allowances
    for _ in range(epochs):
        allowances = hill_climbing.allowances
        allowance0, allowance1 = allowances
        # Gating thresholds are fixed for the epoch (same products as
        # gated_threads computes per cycle, hence bit-identical).
        fraction0 = allowance0 / iq_size
        fraction1 = allowance1 / iq_size
        lsq_threshold0 = fraction0 * lsq_size
        lsq_threshold1 = fraction1 * lsq_size
        rob_threshold0 = fraction0 * rob_size
        rob_threshold1 = fraction1 * rob_size
        irf_threshold0 = fraction0 * irf_size
        irf_threshold1 = fraction1 * irf_size

        epoch_start_committed = committed[0] + committed[1]
        end_cycle = cycle + epoch_cycles
        while cycle < end_cycle:
            # ---------------------------------------------- store drain
            # repro: mirror[smt-drain-stores] begin
            while sq_releases and sq_releases[0][0] <= cycle:
                # repro: unique-index[heappop yields one scalar thread id]
                sq_occ[heappop(sq_releases)[1]] -= 1
            # repro: mirror[smt-drain-stores] end

            order = _ORDER_10 if rr & 1 else _ORDER_01

            # --------------------------------------------------- commit
            # repro: mirror[smt-commit] begin
            budget = commit_width
            for ti in order:
                rob = robs[ti]
                if not rob:
                    continue
                completion_get = completion_gets[ti]
                rob_popleft = rob_poplefts[ti]
                while budget and rob:
                    seq, kind = rob[0]
                    done_at = completion_get(seq)
                    if done_at is None or done_at > cycle:
                        break
                    rob_popleft()
                    rob_occ[ti] -= 1
                    committed[ti] += 1
                    committed_seqs[ti] = seq
                    budget -= 1
                    if kind == KIND_BRANCH:
                        branches[ti] -= 1
                    elif kind == KIND_LOAD:
                        lq_occ[ti] -= 1
                    elif kind == KIND_STORE:
                        draw = mem_random()
                        if draw < l1_cut[ti]:
                            latency = l1_latency
                        elif draw < l2_cut[ti]:
                            latency = l2_latency
                        else:
                            latency = dram_latency
                        heappush(sq_releases, (cycle + latency, ti))
                    if kind in reg_writing:
                        irf_occ[ti] -= 1
            # repro: mirror[smt-commit] end

            # ---------------------------------------------------- issue
            # repro: mirror[smt-issue] begin
            while calendar and calendar[0][0] <= cycle:
                _, age, entry = heappop(calendar)
                heappush(ready, (age, entry))
            budget = issue_width
            while budget and ready:
                entry = heappop(ready)[1]
                ti, seq, _, _, kind, _, _, _ = entry
                if kind == KIND_LOAD:
                    # repro: mirror[smt-memory-latency] begin
                    draw = mem_random()
                    if draw < l1_cut[ti]:
                        latency = l1_latency
                    elif draw < l2_cut[ti]:
                        latency = l2_latency
                    else:
                        latency = dram_latency
                    # repro: mirror[smt-memory-latency] end
                elif kind == KIND_LONG:
                    latency = long_latency[ti]
                else:
                    latency = 1
                done_at = cycle + latency
                completions[ti][seq] = done_at
                iq_occ[ti] -= 1
                budget -= 1
                woken = waiter_pops[ti](seq, None)
                if woken is not None:
                    for waiter in woken:
                        if done_at > waiter[7]:
                            waiter[7] = done_at
                        waiter[6] -= 1
                        if not waiter[6]:
                            heappush(calendar, (waiter[7], waiter[5], waiter))
            # repro: mirror[smt-issue] end

            # --------------------------------------------------- rename
            # repro: mirror[smt-rename] begin
            act_cycles += 1
            budget = decode_width
            renamed = 0
            stall_rob = stall_iq = stall_lq = stall_sq = stall_rf = False
            rob_total = rob_occ[0] + rob_occ[1]
            iq_total = iq_occ[0] + iq_occ[1]
            lq_total = lq_occ[0] + lq_occ[1]
            sq_total = sq_occ[0] + sq_occ[1]
            irf_total = irf_occ[0] + irf_occ[1]
            while budget:
                progressed = False
                for ti in order:
                    if budget == 0:
                        break
                    fetchq = fetchqs[ti]
                    if not fetchq:
                        continue
                    seq, kind, dep1, dep2, mispredict = fetchq[0]
                    stalled = False
                    if rob_total >= rob_size:
                        stall_rob = True
                        stalled = True
                    if iq_total >= iq_size:
                        stall_iq = True
                        stalled = True
                    if kind == KIND_LOAD and lq_total >= lq_size:
                        stall_lq = True
                        stalled = True
                    if kind == KIND_STORE and sq_total >= sq_size:
                        stall_sq = True
                        stalled = True
                    if kind in reg_writing and irf_total >= irf_size:
                        stall_rf = True
                        stalled = True
                    if stalled:
                        continue
                    fetchq_poplefts[ti]()
                    rob_appends[ti]((seq, kind))
                    rob_occ[ti] += 1
                    rob_total += 1
                    iq_occ[ti] += 1
                    iq_total += 1
                    age = iq_order
                    iq_order += 1
                    entry = [ti, seq, dep1, dep2, kind, age, 0, 0]
                    committed_seq = committed_seqs[ti]
                    pending = 0
                    ready_at = 0
                    if dep1 > committed_seq:
                        done_at = completion_gets[ti](dep1)
                        if done_at is None:
                            waiter_list = waiters[ti].get(dep1)
                            if waiter_list is None:
                                waiters[ti][dep1] = [entry]
                            else:
                                waiter_list.append(entry)
                            pending = 1
                        else:
                            ready_at = done_at
                    if dep2 > committed_seq and dep2 != dep1:
                        done_at = completion_gets[ti](dep2)
                        if done_at is None:
                            waiter_list = waiters[ti].get(dep2)
                            if waiter_list is None:
                                waiters[ti][dep2] = [entry]
                            else:
                                waiter_list.append(entry)
                            pending += 1
                        elif done_at > ready_at:
                            ready_at = done_at
                    if pending:
                        entry[6] = pending
                        entry[7] = ready_at
                    elif ready_at <= cycle + 1:
                        heappush(ready, (age, entry))
                    else:
                        entry[7] = ready_at
                        heappush(calendar, (ready_at, age, entry))
                    if kind == KIND_LOAD:
                        lq_occ[ti] += 1
                        lq_total += 1
                    elif kind == KIND_STORE:
                        sq_occ[ti] += 1
                        sq_total += 1
                    elif kind == KIND_BRANCH:
                        branches[ti] += 1
                    if kind in reg_writing:
                        irf_occ[ti] += 1
                        irf_total += 1
                    renamed += 1
                    budget -= 1
                    progressed = True
                if not progressed:
                    break
            if renamed:
                act_running += 1
            elif not fetchqs[0] and not fetchqs[1]:
                act_idle += 1
            else:
                act_stalled += 1
                if stall_rob:
                    act_rob += 1
                if stall_iq:
                    act_iq += 1
                if stall_lq:
                    act_lq += 1
                if stall_sq:
                    act_sq += 1
                if stall_rf:
                    act_rf += 1
            # repro: mirror[smt-rename] end

            # ---------------------------------------------------- fetch
            # repro: mirror[smt-gating] begin
            gated0 = gated1 = False
            if gates_anything:
                if gate_iq and iq_occ[0] > allowance0:
                    gated0 = True
                elif gate_lsq and lq_occ[0] + sq_occ[0] > lsq_threshold0:
                    gated0 = True
                elif gate_rob and rob_occ[0] > rob_threshold0:
                    gated0 = True
                elif gate_irf and irf_occ[0] > irf_threshold0:
                    gated0 = True
                if gate_iq and iq_occ[1] > allowance1:
                    gated1 = True
                elif gate_lsq and lq_occ[1] + sq_occ[1] > lsq_threshold1:
                    gated1 = True
                elif gate_rob and rob_occ[1] > rob_threshold1:
                    gated1 = True
                elif gate_irf and irf_occ[1] > irf_threshold1:
                    gated1 = True
            # repro: mirror[smt-gating] end
            # repro: mirror[smt-fetch] begin
            # The blocked-branch check runs unconditionally per thread:
            # clearing a resolved redirect is a side effect the object
            # path performs even for threads that end up ineligible.
            eligible0 = True
            blocked = blocked_seqs[0]
            if blocked is not None:
                done_at = completion_gets[0](blocked)
                if done_at is not None and done_at + mispredict_penalty <= cycle:
                    blocked_seqs[0] = None
                else:
                    eligible0 = False
            if eligible0 and (len(fetchqs[0]) >= fetchq_capacity or gated0):
                eligible0 = False
            eligible1 = True
            blocked = blocked_seqs[1]
            if blocked is not None:
                done_at = completion_gets[1](blocked)
                if done_at is not None and done_at + mispredict_penalty <= cycle:
                    blocked_seqs[1] = None
                else:
                    eligible1 = False
            if eligible1 and (len(fetchqs[1]) >= fetchq_capacity or gated1):
                eligible1 = False
            # repro: mirror[smt-fetch] end
            # repro: mirror[smt-pick-thread] begin
            if eligible0 and eligible1:
                if priority_is_rr:
                    choice = rr & 1
                else:
                    if priority_is_ic:
                        metric0 = iq_occ[0] + len(fetchqs[0])
                        metric1 = iq_occ[1] + len(fetchqs[1])
                    elif priority_is_brc:
                        metric0 = branches[0]
                        metric1 = branches[1]
                    else:
                        metric0 = lq_occ[0] + sq_occ[0]
                        metric1 = lq_occ[1] + sq_occ[1]
                    if metric0 < metric1:
                        choice = 0
                    elif metric1 < metric0:
                        choice = 1
                    else:
                        choice = rr & 1
            elif eligible0:
                choice = 0
            elif eligible1:
                choice = 1
            else:
                choice = -1
            # repro: mirror[smt-pick-thread] end
            if choice >= 0:
                snext = stream_next[choice]
                fetchq_append = fetchq_appends[choice]
                next_seq = next_seqs[choice]
                for _ in range(fetch_width):
                    kind, dep1_off, dep2_off, mispredict = snext()
                    seq = next_seq
                    next_seq = seq + 1
                    dep1 = seq - dep1_off if dep1_off else 0
                    dep2 = seq - dep2_off if dep2_off else 0
                    fetchq_append((
                        seq,
                        kind,
                        dep1 if dep1 > 0 else 0,
                        dep2 if dep2 > 0 else 0,
                        mispredict,
                    ))
                    if mispredict:
                        blocked_seqs[choice] = seq
                        break
                next_seqs[choice] = next_seq

            # ------------------------------------------------- bookkeeping
            if cycle % 4096 == 0:
                # repro: mirror[smt-prune-completion] begin
                for ti in _ORDER_01:
                    completion = completions[ti]
                    if len(completion) > 2048:
                        floor = committed_seqs[ti] - 512
                        completion = {
                            seq: done
                            for seq, done in completion.items()
                            if seq >= floor
                        }
                        completions[ti] = completion
                        completion_gets[ti] = completion.get
                # repro: mirror[smt-prune-completion] end
            elif choice < 0 and not renamed and not ready:
                # Quiescent: every cycle up to the next event repeats this
                # one (see the module docstring). Jump there, counting the
                # skipped cycles as this cycle's rename stage counted it.
                skipped = next_event_cycle(
                    cycle + 1, end_cycle, sq_releases, calendar, robs,
                    completions, blocked_seqs, mispredict_penalty,
                ) - cycle - 1
                if skipped > 0:
                    cycle += skipped
                    rr += skipped
                    act_cycles += skipped
                    if not fetchqs[0] and not fetchqs[1]:
                        act_idle += skipped
                    else:
                        act_stalled += skipped
                        if stall_rob:
                            act_rob += skipped
                        if stall_iq:
                            act_iq += skipped
                        if stall_lq:
                            act_lq += skipped
                        if stall_sq:
                            act_sq += skipped
                        if stall_rf:
                            act_rf += skipped
            cycle += 1
            rr += 1

        # ------------------------------------------------ epoch boundary
        # repro: mirror[smt-epoch-loop] begin
        # repro: dtype[epoch_ipc: float64]
        epoch_ipc = (committed[0] + committed[1] - epoch_start_committed) / epoch_cycles
        hill_climbing.end_epoch(epoch_ipc)
        if epoch_hook is not None:
            thread0.committed = committed[0]
            thread1.committed = committed[1]
            pipeline.cycle = cycle
            epoch_hook(pipeline, epoch_ipc)
        # repro: mirror[smt-epoch-loop] end

    # ---------------------------------------------------------- write-back
    thread0.next_seq = next_seqs[0]
    thread1.next_seq = next_seqs[1]
    thread0.completion = completions[0]
    thread1.completion = completions[1]
    thread0.committed = committed[0]
    thread1.committed = committed[1]
    thread0.committed_seq = committed_seqs[0]
    thread1.committed_seq = committed_seqs[1]
    thread0.blocked_seq = blocked_seqs[0]
    thread1.blocked_seq = blocked_seqs[1]
    thread0.iq_occ = iq_occ[0]
    thread1.iq_occ = iq_occ[1]
    thread0.rob_occ = rob_occ[0]
    thread1.rob_occ = rob_occ[1]
    thread0.lq_occ = lq_occ[0]
    thread1.lq_occ = lq_occ[1]
    thread0.sq_occ = sq_occ[0]
    thread1.sq_occ = sq_occ[1]
    thread0.irf_occ = irf_occ[0]
    thread1.irf_occ = irf_occ[1]
    thread0.branches_in_rob = branches[0]
    thread1.branches_in_rob = branches[1]
    pipeline.cycle = cycle
    pipeline._rr_counter = rr
    pipeline._iq_order = iq_order
    pipeline.allowances = allowances
    activity.cycles = act_cycles
    activity.running = act_running
    activity.idle = act_idle
    activity.stalled = act_stalled
    activity.stalled_rob = act_rob
    activity.stalled_iq = act_iq
    activity.stalled_lq = act_lq
    activity.stalled_sq = act_sq
    activity.stalled_rf = act_rf
