/**
 * @file
 * Per-thread pipeline context of the unified engine.
 *
 * ThreadContext owns everything an architectural thread carries
 * through the pipeline — frontend, branch predictor, ROB, rename
 * state, architectural registers, speculation-safety scheme, stats and
 * traces — plus the per-thread helper computations (speculative-shadow
 * info, safe-point checks, operand rename) every stage consults. The
 * stage components in this directory operate on one or more
 * ThreadContexts and the shared structures (RS/LSQ/ports/MSHRs) owned
 * by the PipelineEngine.
 *
 * With one ThreadContext the engine is the plain out-of-order core;
 * with N it is the SMT core. tests/test_smt.cc pins the single-thread
 * configuration against golden cycle traces captured from the
 * pre-unification pipeline.
 */

#ifndef SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
#define SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_types.hh"
#include "cpu/frontend.hh"
#include "cpu/program.hh"
#include "cpu/rob.hh"
#include "spec/scheme.hh"

namespace specint
{

/** Per-thread statistics of one engine run. */
struct ThreadStats
{
    /** Cycle at which this thread's Halt retired (run end if never). */
    Tick cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashes = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t loadL1Hits = 0;
    bool finished = false;

    /** @name Cross-thread contention counters (the SMT channel). */
    /// @{
    /** Cycles the fetch arbiter granted this thread the fetch stage. */
    std::uint64_t fetchGrants = 0;
    /** Cycles a ready instruction of this thread was denied an issue
     *  port that a sibling thread held or had consumed. */
    std::uint64_t portContendedCycles = 0;
    /** Cycles a load of this thread was denied an MSHR while sibling
     *  threads held at least one entry. */
    std::uint64_t mshrContendedCycles = 0;
    /** Cycles dispatch stalled on a full RS share. */
    std::uint64_t rsBlockedCycles = 0;
    /** Cycles port 0's non-pipelined unit was held by a sibling. */
    std::uint64_t port0HeldByOtherCycles = 0;
    /** MSHR entry-cycles held by siblings (the sum over cycles of
     *  the entries they held). Together with port0HeldByOtherCycles
     *  this is what the SMT probe integrates; both are running
     *  totals, so they survive stall fast-forward. */
    std::uint64_t mshrHeldByOtherCycles = 0;
    /// @}
};

/** One per-cycle cross-thread contention sample (recordContention). */
struct ContentionSample
{
    Tick cycle = 0;
    /** Ports whose non-pipelined unit a sibling holds this cycle. */
    std::uint8_t portsHeldByOther = 0;
    /** Port 0 (the NPEU port) held by a sibling this cycle. */
    bool port0HeldByOther = false;
    /** MSHR entries held by siblings this cycle. */
    std::uint8_t mshrHeldByOther = 0;
    /** This thread experienced a port denial this cycle. */
    bool portContended = false;
    /** This thread experienced an MSHR denial this cycle. */
    bool mshrContended = false;
};

/** Speculative shadows cast on one instruction by the strictly older
 *  entries of its thread's window. */
struct ShadowInfo
{
    bool olderUnresolvedBranch = false;
    bool olderIncompleteLoad = false;
    bool olderIncompleteMem = false;
};

/**
 * Fold one instruction into a running ShadowInfo. Walking the ROB in
 * age order and reading @p running *before* each step yields the
 * shadows of strictly older entries. This full-walk recurrence is the
 * definition the O(1) ShadowFrontier must agree with;
 * tests/test_safety_invariant.cc folds it every cycle to check the
 * event-driven safety stage.
 */
inline void
shadowStep(ShadowInfo &running, const DynInst &inst)
{
    if (inst.isBranch() && !inst.resolved)
        running.olderUnresolvedBranch = true;
    if (inst.isLoad() && !inst.executed()) {
        running.olderIncompleteLoad = true;
        running.olderIncompleteMem = true;
    }
    if (inst.isStore() && !inst.executed())
        running.olderIncompleteMem = true;
}

/**
 * The oldest shadow-casting instruction of each kind in one thread's
 * window (kSeqNumInvalid = none, which compares younger than every
 * real seq). An instruction's shadows are exactly the kinds whose
 * oldest instance is older than it — what shadowStep folds to.
 */
struct ShadowFrontier
{
    SeqNum branch = kSeqNumInvalid; ///< oldest unresolved branch
    SeqNum load = kSeqNumInvalid;   ///< oldest unexecuted load
    SeqNum store = kSeqNumInvalid;  ///< oldest unexecuted store

    ShadowInfo
    shadowsOf(SeqNum seq) const
    {
        ShadowInfo sh;
        sh.olderUnresolvedBranch = branch < seq;
        sh.olderIncompleteLoad = load < seq;
        sh.olderIncompleteMem = std::min(load, store) < seq;
        return sh;
    }
};

/** The scheme gate's view of one instruction under shadows @p sh. */
inline IssueContext
issueContextOf(const ShadowInfo &sh, const DynInst &inst)
{
    IssueContext ctx;
    ctx.olderUnresolvedBranch = sh.olderUnresolvedBranch;
    ctx.olderIncompleteLoad = sh.olderIncompleteLoad;
    ctx.isLoad = inst.isLoad();
    ctx.isBranch = inst.isBranch();
    return ctx;
}

/** Erase @p seq from the seq-sorted list @p list (it must be there). */
void eraseSeq(std::vector<SeqNum> &list, SeqNum seq);

/** Drop the entries younger than @p bound from the back of the
 *  seq-sorted list @p list (a squash). */
inline void
popYoungerThan(std::vector<SeqNum> &list, SeqNum bound)
{
    while (!list.empty() && list.back() > bound)
        list.pop_back();
}

/** Per-thread pipeline context (see file comment). */
struct ThreadContext
{
    using RenameMap = std::array<SeqNum, kNumRegs>;

    ThreadContext(const CoreConfig &cfg, ThreadId t);

    ThreadId tid;
    Frontend frontend;
    BranchPredictor predictor;
    Rob rob;
    SchemePtr scheme;

    const Program *prog = nullptr;
    bool haltRetired = false;
    SeqNum nextSeq = 0;

    std::array<std::uint64_t, kNumRegs> archRegs{};
    /** Youngest in-flight producer of each register (kSeqNumInvalid
     *  = the architectural value is current). A squash rebuilds it
     *  from the surviving window (CommitUnit::squashAfter). */
    RenameMap renameMap{};

    ThreadStats stats;
    std::vector<InstTraceEntry> trace;
    std::vector<ContentionSample> samples;

    /** @name Per-cycle flags */
    /// @{
    bool dispatchBlocked = false;
    bool portContended = false;
    bool mshrContended = false;
    /// @}

    /** Conservative lower bound on the next cycle any of this
     *  thread's Issued instructions can write back: the writeback
     *  stage skips its ROB scans while now < minWbAt. Lowered at
     *  issue, recomputed during each writeback scan; a stale-low
     *  value only costs a wasted scan, never a missed event. */
    Tick minWbAt = 0;

    /** Issue-stage candidates: the seqs of instructions that became
     *  Dispatched with both sources ready (at dispatch, on a wakeup,
     *  or when an EU preemption returned them to Dispatched), minus
     *  those parked in gatedQ or portQ. A superset: the issue stage
     *  revalidates and compacts it each cycle, so entries stranded by
     *  a squash (or pointing at a reused seq) are dropped or
     *  deduplicated there. */
    std::vector<SeqNum> readyQ;

    /** Gate-parked issue candidates: Dispatched, source-ready
     *  instructions the scheme's mayIssue gate rejected, moved out of
     *  readyQ so the issue stage stops re-judging them every cycle.
     *  Exact and seq-sorted (see the exact lists below). The gate is a
     *  pure function of an entry's shadows, and those change only when
     *  a shadow frontier moves younger past it: the issue stage then
     *  returns the affected prefix to readyQ (against the snapshot
     *  gatedAt of the frontier the entries were judged under). */
    std::vector<SeqNum> gatedQ;
    ShadowFrontier gatedAt;

    /** Port-parked issue candidates: Dispatched, source-ready,
     *  gate-passing non-pipelined ops (VSQRTPD/VDIVPD, port 0 alone)
     *  that were due to issue while their port's unit was busy, moved
     *  out of readyQ so the issue stage stops retrying them every
     *  cycle. Exact and seq-sorted (see the exact lists below). Their
     *  attempts would fail with no side effect but the SMT contention
     *  flag, which the issue stage sets from the oldest entry; the
     *  whole list returns to readyQ on the first cycle the port is
     *  free. Never used under strictAgePriority, where a failed
     *  attempt can preempt a unit. */
    std::vector<SeqNum> portQ;

    /** Seqs of instructions currently Issued (in flight toward
     *  writeback), pushed at issue. A superset under the same rules as
     *  readyQ: the writeback stage revalidates and compacts it each
     *  pass, so entries stranded by a squash, an EU preemption or a
     *  reused seq are dropped there. Bounds the writeback scan to the
     *  few in-flight instructions instead of the whole window. */
    std::vector<SeqNum> inflightQ;

    /** @name Exact seq-sorted lists
     *  Unlike readyQ/inflightQ these are exact, never stale: an entry
     *  is appended in age order (dispatch), erased when its property
     *  ends, and popped from the back when a squash discards it. */
    /// @{
    /** In-flight stores, dropped from the front at retirement — so
     *  disambiguating a load walks only the older stores instead of
     *  the whole window prefix. */
    std::vector<SeqNum> storeSeqs;
    /** Branches not yet resolved (erased at resolution). */
    std::vector<SeqNum> unresolvedBranches;
    /** Loads not yet executed (erased at writeback). */
    std::vector<SeqNum> incompleteLoads;
    /** Stores not yet executed (erased at writeback). */
    std::vector<SeqNum> incompleteStores;
    /** Pending-visibility list: the executed loads whose
     *  exposurePending/deferredTouchPending is still set. A load is
     *  inserted (in age order) at writeback when it carries a flag,
     *  and erased when the safety stage releases it, when it retires
     *  with a flag still set, or when a squash discards it. The safety
     *  stage does nothing while it is empty — permanently so under
     *  schemes that never defer visibility (Unsafe, fence-style). */
    std::vector<SeqNum> visQ;
    /// @}

    /** Reset all run state and start executing @p p from its entry. */
    void resetRun(const Program *p);

    /** Oldest unresolved branch, unexecuted load and unexecuted store,
     *  in O(1) from the exact lists above. */
    ShadowFrontier
    frontier() const
    {
        ShadowFrontier f;
        if (!unresolvedBranches.empty())
            f.branch = unresolvedBranches.front();
        if (!incompleteLoads.empty())
            f.load = incompleteLoads.front();
        if (!incompleteStores.empty())
            f.store = incompleteStores.front();
        return f;
    }

    /** Safe-point frontier: an instruction of this thread's
     *  (non-empty) window is past safe point @p sp iff its seq is not
     *  younger than (<=) this value. */
    SeqNum safeFrontier(SafePoint sp) const;

    /** Is the instruction with @p seq past safe point @p sp? */
    bool isSafe(SeqNum seq, SafePoint sp) const
    {
        return seq <= safeFrontier(sp);
    }

    /** Read a source register through the rename map; registers
     *  @p inst on the producer's waiter list when the value is still
     *  in flight. */
    void renameSource(DynInst &inst, RegId src, bool first);
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
