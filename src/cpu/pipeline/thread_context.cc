/**
 * @file
 * ThreadContext implementation: per-thread run reset and the helper
 * computations (safe-point frontiers, rename) shared by every stage
 * component of the unified pipeline engine.
 */

#include "cpu/pipeline/thread_context.hh"

#include <cassert>

#include "sim/log.hh"
#include "spec/unsafe.hh"

namespace specint
{

ThreadContext::ThreadContext(const CoreConfig &cfg, ThreadId t)
    : tid(t), frontend({cfg.fetchWidth, cfg.decodeQueue, t}),
      rob(cfg.robSize)
{
    scheme = std::make_unique<UnsafeScheme>();
    renameMap.fill(kSeqNumInvalid);
}

void
ThreadContext::resetRun(const Program *p)
{
    prog = p;
    frontend.reset(0);
    rob.clear();
    haltRetired = false;
    nextSeq = 0;
    renameMap.fill(kSeqNumInvalid);
    const auto &init = prog->initRegs();
    for (unsigned r = 0; r < kNumRegs; ++r)
        archRegs[r] = init[r];
    stats = ThreadStats{};
    trace.clear();
    samples.clear();
    minWbAt = 0;
    readyQ.clear();
    gatedQ.clear();
    gatedAt = ShadowFrontier{};
    portQ.clear();
    inflightQ.clear();
    storeSeqs.clear();
    unresolvedBranches.clear();
    incompleteLoads.clear();
    incompleteStores.clear();
    visQ.clear();
    scheme->reset();
}

SeqNum
ThreadContext::safeFrontier(SafePoint sp) const
{
    switch (sp) {
      case SafePoint::Always:
        return kSeqNumInvalid;
      case SafePoint::BranchesResolved:
        return frontier().branch;
      case SafePoint::TSO: {
        const ShadowFrontier f = frontier();
        return std::min({f.branch, f.load, f.store});
      }
      case SafePoint::RobHead:
        assert(!rob.empty());
        return rob.head().seq;
    }
    panic("ThreadContext::safeFrontier: unknown SafePoint");
}

void
eraseSeq(std::vector<SeqNum> &list, SeqNum seq)
{
    const auto it = std::lower_bound(list.begin(), list.end(), seq);
    assert(it != list.end() && *it == seq);
    list.erase(it);
}

void
ThreadContext::renameSource(DynInst &inst, RegId src, bool first)
{
    bool *ready = first ? &inst.src1Ready : &inst.src2Ready;
    std::uint64_t *val = first ? &inst.src1Val() : &inst.src2Val();
    SeqNum *prod = first ? &inst.src1Prod() : &inst.src2Prod();

    if (src == kNoReg) {
        *ready = true;
        *val = 0;
        return;
    }
    const SeqNum p = renameMap[src];
    if (p == kSeqNumInvalid) {
        *ready = true;
        *val = archRegs[src];
        return;
    }
    DynInst *pi = rob.find(p);
    if (!pi) {
        // Producer already retired: the architectural value is current.
        *ready = true;
        *val = archRegs[src];
        return;
    }
    if (pi->writtenBack()) {
        *ready = true;
        *val = pi->result();
        return;
    }
    *ready = false;
    *prod = p;
    // inst.seq is assigned before rename (front_unit dispatch), so the
    // producer's waiter list lets writeback wake this consumer without
    // scanning the ROB tail.
    pi->addWaiter(inst.seq);
}

} // namespace specint
