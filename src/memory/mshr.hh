/**
 * @file
 * Miss status holding registers (MSHRs).
 *
 * The G^D_MSHR gadget (paper §3.2.2, Fig. 4) works by exhausting the
 * L1-D MSHR file with M speculative misses to distinct lines, so the
 * MSHR model must capture: a fixed number of entries, merging of
 * requests to the same line into one entry, and allocation in issue
 * order. Entries free when their miss completes.
 */

#ifndef SPECINT_MEMORY_MSHR_HH
#define SPECINT_MEMORY_MSHR_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** One in-flight miss. */
struct MshrEntry
{
    Addr lineAddr = kAddrInvalid;
    /** Cycle at which the miss data returns and the entry frees. */
    Tick readyAt = kTickMax;
    /** Number of requests merged into this entry. */
    unsigned targets = 0;
    /** Sequence number of the (youngest) speculative allocator, used
     *  by AdvancedDefense to preempt speculative holders. */
    SeqNum allocSeq = kSeqNumInvalid;
    bool speculative = false;
    /** SMT thread of the first allocator. SeqNums are per-thread, so
     *  squash and preemption must be scoped to this thread. */
    ThreadId tid = 0;
};

/**
 * Fixed-capacity MSHR file for one L1-D cache.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries = 10) : entries_(entries) {}

    unsigned capacity() const { return entries_; }

    /** Entries currently allocated at time @p now (after expiry). */
    unsigned inUse(Tick now);

    /** Entries currently held by thread @p tid (SMT accounting). */
    unsigned inUseBy(ThreadId tid, Tick now);

    /** Entries held by threads other than @p tid — the per-cycle
     *  occupancy observable of the SMT MSHR-contention channel. */
    unsigned inUseByOther(ThreadId tid, Tick now)
    {
        return inUse(now) - inUseBy(tid, now);
    }

    /** Entry-cycles of [@p from, @p to) held by threads other than
     *  @p tid: each live sibling entry counts until its readyAt.
     *  Needs no expiry pass, so it also covers entries of squashed
     *  wrong-path loads that nothing waits on any more. */
    Tick heldByOtherCycles(ThreadId tid, Tick from, Tick to) const;

    bool full(Tick now) { return inUse(now) >= entries_; }

    /** Is there already an entry for this line? */
    bool hasEntry(Addr addr, Tick now);

    /**
     * Allocate an entry (or merge into an existing one) for a miss on
     * @p addr completing at @p ready_at. The MSHR file is fully shared
     * between SMT threads; @p tid only tags the entry for accounting
     * and thread-local squash.
     * @return true on success; false if the file is full and no merge
     *         is possible (the load must retry later).
     */
    bool allocate(Addr addr, Tick now, Tick ready_at,
                  SeqNum seq = kSeqNumInvalid, bool speculative = false,
                  ThreadId tid = 0);

    /**
     * Completion time of the entry covering @p addr (kTickMax if none).
     */
    Tick readyAt(Addr addr, Tick now);

    /**
     * Earliest completion time over all live entries (kTickMax if the
     * file is empty) — when a blocked load should retry.
     */
    Tick earliestReady(Tick now);

    /**
     * Free the youngest speculative entry of thread @p tid
     * (AdvancedDefense "squashable resource" rule; age comparisons use
     * per-thread SeqNums, so the rule is thread-local).
     * @return true if one was freed.
     */
    bool preemptYoungestSpeculative(Tick now, ThreadId tid = 0);

    /** Drop thread-0 entries allocated by squashed instructions
     *  (single-thread core path). */
    void squashYoungerThan(SeqNum bound) { squashThread(0, bound); }

    /** Per-thread squash: drop speculative entries of @p tid with
     *  seq > bound. A sibling thread's entries are untouched. */
    void squashThread(ThreadId tid, SeqNum bound);

    /** Drop everything. */
    void reset() { live_.clear(); }

  private:
    /** Remove entries whose data has returned. */
    void expire(Tick now);

    unsigned entries_;
    std::vector<MshrEntry> live_;
};

} // namespace specint

#endif // SPECINT_MEMORY_MSHR_HH
