/**
 * @file
 * Scheduler stage component of the unified pipeline engine: the
 * safety stage (scheme exposures / deferred updates at each load's
 * safe point) and the age-ordered, port-constrained issue stage with
 * the speculation-scheme hooks (load policies, fence gates, advanced-
 * defense preemption). Both are event-driven: they work on per-thread
 * lists (visQ; readyQ, the gate-parked gatedQ and the port-parked
 * portQ), never on the ROB.
 *
 * Issue candidates from all threads are merged in global dispatch-
 * stamp order, so with one thread the schedule reduces exactly to
 * single-core ROB order. The scheduler is deliberately performance-
 * greedy and speculation-oblivious beyond the scheme hooks — the root
 * cause the paper identifies (§3.2): readiness-based resource
 * allocation lets mis-speculated instructions delay older,
 * retirement-bound ones.
 */

#ifndef SPECINT_CPU_PIPELINE_SCHEDULER_HH
#define SPECINT_CPU_PIPELINE_SCHEDULER_HH

#include <memory>
#include <vector>

#include "cpu/exec_unit.hh"
#include "cpu/lsq.hh"
#include "cpu/pipeline/thread_context.hh"
#include "cpu/reservation_station.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"
#include "sim/noise.hh"
#include "smt/smt_config.hh"

namespace specint
{

class Scheduler
{
  public:
    Scheduler(const CoreConfig &cfg, const SmtConfig &smt, CoreId id,
              ReservationStation &rs, Lsq &lsq, PortSet &ports,
              MshrFile &mshr, Hierarchy &hier, MainMemory &mem)
        : cfg_(cfg), smt_(smt), id_(id), rs_(rs), lsq_(lsq),
          ports_(ports), mshr_(mshr), hier_(hier), mem_(mem)
    {}

    /** Safety transitions: perform pending exposure accesses and
     *  deferred replacement updates for loads past their safe point.
     *  Works only on each thread's pending-visibility list (visQ),
     *  never on the ROB. */
    void safety(std::vector<std::unique_ptr<ThreadContext>> &threads,
                Tick now);

    /** Wakeup/select: issue up to issueWidth ready instructions from
     *  all threads in global age order. Candidates come from each
     *  thread's readyQ, never from the ROB; those the scheme's
     *  mayIssue gate rejects are parked in the thread's gatedQ and
     *  return to readyQ only when a shadow frontier moves past them,
     *  and due non-pipelined ops whose port is held are parked in its
     *  portQ until the port frees. */
    void issue(std::vector<std::unique_ptr<ThreadContext>> &threads,
               Tick now, NoiseModel *noise);

    /** Work counter: visQ entries the safety stage has visited since
     *  construction. Each visit releases a load, so it is bounded by
     *  the loads that deferred their visibility, not by window size
     *  times cycles (tests/test_safety_invariant.cc asserts the
     *  bound). Deliberately not published to the metric registry. */
    std::uint64_t safetyVisits() const { return safetyVisits_; }

    /** Work counter: readyQ entries the issue stage has visited since
     *  construction. A gate-parked candidate is not visited again
     *  until a frontier event re-admits it, nor a port-parked one
     *  until its port frees, so under the fence schemes and on the
     *  SMT port channel this stays within a small multiple of the
     *  dispatched instructions or cycles instead of growing with
     *  parked entries times cycles (tests/test_safety_invariant.cc
     *  asserts the bounds). Not published to the metric registry. */
    std::uint64_t issueVisits() const { return issueVisits_; }

  private:
    struct Cand
    {
        ThreadContext *th;
        DynInst *inst;
    };

    /** Attempt to issue @p inst. @return true if it left the RS. */
    bool tryIssue(ThreadContext &th, DynInst &inst, const ShadowInfo &sh,
                  Tick now, NoiseModel *noise);
    /** Load-specific issue path (disambiguation, MSHRs, the scheme's
     *  speculative-load policy). */
    bool issueLoad(ThreadContext &th, DynInst &inst, bool safe,
                   bool speculative, Tick now, NoiseModel *noise);
    static std::uint64_t execute(const DynInst &inst);

    const CoreConfig &cfg_;
    const SmtConfig &smt_;
    CoreId id_;
    ReservationStation &rs_;
    Lsq &lsq_;
    PortSet &ports_;
    MshrFile &mshr_;
    Hierarchy &hier_;
    MainMemory &mem_;

    /** Reused per-cycle buffer (hot path: no per-cycle alloc). */
    std::vector<Cand> order_;
    std::uint64_t safetyVisits_ = 0;
    std::uint64_t issueVisits_ = 0;
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_SCHEDULER_HH
