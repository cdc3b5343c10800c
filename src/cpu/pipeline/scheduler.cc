/**
 * @file
 * Scheduler stages of the unified engine. The safety stage applies
 * scheme-deferred visibility transitions; the issue stage merges all
 * threads' ready instructions in global dispatch-stamp order and
 * consults the active scheme at every decision point (load policies,
 * fence gates, strict age priority with squashable-EU preemption).
 * Fence-gated candidates are parked until a shadow frontier crosses
 * them, and non-pipelined ops waiting on a busy unit until the port
 * frees, instead of being re-judged every cycle.
 */

#include "cpu/pipeline/scheduler.hh"

#include <algorithm>
#include <cassert>

#include "sim/log.hh"

namespace specint
{

void
Scheduler::safety(std::vector<std::unique_ptr<ThreadContext>> &threads,
                  Tick now)
{
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        if (th.visQ.empty())
            continue; // no executed load has a deferred visibility op
        // visQ is age-ordered and holds only executed loads, and a
        // load is safe iff it is not younger than the safe frontier:
        // the releasable loads are exactly a prefix of the list, and
        // releasing them in list order is ROB order.
        const SeqNum frontier = th.safeFrontier(th.scheme->safePoint());
        auto it = th.visQ.begin();
        for (; it != th.visQ.end() && *it <= frontier; ++it) {
            DynInst &inst = *th.rob.find(*it);
            ++safetyVisits_;
            if (inst.exposurePending) {
                // InvisiSpec-style exposure: the load's visible cache
                // fill happens now, when it ceases to be speculative.
                // The prefetcher saw this load when its request went
                // out; the exposure replay must not train it again.
                hier_.access(id_, inst.effAddr(), AccessType::Data, now,
                             MemIntent::Read, /*train=*/false);
                inst.exposurePending = false;
            }
            if (inst.deferredTouchPending) {
                // DoM deferred replacement update.
                hier_.l1DeferredTouch(id_, inst.effAddr(),
                                      AccessType::Data);
                inst.deferredTouchPending = false;
            }
        }
        th.visQ.erase(th.visQ.begin(), it);
    }
}

std::uint64_t
Scheduler::execute(const DynInst &inst)
{
    switch (inst.si().op) {
      case Op::IntAlu:
        return inst.src1Val() + inst.src2Val() +
               static_cast<std::uint64_t>(inst.si().imm);
      case Op::IntMul:
        return inst.src1Val() * (inst.si().src2 == kNoReg ? 1 : inst.src2Val()) +
               static_cast<std::uint64_t>(inst.si().imm);
      case Op::FpSqrt:
      case Op::FpDiv:
        // Value semantics are irrelevant for the experiments; preserve
        // the dependency chain by passing the operand through.
        return inst.src1Val();
      default:
        return 0;
    }
}

namespace
{

/** No candidate filled the issue width this cycle. */
constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};

/**
 * Return to @p th's readyQ every gate-parked entry whose shadows can
 * have changed since it was judged, and re-snapshot the frontier.
 * Frontiers only move younger — except when dispatch refills an empty
 * list, and that new caster is younger than every parked entry, so
 * their shadows stay put. When a kind's frontier moves younger, the
 * entries whose shadow of that kind lifted are exactly those between
 * the old and the new frontier: within the prefix of gatedQ up to the
 * new frontier, which is what goes back.
 */
void
readmitGated(ThreadContext &th, const ShadowFrontier &now_f)
{
    const ShadowFrontier &was = th.gatedAt;
    SeqNum upto = 0;
    bool moved = false;
    for (const auto &[n, o] : {std::pair{now_f.branch, was.branch},
                               std::pair{now_f.load, was.load},
                               std::pair{now_f.store, was.store}}) {
        if (n > o) {
            upto = std::max(upto, n);
            moved = true;
        }
    }
    th.gatedAt = now_f;
    if (!moved || th.gatedQ.empty())
        return;
    const auto end =
        std::upper_bound(th.gatedQ.begin(), th.gatedQ.end(), upto);
    th.readyQ.insert(th.readyQ.end(), th.gatedQ.begin(), end);
    th.gatedQ.erase(th.gatedQ.begin(), end);
}

/**
 * Return @p th's whole portQ to readyQ once the port its entries wait
 * on is no longer held. Every entry is a non-pipelined op bound to
 * port 0 alone, so the oldest entry's op speaks for all of them. A
 * unit frees at its holder's completion, a squash or a preemption;
 * each resets the port's busy time, so this one check covers them.
 */
void
readmitPortParked(ThreadContext &th, const PortSet &ports, Tick now)
{
    if (th.portQ.empty() ||
        ports.allHeld(th.rob.find(th.portQ.front())->si().op, now)) {
        return;
    }
    th.readyQ.insert(th.readyQ.end(), th.portQ.begin(), th.portQ.end());
    th.portQ.clear();
}

/** Insert @p seq into the seq-sorted list @p list unless present (a
 *  reused seq can reach the compaction twice through a stale readyQ
 *  entry). */
void
park(std::vector<SeqNum> &list, SeqNum seq)
{
    const auto it = std::lower_bound(list.begin(), list.end(), seq);
    if (it == list.end() || *it != seq)
        list.insert(it, seq);
}

} // namespace

void
Scheduler::issue(std::vector<std::unique_ptr<ThreadContext>> &threads,
                 Tick now, NoiseModel *noise)
{
    // Candidates — Dispatched with both sources ready — come from the
    // per-thread ready queues maintained at dispatch, wakeup, EU
    // preemption and gate or port re-admission, not from a full window
    // walk.
    // Each entry is revalidated here (a queue entry can be stale:
    // issued, squashed, or its seq reused), so the queue doubles as
    // its own compaction. Nothing during issue() wakes a source
    // (wakeups happen at writeback, earlier in the tick), and a
    // preempted EU holder re-enters Dispatched with retryAt = now + 1,
    // so instructions absent from the queue could not have acted in a
    // full scan either. A reused seq can leave a duplicate entry; the
    // issue loop below skips the second occurrence via the state
    // recheck.
    //
    // The scheme's issue gate (fence defenses) is applied here rather
    // than in the issue loop: rejection has no side effects and the
    // frontiers cannot move during this stage (branches resolve and
    // memory ops execute at writeback), so judging a candidate early
    // changes nothing. A rejected candidate is parked in gatedQ and
    // not looked at again until a frontier crosses it (readmitGated).
    //
    // A due non-pipelined op whose every port is held by a busy unit
    // is parked in portQ the same way: its attempt would fail, and a
    // held port stays held for the whole stage (only a preemption
    // frees one, and the preempter re-takes it at once). The one side
    // effect of that failed attempt, the SMT contention flag, is set
    // after the issue loop instead. Under strictAgePriority a failed
    // attempt can preempt a unit, so those candidates are still tried.
    order_.clear();
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        const ShadowFrontier frontier = th.frontier();
        readmitGated(th, frontier);
        readmitPortParked(th, ports_, now);
        std::size_t keep = 0;
        for (const SeqNum seq : th.readyQ) {
            ++issueVisits_;
            DynInst *inst = th.rob.find(seq);
            if (!inst || inst->state != InstState::Dispatched ||
                !inst->src1Ready || !inst->src2Ready) {
                continue;
            }
            if (!th.scheme->mayIssue(
                    issueContextOf(frontier.shadowsOf(seq), *inst))) {
                park(th.gatedQ, seq);
                continue;
            }
            const Op op = inst->si().op;
            if (!opTraits(op).pipelined && inst->readyAt <= now &&
                inst->retryAt <= now && ports_.allHeld(op, now) &&
                !th.scheme->schedFlags().strictAgePriority) {
                park(th.portQ, seq);
                continue;
            }
            th.readyQ[keep++] = seq;
            order_.push_back({&th, inst});
        }
        th.readyQ.resize(keep);
    }
    // Queue order is arrival order (dispatch/wake/preempt/re-admit),
    // not age order: always sort by the global dispatch stamp, which
    // is also each thread's seq order.
    std::sort(order_.begin(), order_.end(),
              [](const Cand &a, const Cand &b) {
                  return a.inst->stamp < b.inst->stamp;
              });

    // Shadows and safe points come from the per-thread frontiers,
    // which nothing in this stage moves: each is a seq compare.
    unsigned issued = 0;
    // Stamp of the candidate whose issue filled issueWidth: the loop
    // reaches exactly the candidates older than it.
    std::uint64_t filled_at = kNoStamp;
    for (const Cand &c : order_) {
        ThreadContext &th = *c.th;
        DynInst &inst = *c.inst;
        if (issued >= cfg_.issueWidth)
            break;
        if (inst.state != InstState::Dispatched)
            continue;
        if (inst.readyAt > now || inst.retryAt > now)
            continue;

        // Loads the scheme parked until their safe point.
        if (inst.loadPhase == LoadPhase::WaitSafe &&
            !th.isSafe(inst.seq, th.scheme->safePoint())) {
            continue;
        }

        // Fences serialise: issue only from the ROB head.
        if (inst.isFence() && th.rob.head().seq != inst.seq)
            continue;

        if (tryIssue(th, inst, th.frontier().shadowsOf(inst.seq), now,
                     noise) &&
            ++issued == cfg_.issueWidth) {
            filled_at = inst.stamp;
        }
    }

    // The port-parked candidates the loop would have reached and
    // denied. All of a thread's entries share one port and the flag is
    // an OR, so its oldest entry decides; the port's holder cannot
    // change thread during the stage, so asking after the loop gives
    // the answer the attempt would have seen.
    if (smt_.numThreads == 1)
        return;
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        if (th.portQ.empty())
            continue;
        const DynInst &oldest = *th.rob.find(th.portQ.front());
        if (oldest.stamp < filled_at &&
            ports_.opContendedByOther(oldest.si().op, th.tid, now)) {
            th.portContended = true;
        }
    }
}

bool
Scheduler::tryIssue(ThreadContext &th, DynInst &inst,
                    const ShadowInfo &sh, Tick now, NoiseModel *noise)
{
    const OpTraits &traits = opTraits(inst.si().op);
    const SchedFlags flags = th.scheme->schedFlags();
    const bool speculative = sh.olderUnresolvedBranch;

    int port = ports_.selectPort(inst.si().op, now);
    if (port < 0 && flags.strictAgePriority && !traits.pipelined) {
        // Advanced defense rule 2, thread-local: a younger speculative
        // instruction must never delay an older one — preempt the
        // squashable EU held by a younger speculative instruction of
        // the *same* thread (SeqNums are per-thread).
        for (std::uint8_t p : traits.ports) {
            const SeqNum victim = ports_.preempt(p, inst.seq, th.tid);
            if (victim == kSeqNumInvalid)
                continue;
            DynInst *v = th.rob.find(victim);
            assert(v && v->state == InstState::Issued);
            // The preempted instruction is re-issued later; with the
            // hold-until-retire rule its RS entry still exists.
            v->state = InstState::Dispatched;
            v->issuedAt() = kTickMax;
            v->completeAt = kTickMax;
            v->retryAt = now + 1;
            // Back to Dispatched with both sources still ready: a
            // candidate again from the next cycle on.
            th.readyQ.push_back(v->seq);
            if (!v->inRs())
                rs_.allocate(*v);
            port = p;
            break;
        }
    }
    if (port < 0) {
        // The per-cycle observable of the SMT port-contention channel:
        // a ready instruction denied a port a sibling occupies.
        if (smt_.numThreads > 1 &&
            ports_.opContendedByOther(inst.si().op, th.tid, now)) {
            th.portContended = true;
        }
        return false;
    }

    if (inst.isLoad()) {
        if (!issueLoad(th, inst,
                       th.isSafe(inst.seq, th.scheme->safePoint()),
                       speculative, now, noise)) {
            return false;
        }
    } else if (inst.isStore()) {
        inst.effAddr() = inst.src1Val() * inst.si().scale +
                       static_cast<std::uint64_t>(inst.si().imm);
        inst.result() = inst.src2Val();
        inst.completeAt = now + traits.latency;
        // A speculative store's coherence transition (RFO) happens at
        // issue, per the scheme's declared policy: the invalidations
        // it sends to remote sharers are not undone by a squash — the
        // side effect attack/coherence_probe.hh times. DeferAll
        // schemes keep the request core-local until the store is safe
        // (it then upgrades via the retirement-time write access).
        if (speculative && hier_.coherenceEnabled()) {
            const SpecCoherencePolicy cp =
                th.scheme->specCoherencePolicy();
            if (cp != SpecCoherencePolicy::DeferAll) {
                inst.completeAt += hier_.specStoreUpgrade(
                    id_, inst.effAddr(), now,
                    cp == SpecCoherencePolicy::EagerUpgrade);
            }
        }
    } else {
        inst.result() = execute(inst);
        inst.completeAt = now + traits.latency;
    }

    ports_.issue(static_cast<std::uint8_t>(port), inst.si().op, now,
                 inst.completeAt, inst.seq, speculative, th.tid);
    inst.port() = port;
    inst.state = InstState::Issued;
    th.inflightQ.push_back(inst.seq);
    th.minWbAt = std::min(th.minWbAt, inst.completeAt);
    inst.issuedAt() = now;
    ++th.stats.issued;
    if (!th.scheme->schedFlags().holdRsUntilRetire)
        rs_.release(inst);
    return true;
}

bool
Scheduler::issueLoad(ThreadContext &th, DynInst &inst, bool safe,
                     bool speculative, Tick now, NoiseModel *noise)
{
    inst.effAddr() = (inst.si().src1 == kNoReg ? 0
                        : inst.src1Val() * inst.si().scale) +
                   static_cast<std::uint64_t>(inst.si().imm);

    // Memory disambiguation against this thread's own older stores.
    const DisambigResult dis = lsq_.check(inst, th.rob, th.storeSeqs);
    if (dis.blocked) {
        inst.retryAt = now + 1;
        return false;
    }
    if (inst.loadPhase == LoadPhase::None)
        ++th.stats.loads; // count each load once, not per retry
    if (dis.forward) {
        inst.forwarded() = true;
        inst.result() = dis.forwardValue;
        inst.completeAt = now + cfg_.storeForwardLatency;
        inst.loadPhase = LoadPhase::Done;
        return true;
    }

    const SpecLoadPolicy policy =
        safe ? SpecLoadPolicy::Visible : th.scheme->specLoadPolicy();
    const Tick jitter = noise ? noise->loadJitter() : 0;
    const Addr line = lineAlign(inst.effAddr());
    const SchedFlags flags = th.scheme->schedFlags();

    auto need_mshr = [&](bool l1_hit) -> bool { return !l1_hit; };
    auto acquire_mshr = [&](Tick ready_at, bool spec_alloc) -> bool {
        if (mshr_.hasEntry(line, now) ||
            mshr_.allocate(line, now, ready_at, inst.seq, spec_alloc,
                           th.tid)) {
            return true;
        }
        if (flags.preemptSpecMshr && !spec_alloc &&
            mshr_.preemptYoungestSpeculative(now, th.tid)) {
            return mshr_.allocate(line, now, ready_at, inst.seq,
                                  spec_alloc, th.tid);
        }
        // The MSHR-contention observable: denied while a sibling
        // thread holds entries in the shared file.
        if (smt_.numThreads > 1 &&
            mshr_.inUseByOther(th.tid, now) > 0) {
            th.mshrContended = true;
        }
        return false;
    };

    switch (policy) {
      case SpecLoadPolicy::Visible: {
        const bool l1_hit = hier_.l1Probe(id_, inst.effAddr(),
                                          AccessType::Data);
        if (need_mshr(l1_hit)) {
            // Reserve the MSHR before touching any cache state; the
            // latency peek is a pure query (no bandwidth consumed).
            const MemAccessResult probe = hier_.peekLatency(
                id_, inst.effAddr(), AccessType::Data);
            if (!acquire_mshr(now + probe.latency + jitter,
                              speculative)) {
                const Tick earliest = mshr_.earliestReady(now);
                inst.retryAt =
                    earliest == kTickMax ? now + 1 : earliest;
                inst.loadPhase = LoadPhase::WaitMshr;
                return false;
            }
        }
        // A safe load always trains the prefetcher; a speculative one
        // only under schemes whose requests leave the core.
        const MemAccessResult res = hier_.access(
            id_, inst.effAddr(), AccessType::Data, now, MemIntent::Read,
            safe || th.scheme->trainsPrefetcher());
        if (res.l1Hit)
            ++th.stats.loadL1Hits;
        inst.servedBy() = res.servedBy;
        inst.completeAt = now + res.latency + jitter;
        inst.result() = mem_.read(inst.effAddr());
        inst.loadPhase = LoadPhase::InFlight;
        return true;
      }

      case SpecLoadPolicy::DelayOnMiss: {
        if (hier_.l1Probe(id_, inst.effAddr(), AccessType::Data)) {
            // Speculative L1 hit: serve the data, defer the
            // replacement-state update until the load is safe.
            inst.servedBy() = ServedBy::L1;
            ++th.stats.loadL1Hits;
            inst.completeAt =
                now + hier_.config().l1Latency + jitter;
            inst.result() = mem_.read(inst.effAddr());
            inst.deferredTouchPending = true;
            inst.loadPhase = LoadPhase::InFlight;
            return true;
        }
        // Speculative miss: delay until safe, then re-execute.
        inst.loadPhase = LoadPhase::WaitSafe;
        inst.retryAt = now + 1;
        return false;
      }

      case SpecLoadPolicy::InvisibleRequest:
      case SpecLoadPolicy::InvisibleFilter: {
        if (policy == SpecLoadPolicy::InvisibleFilter &&
            th.scheme->filterProbe(line)) {
            // MuonTrap filter-cache hit: core-local, fast.
            inst.servedBy() = ServedBy::L1;
            inst.completeAt =
                now + hier_.config().l1Latency + jitter;
            inst.result() = mem_.read(inst.effAddr());
            inst.exposurePending = true;
            inst.loadPhase = LoadPhase::InFlight;
            return true;
        }
        // Reserve the core MSHR before the request leaves the core:
        // the ready-time estimate is a pure peek, and the real
        // (bandwidth-consuming) invisible request only happens once
        // the load actually goes out — a denied load must not charge
        // shared-level occupancy on every retry.
        const MemAccessResult probe =
            hier_.peekLatency(id_, inst.effAddr(), AccessType::Data);
        if (need_mshr(probe.l1Hit)) {
            // Invisible speculative misses still occupy MSHRs — the
            // pressure point G^D_MSHR exploits (Fig. 4), per-core and,
            // through the shared-LLC model, across cores.
            if (!acquire_mshr(now + probe.latency + jitter, true)) {
                const Tick earliest = mshr_.earliestReady(now);
                inst.retryAt =
                    earliest == kTickMax ? now + 1 : earliest;
                inst.loadPhase = LoadPhase::WaitMshr;
                return false;
            }
        }
        // The invisible request leaves the core: whether it trains
        // the prefetcher is the scheme's declaration (it does for
        // InvisiSpec-style designs — the leak the PrefetchTraining
        // channel exploits).
        const MemAccessResult res = hier_.accessInvisible(
            id_, inst.effAddr(), AccessType::Data, now,
            th.scheme->trainsPrefetcher());
        if (res.l1Hit)
            ++th.stats.loadL1Hits;
        inst.servedBy() = res.servedBy;
        inst.completeAt = now + res.latency + jitter;
        inst.result() = mem_.read(inst.effAddr());
        inst.exposurePending = true;
        inst.loadPhase = LoadPhase::InFlight;
        if (policy == SpecLoadPolicy::InvisibleFilter)
            th.scheme->filterFill(line, inst.seq);
        return true;
      }

      case SpecLoadPolicy::DelayAlways:
        inst.loadPhase = LoadPhase::WaitSafe;
        inst.retryAt = now + 1;
        return false;
    }
    panic("Scheduler::issueLoad: unknown policy");
}

} // namespace specint
