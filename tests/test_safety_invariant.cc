/**
 * @file
 * The safety stage's invariant, checked every cycle.
 *
 * The safety stage is event-driven: it only looks at the per-thread
 * pending-visibility list (visQ) and compares seqs against the shadow
 * frontiers (the oldest unresolved branch / unexecuted load /
 * unexecuted store). These tests re-derive everything it relies on
 * from scratch, with the full-window shadowStep recurrence, from the
 * engine's cycle hook (which disables fast-forward, so every cycle is
 * observed) — over all 12 schemes, the Table-1 / Fig. 11 sender
 * gadgets and fuzzed single- and two-thread programs:
 *
 *  - no executed load with a pending visibility op is past its safe
 *    point (the stage released everything it should have);
 *  - a load whose pending op was cleared since the previous cycle is
 *    past its safe point (nothing was released early — safety is
 *    monotonic, so it must still hold);
 *  - the O(1) frontiers agree with the full walk for every entry, and
 *    visQ is exactly the executed, flagged loads in age order;
 *  - the safety stage's work counter is bounded by the number of
 *    loads that deferred their visibility, not by window size times
 *    cycles.
 *
 * The issue stage is event-driven the same way: candidates the
 * scheme's mayIssue gate rejects are parked in gatedQ until a frontier
 * crosses them, and due non-pipelined ops whose port is held are
 * parked in portQ until the port frees. Every cycle the checker also
 * verifies that
 *
 *  - gatedQ is seq-sorted and exact: every entry is Dispatched with
 *    both sources ready, and still fails the gate under the current
 *    frontiers (so parking it lost no issue opportunity);
 *  - portQ is seq-sorted and exact: every entry is a due, Dispatched,
 *    source-ready non-pipelined op that passes the gate, of a thread
 *    whose scheme does not preempt units;
 *  - every Dispatched, source-ready ROB entry is in readyQ, gatedQ or
 *    portQ (so no candidate is lost between the three lists);
 *
 * and the issue stage's work counter stays within a small multiple of
 * the dispatched instructions under the fence schemes, and of the
 * cycles on the SMT port channel.
 *
 * WorkGate guards simulation speed with exact counts on the
 * simulation-speed programs (Core, SMT and System, with and without
 * memory stalls): without fast-forward every cycle is ticked, with it
 * at most a captured fraction of them is, and issue and safety visits
 * per dispatched instruction stay within captured bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "attack/matrix.hh"
#include "attack/smt_probe.hh"
#include "attack/trial_fixture.hh"
#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "smt/smt_core.hh"
#include "spec/scheme.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint
{
namespace
{

/** Past safe point @p sp, by the full-walk definition: @p sh holds the
 *  shadows of strictly older entries (shadowStep). */
bool
fullWalkSafe(SafePoint sp, const ShadowInfo &sh, const DynInst &inst,
             const Rob &rob)
{
    switch (sp) {
      case SafePoint::Always:
        return true;
      case SafePoint::BranchesResolved:
        return !sh.olderUnresolvedBranch;
      case SafePoint::TSO:
        return !sh.olderUnresolvedBranch && !sh.olderIncompleteMem;
      case SafePoint::RobHead:
        return rob.head().seq == inst.seq;
    }
    return false;
}

bool
pending(const DynInst &inst)
{
    return inst.isLoad() &&
           (inst.exposurePending || inst.deferredTouchPending);
}

/**
 * Cycle-hook checker for one run of one engine: it installs the
 * per-cycle check for its lifetime. The engine must outlive it.
 */
class SafetyChecker
{
  public:
    SafetyChecker(PipelineEngine &eng, std::string what)
        : eng_(eng), what_(std::move(what)),
          prevFlagged_(eng.numThreads())
    {
        eng_.setCycleHook([this](Tick now) { check(now); });
    }
    ~SafetyChecker() { eng_.clearCycleHook(); }
    SafetyChecker(const SafetyChecker &) = delete;
    SafetyChecker &operator=(const SafetyChecker &) = delete;

    /** Distinct loads seen with a pending visibility op. Each such
     *  load is seen at least once: its flag is set at issue, and it
     *  cannot complete before the next cycle's hook. */
    std::uint64_t flaggedLoads() const { return seen_.size(); }
    std::uint64_t cycles() const { return cycles_; }

    /** Every safety-stage visit releases a distinct flagged load. */
    void
    expectVisitsBounded() const
    {
        EXPECT_LE(eng_.safetyVisits(), flaggedLoads()) << what_;
    }

  private:
    void
    check(Tick now)
    {
        if (::testing::Test::HasFatalFailure())
            return; // one report per run, not one per later cycle
        ++cycles_;
        for (ThreadId t = 0; t < eng_.numThreads(); ++t)
            checkThread(eng_.thread(t), t, now);
    }

    void
    checkThread(const ThreadContext &th, ThreadId t, Tick now)
    {
        const std::string at = what_ + " thread " + std::to_string(t) +
                               " cycle " + std::to_string(now);
        const SafePoint sp = th.scheme->safePoint();
        const ShadowFrontier frontier = th.frontier();
        std::set<std::uint64_t> flagged;
        std::vector<SeqNum> executed_flagged;

        ASSERT_TRUE(std::is_sorted(th.gatedQ.begin(), th.gatedQ.end()))
            << at;
        ASSERT_EQ(std::adjacent_find(th.gatedQ.begin(), th.gatedQ.end()),
                  th.gatedQ.end())
            << at << ": duplicate gatedQ entry";
        for (const SeqNum seq : th.gatedQ) {
            const DynInst *inst = th.rob.find(seq);
            ASSERT_NE(inst, nullptr) << at << ": stale gatedQ seq " << seq;
            ASSERT_EQ(inst->state, InstState::Dispatched) << at;
            ASSERT_TRUE(inst->src1Ready && inst->src2Ready) << at;
            ASSERT_FALSE(th.scheme->mayIssue(
                issueContextOf(frontier.shadowsOf(seq), *inst)))
                << at << ": parked seq " << seq
                << " passes the gate under the current frontiers";
        }
        ASSERT_TRUE(std::is_sorted(th.portQ.begin(), th.portQ.end()))
            << at;
        ASSERT_EQ(std::adjacent_find(th.portQ.begin(), th.portQ.end()),
                  th.portQ.end())
            << at << ": duplicate portQ entry";
        ASSERT_TRUE(th.portQ.empty() ||
                    !th.scheme->schedFlags().strictAgePriority)
            << at << ": port-parked entry under strict age priority";
        for (const SeqNum seq : th.portQ) {
            const DynInst *inst = th.rob.find(seq);
            ASSERT_NE(inst, nullptr) << at << ": stale portQ seq " << seq;
            ASSERT_EQ(inst->state, InstState::Dispatched) << at;
            ASSERT_TRUE(inst->src1Ready && inst->src2Ready) << at;
            ASSERT_FALSE(opTraits(inst->si().op).pipelined)
                << at << ": port-parked seq " << seq << " is pipelined";
            ASSERT_LE(std::max(inst->readyAt, inst->retryAt), now) << at;
            ASSERT_TRUE(th.scheme->mayIssue(
                issueContextOf(frontier.shadowsOf(seq), *inst)))
                << at << ": port-parked seq " << seq
                << " fails the gate";
        }
        std::set<SeqNum> candidates(th.readyQ.begin(), th.readyQ.end());
        candidates.insert(th.gatedQ.begin(), th.gatedQ.end());
        candidates.insert(th.portQ.begin(), th.portQ.end());

        ShadowInfo running;
        for (const DynInst &inst : th.rob) {
            const ShadowInfo sh = running;
            shadowStep(running, inst);

            if (inst.state == InstState::Dispatched && inst.src1Ready &&
                inst.src2Ready) {
                ASSERT_TRUE(candidates.count(inst.seq))
                    << at << ": ready seq " << inst.seq
                    << " is in none of readyQ, gatedQ and portQ";
            }

            const ShadowInfo fast = frontier.shadowsOf(inst.seq);
            ASSERT_EQ(fast.olderUnresolvedBranch,
                      sh.olderUnresolvedBranch) << at;
            ASSERT_EQ(fast.olderIncompleteLoad, sh.olderIncompleteLoad)
                << at;
            ASSERT_EQ(fast.olderIncompleteMem, sh.olderIncompleteMem)
                << at;
            const bool safe = fullWalkSafe(sp, sh, inst, th.rob);
            ASSERT_EQ(th.isSafe(inst.seq, sp), safe) << at;

            if (!inst.isLoad())
                continue;
            if (pending(inst)) {
                // Stamps are unique within a run (seqs are reused
                // after a squash).
                flagged.insert(inst.stamp);
                if (inst.executed()) {
                    executed_flagged.push_back(inst.seq);
                    ASSERT_FALSE(safe)
                        << at << ": executed load seq " << inst.seq
                        << " is safe but its visibility op is pending";
                }
            } else if (prevFlagged_[t].count(inst.stamp)) {
                ASSERT_TRUE(safe)
                    << at << ": load seq " << inst.seq
                    << " had its visibility op released while unsafe";
            }
        }
        ASSERT_EQ(th.visQ, executed_flagged) << at;
        seen_.insert(flagged.begin(), flagged.end());
        prevFlagged_[t] = std::move(flagged);
    }

    PipelineEngine &eng_;
    std::string what_;
    /** Per thread: stamps of the loads flagged at the previous cycle. */
    std::vector<std::set<std::uint64_t>> prevFlagged_;
    std::set<std::uint64_t> seen_;
    std::uint64_t cycles_ = 0;
};

class PerScheme : public ::testing::TestWithParam<SchemeKind>
{};

TEST_P(PerScheme, SenderGadgetsKeepTheSafetyInvariant)
{
    const SchemeKind kind = GetParam();
    CoreConfig core;
    core.fastForward = false;
    for (const auto &[g, o] : tableOneCombos()) {
        for (unsigned secret = 0; secret < 2; ++secret) {
            AttackFixture fx(core, HierarchyConfig::small());
            fx.victim.setScheme(makeScheme(kind));
            SenderParams params;
            params.gadget = g;
            params.ordering = o;
            const SenderProgram sp = buildSender(params, fx.hier);
            fx.harness.prepare(sp, secret);

            const std::string what = schemeName(kind) + " " +
                                     gadgetName(g) + "/" +
                                     orderingName(o) + " secret " +
                                     std::to_string(secret);
            SafetyChecker chk(fx.victim.engine(), what);
            const TrialResult r = fx.harness.run(sp);
            ASSERT_FALSE(::testing::Test::HasFatalFailure()) << what;
            ASSERT_TRUE(r.finished) << what;
            ASSERT_GT(chk.cycles(), 0u) << what;
            chk.expectVisitsBounded();
        }
    }
}

WorkloadSpec
fuzzSpec(std::uint64_t seed, unsigned slot)
{
    WorkloadSpec spec;
    spec.name = "safety-fuzz";
    spec.instructions = 400;
    spec.loadFrac = 0.30;
    spec.storeFrac = 0.08;
    spec.branchFrac = 0.15;
    spec.mulFrac = 0.05;
    spec.sqrtFrac = 0.03;
    spec.chaseFrac = 0.25;
    spec.footprintLines = 256;
    spec.branchTakenProb = 0.35;
    spec.dataBase = 0x01000000ULL * (slot + 1);
    spec.codeBase = 0x400000ULL + 0x100000ULL * slot;
    spec.seed = seed;
    return spec;
}

TEST_P(PerScheme, FuzzedProgramsKeepTheSafetyInvariant)
{
    const SchemeKind kind = GetParam();
    CoreConfig cfg;
    cfg.fastForward = false;
    for (const std::uint64_t seed : {3u, 19u, 44u}) {
        const GeneratedWorkload wl = generateWorkload(fuzzSpec(seed, 0));
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
        Core core(cfg, 0, hier, mem);
        core.setScheme(makeScheme(kind));
        const std::string what =
            schemeName(kind) + " seed " + std::to_string(seed);
        SafetyChecker chk(core.engine(), what);
        const CoreStats s = core.run(wl.prog);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << what;
        ASSERT_TRUE(s.finished) << what;
        chk.expectVisitsBounded();
        // At most one visit per load, whatever the window size and
        // the number of cycles a flag stays pending.
        EXPECT_LE(core.engine().safetyVisits(), s.loads) << what;
    }
}

TEST_P(PerScheme, TwoThreadProgramsKeepTheSafetyInvariant)
{
    const SchemeKind kind = GetParam();
    CoreConfig cfg;
    cfg.fastForward = false;
    const GeneratedWorkload wl0 = generateWorkload(fuzzSpec(7, 0));
    const GeneratedWorkload wl1 = generateWorkload(fuzzSpec(8, 1));
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    for (const GeneratedWorkload *wl : {&wl0, &wl1})
        for (const auto &[a, v] : wl->memInit)
            mem.write(a, v);
    SmtConfig smt;
    smt.numThreads = 2;
    SmtCore core(cfg, smt, 0, hier, mem);
    for (ThreadId t = 0; t < 2; ++t)
        core.setScheme(t, makeScheme(kind));
    const std::string what = schemeName(kind) + " SMT";
    SafetyChecker chk(core.engine(), what);
    const SmtRunResult run = core.run({&wl0.prog, &wl1.prog});
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << what;
    ASSERT_TRUE(run.finished) << what;
    chk.expectVisitsBounded();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PerScheme, ::testing::ValuesIn(allSchemes()),
    [](const auto &info) {
        return "scheme" + std::to_string(static_cast<int>(info.param));
    });

TEST(SafetyWorkCounter, DeferredVisibilitySchemesDoWorkOnlyPerLoad)
{
    // A scheme that defers visibility on every speculative load must
    // see the stage do work — and, over a long run, far less work
    // than one visit per window entry per cycle.
    CoreConfig cfg;
    cfg.fastForward = false;
    for (const SchemeKind kind :
         {SchemeKind::DomNonTso, SchemeKind::DomTso,
          SchemeKind::InvisiSpecSpectre, SchemeKind::InvisiSpecFuturistic,
          SchemeKind::MuonTrap, SchemeKind::ConditionalSpec}) {
        const GeneratedWorkload wl = generateWorkload(fuzzSpec(11, 0));
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
        Core core(cfg, 0, hier, mem);
        core.setScheme(makeScheme(kind));
        SafetyChecker chk(core.engine(), schemeName(kind));
        const CoreStats s = core.run(wl.prog);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        ASSERT_TRUE(s.finished) << schemeName(kind);
        const std::uint64_t visits = core.engine().safetyVisits();
        EXPECT_GT(visits, 0u) << schemeName(kind);
        EXPECT_LE(visits, chk.flaggedLoads()) << schemeName(kind);
        EXPECT_LT(visits, s.cycles) << schemeName(kind);
    }
}

TEST(IssueWorkCounter, FenceGatedCandidatesAreNotRescannedPerCycle)
{
    // Under the fence schemes most of the window waits on the gate for
    // thousands of cycles. Each instruction enters readyQ once (at
    // dispatch or its last wakeup) and is re-admitted from gatedQ only
    // when a frontier crosses it, so the issue stage's visits stay
    // within a few per dispatched instruction; re-judging the parked
    // entries every cycle would cost far more.
    CoreConfig cfg;
    cfg.fastForward = false;
    for (const SchemeKind kind :
         {SchemeKind::FenceSpectre, SchemeKind::FenceFuturistic}) {
        for (const std::uint64_t seed : {3u, 11u, 19u, 44u}) {
            const GeneratedWorkload wl =
                generateWorkload(fuzzSpec(seed, 0));
            Hierarchy hier(HierarchyConfig::small());
            MainMemory mem;
            for (const auto &[a, v] : wl.memInit)
                mem.write(a, v);
            Core core(cfg, 0, hier, mem);
            core.setScheme(makeScheme(kind));
            const std::string what =
                schemeName(kind) + " seed " + std::to_string(seed);
            SafetyChecker chk(core.engine(), what);
            const CoreStats s = core.run(wl.prog);
            ASSERT_FALSE(::testing::Test::HasFatalFailure()) << what;
            ASSERT_TRUE(s.finished) << what;
            const std::uint64_t dispatched =
                core.engine().thread(0).rob.pushes();
            const std::uint64_t visits = core.engine().issueVisits();
            EXPECT_GT(visits, 0u) << what;
            EXPECT_LE(visits, 3 * dispatched) << what;
            EXPECT_LT(visits, s.cycles) << what;
        }
    }
}

TEST(IssueWorkCounter, PortParkedCandidatesAreNotRetriedPerCycle)
{
    // The SMT port-channel probe is a stream of independent VSQRTPD
    // ops, all ready at once and all waiting on the one non-pipelined
    // unit. Parked in portQ while the unit is busy, they cost the
    // issue stage a few visits per cycle, not one each per cycle.
    for (const SchemeKind kind :
         {SchemeKind::Unsafe, SchemeKind::InvisiSpecSpectre,
          SchemeKind::AdvancedDefense}) {
        SmtAttackParams params;
        params.kind = SmtChannelKind::Port;
        SmtProbeHarness harness(buildSmtAttack(params), kind);
        const std::string what = schemeName(kind) + " port channel";
        SafetyChecker chk(harness.core().engine(), what);
        const SmtCalibration cal = harness.calibrate();
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << what;
        EXPECT_TRUE(cal.usable) << what;
        const std::uint64_t visits = harness.core().engine().issueVisits();
        EXPECT_GT(visits, 0u) << what;
        EXPECT_LT(visits, 3 * chk.cycles()) << what;
    }
}

TEST(SafetyWorkCounter, NoDeferredVisibilityMeansNoWork)
{
    CoreConfig cfg;
    cfg.fastForward = false;
    for (const SchemeKind kind :
         {SchemeKind::Unsafe, SchemeKind::FenceSpectre,
          SchemeKind::FenceFuturistic}) {
        const GeneratedWorkload wl = generateWorkload(fuzzSpec(11, 0));
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
        Core core(cfg, 0, hier, mem);
        core.setScheme(makeScheme(kind));
        ASSERT_TRUE(core.run(wl.prog).finished) << schemeName(kind);
        EXPECT_EQ(core.engine().safetyVisits(), 0u) << schemeName(kind);
    }
}

// ---------------------------------------------------------------------
// Exact work gates over the simulation-speed programs
// ---------------------------------------------------------------------

/**
 * Simulation speed is guarded by exact work counts, not wall-clock
 * ratios: cycles actually ticked (PipelineEngine::ticks) and the issue
 * and safety stages' visits per dispatched instruction. The programs
 * are generateWorkload's default spec (a straight-line compulsory-miss
 * stream) and memStallSpec (serial pointer chases over a footprint far
 * beyond the small hierarchy, so most cycles stall on misses — the
 * profile the stall fast-forward targets), 4000 instructions each, on
 * Core, a two-thread SmtCore and a two-core System, plus the
 * SmtProbeHarness port and MSHR attacks (one trial per secret), whose
 * probe score is a running total the skip must keep. Each runs under
 * the unsafe baseline, a fence scheme (gate-parked issue) and a
 * deferred-visibility scheme (the event-driven safety stage).
 */
enum class GateEngine { Core, Smt, System, PortProbe, MshrProbe };

WorkloadSpec
memStallSpec()
{
    WorkloadSpec spec;
    spec.loadFrac = 0.35;
    spec.chaseFrac = 0.5;
    spec.footprintLines = 4096;
    return spec;
}

/** Work done by every engine of one run, summed. */
struct GateWork
{
    Tick cycles = 0;
    std::uint64_t ticks = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issueVisits = 0;
    std::uint64_t safetyVisits = 0;

    void
    add(const PipelineEngine &eng)
    {
        cycles += eng.now();
        ticks += eng.ticks();
        for (ThreadId t = 0; t < eng.numThreads(); ++t)
            dispatched += eng.thread(t).rob.pushes();
        issueVisits += eng.issueVisits();
        safetyVisits += eng.safetyVisits();
    }
};

struct GateRow
{
    GateEngine engine;
    bool memstall;
    SchemeKind scheme;
    /** Bounds, each the ratio measured on this program rounded up to
     *  two significant digits: ticks per cycle with fastForward on,
     *  and issue and safety visits per dispatched instruction with it
     *  off. */
    double ffTicksPerCycle;
    double issuePerDispatched;
    double safetyPerDispatched;
};

std::string
gateName(const GateRow &row)
{
    static const char *const kEngines[] = {"Core", "SmtCore", "System",
                                           "SmtProbe/port",
                                           "SmtProbe/mshr"};
    const std::string engine = kEngines[static_cast<int>(row.engine)];
    if (row.engine == GateEngine::PortProbe ||
        row.engine == GateEngine::MshrProbe) {
        return engine + " " + schemeName(row.scheme);
    }
    return engine + "/4000" + (row.memstall ? "/memstall " : " ") +
           schemeName(row.scheme);
}

/** gtest's failure listing names the row, not its bytes. */
void
PrintTo(const GateRow &row, std::ostream *os)
{
    *os << gateName(row);
}

void
loadMemory(MainMemory &mem, const GeneratedWorkload &wl)
{
    for (const auto &[a, v] : wl.memInit)
        mem.write(a, v);
}

GateWork
runGate(const GateRow &row, bool fast_forward)
{
    CoreConfig cfg;
    cfg.fastForward = fast_forward;
    const std::string what = gateName(row);
    WorkloadSpec spec = row.memstall ? memStallSpec() : WorkloadSpec{};
    spec.instructions = 4000;
    GateWork w;
    switch (row.engine) {
      case GateEngine::Core: {
        const GeneratedWorkload wl = generateWorkload(spec);
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        loadMemory(mem, wl);
        Core core(cfg, 0, hier, mem);
        core.setScheme(makeScheme(row.scheme));
        EXPECT_TRUE(core.run(wl.prog).finished) << what;
        w.add(core.engine());
        break;
      }
      case GateEngine::Smt: {
        const GeneratedWorkload wl0 = generateWorkload(spec);
        spec.seed = 999;
        spec.storeFrac = 0.0;
        const GeneratedWorkload wl1 = generateWorkload(spec);
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        loadMemory(mem, wl0);
        loadMemory(mem, wl1);
        SmtCore core(cfg, SmtConfig{}, 0, hier, mem);
        for (ThreadId t = 0; t < 2; ++t)
            core.setScheme(t, makeScheme(row.scheme));
        EXPECT_TRUE(core.run({&wl0.prog, &wl1.prog}).finished)
            << what;
        w.add(core.engine());
        break;
      }
      case GateEngine::System: {
        spec.dataBase = 0x01000000;
        spec.codeBase = 0x400000;
        const GeneratedWorkload wl0 = generateWorkload(spec);
        spec.seed = 999;
        spec.dataBase = 0x02000000;
        spec.codeBase = 0x500000;
        const GeneratedWorkload wl1 = generateWorkload(spec);
        SystemConfig sc;
        sc.numCores = 2;
        sc.core = cfg;
        sc.hier = HierarchyConfig::small();
        sc.hier.llcPortBusy = 2;
        sc.hier.llcMshrs = 8;
        System sys(sc);
        loadMemory(sys.memory(), wl0);
        loadMemory(sys.memory(), wl1);
        for (CoreId c = 0; c < 2; ++c)
            sys.core(c).setScheme(0, makeScheme(row.scheme));
        EXPECT_TRUE(sys.run({{&wl0.prog}, {&wl1.prog}}).finished)
            << what;
        for (CoreId c = 0; c < 2; ++c)
            w.add(sys.core(c));
        break;
      }
      case GateEngine::PortProbe:
      case GateEngine::MshrProbe: {
        SmtAttackParams params;
        params.kind = row.engine == GateEngine::PortProbe
                          ? SmtChannelKind::Port
                          : SmtChannelKind::Mshr;
        for (unsigned secret = 0; secret < 2; ++secret) {
            SmtProbeHarness harness(buildSmtAttack(params), row.scheme,
                                    cfg);
            harness.prepare(secret);
            EXPECT_TRUE(harness.runTrial().finished) << what;
            w.add(harness.core().engine());
        }
        break;
      }
    }
    return w;
}

constexpr GateEngine kCore = GateEngine::Core;
constexpr GateEngine kSmt = GateEngine::Smt;
constexpr GateEngine kSys = GateEngine::System;
constexpr GateEngine kPortProbe = GateEngine::PortProbe;
constexpr GateEngine kMshrProbe = GateEngine::MshrProbe;
constexpr SchemeKind kUnsafe = SchemeKind::Unsafe;
constexpr SchemeKind kFence = SchemeKind::FenceSpectre;
constexpr SchemeKind kDom = SchemeKind::DomNonTso;

const GateRow kGateRows[] = {
    // engine, memstall, scheme, ff ticks/cycle, visits/dispatched
    //                                            (issue, safety)
    {kCore, false, kUnsafe, 0.11, 2.2, 0},
    {kCore, true, kUnsafe, 0.039, 2.5, 0},
    {kSmt, false, kUnsafe, 0.45, 3.9, 0},
    {kSmt, true, kUnsafe, 0.13, 5.2, 0},
    {kSys, false, kUnsafe, 0.18, 2.3, 0},
    {kSys, true, kUnsafe, 0.063, 2.4, 0},
    {kCore, false, kFence, 0.12, 2.2, 0},
    {kCore, true, kFence, 0.049, 1.7, 0},
    {kSmt, false, kFence, 0.44, 1.8, 0},
    {kSmt, true, kFence, 0.11, 2.7, 0},
    {kSys, false, kFence, 0.18, 2.1, 0},
    {kSys, true, kFence, 0.077, 1.6, 0},
    // DoM's WaitSafe loads are re-tried every cycle while they wait
    // for their safe point, hence the issue visits under memory stall.
    {kCore, false, kDom, 0.12, 15, 0.011},
    {kCore, true, kDom, 0.65, 290, 0.00024},
    {kSmt, false, kDom, 0.54, 21, 0.013},
    {kSmt, true, kDom, 0.26, 140, 0.0054},
    {kSys, false, kDom, 0.23, 17, 0.011},
    {kSys, true, kDom, 0.83, 280, 0.00018},
    // Two probe trials, 2090 cycles. The port probe's parked VSQRTPD
    // ops retry every cycle the sibling holds the unit (each attempt
    // sets the contention flag), so it ticks most cycles; the MSHR
    // probe waits on fills and skips them.
    {kPortProbe, false, kUnsafe, 0.70, 14, 0},
    {kPortProbe, false, kFence, 0.69, 13, 0},
    {kPortProbe, false, kDom, 0.70, 15, 0},
    {kMshrProbe, false, kUnsafe, 0.094, 27, 0},
    {kMshrProbe, false, kFence, 0.088, 18, 0},
    {kMshrProbe, false, kDom, 0.088, 35, 0},
};

class WorkGate : public ::testing::TestWithParam<GateRow>
{};

TEST_P(WorkGate, TicksEqualCyclesUnlessFastForwarded)
{
    const GateRow &row = GetParam();
    const std::string what = gateName(row);
    const GateWork tick = runGate(row, false);
    EXPECT_EQ(tick.ticks, tick.cycles) << what;
    const GateWork ff = runGate(row, true);
    EXPECT_EQ(ff.cycles, tick.cycles) << what;
    EXPECT_LE(static_cast<double>(ff.ticks),
              row.ffTicksPerCycle * static_cast<double>(ff.cycles))
        << what << ": fast-forward ticked " << ff.ticks << " of "
        << ff.cycles << " cycles";
}

TEST_P(WorkGate, VisitsPerDispatchedStayBounded)
{
    const GateRow &row = GetParam();
    const std::string what = gateName(row);
    const GateWork w = runGate(row, false);
    const double dispatched = static_cast<double>(w.dispatched);
    ASSERT_GT(dispatched, 0.0) << what;
    EXPECT_LE(static_cast<double>(w.issueVisits),
              row.issuePerDispatched * dispatched)
        << what << ": " << w.issueVisits << " issue visits for "
        << w.dispatched << " dispatched";
    EXPECT_LE(static_cast<double>(w.safetyVisits),
              row.safetyPerDispatched * dispatched)
        << what << ": " << w.safetyVisits << " safety visits for "
        << w.dispatched << " dispatched";
}

INSTANTIATE_TEST_SUITE_P(
    SimulationPrograms, WorkGate, ::testing::ValuesIn(kGateRows),
    [](const auto &info) {
        std::string name = gateName(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace specint
