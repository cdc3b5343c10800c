/**
 * @file
 * Randomized differential fuzz for the stall fast-forward path.
 *
 * Each iteration derives an independent sub-seed (SplitMix64 over the
 * master seed), generates a random workload mix, and runs it twice —
 * once with the baseline per-cycle tick loop and once with
 * `CoreConfig::fastForward` — rotating through the topologies the
 * skip must compose with: a single Core, a two-thread SmtCore, and
 * 2-/4-core Systems with and without the shared-LLC contention knobs
 * (slice port busy time, finite shared MSHRs). Every cycle count,
 * per-thread stat and final architectural register must match
 * exactly; a mismatch prints the failing iteration's seed so it can
 * be replayed as a fixed-point regression.
 *
 * A second, NPEU-heavy mix (a quarter or more VSQRTPD ops) on one
 * and two threads covers the skip over waits on the held
 * non-pipelined unit. A third walks the SMT probe attacks (port and
 * MSHR channel, random gadget shapes, sharing policies and load
 * jitter), whose score is the held-by-sibling totals that a skip must
 * add in closed form.
 *
 * tests/test_golden_traces.cc pins the fixed-seed scenario points;
 * this file walks the configuration space around them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "attack/smt_probe.hh"
#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "sim/rng.hh"
#include "smt/smt_core.hh"
#include "spec/scheme.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint
{
namespace
{

#ifdef NDEBUG
constexpr unsigned kIterations = 500;
#else
constexpr unsigned kIterations = 50;
#endif

constexpr std::uint64_t kMasterSeed = 0x5eeded0ff0f0f0f0ULL;

/** SplitMix64 step: statistically independent per-iteration seeds. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Every safe point the safety and issue stages implement: Always
 *  (Unsafe), BranchesResolved (DomNonTso, InvisiSpecSpectre,
 *  SafeSpecWfb, AdvancedDefense, FenceSpectre), TSO (DomTso,
 *  FenceFuturistic) and RobHead (InvisiSpecFuturistic, MuonTrap,
 *  ConditionalSpec) — plus both mayIssue gates (the fence schemes),
 *  whose parked candidates the skip predicate must not wait on. */
constexpr SchemeKind kSchemes[] = {
    SchemeKind::Unsafe,         SchemeKind::DomNonTso,
    SchemeKind::InvisiSpecSpectre, SchemeKind::SafeSpecWfb,
    SchemeKind::MuonTrap,       SchemeKind::AdvancedDefense,
    SchemeKind::DomTso,         SchemeKind::InvisiSpecFuturistic,
    SchemeKind::ConditionalSpec, SchemeKind::FenceSpectre,
    SchemeKind::FenceFuturistic,
};

WorkloadSpec
randomSpec(Rng &rng, unsigned slot)
{
    WorkloadSpec spec;
    spec.name = "ff-fuzz";
    spec.instructions = static_cast<unsigned>(rng.range(150, 450));
    spec.loadFrac = 0.15 + 0.20 * rng.uniform();
    spec.storeFrac = 0.10 * rng.uniform();
    spec.branchFrac = 0.05 + 0.12 * rng.uniform();
    spec.mulFrac = 0.06 * rng.uniform();
    spec.sqrtFrac = 0.05 * rng.uniform();
    spec.chaseFrac = 0.30 * rng.uniform();
    spec.footprintLines = static_cast<unsigned>(rng.range(32, 512));
    spec.branchTakenProb = rng.uniform();
    // Disjoint per-slot regions so multi-thread/multi-core images
    // never alias.
    spec.dataBase = 0x01000000ULL * (slot + 1);
    spec.codeBase = 0x400000ULL + 0x100000ULL * slot;
    spec.seed = rng.next();
    return spec;
}

/** Everything one run reports: compared field-by-field. */
struct RunDigest
{
    Tick cycles = 0;
    bool finished = false;
    std::vector<ThreadStats> threads;
    std::vector<std::uint64_t> regHashes;
};

std::uint64_t
hashRegs(const PipelineEngine &eng, ThreadId tid)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned r = 0; r < kNumRegs; ++r) {
        const std::uint64_t v = eng.archReg(tid, r);
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

void
expectDigestsEqual(const RunDigest &ff, const RunDigest &base,
                   const std::string &what)
{
    EXPECT_EQ(ff.cycles, base.cycles) << what;
    EXPECT_EQ(ff.finished, base.finished) << what;
    ASSERT_EQ(ff.threads.size(), base.threads.size()) << what;
    for (std::size_t i = 0; i < base.threads.size(); ++i) {
        const ThreadStats &a = ff.threads[i];
        const ThreadStats &b = base.threads[i];
        const std::string at = what + " thread " + std::to_string(i);
        EXPECT_EQ(a.cycles, b.cycles) << at;
        EXPECT_EQ(a.retired, b.retired) << at;
        EXPECT_EQ(a.issued, b.issued) << at;
        EXPECT_EQ(a.squashes, b.squashes) << at;
        EXPECT_EQ(a.branches, b.branches) << at;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << at;
        EXPECT_EQ(a.loads, b.loads) << at;
        EXPECT_EQ(a.loadL1Hits, b.loadL1Hits) << at;
        EXPECT_EQ(a.finished, b.finished) << at;
        EXPECT_EQ(a.fetchGrants, b.fetchGrants) << at;
        EXPECT_EQ(a.portContendedCycles, b.portContendedCycles) << at;
        EXPECT_EQ(a.mshrContendedCycles, b.mshrContendedCycles) << at;
        EXPECT_EQ(a.rsBlockedCycles, b.rsBlockedCycles) << at;
        EXPECT_EQ(a.port0HeldByOtherCycles, b.port0HeldByOtherCycles)
            << at;
        EXPECT_EQ(a.mshrHeldByOtherCycles, b.mshrHeldByOtherCycles) << at;
        EXPECT_EQ(ff.regHashes[i], base.regHashes[i])
            << at << " architectural state diverged";
    }
}

/** One fuzz point: the randomized inputs for a single comparison. */
struct FuzzPoint
{
    std::uint64_t seed = 0;
    SchemeKind scheme = SchemeKind::Unsafe;
    unsigned topology = 0;   ///< 0=Core, 1=SmtCore 2T, 2/3=System 2/4c
    bool contended = false;  ///< shared-LLC port/MSHR limits on
    std::vector<GeneratedWorkload> workloads;
};

HierarchyConfig
fuzzHierConfig(const FuzzPoint &pt)
{
    HierarchyConfig hier = HierarchyConfig::small();
    if (pt.contended) {
        hier.llcPortBusy = 2;
        hier.llcMshrs = 4;
    }
    return hier;
}

RunDigest
runCore(const FuzzPoint &pt, bool fast_forward)
{
    CoreConfig cfg;
    cfg.fastForward = fast_forward;
    Hierarchy hier(fuzzHierConfig(pt));
    MainMemory mem;
    for (const auto &[a, v] : pt.workloads[0].memInit)
        mem.write(a, v);
    Core core(cfg, 0, hier, mem);
    core.setScheme(makeScheme(pt.scheme));
    const CoreStats s = core.run(pt.workloads[0].prog);

    RunDigest d;
    d.cycles = s.cycles;
    d.finished = s.finished;
    ThreadStats st;
    st.cycles = s.cycles;
    st.retired = s.retired;
    st.issued = s.issued;
    st.squashes = s.squashes;
    st.branches = s.branches;
    st.mispredicts = s.mispredicts;
    st.loads = s.loads;
    st.loadL1Hits = s.loadL1Hits;
    st.finished = s.finished;
    d.threads.push_back(st);
    d.regHashes.push_back(hashRegs(core.engine(), 0));
    return d;
}

RunDigest
runSmt(const FuzzPoint &pt, bool fast_forward)
{
    CoreConfig cfg;
    cfg.fastForward = fast_forward;
    Hierarchy hier(fuzzHierConfig(pt));
    MainMemory mem;
    for (const auto &wl : pt.workloads)
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
    SmtConfig smt;
    smt.numThreads = 2;
    SmtCore core(cfg, smt, 0, hier, mem);
    for (unsigned t = 0; t < 2; ++t)
        core.setScheme(t, makeScheme(pt.scheme));
    const SmtRunResult run =
        core.run({&pt.workloads[0].prog, &pt.workloads[1].prog});

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    d.threads = run.threads;
    for (unsigned t = 0; t < 2; ++t)
        d.regHashes.push_back(hashRegs(core.engine(), t));
    return d;
}

RunDigest
runSystem(const FuzzPoint &pt, unsigned num_cores, bool fast_forward)
{
    SystemConfig cfg;
    cfg.numCores = num_cores;
    cfg.core.fastForward = fast_forward;
    cfg.hier = fuzzHierConfig(pt);
    System sys(cfg);
    std::vector<std::vector<const Program *>> progs;
    for (unsigned c = 0; c < num_cores; ++c) {
        for (const auto &[a, v] : pt.workloads[c].memInit)
            sys.memory().write(a, v);
        progs.push_back({&pt.workloads[c].prog});
    }
    const SystemRunResult run = sys.run(progs);

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    for (unsigned c = 0; c < num_cores; ++c) {
        d.threads.push_back(run.cores[c].threads[0]);
        d.regHashes.push_back(hashRegs(sys.core(c), 0));
    }
    return d;
}

RunDigest
runPoint(const FuzzPoint &pt, bool fast_forward)
{
    switch (pt.topology) {
      case 0: return runCore(pt, fast_forward);
      case 1: return runSmt(pt, fast_forward);
      case 2: return runSystem(pt, 2, fast_forward);
      default: return runSystem(pt, 4, fast_forward);
    }
}

/** Run @p pt (iteration @p it) with and without fast-forward and
 *  compare. @return false on the first divergence, so the caller
 *  stops at one replayable counterexample instead of cascading. */
bool
fastForwardMatches(const FuzzPoint &pt, unsigned it)
{
    char seed[17];
    std::snprintf(seed, sizeof(seed), "%016llx",
                  static_cast<unsigned long long>(pt.seed));
    const std::string what =
        "iteration " + std::to_string(it) + " seed 0x" + seed +
        " scheme " + schemeName(pt.scheme) + " topology " +
        std::to_string(pt.topology) + (pt.contended ? " contended" : "");
    SCOPED_TRACE(what);

    const RunDigest base = runPoint(pt, false);
    const RunDigest ff = runPoint(pt, true);
    expectDigestsEqual(ff, base, what);
    if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "first divergence at " << what;
        return false;
    }
    return true;
}

TEST(FastForwardFuzzTest, RandomProgramsMatchBaselineTickLoop)
{
    std::uint64_t state = kMasterSeed;
    for (unsigned it = 0; it < kIterations; ++it) {
        FuzzPoint pt;
        pt.seed = splitMix64(state);
        Rng rng(pt.seed);
        pt.scheme =
            kSchemes[rng.below(sizeof(kSchemes) / sizeof(kSchemes[0]))];
        pt.topology = it % 4;
        pt.contended = (it % 8) >= 4;
        const unsigned slots =
            pt.topology <= 1 ? 2u : (pt.topology == 2 ? 2u : 4u);
        for (unsigned s = 0; s < slots; ++s)
            pt.workloads.push_back(generateWorkload(randomSpec(rng, s)));
        if (!fastForwardMatches(pt, it))
            return;
    }
}

TEST(FastForwardFuzzTest, NpeuHeavyProgramsMatchBaselineTickLoop)
{
    // A quarter or more of the instructions are independent VSQRTPD
    // ops, so several are often due at once while one holds the
    // non-pipelined unit: the single-thread skip must step over those
    // waits exactly, and the two-thread run must not skip them at all
    // (the sibling's denials are a per-cycle observable). Schemes
    // rotate in order so each meets both topologies, the advanced
    // defense's unit preemption included.
    constexpr unsigned kSchemeCount = sizeof(kSchemes) / sizeof(kSchemes[0]);
    std::uint64_t state = kMasterSeed ^ 0x57a7ULL;
    for (unsigned it = 0; it < kIterations / 5; ++it) {
        FuzzPoint pt;
        pt.seed = splitMix64(state);
        Rng rng(pt.seed);
        pt.scheme = kSchemes[it % kSchemeCount];
        pt.topology = it % 2; // Core, or a two-thread SmtCore
        pt.contended = (it % 4) >= 2;
        for (unsigned s = 0; s < 2; ++s) {
            WorkloadSpec spec = randomSpec(rng, s);
            spec.sqrtFrac = 0.25 + 0.15 * rng.uniform();
            pt.workloads.push_back(generateWorkload(spec));
        }
        if (!fastForwardMatches(pt, it))
            return;
    }
}

/** One SMT probe trial (thread 0 victim, thread 1 probe). */
struct ProbePoint
{
    SmtAttackParams params;
    SchemeKind scheme = SchemeKind::Unsafe;
    SmtConfig smt;
    unsigned issueWidth = 8;
    unsigned secret = 0;
    std::uint64_t noiseSeed = 0;
};

RunDigest
runProbe(const ProbePoint &pt, bool fast_forward,
         std::uint64_t &score)
{
    CoreConfig cfg;
    cfg.fastForward = fast_forward;
    cfg.issueWidth = pt.issueWidth;
    SmtProbeHarness harness(buildSmtAttack(pt.params), pt.scheme, cfg,
                            pt.smt);
    NoiseModel noise(NoiseConfig::calibrated(), pt.noiseSeed);
    harness.core().setNoise(&noise);
    harness.prepare(pt.secret, &noise);
    const SmtTrialOutcome out = harness.runTrial();
    score = out.score;

    RunDigest d;
    d.cycles = out.cycles;
    d.finished = out.finished;
    for (ThreadId t = 0; t < 2; ++t) {
        d.threads.push_back(harness.core().engine().thread(t).stats);
        d.regHashes.push_back(hashRegs(harness.core().engine(), t));
    }
    return d;
}

TEST(FastForwardFuzzTest, SmtProbeAttacksMatchBaselineTickLoop)
{
    // The probe's score is the running held-by-sibling total, so the
    // skip must integrate every skipped span exactly — including MSHR
    // entries that squashed wrong-path loads left live.
    constexpr unsigned kSchemeCount = sizeof(kSchemes) / sizeof(kSchemes[0]);
    constexpr SharingPolicy kWindows[] = {SharingPolicy::Shared,
                                          SharingPolicy::Partitioned};
    constexpr FetchPolicy kFetch[] = {FetchPolicy::ICount,
                                      FetchPolicy::RoundRobin};
    std::uint64_t state = kMasterSeed ^ 0x5307ULL;
    for (unsigned it = 0; it < kIterations; ++it) {
        ProbePoint pt;
        const std::uint64_t seed = splitMix64(state);
        Rng rng(seed);
        pt.params.kind =
            it % 2 == 0 ? SmtChannelKind::Port : SmtChannelKind::Mshr;
        pt.params.predicateDepth = static_cast<unsigned>(rng.range(1, 4));
        pt.params.gadgetLen = static_cast<unsigned>(rng.range(1, 12));
        pt.params.mshrLoads = static_cast<unsigned>(rng.range(2, 12));
        pt.params.probeOps = static_cast<unsigned>(rng.range(8, 64));
        pt.scheme = kSchemes[(it / 2) % kSchemeCount];
        pt.smt.robPolicy = pt.smt.rsPolicy = pt.smt.lqPolicy =
            pt.smt.sqPolicy = kWindows[rng.below(2)];
        pt.smt.fetchPolicy = kFetch[rng.below(2)];
        pt.issueWidth = rng.below(2) == 0 ? 1u : 8u;
        pt.secret = static_cast<unsigned>(rng.below(2));
        pt.noiseSeed = rng.next();

        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(seed));
        const std::string what =
            "iteration " + std::to_string(it) + " seed 0x" + hex + " " +
            smtChannelKindName(pt.params.kind) + " probe, scheme " +
            schemeName(pt.scheme) + ", " + smtConfigName(pt.smt) +
            ", width " + std::to_string(pt.issueWidth) + ", secret " +
            std::to_string(pt.secret);
        SCOPED_TRACE(what);
        std::uint64_t base_score = 0, ff_score = 0;
        const RunDigest base = runProbe(pt, false, base_score);
        const RunDigest ff = runProbe(pt, true, ff_score);
        EXPECT_EQ(ff_score, base_score) << what;
        expectDigestsEqual(ff, base, what);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first divergence at " << what;
            return;
        }
    }
}

} // namespace
} // namespace specint
