/**
 * @file
 * Differential golden-trace harness.
 *
 * The one place where the simulator's reported numbers are pinned:
 * every registered scenario point runs at fixed seeds under each
 * engine variant — {baseline tick loop, stall fast-forward on} — and
 * every variant must reproduce the golden
 * cycle counts, final stats, architectural register file and channel
 * verdicts exactly. The golden rows were captured from the
 * pre-unification Core pipeline (commit affb3f5) and promoted here
 * from test_smt.cc; any divergence — from the arena-backed ROB, the
 * fast-forward skip logic or a future rewrite — fails loudly with the
 * variant name. The SMT contention rows pin the
 * two-thread channel down to each thread's per-cycle contention
 * samples, and check that a skipping run reports the same
 * held-by-sibling totals as the recorded stream.
 *
 * tests/test_fastforward_fuzz.cc complements this with randomized
 * differential coverage; this file is the fixed-seed anchor.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "attack/channel.hh"
#include "attack/smt_probe.hh"
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

WorkloadSpec
fuzzSpec(std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = "smt-fuzz";
    spec.instructions = 1000;
    spec.loadFrac = 0.30;
    spec.storeFrac = 0.08;
    spec.branchFrac = 0.15;
    spec.mulFrac = 0.05;
    spec.sqrtFrac = 0.03;
    spec.chaseFrac = 0.25;
    spec.footprintLines = 512;
    spec.branchTakenProb = 0.35;
    spec.seed = seed;
    return spec;
}

/** The engine variants every golden point must agree across. */
struct EngineVariant
{
    const char *name;
    bool fastForward;
};

constexpr EngineVariant kVariants[] = {
    {"baseline", false},
    {"fastforward", true},
};

CoreConfig
variantCoreConfig(const EngineVariant &v)
{
    CoreConfig cfg;
    cfg.fastForward = v.fastForward;
    return cfg;
}

// ---------------------------------------------------------------------
// Golden rows (captured from the pre-unification pipeline)
// ---------------------------------------------------------------------

/**
 * One golden data point, captured from the independent pre-refactor
 * Core pipeline (commit affb3f5, before Core/SmtCore were folded into
 * the unified engine) running the fuzz workloads above. Any behaviour
 * change in the unified engine — via the Core façade or SmtCore with
 * one thread, under any engine variant — shows up as a
 * cycle/stat/register divergence here.
 */
struct GoldenTrace
{
    std::uint64_t seed;
    SchemeKind kind;
    Tick cycles;
    std::uint64_t retired, issued, squashes, branches, mispredicts;
    std::uint64_t loads, loadL1Hits;
    /** FNV-1a over the final architectural register file. */
    std::uint64_t regHash;
};

constexpr GoldenTrace kGoldenTraces[] = {
    {11u, SchemeKind::Unsafe, 13628, 882, 1383, 62, 122, 62, 399, 136, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::DomNonTso, 22072, 882, 2858, 66, 152, 66, 1047, 67, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::InvisiSpecSpectre, 14322, 882, 1745, 65, 132, 65, 492, 32, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::SafeSpecWfb, 25322, 882, 1172, 61, 121, 61, 347, 23, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::MuonTrap, 25334, 882, 1172, 61, 121, 61, 347, 11, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::AdvancedDefense, 22079, 882, 2393, 64, 141, 64, 901, 59, 0x6ad714dbbfc53ca0ULL},
    {37u, SchemeKind::Unsafe, 14905, 888, 1417, 60, 103, 60, 420, 153, 0xea29e7580253d790ULL},
    {37u, SchemeKind::DomNonTso, 20712, 888, 3011, 61, 124, 61, 1029, 68, 0xea29e7580253d790ULL},
    {37u, SchemeKind::InvisiSpecSpectre, 16973, 888, 1955, 62, 110, 62, 581, 32, 0xea29e7580253d790ULL},
    {37u, SchemeKind::SafeSpecWfb, 25941, 888, 1207, 61, 104, 61, 352, 22, 0xea29e7580253d790ULL},
    {37u, SchemeKind::MuonTrap, 25877, 888, 1199, 61, 104, 61, 350, 6, 0xea29e7580253d790ULL},
    {37u, SchemeKind::AdvancedDefense, 20672, 888, 2670, 61, 116, 61, 925, 61, 0xea29e7580253d790ULL},
    {71u, SchemeKind::Unsafe, 12321, 881, 1348, 59, 115, 59, 319, 109, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::DomNonTso, 19104, 881, 3058, 60, 142, 60, 768, 72, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::InvisiSpecSpectre, 15653, 881, 1600, 62, 131, 62, 383, 32, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::SafeSpecWfb, 25902, 881, 1180, 59, 116, 59, 270, 21, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::MuonTrap, 25902, 881, 1180, 59, 116, 59, 270, 15, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::AdvancedDefense, 19105, 881, 2740, 60, 143, 60, 730, 70, 0x642497def1f7cc6aULL},
    // DomTso (the TSO safe point) and InvisiSpecFuturistic /
    // ConditionalSpec (the ROB-head safe point), captured from the
    // unified engine while its safety stage still rewalked the whole
    // ROB every cycle: the reference the event-driven safety stage
    // (pending-visibility list + shadow frontiers) must reproduce.
    {11u, SchemeKind::DomTso, 60615, 882, 3196, 69, 164, 69, 1162, 74, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::InvisiSpecFuturistic, 14322, 882, 1745, 65, 132, 65, 492, 32, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::ConditionalSpec, 61040, 882, 3195, 69, 164, 69, 1162, 74, 0x6ad714dbbfc53ca0ULL},
    {37u, SchemeKind::DomTso, 60720, 888, 3590, 62, 152, 62, 1234, 84, 0xea29e7580253d790ULL},
    {37u, SchemeKind::InvisiSpecFuturistic, 17015, 888, 1943, 62, 110, 62, 586, 31, 0xea29e7580253d790ULL},
    {37u, SchemeKind::ConditionalSpec, 61099, 888, 3611, 62, 153, 62, 1239, 85, 0xea29e7580253d790ULL},
    {71u, SchemeKind::DomTso, 49125, 881, 3680, 61, 149, 61, 914, 77, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::InvisiSpecFuturistic, 15653, 881, 1592, 62, 129, 62, 383, 28, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::ConditionalSpec, 49450, 881, 3688, 61, 149, 61, 917, 77, 0x642497def1f7cc6aULL},
    // FenceSpectre / FenceFuturistic (the mayIssue gate), captured from
    // the unified engine while its issue stage still re-evaluated the
    // gate for every ready candidate on every cycle: the reference the
    // gate-parked issue stage must reproduce.
    {11u, SchemeKind::FenceSpectre, 22177, 882, 882, 59, 116, 59, 277, 15, 0x6ad714dbbfc53ca0ULL},
    {37u, SchemeKind::FenceSpectre, 20762, 888, 888, 57, 97, 57, 284, 20, 0xea29e7580253d790ULL},
    {71u, SchemeKind::FenceSpectre, 19184, 881, 881, 58, 109, 58, 223, 16, 0x642497def1f7cc6aULL},
    {11u, SchemeKind::FenceFuturistic, 60937, 882, 882, 59, 116, 59, 277, 16, 0x6ad714dbbfc53ca0ULL},
    {37u, SchemeKind::FenceFuturistic, 60875, 888, 888, 57, 97, 57, 284, 20, 0xea29e7580253d790ULL},
    {71u, SchemeKind::FenceFuturistic, 49364, 881, 881, 58, 109, 58, 223, 16, 0x642497def1f7cc6aULL},
};

/** Fold the 8 bytes of @p v into the FNV-1a hash @p h. */
void
fnv1aMix(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
    }
}

std::uint64_t
fnv1aRegs(const std::function<std::uint64_t(RegId)> &reg)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned r = 0; r < kNumRegs; ++r)
        fnv1aMix(h, reg(static_cast<RegId>(r)));
    return h;
}

void
expectMatchesGolden(const GoldenTrace &g, const ThreadStats &st,
                    Tick cycles, std::uint64_t reg_hash,
                    const char *variant)
{
    EXPECT_EQ(cycles, g.cycles) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.retired, g.retired)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.issued, g.issued) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.squashes, g.squashes)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.branches, g.branches)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.mispredicts, g.mispredicts)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.loads, g.loads) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.loadL1Hits, g.loadL1Hits)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(reg_hash, g.regHash)
        << schemeName(g.kind) << " " << variant
        << " architectural state diverged";
}

class GoldenTraceTest : public ::testing::TestWithParam<GoldenTrace>
{};

TEST_P(GoldenTraceTest, CoreFacadeMatchesGoldenUnderEveryVariant)
{
    const GoldenTrace &g = GetParam();
    const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));

    for (const EngineVariant &v : kVariants) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v2] : wl.memInit)
            mem.write(a, v2);
        Core core(variantCoreConfig(v), 0, hier, mem);
        core.setScheme(makeScheme(g.kind));
        const CoreStats s = core.run(wl.prog);

        ASSERT_TRUE(s.finished) << schemeName(g.kind) << " " << v.name;
        ThreadStats st;
        st.retired = s.retired;
        st.issued = s.issued;
        st.squashes = s.squashes;
        st.branches = s.branches;
        st.mispredicts = s.mispredicts;
        st.loads = s.loads;
        st.loadL1Hits = s.loadL1Hits;
        expectMatchesGolden(
            g, st, s.cycles,
            fnv1aRegs([&](RegId r) { return core.archReg(r); }), v.name);
    }
}

TEST_P(GoldenTraceTest, SingleThreadSmtCoreMatchesGoldenUnderEveryVariant)
{
    const GoldenTrace &g = GetParam();
    const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));

    for (const EngineVariant &v : kVariants) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v2] : wl.memInit)
            mem.write(a, v2);
        SmtCore smt(variantCoreConfig(v), SmtConfig::singleThread(), 0,
                    hier, mem);
        smt.setScheme(0, makeScheme(g.kind));
        const SmtRunResult run = smt.run({&wl.prog});

        ASSERT_TRUE(run.finished) << schemeName(g.kind) << " " << v.name;
        expectMatchesGolden(
            g, run.threads[0], run.cycles,
            fnv1aRegs([&](RegId r) { return smt.archReg(0, r); }),
            v.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchemes, GoldenTraceTest, ::testing::ValuesIn(kGoldenTraces),
    [](const auto &info) {
        return "seed" + std::to_string(info.param.seed) + "_" +
               std::to_string(static_cast<int>(info.param.kind));
    });

// ---------------------------------------------------------------------
// Multi-core differential: fast-forward composes with the System's
// lockstep round-robin and the shared-level contention timers
// ---------------------------------------------------------------------

void
expectThreadStatsEqual(const ThreadStats &a, const ThreadStats &b,
                       const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.retired, b.retired) << what;
    EXPECT_EQ(a.issued, b.issued) << what;
    EXPECT_EQ(a.squashes, b.squashes) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.loadL1Hits, b.loadL1Hits) << what;
    EXPECT_EQ(a.finished, b.finished) << what;
    EXPECT_EQ(a.fetchGrants, b.fetchGrants) << what;
    EXPECT_EQ(a.portContendedCycles, b.portContendedCycles) << what;
    EXPECT_EQ(a.mshrContendedCycles, b.mshrContendedCycles) << what;
    EXPECT_EQ(a.rsBlockedCycles, b.rsBlockedCycles) << what;
}

WorkloadSpec
systemSpec(std::uint64_t seed, Addr data_base, Addr code_base)
{
    WorkloadSpec spec = fuzzSpec(seed);
    spec.instructions = 600;
    spec.footprintLines = 128;
    spec.dataBase = data_base;
    spec.codeBase = code_base;
    return spec;
}

// ---------------------------------------------------------------------
// Trial-reuse differential: a fixture reset with resetForRun() must be
// indistinguishable from a freshly constructed one. The sweep runner
// pools fixtures per worker thread (sim/experiment/fixture_pool.hh);
// these tests pin the reset contract against the same golden rows the
// fresh-construction tests use.
// ---------------------------------------------------------------------

TEST(ReusedFixtureGoldenTest, ReusedCoreMatchesGoldenUnderEveryVariant)
{
    for (const EngineVariant &v : kVariants) {
        // One long-lived substrate per variant, reused across all 33
        // golden points in sequence — every row must still match the
        // numbers a fresh Core produces.
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core core(variantCoreConfig(v), 0, hier, mem);
        for (const GoldenTrace &g : kGoldenTraces) {
            core.resetForRun();
            hier.reset();
            mem.clear();
            const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));
            for (const auto &[a, val] : wl.memInit)
                mem.write(a, val);
            core.setScheme(makeScheme(g.kind));
            const CoreStats s = core.run(wl.prog);
            ASSERT_TRUE(s.finished)
                << schemeName(g.kind) << " reused " << v.name;
            ThreadStats st;
            st.retired = s.retired;
            st.issued = s.issued;
            st.squashes = s.squashes;
            st.branches = s.branches;
            st.mispredicts = s.mispredicts;
            st.loads = s.loads;
            st.loadL1Hits = s.loadL1Hits;
            expectMatchesGolden(
                g, st, s.cycles,
                fnv1aRegs([&](RegId r) { return core.archReg(r); }),
                (std::string("reused ") + v.name).c_str());
        }
    }
}

TEST(ReusedFixtureGoldenTest, SystemResetForRunErasesAllRunHistory)
{
    const GeneratedWorkload wl0 =
        generateWorkload(systemSpec(5, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 =
        generateWorkload(systemSpec(8, 0x02000000, 0x500000));

    SystemConfig cfg;
    cfg.numCores = 2;

    auto load = [](System &sys, const GeneratedWorkload &wl) {
        for (const auto &[a, val] : wl.memInit)
            sys.memory().write(a, val);
    };

    // Cold reference: a fresh System running the target workloads.
    System fresh(cfg);
    load(fresh, wl0);
    load(fresh, wl1);
    const SystemRunResult want = fresh.run({{&wl0.prog}, {&wl1.prog}});
    ASSERT_TRUE(want.finished);

    // Dirty a second System with an unrelated workload pair (different
    // seeds, footprints and address bases), then reset and rerun the
    // target pair: predictor state, cache contents, arena/slab
    // occupancy and memory must all have been restored.
    const GeneratedWorkload other0 =
        generateWorkload(systemSpec(13, 0x03000000, 0x600000));
    const GeneratedWorkload other1 =
        generateWorkload(systemSpec(21, 0x04000000, 0x700000));
    System reused(cfg);
    load(reused, other0);
    load(reused, other1);
    ASSERT_TRUE(reused.run({{&other0.prog}, {&other1.prog}}).finished);

    reused.resetForRun();
    load(reused, wl0);
    load(reused, wl1);
    const SystemRunResult got = reused.run({{&wl0.prog}, {&wl1.prog}});
    ASSERT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    for (unsigned c = 0; c < 2; ++c) {
        expectThreadStatsEqual(got.cores[c].threads[0],
                               want.cores[c].threads[0],
                               "reused core " + std::to_string(c));
        EXPECT_EQ(got.cores[c].cycles, want.cores[c].cycles);
    }
}

TEST(SystemGoldenTest, FastForwardMatchesBaselineWithContentionModel)
{
    const GeneratedWorkload wl0 =
        generateWorkload(systemSpec(5, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 =
        generateWorkload(systemSpec(8, 0x02000000, 0x500000));

    auto run_once = [&](const EngineVariant &v, unsigned llc_port_busy,
                        unsigned llc_mshrs) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.core = variantCoreConfig(v);
        cfg.hier = HierarchyConfig::small();
        cfg.hier.llcPortBusy = llc_port_busy;
        cfg.hier.llcMshrs = llc_mshrs;
        System sys(cfg);
        for (const auto &[a, val] : wl0.memInit)
            sys.memory().write(a, val);
        for (const auto &[a, val] : wl1.memInit)
            sys.memory().write(a, val);
        return sys.run({{&wl0.prog}, {&wl1.prog}});
    };

    // Uncontended and contended shared level: the skip must respect
    // the slice-port and shared-MSHR busy timers in both regimes.
    for (const auto &[port_busy, mshrs] :
         {std::pair<unsigned, unsigned>{0u, 0u}, {2u, 4u}}) {
        const SystemRunResult base =
            run_once(kVariants[0], port_busy, mshrs);
        ASSERT_TRUE(base.finished);
        for (const EngineVariant &v : kVariants) {
            const SystemRunResult got = run_once(v, port_busy, mshrs);
            const std::string what =
                std::string(v.name) + " llcPortBusy=" +
                std::to_string(port_busy);
            ASSERT_TRUE(got.finished) << what;
            EXPECT_EQ(got.cycles, base.cycles) << what;
            for (unsigned c = 0; c < 2; ++c) {
                expectThreadStatsEqual(
                    got.cores[c].threads[0], base.cores[c].threads[0],
                    what + " core " + std::to_string(c));
                EXPECT_EQ(got.cores[c].cycles, base.cores[c].cycles)
                    << what;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Channel verdicts: the attack results are identical with fast-forward
// enabled (the engine falls back to ticking whenever a per-cycle agent
// is attached, and skips only provably dead cycles otherwise)
// ---------------------------------------------------------------------

TEST(ChannelGoldenTest, DCacheChannelVerdictUnchangedByFastForward)
{
    const auto bits = randomBits(12, 7);
    auto run_once = [&](bool ff) {
        ChannelConfig cfg;
        cfg.scheme = SchemeKind::DomNonTso;
        cfg.trialsPerBit = 1;
        cfg.noise = NoiseConfig::none();
        cfg.core.fastForward = ff;
        return runDCacheChannel(bits, cfg);
    };
    const ChannelResult base = run_once(false);
    const ChannelResult ff = run_once(true);
    EXPECT_EQ(ff.bitsSent, base.bitsSent);
    EXPECT_EQ(ff.bitErrors, base.bitErrors);
    EXPECT_EQ(ff.discardedTrials, base.discardedTrials);
    EXPECT_EQ(ff.totalCycles, base.totalCycles);
}

TEST(ChannelGoldenTest, ICacheChannelVerdictUnchangedByFastForward)
{
    const auto bits = randomBits(12, 9);
    auto run_once = [&](bool ff) {
        ChannelConfig cfg;
        cfg.scheme = SchemeKind::InvisiSpecSpectre;
        cfg.trialsPerBit = 1;
        cfg.noise = NoiseConfig::none();
        cfg.core.fastForward = ff;
        return runICacheChannel(bits, cfg);
    };
    const ChannelResult base = run_once(false);
    const ChannelResult ff = run_once(true);
    EXPECT_EQ(ff.bitsSent, base.bitsSent);
    EXPECT_EQ(ff.bitErrors, base.bitErrors);
    EXPECT_EQ(ff.discardedTrials, base.discardedTrials);
    EXPECT_EQ(ff.totalCycles, base.totalCycles);
}

TEST(ChannelGoldenTest, SmtChannelVerdictUnchangedByFastForward)
{
    const auto bits = randomBits(8, 123);
    auto run_once = [&](bool ff) {
        SmtChannelConfig cfg;
        cfg.scheme = SchemeKind::InvisiSpecSpectre;
        cfg.attack.kind = SmtChannelKind::Port;
        cfg.trialsPerBit = 1;
        cfg.core.fastForward = ff;
        return runSmtContentionChannel(bits, cfg);
    };
    const SmtChannelResult base = run_once(false);
    const SmtChannelResult ff = run_once(true);
    EXPECT_EQ(ff.calibration.usable, base.calibration.usable);
    EXPECT_EQ(ff.channel.bitsSent, base.channel.bitsSent);
    EXPECT_EQ(ff.channel.bitErrors, base.channel.bitErrors);
    EXPECT_EQ(ff.channel.totalCycles, base.channel.totalCycles);
}

// ---------------------------------------------------------------------
// SMT contention stream: the per-cycle port/MSHR denial flags of both
// threads, pinned per channel kind, victim scheme and sharing policy
// ---------------------------------------------------------------------

/** Window sharing and fetch policy of one SMT golden point (the three
 *  points of the ablation_smt grid). */
struct SmtPolicyPoint
{
    const char *name;
    SharingPolicy window;
    FetchPolicy fetch;
};

constexpr SmtPolicyPoint kSmtPolicies[] = {
    {"shared+icount", SharingPolicy::Shared, FetchPolicy::ICount},
    {"shared+rr", SharingPolicy::Shared, FetchPolicy::RoundRobin},
    {"partitioned+icount", SharingPolicy::Partitioned,
     FetchPolicy::ICount},
};

/**
 * One SMT contention golden point. The channel fields come from
 * runSmtContentionChannel over 8 fixed bits with calibrated noise;
 * the per-thread fields from one load-jittered secret=1 trial of the
 * same attack, recorded with SmtConfig::recordContention so that
 * every per-cycle ContentionSample of both threads is folded into an
 * FNV-1a hash. A narrow issue width makes the width fill while ops
 * wait on the held port, so whether a waiting op was reached in age
 * order before the width filled is pinned too. Captured from the
 * engine whose issue stage still retried every ready candidate every
 * cycle, so any change to when a thread is denied a port or an MSHR —
 * not only to the decoded scores — fails here. The held-by-sibling
 * totals (the probe's score inputs) were summed from the same sample
 * stream before the engine kept them as running totals.
 */
struct SmtGolden
{
    SmtChannelKind kind;
    SchemeKind scheme;
    unsigned policy; ///< index into kSmtPolicies
    unsigned issueWidth;
    std::uint64_t score0, score1;
    Tick totalCycles;
    std::uint64_t bitErrors;
    Tick trialCycles;
    std::uint64_t portContended[2], mshrContended[2];
    std::uint64_t sampleHash[2];
    /** Cycles port 0 was held by the sibling, and MSHR entry-cycles
     *  held by the sibling, per thread. */
    std::uint64_t port0HeldByOther[2], mshrHeldByOther[2];
};

std::uint64_t
fnv1aSamples(const std::vector<ContentionSample> &samples)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const ContentionSample &s : samples) {
        fnv1aMix(h, s.cycle);
        fnv1aMix(h, s.portsHeldByOther);
        fnv1aMix(h, s.port0HeldByOther);
        fnv1aMix(h, s.mshrHeldByOther);
        fnv1aMix(h, s.portContended);
        fnv1aMix(h, s.mshrContended);
    }
    return h;
}

SmtConfig
smtGoldenConfig(const SmtPolicyPoint &p)
{
    SmtConfig smt;
    smt.robPolicy = smt.rsPolicy = smt.lqPolicy = smt.sqPolicy = p.window;
    smt.fetchPolicy = p.fetch;
    return smt;
}

/** One load-jittered secret=1 probe trial's per-thread results. */
struct SmtTrialDigest
{
    Tick cycles = 0;
    std::uint64_t portContended[2] = {0, 0}, mshrContended[2] = {0, 0};
    std::uint64_t port0HeldByOther[2] = {0, 0};
    std::uint64_t mshrHeldByOther[2] = {0, 0};
    std::uint64_t sampleHash[2] = {0, 0};
    /** The held-by-sibling totals integrated from the sample stream
     *  (recorded trials only). */
    std::uint64_t streamPort0[2] = {0, 0}, streamMshr[2] = {0, 0};
};

SmtTrialDigest
runSmtGoldenTrial(SmtChannelKind kind, SchemeKind scheme,
                  const CoreConfig &core, SmtConfig smt)
{
    SmtAttackParams params;
    params.kind = kind;
    SmtProbeHarness harness(buildSmtAttack(params), scheme, core, smt);
    // Load jitter without mis-training failures, so the gadget runs
    // and its resource use overlaps the probe's.
    NoiseConfig jitter = NoiseConfig::calibrated();
    jitter.mistrainFailProb = 0.0;
    NoiseModel noise(jitter, 77);
    harness.core().setNoise(&noise);
    harness.prepare(1, &noise);
    SmtTrialDigest d;
    d.cycles = harness.runTrial().cycles;
    for (ThreadId t = 0; t < 2; ++t) {
        const ThreadStats &st = harness.core().engine().thread(t).stats;
        d.portContended[t] = st.portContendedCycles;
        d.mshrContended[t] = st.mshrContendedCycles;
        d.port0HeldByOther[t] = st.port0HeldByOtherCycles;
        d.mshrHeldByOther[t] = st.mshrHeldByOtherCycles;
        const auto &samples = harness.core().contention(t);
        d.sampleHash[t] = fnv1aSamples(samples);
        for (const ContentionSample &s : samples) {
            d.streamPort0[t] += s.port0HeldByOther ? 1 : 0;
            d.streamMshr[t] += s.mshrHeldByOther;
        }
    }
    return d;
}

/** Measure one golden point (kind, scheme, policy and issue width
 *  are the inputs) from the recorded trial. */
SmtGolden
measureSmtGolden(SmtChannelKind kind, SchemeKind scheme, unsigned policy,
                 unsigned issue_width)
{
    SmtGolden g{};
    g.kind = kind;
    g.scheme = scheme;
    g.policy = policy;
    g.issueWidth = issue_width;
    const SmtConfig smt = smtGoldenConfig(kSmtPolicies[policy]);
    CoreConfig core;
    core.issueWidth = issue_width;

    SmtChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = kind;
    cfg.smt = smt;
    cfg.trialsPerBit = 1;
    cfg.noise = NoiseConfig::calibrated();
    cfg.seed = 2024;
    cfg.core = core;
    const SmtChannelResult res =
        runSmtContentionChannel(randomBits(8, 123), cfg);
    g.score0 = res.calibration.score0;
    g.score1 = res.calibration.score1;
    g.totalCycles = res.channel.totalCycles;
    g.bitErrors = res.channel.bitErrors;

    SmtConfig recorded = smt;
    recorded.recordContention = true;
    const SmtTrialDigest d =
        runSmtGoldenTrial(kind, scheme, core, recorded);
    g.trialCycles = d.cycles;
    for (ThreadId t = 0; t < 2; ++t) {
        g.portContended[t] = d.portContended[t];
        g.mshrContended[t] = d.mshrContended[t];
        g.sampleHash[t] = d.sampleHash[t];
        g.port0HeldByOther[t] = d.port0HeldByOther[t];
        g.mshrHeldByOther[t] = d.mshrHeldByOther[t];
        EXPECT_EQ(d.port0HeldByOther[t], d.streamPort0[t])
            << "thread " << t << ": running port-0 total != stream sum";
        EXPECT_EQ(d.mshrHeldByOther[t], d.streamMshr[t])
            << "thread " << t << ": running MSHR total != stream sum";
    }
    return g;
}

constexpr SmtGolden kSmtGoldens[] = {
    {SmtChannelKind::Port, SchemeKind::Unsafe, 0, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::Unsafe, 1, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::Unsafe, 2, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::DomNonTso, 0, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::DomNonTso, 1, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::DomNonTso, 2, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::AdvancedDefense, 0, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::AdvancedDefense, 1, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::AdvancedDefense, 2, 8, 0, 30, 21905, 0, 1045, {73, 30}, {0, 0}, {0x5fcedcfdfaec75e6ULL, 0x015c55ce8b37f063ULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::FenceSpectre, 0, 8, 0, 0, 21800, 3, 1045, {0, 0}, {0, 0}, {0x7dc21ec0c5c742a3ULL, 0x4f2178b3e7942e43ULL}, {720, 0}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::FenceSpectre, 1, 8, 0, 0, 21800, 3, 1045, {0, 0}, {0, 0}, {0x7dc21ec0c5c742a3ULL, 0x4f2178b3e7942e43ULL}, {720, 0}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::FenceSpectre, 2, 8, 0, 0, 21800, 3, 1045, {0, 0}, {0, 0}, {0x7dc21ec0c5c742a3ULL, 0x4f2178b3e7942e43ULL}, {720, 0}, {0, 112}},
    {SmtChannelKind::Mshr, SchemeKind::Unsafe, 0, 8, 168, 562, 18907, 0, 1045, {0, 3}, {9, 9}, {0x0f317c35c1ca07b0ULL, 0x92407a5312abea6fULL}, {0, 0}, {2866, 580}},
    {SmtChannelKind::Mshr, SchemeKind::Unsafe, 1, 8, 168, 562, 18907, 0, 1045, {0, 3}, {9, 9}, {0x0f317c35c1ca07b0ULL, 0x92407a5312abea6fULL}, {0, 0}, {2866, 580}},
    {SmtChannelKind::Mshr, SchemeKind::Unsafe, 2, 8, 168, 562, 18884, 0, 1045, {0, 3}, {9, 9}, {0x0f317c35c1ca07b0ULL, 0x92407a5312abea6fULL}, {0, 0}, {2866, 580}},
    {SmtChannelKind::Mshr, SchemeKind::DomNonTso, 0, 8, 112, 112, 18824, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::DomNonTso, 1, 8, 112, 112, 18824, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::DomNonTso, 2, 8, 112, 112, 18835, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::AdvancedDefense, 0, 8, 112, 112, 18824, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::AdvancedDefense, 1, 8, 112, 112, 18824, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::AdvancedDefense, 2, 8, 112, 112, 18835, 3, 1045, {0, 1}, {0, 3}, {0x09b7928892490014ULL, 0x40dad681d46767dbULL}, {0, 0}, {3049, 112}},
    {SmtChannelKind::Mshr, SchemeKind::FenceSpectre, 0, 8, 112, 112, 18820, 3, 1045, {0, 1}, {0, 3}, {0x08baf1b507d99719ULL, 0x40dad681d46767dbULL}, {0, 0}, {2968, 112}},
    {SmtChannelKind::Mshr, SchemeKind::FenceSpectre, 1, 8, 112, 112, 18820, 3, 1045, {0, 1}, {0, 3}, {0x08baf1b507d99719ULL, 0x40dad681d46767dbULL}, {0, 0}, {2968, 112}},
    {SmtChannelKind::Mshr, SchemeKind::FenceSpectre, 2, 8, 112, 112, 18784, 3, 1045, {0, 1}, {0, 3}, {0x08baf1b507d99719ULL, 0x40dad681d46767dbULL}, {0, 0}, {2968, 112}},
    // Issue width 1: the victim's issues fill the width ahead of the
    // probe's waiting VSQRTPD ops on some cycles.
    {SmtChannelKind::Port, SchemeKind::Unsafe, 0, 1, 0, 30, 21913, 0, 1045, {67, 28}, {0, 0}, {0x9e8388247a7d936aULL, 0xed45e6410d733fabULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::DomNonTso, 0, 1, 0, 30, 21913, 0, 1045, {67, 28}, {0, 0}, {0x9e8388247a7d936aULL, 0xed45e6410d733fabULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::AdvancedDefense, 0, 1, 0, 30, 21913, 0, 1045, {67, 28}, {0, 0}, {0x9e8388247a7d936aULL, 0xed45e6410d733fabULL}, {720, 30}, {0, 112}},
    {SmtChannelKind::Port, SchemeKind::FenceSpectre, 0, 1, 0, 0, 21800, 3, 1045, {0, 0}, {0, 0}, {0x7dc21ec0c5c742a3ULL, 0x4f2178b3e7942e43ULL}, {720, 0}, {0, 112}},
};

class SmtContentionGoldenTest : public ::testing::TestWithParam<SmtGolden>
{};

TEST_P(SmtContentionGoldenTest, ContentionStreamMatchesGolden)
{
    const SmtGolden &want = GetParam();
    const SmtGolden got = measureSmtGolden(want.kind, want.scheme,
                                           want.policy, want.issueWidth);
    const std::string what = smtChannelKindName(want.kind) + " " +
                             schemeName(want.scheme) + " " +
                             kSmtPolicies[want.policy].name + " width " +
                             std::to_string(want.issueWidth);
    EXPECT_EQ(got.score0, want.score0) << what;
    EXPECT_EQ(got.score1, want.score1) << what;
    EXPECT_EQ(got.totalCycles, want.totalCycles) << what;
    EXPECT_EQ(got.bitErrors, want.bitErrors) << what;
    EXPECT_EQ(got.trialCycles, want.trialCycles) << what;
    for (unsigned t = 0; t < 2; ++t) {
        const std::string at = what + " thread " + std::to_string(t);
        EXPECT_EQ(got.portContended[t], want.portContended[t]) << at;
        EXPECT_EQ(got.mshrContended[t], want.mshrContended[t]) << at;
        EXPECT_EQ(got.sampleHash[t], want.sampleHash[t])
            << at << " contention sample stream diverged";
        EXPECT_EQ(got.port0HeldByOther[t], want.port0HeldByOther[t]) << at;
        EXPECT_EQ(got.mshrHeldByOther[t], want.mshrHeldByOther[t]) << at;
    }

    // The probe's own configuration: no sample stream, so the trial is
    // skip-eligible, and fastForwardTo() must add each skipped span's
    // held-by-sibling cycles in closed form.
    CoreConfig core;
    core.issueWidth = want.issueWidth;
    core.fastForward = true;
    const SmtConfig smt = smtGoldenConfig(kSmtPolicies[want.policy]);
    ASSERT_FALSE(smt.recordContention);
    const SmtTrialDigest ff =
        runSmtGoldenTrial(want.kind, want.scheme, core, smt);
    EXPECT_EQ(ff.cycles, want.trialCycles) << what << " fast-forward";
    for (unsigned t = 0; t < 2; ++t) {
        const std::string at =
            what + " fast-forward thread " + std::to_string(t);
        EXPECT_EQ(ff.portContended[t], want.portContended[t]) << at;
        EXPECT_EQ(ff.mshrContended[t], want.mshrContended[t]) << at;
        EXPECT_EQ(ff.port0HeldByOther[t], want.port0HeldByOther[t]) << at;
        EXPECT_EQ(ff.mshrHeldByOther[t], want.mshrHeldByOther[t]) << at;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsSchemesPolicies, SmtContentionGoldenTest,
    ::testing::ValuesIn(kSmtGoldens), [](const auto &info) {
        return std::string(info.param.kind == SmtChannelKind::Port
                               ? "port"
                               : "mshr") +
               "_" + std::to_string(static_cast<int>(info.param.scheme)) +
               "_p" + std::to_string(info.param.policy) + "_w" +
               std::to_string(info.param.issueWidth);
    });

} // namespace
} // namespace specint
