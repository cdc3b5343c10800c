/**
 * @file
 * Speculation-scheme semantics tests: each defense's load policy,
 * exposure behaviour, I-fetch protection, and the factory plumbing.
 * The headline property — classic Spectre v1 is blocked by every
 * invisible-speculation scheme — is checked for all schemes with a
 * parameterised suite.
 */

#include <cctype>

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "spec/advanced.hh"
#include "spec/muontrap.hh"

namespace specint
{
namespace
{

/** Spectre v1 victim with a slow-resolving bounds check. */
struct SpectreV1
{
    Program prog;
    unsigned branchPc = 0;
    Addr transmitBase = 0x700000;

    SpectreV1()
    {
        prog.movi(1, 5);               // i = 5 (out of bounds)
        prog.load(2, kNoReg, 0x6000);  // N via cold pointer chase
        prog.load(2, 2, 0);
        branchPc = prog.branch(BranchCond::LT, 1, 2, 0);
        prog.halt();                   // correct path
        const unsigned wrong =
            prog.load(3, kNoReg, 0x5000, 1, "secret");
        prog.load(4, 3, static_cast<std::int64_t>(transmitBase), 64,
                  "transmit");
        prog.halt();
        prog.setBranchTarget(branchPc, wrong);
    }

    void setup(Hierarchy &hier, MainMemory &mem, Core &core) const
    {
        mem.write(0x5000, 1); // secret bit = 1
        mem.write(0x6000, 0x6100);
        mem.write(0x6100, 2);
        hier.flushLine(0x6000);
        hier.flushLine(0x6100);
        hier.flushLine(transmitBase);
        hier.flushLine(transmitBase + 64);
        hier.access(core.id(), 0x5000, AccessType::Data, 0);
        core.predictor().train(branchPc, true, 4);
    }

    bool leaked(const Hierarchy &hier) const
    {
        return hier.llcContains(transmitBase + 64) ||
               hier.llcContains(transmitBase);
    }
};

class SpectreBlocked : public ::testing::TestWithParam<SchemeKind>
{};

TEST_P(SpectreBlocked, TransmitLineNeverReachesLlc)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(GetParam()));

    SpectreV1 victim;
    victim.setup(hier, mem, core);
    const CoreStats s = core.run(victim.prog);
    EXPECT_TRUE(s.finished);
    EXPECT_GE(s.squashes, 1u);
    EXPECT_FALSE(victim.leaked(hier))
        << "scheme " << schemeName(GetParam())
        << " let the transient transmit load change LLC state";
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, SpectreBlocked,
    ::testing::Values(SchemeKind::DomNonTso, SchemeKind::DomTso,
                      SchemeKind::InvisiSpecSpectre,
                      SchemeKind::InvisiSpecFuturistic,
                      SchemeKind::SafeSpecWfb, SchemeKind::SafeSpecWfc,
                      SchemeKind::MuonTrap, SchemeKind::ConditionalSpec,
                      SchemeKind::FenceSpectre,
                      SchemeKind::FenceFuturistic,
                      SchemeKind::AdvancedDefense),
    [](const auto &info) {
        std::string n = schemeName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(SpectreV1Baseline, UnsafeLeaks)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::Unsafe));
    SpectreV1 victim;
    victim.setup(hier, mem, core);
    core.run(victim.prog);
    EXPECT_TRUE(hier.llcContains(victim.transmitBase + 64));
    EXPECT_FALSE(hier.llcContains(victim.transmitBase));
}

TEST(Dom, SpeculativeHitForwardsWithoutLlcTraffic)
{
    // A speculative L1 hit under DoM returns data without any visible
    // LLC access; after the squash nothing changed.
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::DomNonTso));

    mem.write(0x5000, 42);
    mem.write(0x6000, 0x6100);
    mem.write(0x6100, 2);
    Program p;
    p.movi(1, 5);
    p.load(2, kNoReg, 0x6000);
    p.load(2, 2, 0);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0);
    p.halt();
    const unsigned wrong = p.load(3, kNoReg, 0x5000, 1, "spechit");
    p.alu(4, 3, kNoReg, 0);
    p.halt();
    p.setBranchTarget(br, wrong);

    hier.access(0, 0x5000, AccessType::Data, 0); // L1-resident
    hier.flushLine(0x6000);
    hier.flushLine(0x6100);
    hier.clearLlcTrace();
    core.predictor().train(br, true, 4);
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_GE(s.squashes, 1u);
    for (const auto &acc : hier.llcTrace())
        EXPECT_NE(acc.lineAddr, lineAlign(Addr{0x5000}));
}

TEST(Dom, SpeculativeMissIsNeverServiced)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::DomNonTso));
    SpectreV1 victim;
    victim.setup(hier, mem, core);
    core.run(victim.prog);
    EXPECT_FALSE(hier.llcContains(victim.transmitBase + 64));
    EXPECT_FALSE(hier.l1d(0).contains(victim.transmitBase + 64));
}

TEST(InvisiSpec, CorrectPathSpeculativeLoadIsExposed)
{
    // A load that starts speculative but whose shadow resolves in the
    // correct direction must eventually update the cache (exposure).
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::InvisiSpecSpectre));

    mem.write(0x6000, 0x6100);
    mem.write(0x6100, 10);
    Program p;
    p.movi(1, 5);
    p.load(2, kNoReg, 0x6000);
    p.load(2, 2, 0);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0); // 5<10 taken
    p.halt();
    const unsigned tgt = p.load(3, kNoReg, 0x8000, 1, "specload");
    p.halt();
    p.setBranchTarget(br, tgt);
    core.predictor().train(br, true, 4); // predicted taken, IS taken
    hier.flushLine(0x6000);
    hier.flushLine(0x6100);
    hier.flushLine(0x8000);
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.squashes, 0u);
    EXPECT_TRUE(hier.llcContains(0x8000)); // exposed after resolve
    EXPECT_EQ(core.archReg(3), 0u);
}

TEST(MuonTrap, FilterCacheSemantics)
{
    MuonTrapScheme mt(4);
    EXPECT_FALSE(mt.filterProbe(0x100));
    mt.filterFill(0x100, 10);
    EXPECT_TRUE(mt.filterProbe(0x100));
    mt.filterFill(0x140, 11);
    mt.filterFill(0x180, 12);
    mt.filterFill(0x1c0, 13);
    mt.filterFill(0x200, 14); // FIFO capacity 4: evicts 0x100
    EXPECT_FALSE(mt.filterProbe(0x100));
    mt.filterSquashYoungerThan(12);
    EXPECT_TRUE(mt.filterProbe(0x180));
    EXPECT_FALSE(mt.filterProbe(0x200));
    mt.reset();
    EXPECT_FALSE(mt.filterProbe(0x180));
}

TEST(FenceDefense, BlocksIssueUnderShadow)
{
    IssueContext under_branch;
    under_branch.olderUnresolvedBranch = true;
    IssueContext under_load;
    under_load.olderIncompleteLoad = true;
    IssueContext clear;

    const auto spectre = makeScheme(SchemeKind::FenceSpectre);
    EXPECT_FALSE(spectre->mayIssue(under_branch));
    EXPECT_TRUE(spectre->mayIssue(under_load));
    EXPECT_TRUE(spectre->mayIssue(clear));

    const auto fut = makeScheme(SchemeKind::FenceFuturistic);
    EXPECT_FALSE(fut->mayIssue(under_branch));
    EXPECT_FALSE(fut->mayIssue(under_load));
    EXPECT_TRUE(fut->mayIssue(clear));
}

/** All 16 issue contexts, indexed by their four flags. */
IssueContext
issueContextNo(unsigned i)
{
    IssueContext ctx;
    ctx.olderUnresolvedBranch = i & 1;
    ctx.olderIncompleteLoad = i & 2;
    ctx.isLoad = i & 4;
    ctx.isBranch = i & 8;
    return ctx;
}

TEST(IssueGateContract, PureAndMonotoneForEveryScheme)
{
    // The issue stage parks a candidate the gate rejects and re-judges
    // it only after one of its shadows lifts (scheme.hh, mayIssue).
    // That is exact only if the verdict depends on the IssueContext
    // alone and adding a shadow never turns a rejection into a pass.
    for (const SchemeKind k : allSchemes()) {
        const SchemePtr fresh = makeScheme(k);
        bool verdict[16];
        for (unsigned i = 0; i < 16; ++i)
            verdict[i] = fresh->mayIssue(issueContextNo(i));

        // Pure: a second instance whose per-run state has been
        // exercised, asked in the opposite order, agrees exactly.
        const SchemePtr used = makeScheme(k);
        used->filterFill(0x100, 3);
        used->filterSquashYoungerThan(1);
        used->filterFill(0x140, 2);
        for (unsigned i = 16; i-- > 0;) {
            EXPECT_EQ(used->mayIssue(issueContextNo(i)), verdict[i])
                << schemeName(k) << " context " << i;
        }
        used->reset();
        for (unsigned i = 0; i < 16; ++i) {
            EXPECT_EQ(used->mayIssue(issueContextNo(i)), verdict[i])
                << schemeName(k) << " context " << i << " after reset";
        }

        // Monotone: with the shadow bits (1 = branch, 2 = load) as a
        // subset order, a rejected context stays rejected under every
        // superset of its shadows.
        for (unsigned i = 0; i < 16; ++i) {
            for (const unsigned shadow : {1u, 2u}) {
                if (!verdict[i]) {
                    EXPECT_FALSE(verdict[i | shadow])
                        << schemeName(k) << ": adding shadow " << shadow
                        << " to context " << i << " lifts the gate";
                }
            }
        }
    }
}

TEST(AdvancedDefense, FlagsReflectRules)
{
    AdvancedDefenseScheme all;
    EXPECT_TRUE(all.schedFlags().strictAgePriority);
    EXPECT_TRUE(all.schedFlags().holdRsUntilRetire);
    EXPECT_TRUE(all.schedFlags().preemptSpecMshr);

    AdvancedDefenseScheme none({false, false, false});
    EXPECT_FALSE(none.schedFlags().strictAgePriority);
    EXPECT_FALSE(none.schedFlags().holdRsUntilRetire);
    EXPECT_FALSE(none.schedFlags().preemptSpecMshr);
}

TEST(SchemeFactory, NamesAndProperties)
{
    for (SchemeKind k : allSchemes()) {
        const SchemePtr s = makeScheme(k);
        EXPECT_FALSE(s->name().empty());
    }
    EXPECT_TRUE(makeScheme(SchemeKind::SafeSpecWfb)->protectsIFetch());
    EXPECT_TRUE(makeScheme(SchemeKind::MuonTrap)->protectsIFetch());
    EXPECT_FALSE(
        makeScheme(SchemeKind::InvisiSpecSpectre)->protectsIFetch());
    EXPECT_FALSE(makeScheme(SchemeKind::DomNonTso)->protectsIFetch());
    EXPECT_EQ(attackedSchemes().size(), 8u);
    EXPECT_EQ(allSchemes().size(), 12u);
}

} // namespace
} // namespace specint
