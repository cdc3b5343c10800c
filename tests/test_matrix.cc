/**
 * @file
 * Table 1 regeneration test: for every (gadget, ordering, scheme)
 * cell, the measured verdict must match the paper's Table 1 — except
 * for the three documented deviation cells, whose (stronger) measured
 * verdict is asserted explicitly so regressions are caught either way.
 */

#include <gtest/gtest.h>

#include "attack/matrix.hh"

namespace specint
{
namespace
{

struct CellParam
{
    GadgetKind g;
    OrderingKind o;
    SchemeKind s;
};

std::vector<CellParam>
allCells()
{
    std::vector<CellParam> out;
    for (const auto &[g, o] : tableOneCombos())
        for (SchemeKind s : allSchemes())
            out.push_back({g, o, s});
    return out;
}

class TableOne : public ::testing::TestWithParam<CellParam>
{};

TEST_P(TableOne, MeasuredMatchesPaper)
{
    const auto [g, o, s] = GetParam();
    const MatrixCell cell = evaluateCell(g, o, s);
    if (knownDeviation(g, o, s)) {
        // Documented deviations: the simulator finds a real leak the
        // paper's Table 1 marks safe (see docs/defenses.md).
        EXPECT_TRUE(cell.vulnerable);
        EXPECT_FALSE(expectedVulnerable(g, o, s));
    } else {
        EXPECT_EQ(cell.vulnerable, expectedVulnerable(g, o, s))
            << gadgetName(g) << " / " << orderingName(o) << " / "
            << schemeName(s) << " sig0=" << cell.signal0
            << " sig1=" << cell.signal1;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, TableOne, ::testing::ValuesIn(allCells()),
    [](const auto &info) {
        std::string n = gadgetName(info.param.g) + "_" +
                        orderingName(info.param.o) + "_" +
                        schemeName(info.param.s);
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(TableOneShape, DefensesAreNeverVulnerable)
{
    for (const auto &[g, o] : tableOneCombos()) {
        for (SchemeKind s :
             {SchemeKind::FenceSpectre, SchemeKind::FenceFuturistic,
              SchemeKind::AdvancedDefense}) {
            EXPECT_FALSE(evaluateCell(g, o, s).vulnerable)
                << gadgetName(g) << "/" << orderingName(o) << "/"
                << schemeName(s);
        }
    }
}

TEST(TableOneShape, EveryAttackedSchemeFallsToSomething)
{
    // Paper §3.3.1: "Every invisible speculation design we have
    // evaluated is vulnerable to at least one of the attacks."
    for (SchemeKind s : attackedSchemes()) {
        bool any = false;
        for (const auto &[g, o] : tableOneCombos())
            any = any || evaluateCell(g, o, s).vulnerable;
        EXPECT_TRUE(any) << schemeName(s);
    }
}

} // namespace
} // namespace specint
